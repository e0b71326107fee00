import itertools
import json
import random

import pytest

from colcirc import (
    assign_input,
    catalog_names,
    circuit,
    circuit_to_json,
    circuit_union,
    eliminate_duplicate_vertices,
    evaluate_circuit,
    fuse_subcircuit,
    induced_subcircuit,
    instantiate,
    lift_operator,
    make_column,
    replace_subcircuit,
    validate_circuit,
)
from colcirc.builder import CircuitBuilder
from colcirc.circuit import IN, OUT, PortRef, dump_circuit, load_circuit
from colcirc.cli import main
from colcirc.errors import ColcircError, EvaluationError, InvalidCircuitError, OperatorError
from colcirc.gallery import double_plus_three
from colcirc.transform import cut_label, drop_output, rename_labels
from colcirc.types import INT, U32, U64

from circuit_gen import convex_closure, random_circuit, random_inputs

_INT = str(INT)
_fresh = itertools.count()


def fresh_name(tag):
    return f"test:{tag}:{next(_fresh)}"


def lifted_noop(t="u32"):
    return lift_operator(instantiate("no_op", {"type": t}))


class TestUnion:
    def test_two_noops(self):
        u = circuit_union(lifted_noop(), lifted_noop())
        assert len(u.vertices) == 2
        assert len(u.signature.inputs) == 2 and len(u.signature.outputs) == 2
        assert validate_circuit(u).ok

    def test_union_with_empty(self):
        c = double_plus_three()
        verts_before = set(c.vertices)
        from colcirc import circuit

        empty = circuit({}, set(), {})
        u = circuit_union(c, empty)
        assert set(u.vertices) == verts_before
        col = make_column(U32, [2, 3])
        assert evaluate_circuit(u, {"col": col}) == evaluate_circuit(c, {"col": col})

    def test_union_evaluates_both_sides(self):
        rng = random.Random(3)
        for _ in range(10):
            c1 = random_circuit(rng, n_inputs=1, n_steps=4)
            c2 = random_circuit(rng, n_inputs=1, n_steps=4)
            u = circuit_union(c1, c2)
            assert validate_circuit(u).ok
            x1 = random_inputs(rng, c1)
            x2 = random_inputs(rng, c2)
            try:
                r1 = evaluate_circuit(c1, x1)
                r2 = evaluate_circuit(c2, x2)
            except EvaluationError:
                continue
            # colliding labels were tagged 1:/2:
            merged = {}
            for label, col in x1.items():
                merged[f"1:{label}" if f"1:{label}" in u.signature.inputs else label] = col
            for label, col in x2.items():
                merged[f"2:{label}" if f"2:{label}" in u.signature.inputs else label] = col
            out = evaluate_circuit(u, merged)
            for label, col in r1.items():
                assert out.get(f"1:{label}", out.get(label)) == col
            for label, col in r2.items():
                assert out.get(f"2:{label}", out.get(label)) == col

    def test_left_ids_stay_and_right_ids_take_the_first_free_tag(self):
        left, right = double_plus_three(), rename_labels(double_plus_three(), {"col": "x", "result": "y"})
        u = circuit_union(left, right)
        assert {vid: u.vertices[vid] for vid in left.vertices} == left.vertices
        assert set(u.vertices) == set(left.vertices) | {f"2:{vid}" for vid in right.vertices}
        assert u.interface["col"] == left.interface["col"]
        assert u.interface["x"] == PortRef("2:relay", "arguments", IN)
        again = circuit_union(u, right)  # ``2:`` is taken now
        assert set(again.vertices) == set(u.vertices) | {f"3:{vid}" for vid in right.vertices}
        fresh = circuit_union(left, lift_operator(instantiate("no_op", {"type": "u32"}), "fresh"))
        assert set(fresh.vertices) == set(left.vertices) | {"fresh"}  # no clash, no tag

    def test_chained_unions_stay_disjoint(self):
        def copy(i):
            return rename_labels(double_plus_three(), {"col": f"x{i}", "result": f"y{i}"})

        left, right = circuit_union(copy(0), copy(1)), circuit_union(copy(2), copy(3))
        assert "2:relay" in left.vertices and "2:relay" in right.vertices
        for u, tag, n in [(circuit_union(copy(4), right), "2:", 3), (circuit_union(left, right), "3:", 4)]:
            assert {f"{tag}relay", f"{tag}2:relay"} <= set(u.vertices)
            assert len(u.vertices) == 8 * n and validate_circuit(u).ok
            inputs = {label: make_column(U32, [int(label[1:])]) for label in u.signature.inputs}
            out = evaluate_circuit(u, inputs)
            assert {label: col.values for label, col in out.items()} == {
                f"y{label[1:]}": (2 * col.values[0] + 3,) for label, col in inputs.items()
            }

    def test_label_clashes_are_tagged_1_and_2(self):
        u = circuit_union(double_plus_three(), double_plus_three())
        assert set(u.signature.inputs) == {"1:col", "2:col"}
        assert set(u.signature.outputs) == {"1:result", "2:result"}
        assert u.interface["1:col"] == PortRef("relay", "arguments", IN)
        assert u.interface["2:col"] == PortRef("2:relay", "arguments", IN)
        out = evaluate_circuit(u, {"1:col": make_column(U32, [1]), "2:col": make_column(U32, [5])})
        assert (out["1:result"].values, out["2:result"].values) == ((5,), (13,))

    def test_cli_union_keeps_the_first_circuits_ids(self, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        first.write_text(dump_circuit(double_plus_three()))
        second.write_text(dump_circuit(lift_operator(instantiate("no_op", {"type": "u32"}), "relay")))
        out = tmp_path / "u.json"
        assert main(["transform", str(first), "--op", "union", "--other", str(second), "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        ids = {v["id"] for v in doc["vertices"]}
        assert ids == set(double_plus_three().vertices) | {"2:relay"}
        assert doc["interface"]["1:col"] == "relay.arguments"
        assert doc["interface"]["2:arguments"] == "2:relay.arguments"


class TestAssign:
    def test_iota_into_gather(self):
        b1 = CircuitBuilder()
        b1.output("positions", b1.iota(b1.input("n")))
        iota_c = b1.build()
        gather_c = lift_operator(instantiate("gather", {"type": _INT}))
        u = circuit_union(iota_c, gather_c)
        before = len(u.signature.inputs)
        c = assign_input(u, "pos", u.interface["positions"])
        assert len(c.signature.inputs) == before - 1
        assert validate_circuit(c).ok
        out = evaluate_circuit(
            c, {"n": make_column(INT, [3]), "data": make_column(U64, [7, 8, 9])}
        )
        assert out["result"].values == (7, 8, 9)

    def test_cycle_rejected(self):
        c = lifted_noop()
        # engaging the relay's own input with its output closes a loop
        with pytest.raises(OperatorError, match="cycle"):
            assign_input(c, "arguments", next(iter(c.out_ports())))

    def test_type_mismatch(self):
        u = circuit_union(lifted_noop("u8"), lifted_noop("u16"))
        out8 = [p for p in u.out_ports() if u.port_type(p).width_bits == 8][0]
        bad_label = [l for l, t in u.signature.inputs.items() if t.width_bits == 16][0]
        with pytest.raises(OperatorError, match="type-mismatch"):
            assign_input(u, bad_label, out8)

    def test_composition_is_function_composition(self):
        inner = double_plus_three()
        b = CircuitBuilder()
        b.output("final", b.ew("add", {"type": "u32"}, lhs=b.input("u"), rhs=b.input("v")))
        outer = b.build()
        u = circuit_union(inner, outer)
        c = assign_input(u, "u", u.interface["result"])
        col = make_column(U32, [1, 4])
        other = make_column(U32, [10, 10])
        nested = evaluate_circuit(
            outer, {"u": evaluate_circuit(inner, {"col": col})["result"], "v": other}
        )
        flat = evaluate_circuit(c, {"col": col, "v": other})
        assert flat["final"] == nested["final"]


class TestDerivedSignatures:
    """Union, assignment, renaming and dropping derive the result's signature
    from their operands'; it must be the one ``circuit()`` derives from the
    result's interface, in the same label order."""

    def test_against_a_rebuilt_circuit(self):
        rng = random.Random(11)
        for _ in range(25):
            u = circuit_union(random_circuit(rng, n_inputs=2, n_steps=5), random_circuit(rng, n_inputs=1, n_steps=5))
            results = [u, rename_labels(u, {label: f"r:{label}" for label in list(u.interface)[::2]})]
            results += [drop_output(u, label) for label in u.signature.outputs]
            for label, t in u.signature.inputs.items():
                for src in u.out_ports():
                    if u.port_type(src) != t:
                        continue
                    interface = {k: v for k, v in u.interface.items() if k != label}
                    rebuilt = circuit(u.vertices, u.edges | {(src, u.interface[label])}, interface)
                    if validate_circuit(rebuilt).ok:
                        results.append(assign_input(u, label, src))
                    else:
                        with pytest.raises(OperatorError, match="would-create-cycle"):
                            assign_input(u, label, src)
            for r in results:
                twin = circuit(r.vertices, r.edges, r.interface)
                assert r == twin and validate_circuit(r).ok
                assert list(r.signature.inputs) == list(twin.signature.inputs)
                assert list(r.signature.outputs) == list(twin.signature.outputs)


class TestInducedSubcircuit:
    def test_full_set_is_isomorphic_copy(self):
        c = double_plus_three()
        sub = induced_subcircuit(c, set(c.vertices))
        assert set(sub.vertices) == set(c.vertices)
        assert sub.edges == c.edges
        assert sub.interface == c.interface

    def test_single_vertex_is_lifting(self):
        c = double_plus_three()
        sub = induced_subcircuit(c, {"mul"})
        assert set(sub.vertices) == {"mul"}
        assert validate_circuit(sub).ok
        # same behavior as the lifted operator, up to port renaming
        out = evaluate_circuit(
            sub,
            {
                cut_label(PortRef("mul", "lhs", IN)): make_column(U32, [2, 3]),
                cut_label(PortRef("mul", "rhs", IN)): make_column(U32, [5, 5]),
            },
        )
        assert list(out.values())[0].values == (10, 15)

    def test_paper_figure_exposes_two_input_wires(self):
        # taking {Length, Replicate, Elementwise-mul} from the 2x+3 circuit
        c = double_plus_three()
        region = {"len", "rep_two", "mul"}
        sub = induced_subcircuit(c, region)
        assert validate_circuit(sub).ok
        # two severed wires feed the region: the column relay and the scalar 2
        severed_sources = {
            src for src, dst in c.edges if dst.vertex_id in region and src.vertex_id not in region
        }
        assert len(severed_sources) == 2
        # the relay wire fans out to two cut ports, so three port labels appear
        new_inputs = [l for l in sub.signature.inputs if l.startswith("cut:")]
        assert len(new_inputs) == 3
        # severed outputs: the product (to the adder) and the length (to the
        # second replicate)
        assert len(sub.signature.outputs) == 2


class TestReplace:
    def test_replace_with_own_copy(self):
        c = double_plus_three()
        region = {"rep_two", "mul"}
        sub = induced_subcircuit(c, region)
        rho = {
            port: port
            for label, port in sub.interface.items()
            if label.startswith("cut:") or port.vertex_id in region
        }
        result = replace_subcircuit(c, region, sub, rho)
        col = make_column(U32, [4, 7])
        assert evaluate_circuit(result, {"col": col}) == evaluate_circuit(c, {"col": col})

    def test_replace_multiply_by_gadget(self):
        # swap Elementwise-mul for a {Replicate(1) + mul + noop} gadget
        c = double_plus_three()
        b = CircuitBuilder()
        lhs = b.noop(b.input("a"), "u32")
        rhs = b.noop(b.input("b"), "u32")
        b.output("prod", b.ew("mul", {"type": "u32"}, lhs=lhs, rhs=rhs))
        gadget = b.build()
        rho = {
            gadget.interface["a"]: PortRef("mul", "lhs", IN),
            gadget.interface["b"]: PortRef("mul", "rhs", IN),
            gadget.interface["prod"]: PortRef("mul", "result", OUT),
        }
        result = replace_subcircuit(c, {"mul"}, gadget, rho)
        assert validate_circuit(result).ok
        col = make_column(U32, [1, 9])
        assert evaluate_circuit(result, {"col": col}) == evaluate_circuit(c, {"col": col})

    def test_incomplete_bijection(self):
        c = double_plus_three()
        gadget = lifted_noop("u32")
        with pytest.raises(OperatorError, match="bijection"):
            replace_subcircuit(c, {"mul"}, gadget, {})

    def test_derivative_prefix_gadget_replaced_by_noop(self):
        # gadget computing col[1:] restored from diffs: prefix(derivative)+head
        b = CircuitBuilder()
        col = b.noop(b.input("col"), _INT)
        head = b.add("split_first", {"type": _INT}, col=col)["head"]
        head_w = b.cast(_INT, "i64", head)
        diffs = b.add("derivative", {"type": _INT, "out_type": "i64"}, col=col)
        sums = b.prefix("i64", "add", diffs)
        rep = b.replicate("i64", head_w, b.length(sums, "i64"))
        tail = b.add_cols("i64", rep, sums)
        b.output("rebuilt", b.cast("i64", _INT, b.concat("i64", head_w, tail)))
        ident = b.build()

        rng = random.Random(5)
        for _ in range(20):
            vals = [rng.randrange(0, 100) for _ in range(rng.randrange(1, 12))]
            out = evaluate_circuit(ident, {"col": make_column(INT, vals)})
            assert out["rebuilt"].values == tuple(vals)

        # the whole gadget is function-equivalent to a NoOp
        relay = lifted_noop(_INT)
        rho = {
            relay.interface["arguments"]: ident.interface["col"],
            relay.interface["result"]: ident.interface["rebuilt"],
        }
        replaced = replace_subcircuit(ident, set(ident.vertices), relay, rho)
        for _ in range(20):
            vals = [rng.randrange(0, 100) for _ in range(rng.randrange(1, 12))]
            col2 = make_column(INT, vals)
            assert evaluate_circuit(replaced, {"col": col2})["rebuilt"] == col2


def _with_vertex_renamed(c, old, new):
    def moved(p):
        return PortRef(new, p.port_label, p.direction) if p.vertex_id == old else p

    vertices = {new if vid == old else vid: op for vid, op in c.vertices.items()}
    edges = {(moved(s), moved(t)) for s, t in c.edges}
    return circuit(vertices, edges, {label: moved(p) for label, p in c.interface.items()})


class TestReplaceIdClash:
    def test_first_free_tag(self):
        # the survivors hold both ``len`` and ``r:len``, so the replacement's ``len`` becomes ``r2:len``
        c = _with_vertex_renamed(double_plus_three(), "add", "r:len")
        lifted = lift_operator(c.vertices["mul"], vertex_id="len")
        rho = {lifted.interface[label]: PortRef("mul", label, port.direction) for label, port in lifted.interface.items()}
        out = replace_subcircuit(c, {"mul"}, lifted, rho)
        assert out.vertices["r:len"] == c.vertices["r:len"]
        assert out.vertices["r2:len"] == c.vertices["mul"]
        col = make_column(U32, [6, 1])
        assert evaluate_circuit(out, {"col": col}) == evaluate_circuit(double_plus_three(), {"col": col})

    def test_first_tag_stays_r(self):
        c = double_plus_three()
        lifted = lift_operator(c.vertices["mul"], vertex_id="len")
        rho = {lifted.interface[label]: PortRef("mul", label, port.direction) for label, port in lifted.interface.items()}
        assert "r:len" in replace_subcircuit(c, {"mul"}, lifted, rho).vertices


class TestLift:
    def test_lift_iota(self):
        c = lift_operator(instantiate("iota", {"type": _INT}))
        out = evaluate_circuit(c, {"n": make_column(INT, [4])})
        assert out["result"].values == (0, 1, 2, 3)

    def test_lift_then_induce_all(self):
        c = lift_operator(instantiate("iota", {"type": _INT}))
        sub = induced_subcircuit(c, set(c.vertices))
        assert sub.interface == c.interface and sub.vertices == c.vertices

    def test_every_catalog_op_lifts_valid(self):
        samples = [
            ("no_op", {"type": "u8"}),
            ("scalar", {"type": "u8", "value": 3}),
            ("elementwise", {"fn": "add", "type": "u32"}),
            ("replicate", {"type": "u8"}),
            ("select", {"type": "u8"}),
            ("iota", {}),
            ("permute", {"type": "u8"}),
            ("length", {"type": "u8"}),
            ("concatenate", {"type": "u8", "k": 3}),
            ("scatter", {"type": "u8"}),
            ("gather", {"type": "u8"}),
            ("select_indices", {}),
            ("transpose", {"type": "u8"}),
            ("replicate_segments", {"type": "u8"}),
            ("replicate_within_segments", {"type": "u8"}),
            ("zip", {"types": ["u8", "u16"]}),
            ("compose_segments", {"type": "u8", "k": 2}),
            ("assemble", {"type": "u8", "k": 2}),
            ("derivative", {"type": "u8"}),
            ("prefix_aggregate", {"type": "u8", "op": "add"}),
            ("is_same_as_previous", {"type": "u8"}),
            ("split_first", {"type": "u8"}),
            ("carve", {"w": 8, "p": 3}),
        ]
        for name, params in samples:
            assert validate_circuit(lift_operator(instantiate(name, params))).ok, name


class TestFuse:
    def test_fuse_whole_circuit(self):
        c = double_plus_three()
        fused = fuse_subcircuit(c, set(c.vertices), fresh_name("whole"))
        assert len(fused.vertices) == 1
        col = make_column(U32, [3, 8])
        assert evaluate_circuit(fused, {"col": col}) == evaluate_circuit(c, {"col": col})

    def test_fuse_single_vertex(self):
        c = double_plus_three()
        fused = fuse_subcircuit(c, {"mul"}, fresh_name("one"))
        col = make_column(U32, [2, 6])
        assert evaluate_circuit(fused, {"col": col}) == evaluate_circuit(c, {"col": col})

    def test_name_collision(self):
        # a name only names the vertex, so reusing one is no error
        c = double_plus_three()
        first = fuse_subcircuit(c, {"mul"}, "clash")
        again = fuse_subcircuit(c, {"mul"}, "clash")
        assert circuit_to_json(first) == circuit_to_json(again)
        twice = fuse_subcircuit(first, {"add"}, "clash")
        assert {"clash", "r:clash"} <= set(twice.vertices)
        col = make_column(U32, [5, 0])
        assert evaluate_circuit(twice, {"col": col}) == evaluate_circuit(c, {"col": col})

    def test_default_name_fusions_of_one_circuit(self):
        c = double_plus_three()
        fused = c
        for region in ({"mul"}, {"add"}, {"len"}):
            fused = fuse_subcircuit(fused, region)
        assert {"fused", "r:fused", "r2:fused"} <= set(fused.vertices)
        assert all(fused.vertices[v].op_name == "fused" for v in ("fused", "r:fused", "r2:fused"))
        col = make_column(U32, [1, 7, 2])
        assert evaluate_circuit(fused, {"col": col}) == evaluate_circuit(c, {"col": col})

    def test_fusing_registers_nothing(self):
        before = catalog_names()
        c = double_plus_three()
        for region in ({"mul", "add"}, {"len"}, {"rep_two"}):
            c = fuse_subcircuit(c, region)
        fuse_subcircuit(c, set(c.vertices), "named")
        assert catalog_names() == before

    def test_fused_vertex_carries_its_subcircuit(self):
        c = double_plus_three()
        fused = fuse_subcircuit(c, {"mul", "add"})
        op = fused.vertices["fused"]
        assert op == instantiate("fused", {"circuit": circuit_to_json(induced_subcircuit(c, {"mul", "add"}))})
        assert op.signature == op.inner.signature

    def test_nested_fusion_round_trips(self):
        c = double_plus_three()
        inner = fuse_subcircuit(c, {"rep_two", "mul"}, "inner")
        outer = fuse_subcircuit(inner, {"inner", "add", "rep_three"}, "outer")
        nested = outer.vertices["outer"].inner.vertices["inner"]
        assert nested.op_name == "fused"
        loaded = load_circuit(dump_circuit(outer))
        assert circuit_to_json(loaded) == circuit_to_json(outer)
        col = make_column(U32, [3, 0, 9])
        assert evaluate_circuit(loaded, {"col": col}) == evaluate_circuit(c, {"col": col})

    def test_bad_fused_params(self):
        with pytest.raises(OperatorError, match="bad-params"):
            instantiate("fused", {})
        with pytest.raises(ColcircError, match="circuit JSON"):
            instantiate("fused", {"circuit": {"vertices": ["a"]}})
        invalid = circuit_to_json(double_plus_three())
        invalid["edges"].append({"from": "add.result", "to": "relay.arguments"})
        with pytest.raises(InvalidCircuitError):
            instantiate("fused", {"circuit": invalid})

    def test_random_fusions_preserve_function(self):
        rng = random.Random(11)
        done = 0
        while done < 15:
            c = random_circuit(rng, n_inputs=2, n_steps=6)
            inputs = random_inputs(rng, c)
            try:
                ref = evaluate_circuit(c, inputs)
            except EvaluationError:
                continue
            k = rng.randrange(1, len(c.vertices) + 1)
            subset = convex_closure(c, set(rng.sample(sorted(c.vertices), k)))
            fused = fuse_subcircuit(c, subset, fresh_name("rand"))
            assert validate_circuit(fused).ok
            assert evaluate_circuit(fused, inputs) == ref
            done += 1


class TestDedup:
    def test_merge_identical_iotas(self):
        b = CircuitBuilder()
        n = b.noop(b.input("n"), _INT)
        i1 = b.iota(n)
        i2 = b.iota(n)
        b.output("a", i1)
        b.output("b", i2)
        c = b.build()
        iotas_before = sum(1 for op in c.vertices.values() if op.op_name == "iota")
        out = eliminate_duplicate_vertices(c)
        iotas_after = sum(1 for op in out.vertices.values() if op.op_name == "iota")
        assert iotas_before == 2 and iotas_after == 1
        nc = make_column(INT, [4])
        assert evaluate_circuit(out, {"n": nc}) == evaluate_circuit(c, {"n": nc})

    def test_no_duplicates_unchanged(self):
        c = double_plus_three()
        out = eliminate_duplicate_vertices(c)
        assert set(out.vertices) == set(c.vertices)

    def test_never_merges_distinct_input_relays(self):
        from colcirc import circuit

        verts = {
            "a": instantiate("no_op", {"type": "u8"}),
            "b": instantiate("no_op", {"type": "u8"}),
        }
        iface = {
            "x": PortRef("a", "arguments", IN),
            "y": PortRef("b", "arguments", IN),
            "ox": PortRef("a", "result", OUT),
            "oy": PortRef("b", "result", OUT),
        }
        c = circuit(verts, set(), iface)
        assert set(eliminate_duplicate_vertices(c).vertices) == {"a", "b"}

    def test_shared_decoder_tails_shrink(self):
        # two dictionary decode pipelines over the same inputs share work
        b = CircuitBuilder()
        dictionary = b.noop(b.input("dictionary"), "u16")
        indices = b.noop(b.input("indices"), _INT)
        g1 = b.gather("u16", indices, dictionary)
        g2 = b.gather("u16", indices, dictionary)
        b.output("x", g1)
        b.output("y", g2)
        c = b.build()
        out = eliminate_duplicate_vertices(c)
        assert len(out.vertices) < len(c.vertices)
        fam = {
            "dictionary": make_column(parse_type_u16(), [7, 9]),
            "indices": make_column(INT, [1, 0, 1]),
        }
        assert evaluate_circuit(out, fam) == evaluate_circuit(c, fam)

    def test_random_dedup_preserves_function(self):
        rng = random.Random(13)
        done = 0
        while done < 15:
            c = random_circuit(rng, n_inputs=2, n_steps=8)
            inputs = random_inputs(rng, c)
            try:
                ref = evaluate_circuit(c, inputs)
            except EvaluationError:
                continue
            out = eliminate_duplicate_vertices(c)
            assert validate_circuit(out).ok
            assert evaluate_circuit(out, inputs) == ref
            done += 1

    def test_idempotent(self):
        rng = random.Random(17)
        c = random_circuit(rng, n_inputs=2, n_steps=8)
        once = eliminate_duplicate_vertices(c)
        twice = eliminate_duplicate_vertices(once)
        assert set(once.vertices) == set(twice.vertices)
        assert once.edges == twice.edges


def parse_type_u16():
    from colcirc.types import U16

    return U16
