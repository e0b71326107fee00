"""One structural walk for validation and for plan compilation, and a proof of
validity that the circuit algebra carries.

``validate_circuit`` is checked against the per-port validation it replaced,
kept here as an oracle; the walks are counted (none to build, splice or
validate a proven plan, one to compile it however often it is evaluated, and
for an unproven copy one full walk to validate it and one proven walk to
compile it), and validation is checked to leave a circuit's value, JSON and
repr alone; and every circuit the algebra marks proven is checked to pass the
full check.
"""

import importlib
import os
import random
from collections import Counter

import pytest

from colcirc import (
    ColumnarCircuit,
    circuit,
    codec,
    evaluate_circuit,
    in_port,
    instantiate,
    make_column,
    out_port,
    validate_circuit,
)
from colcirc.circuit import IN, OUT, PortRef, Violation, dump_circuit, load_circuit
from colcirc.cli import main
from colcirc.column import read_col_file, write_col_file
from colcirc.errors import ColcircError, EvaluationError, OperatorError, TypeDomainError
from colcirc.gallery import q6_circuit, q6_reference
from colcirc.transform import assign_input, circuit_union, drop_output, rename_labels
from colcirc.types import BIT, U32, Kind

from circuit_gen import random_circuit
from paths import encoded, in_threads, lineitem, splice_q6
from scheme_cases import CASES

# the package re-exports the ``circuit`` function over its submodule
circuit_mod = importlib.import_module("colcirc.circuit")


def oracle_violations(c):
    """The port-by-port validation ``validate_circuit`` replaced, as (kind, detail) pairs."""
    violations = []
    known_in = set(c.in_ports())
    known_out = set(c.out_ports())
    fed = {}
    for src, dst in c.edges:
        if src.direction != OUT or src not in known_out:
            violations.append(Violation("bad-edge-source", f"{src} is not a vertex out-port"))
            continue
        if dst.direction != IN or dst not in known_in:
            violations.append(Violation("bad-edge-target", f"{dst} is not a vertex in-port"))
            continue
        fed.setdefault(dst, []).append(src)
        t_src, t_dst = c.port_type(src), c.port_type(dst)
        if t_src != t_dst:
            violations.append(Violation("type-mismatch", f"edge {src} ({t_src}) -> {dst} ({t_dst})"))
    for dst, srcs in fed.items():
        if len(srcs) > 1:
            violations.append(Violation("multi-fed-port", f"{dst} is the target of {len(srcs)} edges"))

    deps = {vid: set() for vid in c.vertices}
    for src, dst in c.edges:
        if src.vertex_id in deps and dst.vertex_id in deps:
            deps[dst.vertex_id].add(src.vertex_id)
    state = {}

    def has_cycle(v):
        state[v] = 1
        for u in deps[v]:
            s = state.get(u)
            if s == 1 or (s is None and has_cycle(u)):
                return True
        state[v] = 2
        return False

    if any(state.get(v) is None and has_cycle(v) for v in deps):
        violations.append(Violation("cycle", "layout graph contains a directed cycle"))

    disengaged = known_in - set(fed)
    seen_ports = {}
    for label in c.signature.inputs:
        port = c.interface.get(label)
        if port is None:
            violations.append(Violation("dangling-interface", f"input label {label!r} is unmapped"))
            continue
        if port not in known_in:
            violations.append(Violation("dangling-interface", f"input label {label!r} -> missing port {port}"))
            continue
        if port not in disengaged:
            violations.append(Violation("engaged-input", f"input label {label!r} -> engaged port {port}"))
        if port in seen_ports:
            violations.append(Violation("input-not-injective", f"labels {seen_ports[port]!r} and {label!r} share {port}"))
        seen_ports[port] = label
        if c.port_type(port) != c.signature.inputs[label]:
            violations.append(Violation("type-mismatch", f"input label {label!r} type differs from {port}"))
    for port in sorted(disengaged - set(seen_ports), key=str):
        violations.append(Violation("unmapped-disengaged-input", f"{port} has no circuit input label"))
    for label in c.signature.outputs:
        port = c.interface.get(label)
        if port is None or port not in known_out:
            violations.append(Violation("dangling-interface", f"output label {label!r} -> {port}"))
        elif c.port_type(port) != c.signature.outputs[label]:
            violations.append(Violation("type-mismatch", f"output label {label!r} type differs from {port}"))
    return Counter((v.kind, v.detail) for v in violations)


def reported(c):
    return Counter((v.kind, v.detail) for v in validate_circuit(c).violations)


def _retyped(op):
    """The same operator over ``u32`` instead of its ``type`` param, or None."""
    if op.params.get("type") in (None, "u32"):
        return None
    return instantiate(op.op_name, dict(op.params, type="u32"))


def mutations(rng, c):
    """Broken variants of ``c``; each keeps ``c``'s signature, as an unchecked edit would."""
    edges = sorted(c.edges, key=str)
    ins = sorted(c.in_ports(), key=str)
    outs = sorted(c.out_ports(), key=str)
    engaged = sorted(c.engaged_in_ports(), key=str)

    def variant(vertices=None, edge_set=None, interface=None):
        return ColumnarCircuit(
            dict(c.vertices) if vertices is None else vertices,
            frozenset(c.edges) if edge_set is None else edge_set,
            dict(c.interface) if interface is None else interface,
            c.signature,
        )

    if edges:
        dropped = rng.choice(edges)
        yield "drop an edge", variant(edge_set=c.edges - {dropped})
    if engaged:
        yield "feed one port twice", variant(edge_set=c.edges | {(rng.choice(outs), rng.choice(engaged))})
    retypable = [vid for vid in sorted(c.vertices) if _retyped(c.vertices[vid]) is not None]
    if retypable:
        vid = rng.choice(retypable)
        yield "retype a port", variant(vertices={**c.vertices, vid: _retyped(c.vertices[vid])})
    # an edge from a vertex's own out-port back into one of its in-ports is a cycle
    looped = [vid for vid in sorted(c.vertices) if c.vertices[vid].signature.inputs and c.vertices[vid].signature.outputs]
    if looped:
        vid = rng.choice(looped)
        op = c.vertices[vid]
        back = (PortRef(vid, next(iter(op.signature.outputs)), OUT), PortRef(vid, next(iter(op.signature.inputs)), IN))
        yield "add a cycle", variant(edge_set=c.edges | {back})
    if edges and len(c.vertices) > 1:
        src, dst = rng.choice(edges)
        # a longer cycle: the consumer feeds its producer
        producer = c.vertices[src.vertex_id]
        consumer = c.vertices[dst.vertex_id]
        if producer.signature.inputs and consumer.signature.outputs:
            back = (
                PortRef(dst.vertex_id, next(iter(consumer.signature.outputs)), OUT),
                PortRef(src.vertex_id, next(iter(producer.signature.inputs)), IN),
            )
            yield "add a cycle", variant(edge_set=c.edges | {back})
    labels = sorted(c.signature.inputs)
    if labels:
        label = rng.choice(labels)
        yield "label at a missing port", variant(interface={**c.interface, label: PortRef("nope", "x", IN)})
        yield "label at a missing in-port", variant(interface={**c.interface, label: PortRef(ins[0].vertex_id, "zz", IN)})
        if engaged:
            yield "label at an engaged port", variant(interface={**c.interface, label: rng.choice(engaged)})
        if len(labels) > 1:
            other = next(lb for lb in labels if lb != label)
            yield "two labels share a port", variant(interface={**c.interface, label: c.interface[other]})
        yield "unmapped input label", variant(interface={k: v for k, v in c.interface.items() if k != label})
    out_labels = sorted(c.signature.outputs)
    if out_labels and ins:
        label = rng.choice(out_labels)
        yield "output label at an in-port", variant(interface={**c.interface, label: ins[0]})
    if outs and ins:
        yield "edge from nowhere", variant(edge_set=c.edges | {(PortRef("nope", "result", OUT), ins[0])})
        yield "edge to nowhere", variant(edge_set=c.edges | {(outs[0], PortRef("nope", "arguments", IN))})
        yield "edge from an in-port", variant(edge_set=c.edges | {(ins[0], ins[-1])})


class TestDifferentialValidation:
    def test_generated_circuits_and_their_mutations(self):
        rng = random.Random(11)
        kinds = Counter()
        for _ in range(150):
            c = random_circuit(rng, n_inputs=rng.randrange(1, 4), n_steps=rng.randrange(0, 12))
            assert reported(c) == oracle_violations(c) == Counter()
            for name, broken in mutations(rng, c):
                expected = oracle_violations(broken)
                assert reported(broken) == expected, name
                kinds.update(kind for kind, _ in expected)
        # the mutations reach every kind of violation
        assert set(kinds) == {
            "bad-edge-source",
            "bad-edge-target",
            "multi-fed-port",
            "type-mismatch",
            "cycle",
            "dangling-interface",
            "engaged-input",
            "input-not-injective",
            "unmapped-disengaged-input",
        }

    def test_scheme_case_decoders_and_q6(self):
        rng = random.Random(5)
        circuits = [codec(sid).build_decoder(CASES[sid].gen(random.Random(0))[0]) for sid in sorted(CASES)]
        for c in circuits + [q6_circuit()]:
            assert reported(c) == oracle_violations(c) == Counter()
            for name, broken in mutations(rng, c):
                assert reported(broken) == oracle_violations(broken), name

    def test_type_mismatched_edge_still_fails_in_the_operator(self):
        # the relay passes a u32 column into a u8 select: the plan does not
        # check edge types, the operator rejects the column
        verts = {"relay": instantiate("no_op", {"type": "u32"}), "sel": instantiate("select", {"type": "u8"})}
        edges = {(out_port("relay", "result"), in_port("sel", "data"))}
        interface = {"x": in_port("relay", "arguments"), "m": in_port("sel", "selection"), "y": out_port("sel", "selected")}
        c = circuit(verts, edges, interface)
        assert [v.kind for v in validate_circuit(c).violations] == ["type-mismatch"]
        with pytest.raises(EvaluationError) as exc:
            evaluate_circuit(c, {"x": make_column(U32, [300, 1]), "m": make_column(BIT, [1, 1])})
        assert exc.value.vertex_id == "sel" and type(exc.value.cause) is TypeDomainError


def spliced_q6(columns):
    """Q6 with each column's decoder spliced in front of its input, and the encoded inputs."""
    return splice_q6({}, lineitem(4)), encoded(columns, lineitem(4))


def count_walks(monkeypatch):
    """``(circuit, proven)`` for each structural walk from now on."""
    walks = []
    walk = circuit_mod._structure

    def counting(c, proven):
        walks.append((c, proven))
        return walk(c, proven)

    monkeypatch.setattr(circuit_mod, "_structure", counting)
    return walks


class TestOnePass:
    def test_building_and_splicing_walk_nothing(self, monkeypatch):
        columns = {"shipdate": [8800, 9000], "discount": [6, 2], "quantity": [3, 30], "extended_price": [1000, 2000]}
        walks = count_walks(monkeypatch)
        plan, inputs = spliced_q6(columns)
        # the builder proves ``q6_circuit`` and each decoder valid as it wires
        # them, and the algebra carries the proof to the spliced plan
        assert walks == [] and plan._proven
        assert validate_circuit(plan).ok
        assert walks == []
        for _ in range(3):
            assert evaluate_circuit(plan, inputs)["revenue"].values == (6000,)
        # the compile walks once, for the sources and the order
        assert [(c is plan, proven) for c, proven in walks] == [(True, True)]

    def test_validate_then_three_evaluations_walk_the_plan_once(self, monkeypatch):
        rng = random.Random(4)
        n = 12
        columns = {
            "shipdate": [rng.randrange(8700, 9200) for _ in range(n)],
            "discount": [rng.randrange(0, 11) for _ in range(n)],
            "quantity": [rng.randrange(1, 50) for _ in range(n)],
            "extended_price": [rng.randrange(1000, 90000) for _ in range(n)],
        }
        plan, inputs = spliced_q6(columns)
        walks = count_walks(monkeypatch)
        assert validate_circuit(plan).ok
        assert walks == []
        want = q6_reference(*(columns[k] for k in ("shipdate", "discount", "quantity", "extended_price")))
        for _ in range(3):
            assert evaluate_circuit(plan, inputs)["revenue"].values == (want,)
        assert [(c is plan, proven) for c, proven in walks] == [(True, True)]
        # an unproven copy of the plan takes the full walk to be validated,
        # and then its first evaluation one proven walk
        copy = ColumnarCircuit(plan.vertices, plan.edges, plan.interface, plan.signature)
        assert not copy._proven and validate_circuit(copy).ok and copy._proven
        assert [(c is copy, proven) for c, proven in walks[1:]] == [(True, False)]
        for _ in range(3):
            assert evaluate_circuit(copy, inputs)["revenue"].values == (want,)
        assert [(c is copy, proven) for c, proven in walks[1:]] == [(True, False), (True, True)]

    def test_the_pass_changes_neither_json_repr_nor_equality(self):
        circuits = [(sid, lambda sid=sid: codec(sid).build_decoder(CASES[sid].gen(random.Random(0))[0])) for sid in sorted(CASES)]
        circuits.append(("q6", q6_circuit))
        for name, make in circuits:
            proven, twin = make(), make()
            assert proven._proven, name
            # the same circuit without the mark, as loading it from JSON gives
            c = ColumnarCircuit(proven.vertices, proven.edges, proven.interface, proven.signature)
            assert not c._proven, name
            text, shown = dump_circuit(c), repr(c)
            assert (dump_circuit(proven), repr(proven), proven) == (text, shown, c), name
            assert validate_circuit(c).ok
            assert c._proven, name
            assert (dump_circuit(c), repr(c), c) == (text, shown, twin), name
            loaded = load_circuit(text)
            assert loaded == c and not loaded._proven, name

    def test_threads_validating_and_evaluating_one_fresh_plan(self):
        # the plan and the proven mark are cached on the shared circuit
        # without a lock; a thread that finds the circuit proven between its
        # first look and its walk still finishes the full check.  The plan
        # runs proven, as spliced, and as an unproven copy that starts the
        # full walk
        rng = random.Random(8)
        columns = {k: [rng.randrange(1, 40) for _ in range(6)] for k in ("discount", "quantity", "extended_price")}
        columns["shipdate"] = [rng.randrange(8700, 9200) for _ in range(6)]
        want = q6_reference(*(columns[k] for k in ("shipdate", "discount", "quantity", "extended_price")))
        for i in range(20):
            plan, inputs = spliced_q6(columns)
            if i % 2:
                plan = ColumnarCircuit(plan.vertices, plan.edges, plan.interface, plan.signature)
                assert not plan._proven

            def run(_):
                ok = validate_circuit(plan).ok
                return ok, evaluate_circuit(plan, inputs)["revenue"].values

            assert in_threads(run, 6) == [(True, (want,))] * 6

    def test_a_circuit_proven_between_the_first_look_and_the_walk_reports_nothing(self, monkeypatch):
        # the interleaving the thread test can only hope to hit: another thread
        # validates the circuit after this one found it unproven, before this
        # one walks it; the walk keeps this caller's look, so it checks every
        # edge, and validation finishes its full check
        plan = splice_q6({}, lineitem(4))
        c = ColumnarCircuit(plan.vertices, plan.edges, plan.interface, plan.signature)
        walk = circuit_mod._structure
        looks = []

        def proven_meanwhile(circuit, proven):
            object.__setattr__(circuit, "_proven", True)
            looks.append(proven)
            return walk(circuit, proven)

        monkeypatch.setattr(circuit_mod, "_structure", proven_meanwhile)
        assert validate_circuit(c).ok
        assert looks == [False]

    def test_portref_is_a_named_tuple(self):
        p = PortRef("v1", "result", OUT)
        assert str(p) == "v1.result"
        assert repr(p) == "PortRef(vertex_id='v1', port_label='result', direction='out')"
        assert p == ("v1", "result", "out") and hash(p) == hash(("v1", "result", "out"))
        assert (p.vertex_id, p.port_label, p.direction) == tuple(p)
        assert p != PortRef("v1", "result", IN)


def no_op_chain(n):
    """A chain of ``n`` relays whose vertex ids sort against the chain's order."""
    ids = [f"r{n - k:05d}" for k in range(n)]
    vertices = {vid: instantiate("no_op", {"type": "u32"}) for vid in ids}
    edges = {(out_port(a, "result"), in_port(b, "arguments")) for a, b in zip(ids, ids[1:])}
    return circuit(vertices, edges, {"col": in_port(ids[0], "arguments"), "out": out_port(ids[-1], "result")})


class TestDeepCircuit:
    def test_long_chain_validates_and_evaluates(self):
        c = load_circuit(dump_circuit(no_op_chain(3000)))
        assert validate_circuit(c).ok
        assert evaluate_circuit(c, {"col": make_column(U32, [4, 2])})["out"].values == (4, 2)

    def test_long_chain_through_the_cli(self, tmp_path):
        cpath = tmp_path / "chain.json"
        cpath.write_text(dump_circuit(no_op_chain(3000)))
        inpath = tmp_path / "in.col"
        write_col_file(inpath, make_column(U32, [7, 0, 9]))
        out = str(tmp_path / "out")
        assert main(["eval", str(cpath), "--input", f"col={inpath}", "-o", out]) == 0
        assert read_col_file(os.path.join(out, "out.col")).values == (7, 0, 9)


def sequential_rename(c, mapping):
    """Rename one label at a time, as ``rename_labels`` did before it made one pass."""
    for old, new in mapping.items():
        if old not in c.interface:
            raise ColcircError(f"no interface label {old!r}")
        if new in c.interface:
            raise ColcircError(f"label {new!r} already in use")
        c = circuit(c.vertices, c.edges, {(new if label == old else label): port for label, port in c.interface.items()})
    return c


class TestRenameLabels:
    @pytest.mark.parametrize(
        "mapping",
        [
            {},
            {"a": "x"},
            {"a": "t", "b": "a", "t": "b"},
            {"a": "x", "x": "y", "y": "a"},
            {"out": "a"},
            {"a": "a"},
            {"zz": "q"},
            {"a": "x", "a2": "q"},
            {"a": "x", "x": "b"},
            {"a": "x", "b": "x"},
            {"a": "x", "a": "y"},
        ],
    )
    def test_same_result_or_error_as_one_rename_at_a_time(self, mapping):
        add = instantiate("elementwise", {"fn": "add", "type": "u32"})
        c = circuit({"add": add}, set(), {"a": in_port("add", "lhs"), "b": in_port("add", "rhs"), "out": out_port("add", "result")})
        try:
            want = sequential_rename(c, mapping)
        except ColcircError as exc:
            with pytest.raises(ColcircError) as got:
                rename_labels(c, mapping)
            assert str(got.value) == str(exc)
        else:
            got = rename_labels(c, mapping)
            assert got == want
            assert list(got.interface) == list(want.interface)
            assert list(got.signature.inputs) == list(want.signature.inputs)


# -- the proof mark ------------------------------------------------------------


def _column(rng, t):
    """A short random column of element type ``t``; None for a product type."""
    if t.components:
        return None
    n = rng.randrange(0, 6)
    if t.kind is Kind.FLOAT:
        return make_column(t, [rng.choice([0.0, 1.5, -2.0]) for _ in range(n)])
    lo, hi = t.bounds()
    return make_column(t, [rng.randrange(max(lo, 0), min(hi, 3) + 1) for _ in range(n)])


def outcome(c, inputs):
    """The outputs of ``c`` on ``inputs`` as types and values, or the error and its vertex."""
    try:
        out = evaluate_circuit(c, inputs)
    except ColcircError as exc:
        return type(exc), getattr(exc, "vertex_id", None)
    return {label: (col.element_type, col.values) for label, col in out.items()}


def unproven(c):
    return ColumnarCircuit(c.vertices, c.edges, c.interface, c.signature)


class TestProvenMark:
    """The algebra passes the mark on only where the full check would pass."""

    def check_sound(self, rng, c):
        if not c._proven:
            return
        fresh = unproven(c)
        assert validate_circuit(fresh).violations == ()
        inputs = {label: _column(rng, t) for label, t in c.signature.inputs.items()}
        if None not in inputs.values():
            assert outcome(c, inputs) == outcome(fresh, inputs)

    def step(self, rng, pool):
        """One algebra operation on members of ``pool``; returns its result, or None."""
        c = rng.choice(pool)
        move = rng.choice(["union", "rename", "drop", "assign", "assign"])
        if move == "union":
            other = rng.choice(pool)
            if len(c.vertices) + len(other.vertices) > 60:
                return None
            result = circuit_union(c, other)
            assert result._proven == (c._proven and other._proven)
            return result
        if move == "rename":
            labels = list(c.interface)
            picked = rng.sample(labels, rng.randrange(0, len(labels) + 1))
            result = rename_labels(c, {label: f"r{rng.randrange(10**6)}:{label}" for label in picked})
        elif move == "drop":
            if not c.signature.outputs:
                return None
            result = drop_output(c, rng.choice(sorted(c.signature.outputs)))
        else:
            if not c.signature.inputs:
                return None
            label = rng.choice(sorted(c.signature.inputs))
            sources = [p for p in sorted(c.out_ports(), key=str) if c.port_type(p) == c.signature.inputs[label]]
            if not sources:
                return None
            source = rng.choice(sources)
            interface = {k: v for k, v in c.interface.items() if k != label}
            edged = ColumnarCircuit(c.vertices, c.edges | {(source, c.interface[label])}, interface, c.signature)
            if any(v.kind == "cycle" for v in validate_circuit(edged).violations):
                with pytest.raises(OperatorError, match="would-create-cycle"):
                    assign_input(c, label, source)
                return None
            result = assign_input(c, label, source)
        assert result._proven == c._proven
        return result

    def test_chained_algebra_over_random_circuits_and_decoders(self):
        rng = random.Random(30)
        pool = []
        for i in range(12):
            c = random_circuit(rng, n_inputs=rng.randrange(1, 4), n_steps=rng.randrange(1, 10))
            if i % 3:
                assert validate_circuit(c).ok and c._proven  # passing the check marks it
            pool.append(c)
        for sid in sorted(CASES):
            decoder = codec(sid).build_decoder(CASES[sid].gen(rng)[0])
            assert decoder._proven, sid  # the builder proved it
            pool.append(decoder)
        proven = 0
        for _ in range(400):
            result = self.step(rng, pool)
            if result is None:
                continue
            self.check_sound(rng, result)
            proven += result._proven
            pool.append(result)
        assert proven > 200

    def test_proven_and_unproven_plans_run_in_one_order(self):
        def kahn(c):
            """Kahn's algorithm, the last ready vertex first, each vertex's consumers pushed in sorted order."""
            pending, consumers = dict.fromkeys(c.vertices, 0), {vid: [] for vid in c.vertices}
            for src, dst in c.edges:
                pending[dst.vertex_id] += 1
                consumers[src.vertex_id].append(dst.vertex_id)
            order, ready = [], sorted(vid for vid, n in pending.items() if not n)
            while ready:
                order.append(ready.pop())
                for u in sorted(consumers[order[-1]]):
                    pending[u] -= 1
                    if not pending[u]:
                        ready.append(u)
            return order

        rng = random.Random(12)
        circuits = [splice_q6({}, lineitem(4))]
        circuits += [codec(sid).build_decoder(CASES[sid].gen(rng)[0]) for sid in sorted(CASES)]
        circuits += [random_circuit(rng, n_inputs=3, n_steps=14) for _ in range(40)]
        for c in circuits:
            validate_circuit(c)
            fresh = unproven(c)
            assert c._proven and not fresh._proven
            for plan in (circuit_mod._compile(c), circuit_mod._compile(fresh)):
                assert [vid for vid, _, _, _ in plan.steps] == kahn(c)

    def test_a_cycle_is_refused_on_a_proven_circuit(self):
        q6 = q6_circuit()
        assert q6._proven
        relay = q6.interface["discount"].vertex_id  # discount feeds two ports, through one relay
        assert q6.vertices[relay].op_name == "no_op"
        for c in (q6, unproven(q6)):
            # a self-loop, and a back edge from the end of the longest chain
            with pytest.raises(OperatorError, match="would-create-cycle"):
                assign_input(c, "discount", PortRef(relay, "result", OUT))
            with pytest.raises(OperatorError, match="would-create-cycle"):
                assign_input(c, "extended_price", c.interface["revenue"])

    def test_an_unproven_circuit_keeps_the_full_check(self):
        q6 = q6_circuit()
        dangling = {**q6.interface, "revenue": PortRef("nope", "x", OUT)}
        broken = ColumnarCircuit(q6.vertices, q6.edges, dangling, q6.signature)
        for result in (drop_output(broken, "revenue"), rename_labels(broken, {"revenue": "r"}), circuit_union(q6, broken)):
            assert not result._proven
        renamed = rename_labels(broken, {"shipdate": "s"})
        assert [v.kind for v in validate_circuit(renamed).violations] == ["dangling-interface"]
        assert not renamed._proven
