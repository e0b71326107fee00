"""One structural pass per circuit, shared by validation and plan compilation.

``validate_circuit`` is checked against the per-port validation it replaced,
kept here as an oracle; the pass is checked to run once for a validated and
then evaluated plan, and to leave a circuit's value, JSON and repr alone.
"""

import importlib
import os
import random
import sys
import threading
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
from colcirc.errors import ColcircError, EvaluationError, TypeDomainError
from colcirc.gallery import q6_circuit, q6_reference
from colcirc.transform import rename_label, rename_labels
from colcirc.types import BIT, U32

from circuit_gen import random_circuit
from paths import encoded, lineitem, splice_q6
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


def count_passes(monkeypatch):
    """Circuits whose structural pass is computed from now on, one entry per pass."""
    walks = []
    original = circuit_mod._structure

    def counting(c):
        if c._structure is None:
            walks.append(c)
        return original(c)

    monkeypatch.setattr(circuit_mod, "_structure", counting)
    return walks


class TestOnePass:
    def test_building_and_splicing_walk_nothing(self, monkeypatch):
        columns = {"shipdate": [8800, 9000], "discount": [6, 2], "quantity": [3, 30], "extended_price": [1000, 2000]}
        walks = count_passes(monkeypatch)
        plan, inputs = spliced_q6(columns)
        # the builder proves ``q6_circuit`` valid as it wires it, and the
        # algebra derives each signature from its operands'
        assert walks == []
        assert validate_circuit(plan).ok
        for _ in range(3):
            assert evaluate_circuit(plan, inputs)["revenue"].values == (6000,)
        assert walks == [plan]

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
        walks = count_passes(monkeypatch)
        assert validate_circuit(plan).ok
        want = q6_reference(*(columns[k] for k in ("shipdate", "discount", "quantity", "extended_price")))
        for _ in range(3):
            assert evaluate_circuit(plan, inputs)["revenue"].values == (want,)
        assert walks == [plan]
        # the compiled plan replaces the pass, so it is not kept alive
        assert plan._plan is not None and plan._structure is None

    def test_the_pass_changes_neither_json_repr_nor_equality(self):
        circuits = [(sid, lambda sid=sid: codec(sid).build_decoder(CASES[sid].gen(random.Random(0))[0])) for sid in sorted(CASES)]
        circuits.append(("q6", q6_circuit))
        for name, make in circuits:
            c, twin = make(), make()
            object.__setattr__(c, "_structure", None)  # the builder's check left one
            object.__setattr__(twin, "_structure", None)
            text, shown = dump_circuit(c), repr(c)
            assert validate_circuit(c).ok
            assert c._structure is not None, name
            assert (dump_circuit(c), repr(c), c) == (text, shown, twin), name
            assert load_circuit(text) == c, name

    def test_threads_validating_and_evaluating_one_fresh_plan(self):
        # the pass and the plan are cached on the shared circuit without a lock;
        # a thread that finds the pass dropped by another's compile redoes it
        rng = random.Random(8)
        columns = {k: [rng.randrange(1, 40) for _ in range(6)] for k in ("discount", "quantity", "extended_price")}
        columns["shipdate"] = [rng.randrange(8700, 9200) for _ in range(6)]
        want = q6_reference(*(columns[k] for k in ("shipdate", "discount", "quantity", "extended_price")))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                plan, inputs = spliced_q6(columns)
                barrier = threading.Barrier(6)
                results = []

                def run():
                    barrier.wait()
                    ok = validate_circuit(plan).ok
                    results.append((ok, evaluate_circuit(plan, inputs)["revenue"].values))

                threads = [threading.Thread(target=run) for _ in range(6)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert results == [(True, (want,))] * 6
        finally:
            sys.setswitchinterval(interval)

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

    def test_rename_label_is_a_one_pair_mapping(self):
        c = q6_circuit()
        assert rename_label(c, "discount", "d") == rename_labels(c, {"discount": "d"})
        with pytest.raises(ColcircError, match="already in use"):
            rename_label(c, "discount", "quantity")
