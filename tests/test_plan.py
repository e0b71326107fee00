"""The evaluation plan: compiled once per circuit, cached on it, invisible to its value."""

import importlib
import random

import pytest

from colcirc import (
    ColumnarCircuit,
    circuit,
    evaluate_circuit,
    evaluate_ports,
    in_port,
    instantiate,
    make_column,
    out_port,
)
from colcirc.circuit import OUT, PortRef, dump_circuit
from colcirc.errors import InvalidCircuitError, OperatorError
from colcirc.gallery import double_plus_three, q6_circuit
from colcirc.transform import assign_input, circuit_union, rename_labels
from colcirc.types import U32, U64

from circuit_gen import random_circuit, random_inputs
from paths import in_threads, inductive_port_value

# the package re-exports the ``circuit`` function over its submodule
circuit_mod = importlib.import_module("colcirc.circuit")


def reference_outputs(c, inputs):
    memo = {}
    return {label: inductive_port_value(c, c.interface[label], inputs, memo) for label in c.signature.outputs}


def evaluable_random_circuits(seed, count):
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        c = random_circuit(rng, n_inputs=2, n_steps=6)
        inputs = random_inputs(rng, c)
        try:
            reference_outputs(c, inputs)
        except OperatorError:
            continue
        found.append((c, inputs))
    return found


class TestCompiledOnce:
    def test_three_evaluations_sort_once(self, monkeypatch):
        sorts = []
        original = circuit_mod._toposort

        def counting(c):
            sorts.append(c)
            return original(c)

        monkeypatch.setattr(circuit_mod, "_toposort", counting)
        c = double_plus_three()
        for values in ([1, 5], [], [7]):
            out = evaluate_circuit(c, {"col": make_column(U32, values)})
            assert out["result"].values == tuple(2 * v + 3 for v in values)
        assert sorts == [c]

    def test_derived_circuits_get_their_own_plan(self):
        base = double_plus_three()
        col = make_column(U32, [1, 5])
        evaluate_circuit(base, {"col": col})
        renamed = rename_labels(base, {"col": "x", "result": "y"})
        union = circuit_union(base, renamed)
        chained = assign_input(union, "x", union.interface["result"])
        cases = [
            (renamed, {"x": col}),
            (union, {"col": col, "x": make_column(U32, [4])}),
            (chained, {"col": col}),
        ]
        for derived, inputs in cases:
            assert derived._plan is None
            assert evaluate_circuit(derived, inputs) == reference_outputs(derived, inputs)
            assert derived._plan is not None and derived._plan is not base._plan
        assert evaluate_circuit(chained, {"col": col})["y"].values == (13, 29)

    def test_plan_changes_neither_json_nor_equality(self):
        c, twin = q6_circuit(), q6_circuit()
        text, shown = dump_circuit(c), repr(c)
        cols = {name: make_column(U64, [1, 2]) for name in c.signature.inputs}
        evaluate_circuit(c, cols)
        assert c._plan is not None and twin._plan is None
        assert dump_circuit(c) == text
        assert repr(c) == shown
        assert c == twin


class TestPortMapping:
    def expected_ports(self, c):
        inputs = {c.interface[label] for label in c.signature.inputs}
        return set(c.out_ports()) | c.engaged_in_ports() | inputs

    def test_exactly_the_observed_ports(self):
        for c, inputs in [(double_plus_three(), {"col": make_column(U32, [3])})] + evaluable_random_circuits(5, 12):
            ports = evaluate_ports(c, inputs)
            assert set(ports) == self.expected_ports(c)
            assert len(ports) == len(self.expected_ports(c)) == len(list(ports.items()))
            memo = {}
            for port, col in ports.items():
                assert col == inductive_port_value(c, port, inputs, memo)

    def test_read_only(self):
        c = double_plus_three()
        ports = evaluate_ports(c, {"col": make_column(U32, [2])})
        assert PortRef("nope", "x", OUT) not in ports
        with pytest.raises(TypeError):
            ports[out_port("mul", "result")] = make_column(U32, [0])


class TestPlanErrors:
    def test_unmapped_in_port_is_an_invalid_circuit(self):
        verts = {"add": instantiate("elementwise", {"fn": "add", "type": "u32"})}
        c = circuit(verts, set(), {"x": in_port("add", "lhs"), "sum": out_port("add", "result")})
        with pytest.raises(InvalidCircuitError, match=r"add\.rhs") as exc:
            evaluate_circuit(c, {"x": make_column(U32, [1])})
        assert [v.kind for v in exc.value.report.violations] == ["unmapped-disengaged-input"]

    def test_cycle_is_an_invalid_circuit(self):
        verts = {
            "a": instantiate("elementwise", {"fn": "add", "type": "u32"}),
            "b": instantiate("no_op", {"type": "u32"}),
        }
        edges = {
            (out_port("a", "result"), in_port("b", "arguments")),
            (out_port("b", "result"), in_port("a", "rhs")),
        }
        c = circuit(verts, edges, {"x": in_port("a", "lhs"), "out": out_port("a", "result")})
        with pytest.raises(InvalidCircuitError) as exc:
            evaluate_circuit(c, {"x": make_column(U32, [1])})
        assert [v.kind for v in exc.value.report.violations] == ["cycle"]

    @pytest.mark.parametrize(
        "edge, kind, port",
        [
            ((out_port("zz", "result"), in_port("add", "rhs")), "bad-edge-source", r"zz\.result"),
            ((out_port("add", "result"), in_port("zz", "arguments")), "bad-edge-target", r"zz\.arguments"),
            ((out_port("add", "zz"), in_port("add", "rhs")), "bad-edge-source", r"add\.zz"),
            ((out_port("add", "result"), in_port("add", "zz")), "bad-edge-target", r"add\.zz"),
            ((in_port("add", "lhs"), in_port("add", "rhs")), "bad-edge-source", r"add\.lhs"),
        ],
    )
    def test_edge_naming_an_unknown_port_is_an_invalid_circuit(self, edge, kind, port):
        verts = {"add": instantiate("elementwise", {"fn": "add", "type": "u32"})}
        interface = {"x": in_port("add", "lhs"), "y": in_port("add", "rhs"), "sum": out_port("add", "result")}
        c = circuit(verts, {edge}, interface)
        with pytest.raises(InvalidCircuitError, match=port) as exc:
            evaluate_circuit(c, {"x": make_column(U32, [1]), "y": make_column(U32, [2])})
        assert [v.kind for v in exc.value.report.violations] == [kind]

    def test_in_port_fed_twice_is_an_invalid_circuit(self):
        verts = {name: instantiate("no_op", {"type": "u32"}) for name in "abc"}
        edges = {(out_port("a", "result"), in_port("c", "arguments")), (out_port("b", "result"), in_port("c", "arguments"))}
        interface = {"x": in_port("a", "arguments"), "w": in_port("b", "arguments"), "y": out_port("c", "result")}
        with pytest.raises(InvalidCircuitError, match=r"c\.arguments") as exc:
            evaluate_circuit(circuit(verts, edges, interface), {"x": make_column(U32, [1]), "w": make_column(U32, [2])})
        assert [v.kind for v in exc.value.report.violations] == ["multi-fed-port"]


@pytest.mark.parametrize("proven", [True, False], ids=["proven", "unproven"])
def test_threads_share_one_fresh_circuit(proven):
    # the builder marks q6 proven; a copy without the mark has the threads race its full pass
    c = q6_circuit()
    if not proven:
        c = ColumnarCircuit(c.vertices, c.edges, c.interface, c.signature)
    assert c._proven is proven
    rng = random.Random(3)
    cols = {name: make_column(U64, [rng.randrange(1, 60) for _ in range(40)]) for name in c.signature.inputs}
    cols["shipdate"] = make_column(U64, [rng.randrange(8700, 9200) for _ in range(40)])
    cols["discount"] = make_column(U64, [rng.randrange(0, 11) for _ in range(40)])
    results = in_threads(lambda _: evaluate_circuit(c, cols), 8)
    assert results[0] == reference_outputs(c, cols)
    assert all(r == results[0] for r in results)
