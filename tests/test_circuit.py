import dataclasses
import inspect
import random

import pytest

from colcirc import (
    circuit,
    codec,
    circuit_from_json,
    circuit_to_json,
    evaluate_circuit,
    evaluate_decision_circuit,
    evaluate_ports,
    in_port,
    instantiate,
    make_column,
    out_port,
    validate_circuit,
)
from colcirc.builder import CircuitBuilder
from colcirc.circuit import IN, OUT, ColumnarCircuit, PortRef, _port, dump_circuit, load_circuit
from colcirc.errors import EvaluationError, MissingInputError, OperatorError
from colcirc.gallery import double_plus_three, q6_circuit, q6_reference
from colcirc.ops import OperatorInstance, Signature
from colcirc.types import BIT, INT, U32, U64

from circuit_gen import random_circuit, random_inputs


def minimal_add_circuit():
    verts = {"add": instantiate("elementwise", {"fn": "add", "type": "u32"})}
    iface = {
        "x": in_port("add", "lhs"),
        "y": in_port("add", "rhs"),
        "sum": out_port("add", "result"),
    }
    return circuit(verts, set(), iface)


class TestValidation:
    def test_minimal_valid(self):
        assert validate_circuit(minimal_add_circuit()).ok

    def test_cycle(self):
        verts = {
            "a": instantiate("elementwise", {"fn": "add", "type": "u32"}),
            "b": instantiate("no_op", {"type": "u32"}),
        }
        edges = {
            (out_port("a", "result"), in_port("b", "arguments")),
            (out_port("b", "result"), in_port("a", "rhs")),
        }
        iface = {"x": in_port("a", "lhs"), "out": out_port("a", "result")}
        report = validate_circuit(circuit(verts, edges, iface))
        assert any(v.kind == "cycle" for v in report.violations)

    def test_type_mismatch_edge(self):
        verts = {
            "a": instantiate("no_op", {"type": "u8"}),
            "b": instantiate("no_op", {"type": "u16"}),
        }
        edges = {(out_port("a", "result"), in_port("b", "arguments"))}
        iface = {"x": in_port("a", "arguments"), "out": out_port("b", "result")}
        report = validate_circuit(circuit(verts, edges, iface))
        assert any(v.kind == "type-mismatch" for v in report.violations)

    def test_multi_fed_port(self):
        verts = {
            "a": instantiate("no_op", {"type": "u8"}),
            "b": instantiate("no_op", {"type": "u8"}),
            "c": instantiate("no_op", {"type": "u8"}),
        }
        edges = {
            (out_port("a", "result"), in_port("c", "arguments")),
            (out_port("b", "result"), in_port("c", "arguments")),
        }
        iface = {
            "x": in_port("a", "arguments"),
            "y": in_port("b", "arguments"),
            "out": out_port("c", "result"),
        }
        report = validate_circuit(circuit(verts, edges, iface))
        assert any(v.kind == "multi-fed-port" for v in report.violations)

    def test_unmapped_disengaged_input(self):
        verts = {"add": instantiate("elementwise", {"fn": "add", "type": "u32"})}
        iface = {"x": in_port("add", "lhs"), "sum": out_port("add", "result")}
        report = validate_circuit(circuit(verts, set(), iface))
        assert any(v.kind == "unmapped-disengaged-input" for v in report.violations)

    def test_disengaged_matches_input_image(self):
        c = double_plus_three()
        assert validate_circuit(c).ok
        assert c.disengaged_in_ports() == {c.interface[l] for l in c.signature.inputs}


class TestEvaluation:
    def test_worked_example(self):
        c = double_plus_three()
        out = evaluate_circuit(c, {"col": make_column(U32, [1, 5])})
        assert out["result"].values == (5, 13)

    def test_noop_relay(self):
        verts = {"relay": instantiate("no_op", {"type": "u32"})}
        iface = {"in": in_port("relay", "arguments"), "out": out_port("relay", "result")}
        c = circuit(verts, set(), iface)
        col = make_column(U32, [4, 9])
        assert evaluate_circuit(c, {"in": col})["out"] == col

    def test_q6_against_row_loop(self):
        rng = random.Random(1)
        n = 200
        shipdate = [rng.randrange(8700, 9200) for _ in range(n)]
        discount = [rng.randrange(0, 11) for _ in range(n)]
        quantity = [rng.randrange(1, 60) for _ in range(n)]
        price = [rng.randrange(100, 10000) for _ in range(n)]
        c = q6_circuit()
        out = evaluate_circuit(
            c,
            {
                "shipdate": make_column(U64, shipdate),
                "discount": make_column(U64, discount),
                "quantity": make_column(U64, quantity),
                "extended_price": make_column(U64, price),
            },
        )
        assert out["revenue"].scalar() == q6_reference(shipdate, discount, quantity, price)

    def test_missing_input(self):
        with pytest.raises(MissingInputError):
            evaluate_circuit(minimal_add_circuit(), {"x": make_column(U32, [1])})

    def test_operator_failure_reports_vertex(self):
        c = minimal_add_circuit()
        with pytest.raises(EvaluationError) as exc:
            evaluate_circuit(c, {"x": make_column(U32, [1]), "y": make_column(U32, [1, 2])})
        assert exc.value.vertex_id == "add"

    def test_fanout_shares_column_object(self):
        c = double_plus_three()
        ports = evaluate_ports(c, {"col": make_column(U32, [2])})
        src = ports[PortRef("relay", "result", OUT)]
        assert ports[PortRef("len", "col", IN)] is src
        assert ports[PortRef("mul", "lhs", IN)] is src


class TestOrderIndependence:
    def test_parallel_equals_reference(self):
        rng = random.Random(7)
        for i in range(25):
            c = random_circuit(rng, n_inputs=2, n_steps=7)
            inputs = random_inputs(rng, c)
            try:
                ref = evaluate_circuit(c, inputs)
            except EvaluationError:
                continue
            par = evaluate_circuit(c, inputs, parallel=True)
            assert ref == par


class TestDecisionCircuits:
    def test_trivially_true(self):
        b = CircuitBuilder()
        b.output("ok", b.scalar("bit", 1))
        c = b.build()
        assert evaluate_decision_circuit(c, {}) is True

    def test_length_equality_verifier(self):
        from colcirc.types import U8

        b = CircuitBuilder()
        n1 = b.length(b.input("pos"), str(INT))
        n2 = b.length(b.input("data"), "u8")
        b.output("ok", b.ew("eq", {"type": str(INT)}, lhs=n1, rhs=n2))
        c = b.build()
        assert evaluate_decision_circuit(
            c, {"pos": make_column(INT, [0, 1]), "data": make_column(U8, [5, 6])}
        )
        assert not evaluate_decision_circuit(
            c, {"pos": make_column(INT, [0]), "data": make_column(U8, [5, 6])}
        )

    def test_non_scalar_output_rejected(self):
        b = CircuitBuilder()
        b.output("ok", b.noop(b.input("x"), "bit"))
        c = b.build()
        with pytest.raises(OperatorError, match="non-scalar"):
            evaluate_decision_circuit(c, {"x": make_column(BIT, [1, 1])})


class TestJson:
    def test_roundtrip(self):
        c = double_plus_three()
        doc = circuit_to_json(c)
        c2 = circuit_from_json(doc)
        assert validate_circuit(c2).ok
        col = make_column(U32, [3, 10])
        assert evaluate_circuit(c, {"col": col}) == evaluate_circuit(c2, {"col": col})

    def test_editing_the_document_leaves_the_circuit_alone(self):
        def vandalize(value):
            """Edit every dict and list inside ``value``, at every depth."""
            if isinstance(value, dict):
                for key in list(value):
                    vandalize(value[key])
                    value[key] = "zz"
                value["zz"] = "zz"
            elif isinstance(value, list):
                for item in value:
                    vandalize(item)
                value.append("zz")

        entry = codec("for")
        params = entry.normalize_params({"type": "u64", "offset_type": "u16", "segment_length": 128})
        for c in (q6_circuit(), entry.decoder(params)):
            text = dump_circuit(c)
            doc = circuit_to_json(c)
            doc["vertices"][0]["params"]["lo"] = "zz"
            for vertex in doc["vertices"]:
                vandalize(vertex["params"])
            assert c == load_circuit(text) and dump_circuit(c) == text
        # the decoder cache still holds the decoder it held
        assert entry.decoder(params) == load_circuit(dump_circuit(entry.build_decoder(params)))

    def test_declared_signature_checked(self):
        doc = circuit_to_json(double_plus_three())
        doc["signature"]["inputs"]["col"] = "u8"
        with pytest.raises(Exception):
            circuit_from_json(doc)


class TestHandWrittenInits:
    """``Signature``, ``OperatorInstance`` and ``ColumnarCircuit`` write their
    own ``__init__`` and ``_port`` builds ports from plain tuples; a field
    added later and missed there would otherwise go unnoticed."""

    @pytest.mark.parametrize("cls", [Signature, OperatorInstance, ColumnarCircuit])
    def test_the_init_takes_and_sets_every_field_in_order(self, cls):
        names = [f.name for f in dataclasses.fields(cls)]
        assert list(inspect.signature(cls.__init__).parameters)[1:] == names
        values = {name: object() for name in names}
        if cls is Signature:
            values = {"inputs": {"a": U32}, "outputs": {"b": U32}}
        if cls is ColumnarCircuit:
            values["edges"] = [(out_port("a", "result"), in_port("b", "col"))]
        made = cls(**values)
        for name in names:
            got = getattr(made, name)
            assert (got == frozenset(values[name])) if name == "edges" else (got is values[name]), name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(made, names[0], None)

    def test_port_from_a_tuple_is_a_full_port_ref(self):
        p = PortRef("v1", "result", OUT)
        made = _port(tuple(p))
        assert type(made) is PortRef and made == p and len(made) == len(PortRef._fields)
        assert (made.vertex_id, made.port_label, made.direction) == ("v1", "result", OUT)
