"""CircuitBuilder owns input relays: one per fanned-out input, none otherwise."""

import itertools
import random

import pytest

from colcirc import CompositionRecipe, codec, compose, evaluate_circuit, make_column
from colcirc.builder import CircuitBuilder
from colcirc.circuit import IN, OUT, PortRef
from colcirc.errors import ColcircError
from colcirc.types import U32

from scheme_cases import CASES

_suffix = itertools.count()


def _no_ops(c):
    return [vid for vid, op in c.vertices.items() if op.op_name == "no_op"]


class TestInputRelays:
    def test_single_use_input_maps_onto_its_consumer(self):
        b = CircuitBuilder()
        doubled = b.ew("scale", {"type": "u32", "k": 2}, arguments=b.input("x"))
        b.output("y", doubled)
        c = b.build()
        assert _no_ops(c) == []
        assert c.interface["x"] == PortRef(doubled.port.vertex_id, "arguments", IN)
        out = evaluate_circuit(c, {"x": make_column(U32, [1, 2, 3])})
        assert out["y"].values == (2, 4, 6)

    def test_fanned_out_input_gets_one_relay_of_the_consumers_type(self):
        b = CircuitBuilder()
        x = b.input("x")
        consumers = [b.ew("scale", {"type": "u32", "k": k}, arguments=x) for k in (1, 2, 3)]
        for i, w in enumerate(consumers):
            b.output(f"y{i}", w)
        c = b.build()
        (relay,) = _no_ops(c)
        assert str(c.vertices[relay].signature.inputs["arguments"]) == "u32"
        assert c.interface["x"] == PortRef(relay, "arguments", IN)
        fed = {dst for src, dst in c.edges if src == PortRef(relay, "result", OUT)}
        assert fed == {PortRef(w.port.vertex_id, "arguments", IN) for w in consumers}
        out = evaluate_circuit(c, {"x": make_column(U32, [5])})
        assert [out[f"y{i}"].values for i in range(3)] == [(5,), (10,), (15,)]

    def test_building_twice_gives_equal_circuits(self):
        b = CircuitBuilder()
        x = b.input("x")
        b.output("s", b.add_cols("u32", x, x))
        assert b.build() == b.build()

    def test_input_into_ports_of_different_types_is_rejected(self):
        b = CircuitBuilder()
        x = b.input("x")
        b.output("a", b.ew("scale", {"type": "u32", "k": 2}, arguments=x))
        b.output("b", b.ew("scale", {"type": "u8", "k": 2}, arguments=x))
        with pytest.raises(ColcircError, match="different types"):
            b.build()

    def test_cast_to_the_same_type_adds_no_vertex(self):
        b = CircuitBuilder()
        w = b.scalar("u32", 7)
        assert b.cast("u32", "u32", w) is w
        x = b.input("x")
        assert b.cast("u32", "u32", x) is x
        assert len(b._vertices) == 1

    def test_output_takes_only_wires(self):
        b = CircuitBuilder()
        with pytest.raises(ColcircError, match="out-port"):
            b.result("col", b.input("x"))


# composed codecs over inner schemes of every decoder shape, each kind once
_RECIPES = (
    ("segmentize-uniform", (("nullsup", {"type": "u32", "narrow_type": "u8"}),), {"segment_length": 4}),
    ("segmentize-variable", (("nullsup", {"type": "u32", "narrow_type": "u8"}),), {}),
    (
        "elementwise-add",
        (("generated.poly", {"type": "u32", "degree": 1}), ("nullsup", {"type": "u32", "narrow_type": "u8"})),
        {},
    ),
    ("patch", (("constant", {"type": "u8"}),), {}),
    ("small-dict-fit", (("nullsup", {"type": "u32", "narrow_type": "u8"}),), {"bits": 2}),
    ("differentiate", (("nullsup", {"type": "i16", "narrow_type": "i8"}),), {"type": "u32"}),
    ("alternate", (("constant", {"type": "u8"}), ("run.rle", {"type": "u8"})), {}),
)


def _scheme_case_decoders():
    for sid, case in sorted(CASES.items()):
        params, _ = case.gen(random.Random(0))
        yield sid, codec(sid).decoder(params)


def _composed_decoders():
    for kind, inner, options in _RECIPES:
        entry = compose(CompositionRecipe(kind, f"testonly.builder.{kind}.{next(_suffix)}", inner, options))
        yield kind, entry.decoder({})


def _stray_relays(c):
    """``no_op`` vertices that are neither a fan-out relay, a sink nor an input-to-output relay."""
    inputs = {port for label, port in c.interface.items() if label in c.signature.inputs}
    outputs = {port for label, port in c.interface.items() if label in c.signature.outputs}
    stray = []
    for vid in _no_ops(c):
        src, dst = PortRef(vid, "arguments", IN), PortRef(vid, "result", OUT)
        fed = sum(1 for s, _ in c.edges if s == dst)
        from_input = src in inputs
        fan_out = from_input and fed >= 2
        sink = from_input and fed == 0 and dst not in outputs
        passthrough = from_input and dst in outputs
        if not (fan_out or sink or passthrough):
            stray.append(vid)
    return stray


class TestRelayInvariant:
    def test_scheme_case_decoders_build_no_stray_relay(self):
        decoders = dict(_scheme_case_decoders())
        assert len(decoders) == len(CASES)
        stray = {sid: _stray_relays(c) for sid, c in decoders.items()}
        assert {sid: vids for sid, vids in stray.items() if vids} == {}

    def test_composed_decoders_build_no_stray_relay(self):
        stray = {kind: _stray_relays(c) for kind, c in _composed_decoders()}
        assert {kind: vids for kind, vids in stray.items() if vids} == {}

    def test_pass_through_inner_decoder_keeps_its_relay(self):
        # An identity narrowing decodes through one input-to-output relay.  A
        # composition consumes that output, so the relay ends up feeding a
        # single port; only a decoder normalization could drop it.
        inner = (("constant", {"type": "u8"}), ("nullsup", {"type": "u8", "narrow_type": "u8"}))
        entry = compose(CompositionRecipe("alternate", f"testonly.builder.alt.{next(_suffix)}", inner))
        c = entry.decoder({})
        (stray,) = _stray_relays(c)
        assert c.interface["s1:narrow"] == PortRef(stray, "arguments", IN)

    def test_scheme_case_decoders_keep_few_relays(self):
        relays = sum(len(_no_ops(c)) for _, c in _scheme_case_decoders())
        vertices = sum(len(c.vertices) for _, c in _scheme_case_decoders())
        assert 0 < relays < vertices // 10
