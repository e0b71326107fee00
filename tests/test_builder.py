"""CircuitBuilder owns input relays: one per fanned-out input, none otherwise.

``embed`` copies a circuit in as a subcircuit under fresh ids; composed
decoders are builder programs that embed their inner decoders.
"""

import itertools
import random
from collections import Counter

import pytest

from colcirc import (
    CompositionRecipe,
    circuit,
    codec,
    compose,
    decode,
    encode,
    evaluate_circuit,
    instantiate,
    make_column,
    verify,
)
from colcirc.builder import CircuitBuilder, Wire
from colcirc.circuit import IN, OUT, PortRef
from colcirc.errors import ColcircError, InvalidCircuitError
from colcirc.types import INT, U8, U32, parse_type

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

    def test_pass_through_inner_decoder_loses_its_relay(self):
        # An identity narrowing decodes through one input-to-output relay.
        # Embedded, its output is the input that fed it, so the composition's
        # scatter takes ``s1:narrow`` directly (the benchmark's ``bench.alt``)
        inner = (("constant", {"type": "u8"}), ("nullsup", {"type": "u8", "narrow_type": "u8"}))
        entry = compose(CompositionRecipe("alternate", f"testonly.builder.alt.{next(_suffix)}", inner))
        c = entry.decoder({})
        assert _stray_relays(c) == [] and len(c.vertices) == 11
        (relay,) = _no_ops(c)  # fans ``partition`` out
        assert c.interface["partition"] == PortRef(relay, "arguments", IN)
        assert c.vertices[c.interface["s1:narrow"].vertex_id].op_name == "scatter"
        inst = encode(entry.scheme_id, {"partition": [1, 0, 1]}, make_column(U8, [9, 4, 8]))
        assert decode(inst)["col"].values == (9, 4, 8)

    def test_scheme_case_decoders_keep_few_relays(self):
        relays = sum(len(_no_ops(c)) for _, c in _scheme_case_decoders())
        vertices = sum(len(c.vertices) for _, c in _scheme_case_decoders())
        assert 0 < relays < vertices // 10


def _scale_circuit(k=2):
    """``y = k * x`` over u32, one vertex, built by a builder of its own."""
    b = CircuitBuilder()
    b.output("y", b.ew("scale", {"type": "u32", "k": k}, arguments=b.input("x")))
    return b.build()


def _run(c, **columns):
    out = evaluate_circuit(c, {label: make_column(U32, vals) for label, vals in columns.items()})
    return {label: col.values for label, col in out.items()}


class TestEmbed:
    def test_a_wire_feeds_the_embedded_input(self):
        b = CircuitBuilder()
        tripled = b.ew("scale", {"type": "u32", "k": 3}, arguments=b.input("a"))
        outs = b.embed(_scale_circuit(), {"x": tripled})
        assert list(outs) == ["y"] and isinstance(outs["y"], Wire)
        b.output("z", outs["y"])
        c = b.build()
        assert list(c.signature.inputs) == ["a"]
        assert _run(c, a=[1, 2]) == {"z": (6, 12)}

    def test_an_input_feeds_the_embedded_port_directly(self):
        b = CircuitBuilder()
        b.output("z", b.embed(_scale_circuit(), {"x": b.input("a")})["y"])
        c = b.build()
        assert _no_ops(c) == []
        (vid,) = c.vertices
        assert c.interface["a"] == PortRef(vid, "arguments", IN)
        assert _run(c, a=[5]) == {"z": (10,)}

    def test_a_label_feeding_tail_and_embedded_ports_gets_one_relay(self):
        # the embedded circuit fans its input out through a relay of its own
        inner = CircuitBuilder()
        x = inner.input("x")
        inner.output("y", inner.add_cols("u32", x, x))
        fanned = inner.build()
        assert len(_no_ops(fanned)) == 1
        b = CircuitBuilder()
        a = b.input("a")
        b.output("z", b.add_cols("u32", b.embed(fanned, {"x": a})["y"], a))
        c = b.build()
        (relay,) = _no_ops(c)
        assert c.interface["a"] == PortRef(relay, "arguments", IN)
        assert sum(1 for src, _ in c.edges if src == PortRef(relay, "result", OUT)) == 3
        assert _run(c, a=[1, 7]) == {"z": (3, 21)}

    def test_copied_vertices_get_fresh_ids(self):
        b = CircuitBuilder()
        first = b.embed(_scale_circuit(2), {"x": b.input("a")})["y"]
        second = b.embed(_scale_circuit(5), {"x": first})["y"]
        b.output("z", second)
        c = b.build()
        assert sorted(c.vertices) == ["v1_elementwise", "v2_elementwise"]
        assert first.port.vertex_id != second.port.vertex_id
        assert _run(c, a=[1, 3]) == {"z": (10, 30)}

    def test_a_pass_through_relay_is_not_copied(self):
        inner = CircuitBuilder()
        inner.output("y", inner.noop(inner.input("x"), "u32"))
        through = inner.build()
        b = CircuitBuilder()
        a = b.input("a")
        assert b.embed(through, {"x": a})["y"] is a
        w = b.scalar("u32", 4)
        assert b.embed(through, {"x": w})["y"] is w
        assert list(b._vertices) == ["v1_scalar"]
        # the nullsup identity narrowing decodes through such a relay
        narrowing = codec("nullsup").decoder({"type": "u8", "narrow_type": "u8"})
        assert b.embed(narrowing, {"narrow": a})["out:col"] is a

    def test_a_sink_relay_is_kept(self):
        # ``run.rle.capped`` parks its ``cap`` column in a relay that feeds nothing
        capped = (("run.rle.capped", {"type": "u8", "cap": 3}),)
        entry = compose(CompositionRecipe("patch", f"testonly.builder.patchcap.{next(_suffix)}", capped))
        c = entry.decoder({})
        sink = c.interface["base:cap"].vertex_id
        assert c.vertices[sink].op_name == "no_op"
        assert not any(src.vertex_id == sink for src, _ in c.edges)
        assert _stray_relays(c) == []
        inst = encode(entry.scheme_id, {}, make_column(U8, [5, 5, 5, 5, 2]))
        assert verify(inst) and decode(inst)["col"].values == (5, 5, 5, 5, 2)

    def test_nested_compositions_embed_whole_composed_decoders(self):
        diff = compose(
            CompositionRecipe(
                "differentiate",
                f"testonly.builder.diff.{next(_suffix)}",
                (("nullsup", {"type": "i16", "narrow_type": "i8"}),),
                {"type": "u32"},
            )
        )
        patched = compose(
            CompositionRecipe("patch", f"testonly.builder.patchdiff.{next(_suffix)}", ((diff.scheme_id, {}),))
        )
        inner, outer = diff.decoder({}), patched.decoder({})
        assert Counter(op.op_name for op in outer.vertices.values()) == Counter(
            op.op_name for op in inner.vertices.values()
        ) + Counter(["scatter"])
        assert set(outer.signature.inputs) == {"patch_pos", "patch_data"} | {f"base:{lb}" for lb in inner.signature.inputs}
        values = [500, 510, 490, 495]
        inst = encode(patched.scheme_id, {}, make_column(U32, values))
        assert verify(inst) and decode(inst)["col"].values == tuple(values)

    def test_every_input_label_is_fed_once(self):
        b = CircuitBuilder()
        with pytest.raises(ColcircError, match="not the inputs"):
            b.embed(_scale_circuit(), {})
        with pytest.raises(ColcircError, match="not the inputs"):
            b.embed(_scale_circuit(), {"x": b.input("a"), "w": b.input("b")})
        with pytest.raises(ColcircError, match="takes u32"):
            b.embed(_scale_circuit(), {"x": b.scalar("u8", 1)})


def _violation_kinds(b):
    with pytest.raises(InvalidCircuitError) as exc:
        b.build()
    return [v.kind for v in exc.value.report.violations]


class TestBuildFailures:
    """``build()`` returns a valid circuit or raises ``InvalidCircuitError``."""

    def test_type_mismatched_edge(self):
        b = CircuitBuilder()
        b.output("y", b.ew("scale", {"type": "u32", "k": 2}, arguments=b.scalar("u8", 1)))
        assert _violation_kinds(b) == ["type-mismatch"]
        one, scale = instantiate("scalar", {"type": "u8", "value": 1}), instantiate("elementwise", {"fn": "scale", "type": "u32", "k": 2})
        edges = {(PortRef("one", "value", OUT), PortRef("scale", "arguments", IN))}
        assert circuit({"one": one, "scale": scale}, edges, {"y": PortRef("scale", "result", OUT)}).signature.outputs["y"] == U32

    def test_wire_of_another_builder(self):
        other = CircuitBuilder()
        foreign = other.scalar("u32", 7)
        b = CircuitBuilder()
        b.output("n", b.length(foreign, "u32"))
        assert "bad-edge-source" in _violation_kinds(b)

    def test_wire_of_another_builder_under_an_id_of_this_one(self):
        other = CircuitBuilder()
        foreign = other.scalar("u32", 7)
        b = CircuitBuilder()
        own = b.scalar("u32", 7)
        assert own.port == foreign.port
        b.output("n", b.length(foreign, "u32"))
        assert _violation_kinds(b) == ["bad-edge-source"]
        with pytest.raises(ColcircError, match="of this builder"):
            b.output("m", foreign)

    def test_a_failed_add_leaves_its_vertex_unfed(self):
        b = CircuitBuilder()
        with pytest.raises(ColcircError, match="cannot wire"):
            b.add_cols("u32", b.input("x"), 42)
        b.output("n", b.length(b.input("y"), "u32"))
        assert _violation_kinds(b) == ["unmapped-disengaged-input"]

    def test_embedded_circuit_with_a_type_mismatched_edge(self):
        one, add = instantiate("scalar", {"type": "u8", "value": 1}), instantiate("elementwise", {"fn": "add", "type": "u32"})
        edges = {(PortRef("one", "value", OUT), PortRef("add", "rhs", IN))}
        bad = circuit({"one": one, "add": add}, edges, {"x": PortRef("add", "lhs", IN), "y": PortRef("add", "result", OUT)})
        b = CircuitBuilder()
        b.output("y", b.embed(bad, {"x": b.input("x")})["y"])
        assert _violation_kinds(b) == ["type-mismatch"]

    def test_embedded_circuit_with_a_cycle(self):
        vertices = {"a": instantiate("elementwise", {"fn": "add", "type": "u32"}), "b": instantiate("no_op", {"type": "u32"})}
        edges = {(PortRef("a", "result", OUT), PortRef("b", "arguments", IN)), (PortRef("b", "result", OUT), PortRef("a", "rhs", IN))}
        looped = circuit(vertices, edges, {"x": PortRef("a", "lhs", IN), "y": PortRef("a", "result", OUT)})
        b = CircuitBuilder()
        b.output("y", b.embed(looped, {"x": b.input("x")})["y"])
        assert _violation_kinds(b) == ["cycle"]


# The encoded form each kind declared before composed forms were derived from
# the decoder: the recipe's own columns, then each inner form under its prefix
_DECLARED = {
    "segmentize-uniform": (lambda t, o: {"segment_length": INT, "total_length": INT}, lambda k: ["seg:"]),
    "segmentize-variable": (lambda t, o: {"segment_lengths": INT}, lambda k: ["seg:"]),
    "elementwise-add": (lambda t, o: {}, lambda k: ["a:", "b:"]),
    "patch": (lambda t, o: {"patch_pos": INT, "patch_data": t}, lambda k: ["base:"]),
    "small-dict-fit": (
        lambda t, o: {"dictionary": t, "indices": parse_type(f"u{o['bits']}")},
        lambda k: ["residual:"],
    ),
    "differentiate": (lambda t, o: {"first": parse_type(o["type"])}, lambda k: ["diff:"]),
    "alternate": (lambda t, o: {"partition": INT}, lambda k: [f"s{i}:" for i in range(k)]),
}


def test_composed_form_spec_is_the_declared_one():
    assert {kind for kind, _, _ in _RECIPES} == set(_DECLARED)
    for kind, inner, options in _RECIPES:
        entry = compose(CompositionRecipe(kind, f"testonly.builder.spec.{kind}.{next(_suffix)}", inner, options))
        recipe_columns, prefixes = _DECLARED[kind]
        declared = recipe_columns(parse_type(inner[0][1]["type"]), options)
        for (sid, params), prefix in zip(inner, prefixes(len(inner))):
            declared.update({prefix + label: t for label, t in codec(sid).form_spec(params).items()})
        assert dict(entry.form_spec({})) == declared, kind
