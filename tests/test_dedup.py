"""Duplicate-vertex elimination in one value-numbering pass.

``eliminate_duplicate_vertices`` is checked against the fixpoint loop it
replaced, kept here as an oracle: on every scheme-case decoder, on the
spliced Q6 plan and on random circuits, alone and with a clone of their
non-input vertices that only a chain of merges folds back, the result is
the same circuit with the same vertex and interface order.
"""

import random

import pytest

from colcirc import circuit, codec, eliminate_duplicate_vertices, evaluate_circuit, in_port, instantiate, out_port
from colcirc.circuit import IN, PortRef
from colcirc.errors import EvaluationError, InvalidCircuitError
from colcirc.transform import _params_key

from circuit_gen import random_circuit, random_inputs
from paths import random_query, splice_q6
from scheme_cases import CASES


def fixpoint_dedup(c):
    """The earlier implementation: re-key every vertex each round until no round merges."""
    current = c
    while True:
        feeders = {}
        input_of = {port: label for label, port in current.interface.items() if port.direction == IN}
        for s, t in current.edges:
            feeders[t] = ("edge", s.vertex_id, s.port_label)
        keys = {}
        for vid, op in sorted(current.vertices.items()):
            sources = []
            for label in op.signature.inputs:
                port = PortRef(vid, label, IN)
                if port in feeders:
                    sources.append((label,) + feeders[port])
                else:
                    sources.append((label, "input", input_of.get(port)))
            key = (op.op_name, _params_key(op.params), tuple(sources))
            keys.setdefault(key, []).append(vid)
        merge = {}
        for key, vids in keys.items():
            if len(vids) > 1 and (not key[2] or all(src[1] == "edge" for src in key[2])):
                for dup in vids[1:]:
                    merge[dup] = vids[0]
        if not merge:
            return current

        def moved(port):
            new_vid = merge.get(port.vertex_id)
            return PortRef(new_vid, port.port_label, port.direction) if new_vid else port

        vertices = {vid: op for vid, op in current.vertices.items() if vid not in merge}
        edges = {(moved(s), t) for s, t in current.edges if t.vertex_id not in merge}
        current = circuit(vertices, edges, {label: moved(port) for label, port in current.interface.items()})


def cloned(c):
    """``c`` plus a copy ``w:<id>`` of every vertex not fed by a circuit input, reading from the copies
    of its sources, and an output ``w:<label>`` for each output: duplicates that merge only in chains."""
    inputs = {port.vertex_id for label, port in c.interface.items() if label in c.signature.inputs}
    name = {vid: vid if vid in inputs else f"w:{vid}" for vid in c.vertices}
    vertices = dict(c.vertices)
    vertices.update({name[vid]: op for vid, op in c.vertices.items() if vid not in inputs})
    edges = set(c.edges)
    edges.update(
        (out_port(name[s.vertex_id], s.port_label), in_port(name[t.vertex_id], t.port_label))
        for s, t in c.edges
        if t.vertex_id not in inputs
    )
    interface = dict(c.interface)
    interface.update(
        {f"w:{label}": out_port(name[p.vertex_id], p.port_label) for label, p in c.interface.items()
         if label in c.signature.outputs}
    )
    return circuit(vertices, edges, interface)


def assert_as_before(c):
    got, want = eliminate_duplicate_vertices(c), fixpoint_dedup(c)
    assert got == want
    assert list(got.vertices) == list(want.vertices) and list(got.interface) == list(want.interface)
    return got


def test_every_scheme_case_decoder_and_the_spliced_plan():
    merged, rng = 0, random.Random(31)
    for sid in sorted(CASES):
        params, _ = CASES[sid].gen(random.Random(0))
        c = codec(sid).build_decoder(params)
        merged += len(c.vertices) - len(assert_as_before(c).vertices)
    assert merged  # the decoders' repeated scalars merge
    for _ in range(5):
        assert_as_before(splice_q6(random_query(rng)[1]))


def test_random_circuits_and_their_clones():
    rng = random.Random(29)
    chains = 0
    for _ in range(300):
        c = random_circuit(rng, n_inputs=rng.randint(1, 3), n_steps=rng.randint(1, 12))
        assert_as_before(c)
        twin = cloned(c)
        out = assert_as_before(twin)
        assert set(out.vertices) <= set(c.vertices)  # every copy folds back onto a least id
        chains += len(out.vertices) < len(twin.vertices)
        inputs = random_inputs(rng, c)
        try:
            ref = evaluate_circuit(twin, inputs)
        except EvaluationError:  # a random input past a generated length contract
            continue
        assert evaluate_circuit(out, inputs) == ref
    assert chains == 300


def test_a_class_keeps_its_least_id_in_string_order():
    one = instantiate("scalar", {"type": "u8", "value": 1})
    c = circuit({"v9": one, "v10": one, "v2": one}, set(), {f"o{v}": out_port(v, "value") for v in ("v9", "v10", "v2")})
    out = eliminate_duplicate_vertices(c)
    assert list(out.vertices) == ["v10"] and set(out.interface.values()) == {out_port("v10", "value")}


def test_no_duplicates_returns_the_circuit_itself():
    relay = instantiate("no_op", {"type": "u8"})
    c = circuit({"a": relay}, set(), {"x": in_port("a", "arguments"), "y": out_port("a", "result")})
    assert eliminate_duplicate_vertices(c) is c


def test_a_cyclic_circuit_is_invalid():
    relay = instantiate("no_op", {"type": "u8"})
    edges = {(out_port("a", "result"), in_port("b", "arguments")), (out_port("b", "result"), in_port("a", "arguments"))}
    c = circuit({"a": relay, "b": relay}, edges, {"y": out_port("a", "result")})
    with pytest.raises(InvalidCircuitError, match="cycle"):
        eliminate_duplicate_vertices(c)


def test_an_edge_from_nowhere_is_invalid():
    relay = instantiate("no_op", {"type": "u8"})
    c = circuit({"a": relay}, {(out_port("zz", "result"), in_port("a", "arguments"))}, {"y": out_port("a", "result")})
    with pytest.raises(InvalidCircuitError, match="bad-edge-source"):
        eliminate_duplicate_vertices(c)


def test_consumers_of_different_out_ports_stay_apart():
    split, length = instantiate("split_first", {"type": "u8"}), instantiate("length", {"type": "u8"})
    edges = {(out_port("s", "head"), in_port("a", "col")), (out_port("s", "tail"), in_port("b", "col"))}
    interface = {"x": in_port("s", "col"), "na": out_port("a", "result"), "nb": out_port("b", "result")}
    c = circuit({"s": split, "a": length, "b": length}, edges, interface)
    assert eliminate_duplicate_vertices(c) is c
