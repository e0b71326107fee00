"""The uniform-segment decoders against their position-arithmetic oracles.

Every builtin decoder that broadcasts per-segment values with ``spread``
decodes what its oracle in ``segment_oracles.py`` decodes: the same columns,
or an ``EvaluationError`` whose cause is an ``OperatorError`` of the same
kind.  The instances are those ``verify`` accepts among three sets: the
shared battery of ``paths.scheme_battery``, families of values at the edges
of their types (``paths.edges``, ``paths.far_edges``), and the
``paths.at_bounds`` copies of each of those.

A structural guard keeps the old pattern out: no decoder of a
``scheme_cases`` case gathers at positions derived from ``clip_by`` of an
``iota``.
"""

import itertools
import random

import pytest

from colcirc import Column, codec, encode, evaluate_circuit, verify
from colcirc.circuit import IN, PortRef
from colcirc.errors import ColcircError, EvaluationError, OperatorError
from colcirc.rep_schemes import canonical_varwidth
from colcirc.types import I8, I64, INT, U8, U32, U64
from paths import at_bounds, edges, far_edges, scheme_battery
from scheme_cases import CASES
from segment_oracles import ORACLES

TYPES = [U8, U32, U64, I8, I64]
LENGTHS = [1, 2, 3, 128]


def _col_families(sid, t, vals):
    """``(params, family)`` of a scheme that decodes to one column ``col``, over ``vals`` of ``t``."""
    name, col = str(t), Column(t, vals)
    for ell in LENGTHS:
        if sid == "for":
            for off in ("u8", "u64"):
                yield {"type": name, "offset_type": off, "segment_length": ell}, {"col": col}
        elif sid in ("delta", "delta.patched"):
            for dt in ("i8", "i64"):
                yield {"type": name, "delta_type": dt, "segment_length": ell}, {"col": col}
        elif sid in ("segdict", "segdict.two_level"):
            for d in (1, 3, 16):
                yield {"type": name, "segment_length": ell, "dict_size": d}, {"col": col}
        elif sid == "spline.equiknotted":
            steps = Column(t, [v for v in vals for _ in range(min(ell, 3))])  # constant segments
            yield {"type": name, "basis": [0], "interval_length": ell}, {"col": steps}
            yield {"type": name, "basis": [0, 1], "interval_length": ell}, {"col": col}
            yield {"type": name, "basis": [], "interval_length": ell}, {"col": Column(t, [0] * len(vals))}


def edge_families(sid):
    """``(params, family)`` pairs of scheme ``sid`` whose values lie at the edges of their types."""
    for t, picks in itertools.product(TYPES, (edges, far_edges)):
        vals = picks(t)
        for order in (vals, vals[::-1]):
            yield from _col_families(sid, t, order)
            if sid == "subcolumn.segmented":
                for ell in LENGTHS:
                    for block in (0, 5, (2**64 - 64) // ell):  # positions just below the u64 bound
                        pos = Column(INT, [block * ell + i for i in range(len(order))])
                        yield {"type": str(t), "segment_length": ell}, {"pos": pos, "data": Column(t, order)}
            if sid == "pvw":
                elements = [order[:2], order[2:3], (), order[3:]]
                for period in (1, 2, 3):
                    yield {"type": str(t), "period": period}, canonical_varwidth(elements, t)


def _encoded(sid, params, family):
    try:
        return encode(sid, params, family)
    except ColcircError:  # outside the encodable set: nothing to compare
        return None


def instances(sid):
    """The battery, the edge families and the bounds copies of each, as ``verify`` accepts them."""
    rng = random.Random(f"spread-oracle-{sid}")
    found = list(scheme_battery(sid, CASES[sid], rng))
    for params, family in edge_families(sid):
        inst = _encoded(sid, params, family)
        if inst is not None:
            found += [inst, *at_bounds(rng, inst)]
    return [inst for inst in found if verify(inst)]


def decoded(circuit, inst):
    """The decoded columns, or the kind of operator error the decode failed with."""
    try:
        return evaluate_circuit(circuit, inst.columns)
    except EvaluationError as exc:
        assert isinstance(exc.cause, OperatorError), exc
        return exc.cause.code


@pytest.mark.parametrize("sid", sorted(ORACLES))
def test_decodes_as_its_oracle(sid):
    entry = codec(sid)
    outcomes = []
    for inst in instances(sid):
        params = entry.normalize_params(inst.params)
        got = decoded(entry.decoder(params), inst)
        assert got == decoded(ORACLES[sid](params), inst), (inst.params, inst.columns)
        outcomes.append(got)
    assert any(isinstance(got, dict) for got in outcomes), sid
    if sid in ("for", "delta", "delta.patched", "subcolumn.segmented", "spline.equiknotted"):
        assert any(isinstance(got, str) for got in outcomes), sid  # the verifier's known gaps fail alike


def _producer(c, vid, label):
    """The vertex that feeds in-port ``label`` of vertex ``vid``, or None for a circuit input."""
    target = PortRef(vid, label, IN)
    return next((src.vertex_id for src, dst in c.edges if dst == target), None)


def _upstream(c, vid, label):
    """Every vertex that in-port ``label`` of vertex ``vid`` depends on."""
    seen, todo = set(), [(vid, label)]
    while todo:
        src = _producer(c, *todo.pop())
        if src is not None and src not in seen:
            seen.add(src)
            todo += [(src, lb) for lb in c.vertices[src].signature.inputs]
    return seen


def _per_position_segments(c, vid):
    """True if vertex ``vid`` is ``clip_by`` of an ``iota``: each position's segment number."""
    op = c.vertices[vid]
    if op.op_name != "elementwise" or op.params["fn"] != "clip_by":
        return False
    src = _producer(c, vid, "arguments")
    return src is not None and c.vertices[src].op_name == "iota"


@pytest.mark.parametrize("sid", sorted(CASES))
def test_no_decoder_gathers_at_per_position_segment_numbers(sid):
    params, _ = CASES[sid].gen(random.Random(sid))
    entry = codec(sid)
    c = entry.decoder(entry.normalize_params(params))
    for vid, op in c.vertices.items():
        if op.op_name == "gather":
            assert not any(_per_position_segments(c, up) for up in _upstream(c, vid, "pos")), (sid, vid)
