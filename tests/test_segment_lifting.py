"""Segmentized codecs over position-wise inner schemes, against the host loop.

Over a position-wise inner scheme (``nullsup``: one cast or one relay per
value, a form-only verifier) a segmentized decoder is one flat circuit and
its verifier checks lengths without decoding.  The oracle is the same codec
taken through the host loop: the catalog's ``segmentized`` operator decodes
segment by segment, and the verifier checks and decodes every segment.
"""

import copy
import importlib
import itertools
import os
import random

import pytest

from colcirc import (
    Column,
    CompositionRecipe,
    SchemeInstance,
    compose,
    decode,
    encode,
    evaluate_circuit,
    instantiate,
    scalar_column,
    verify,
    write_bundle,
)
from colcirc.cli import main
from colcirc.errors import ColcircError, EvaluationError, VerificationFailed
from colcirc.types import I16, INT, U8, U32, parse_type
from scheme_cases import corrupt_extend, corrupt_set, corrupt_truncate

compose_mod = importlib.import_module("colcirc.compose")  # the package's ``compose`` is the function
_ids = itertools.count()

# (inner params, decoded type): the benchmark's u32 over u8, a relay and a signed widening
INNERS = [
    ({"type": "u32", "narrow_type": "u8"}, U32),
    ({"type": "u8", "narrow_type": "u8"}, U8),
    ({"type": "i16", "narrow_type": "i8"}, I16),
]
SHAPES = [("segmentize-uniform", {"segment_length": ell}) for ell in (1, 4, 256)] + [("segmentize-variable", {})]


def _composed():
    out = []
    for (iparams, t), (kind, options) in itertools.product(INNERS, SHAPES):
        sid = f"testonly.lifting.{kind}.{next(_ids)}"
        entry = compose(CompositionRecipe(kind, sid, (("nullsup", iparams),), options))
        tag = f"{iparams['type']}-{iparams['narrow_type']}-{kind[11:]}-{options}"
        out.append(pytest.param(entry, iparams, t, id=tag))
    return out


COMPOSED = _composed()


def _host_loop(entry):
    """``entry`` with lifting turned off: the ``segmentized`` operator and the per-segment verifier."""
    oracle = copy.copy(entry)
    oracle.lifted = False
    oracle._decoder_cache = {}
    return oracle


def _values(rng, t, n):
    lo, hi = (-128, 127) if t is I16 else (0, 255)
    return [rng.randint(lo, hi) for _ in range(n)]


def _segments(rng, n):
    cuts = sorted(rng.sample(range(1, n), rng.randrange(0, min(n, 4)))) if n > 1 else []
    return [b - a for a, b in zip([0, *cuts], [*cuts, n])] if n else []


def _family(entry, rng, t, n):
    values = _values(rng, t, n)
    return ({} if entry.uniform else {"segments": _segments(rng, n)}), Column(t, values)


def _per_segment_encoding(entry, iparams, params, col):
    """The encoded form built segment by segment from plain ``nullsup`` encodings."""
    n = len(col)
    if entry.uniform:
        segments = [entry.ell] * (n // entry.ell) + ([n % entry.ell] if n % entry.ell else [])
    else:
        segments = params["segments"]
    narrow, at = [], 0
    for seg_len in segments:
        piece = Column(col.element_type, col.values[at : at + seg_len])
        narrow.extend(encode("nullsup", iparams, piece).columns["narrow"].values)
        at += seg_len
    out = {"seg:narrow": Column(parse_type(iparams["narrow_type"]), narrow)}
    if entry.uniform:
        out.update(segment_length=scalar_column(INT, entry.ell), total_length=scalar_column(INT, n))
    else:
        out["segment_lengths"] = Column(INT, segments)
    return out


def _mismatches(entry, inst):
    """Hand-made length faults: well-typed instances whose lengths disagree."""
    narrow = inst.columns["seg:narrow"]
    n = len(narrow)
    if entry.uniform:
        yield inst.with_columns(total_length=scalar_column(INT, 2**40))
        yield inst.with_columns(total_length=scalar_column(INT, n + 1))
        yield inst.with_columns(total_length=Column(INT, [n, n]))
        yield inst.with_columns(total_length=Column(INT, []))
        yield inst.with_columns(segment_length=Column(INT, [entry.ell, entry.ell]))
        yield inst.with_columns(segment_length=scalar_column(INT, entry.ell + 1))
    else:
        lengths = list(inst.columns["segment_lengths"].values)
        yield inst.with_columns(segment_lengths=Column(INT, [*lengths, 2**40]))
        yield inst.with_columns(segment_lengths=Column(INT, [*lengths, 1]))
        yield inst.with_columns(segment_lengths=Column(INT, [2**64 - 1, 2]))
        yield inst.with_columns(segment_lengths=Column(INT, [n + 1]))
        yield inst.with_columns(segment_lengths=Column(INT, lengths[1:]))
    yield inst.with_columns(**{"seg:narrow": Column(narrow.element_type, narrow.values + narrow.values[:1])})


def _corruptions(entry, rng, inst):
    """The ``tests/scheme_cases.py`` corruption battery."""
    fns = [corrupt_truncate("seg:narrow"), corrupt_extend("seg:narrow"), corrupt_extend("seg:narrow", 3, 7)]
    if entry.uniform:
        fns += [corrupt_set("segment_length", 0, 999), corrupt_set("total_length", 0, 0)]
    else:
        fns += [corrupt_set("segment_lengths", 0, 0), corrupt_truncate("segment_lengths")]
    for fn in fns:
        bad = fn(rng, inst)
        if bad is not None:
            yield bad


def _outcome(fn):
    try:
        return fn()
    except ColcircError as e:
        return type(e)


def _instances(entry, iparams, t, rng):
    for n in [0, 1, 2, 3, 4, 5, 9, 17, 257, 520]:
        params, col = _family(entry, rng, t, n)
        inst = encode(entry.scheme_id, params, col)
        yield "valid", inst, (params, col)
        for bad in _corruptions(entry, rng, inst):
            yield "corrupted", bad, None
        for bad in _mismatches(entry, inst):
            yield "mismatched", bad, None


@pytest.mark.parametrize("entry, iparams, t", COMPOSED)
def test_lifted_codec_matches_the_host_loop(entry, iparams, t, tmp_path):
    assert entry.lifted
    oracle = _host_loop(entry)
    rng = random.Random(f"lift-{entry.scheme_id}")
    bundles = 0
    for what, inst, source in _instances(entry, iparams, t, rng):
        cols = inst.columns
        accepted = verify(inst)
        assert accepted == oracle.verify_columns(inst.params, cols), what
        unchecked = _outcome(lambda: decode(inst, check=False)["col"])
        # the oracle's decoder is one ``segmentized`` vertex
        assert unchecked == _outcome(lambda: evaluate_circuit(oracle.decoder(inst.params), cols)["out:col"]), what
        checked = _outcome(lambda: decode(inst)["col"])
        assert checked == (unchecked if accepted else VerificationFailed), what
        if what == "valid":
            params, col = source
            assert accepted and unchecked == col
            assert cols == _per_segment_encoding(entry, iparams, params, col)
            handmade = SchemeInstance(entry.scheme_id, inst.params, _per_segment_encoding(entry, iparams, params, col))
            a, b = tmp_path / f"a{bundles}", tmp_path / f"b{bundles}"
            write_bundle(inst, a)
            write_bundle(handmade, b)
            assert sorted(os.listdir(a)) == sorted(os.listdir(b))
            assert all((a / f).read_bytes() == (b / f).read_bytes() for f in os.listdir(a))
            bundles += 1
    assert bundles == 10


def _decoders_and_instances():
    rng = random.Random(3)
    for param in COMPOSED:
        entry, iparams, t = param.values
        params, col = _family(entry, rng, t, 40)
        yield entry, encode(entry.scheme_id, params, col)


def test_lifted_decoders_hold_no_segmentized_vertex_and_never_decode_per_segment(monkeypatch):
    calls = []
    inner_decode = compose_mod._inner_decode
    monkeypatch.setattr(compose_mod, "_inner_decode", lambda *a: calls.append(a) or inner_decode(*a))
    for entry, inst in _decoders_and_instances():
        ops = {op.op_name for op in entry.decoder(inst.params).vertices.values()}
        assert "segmentized" not in ops
        assert ops <= {"elementwise", "no_op", "length", "scalar", "concatenate", "prefix_aggregate", "gather"}
        calls.clear()
        assert decode(inst) == decode(inst, check=False)
        assert calls == []
    # the host loop decodes every segment
    calls.clear()
    entry, inst = next(_decoders_and_instances())
    _host_loop(entry).verify_columns(inst.params, inst.columns)
    assert len(calls) == 40


def test_oracle_decodes_through_the_segmentized_operator():
    entry = COMPOSED[0].values[0]
    assert [op.op_name for op in _host_loop(entry).decoder({}).vertices.values()] == ["segmentized"]
    inst = encode(entry.scheme_id, {}, Column(U32, [7, 8, 9]))
    operator = instantiate("segmentized", {"scheme": entry.scheme_id})
    assert operator.apply(inst.columns)["result"] == Column(U32, [7, 8, 9])


def test_other_inner_schemes_keep_the_host_loop():
    # a per-segment constant, and a decoder of more than elementwise vertices
    for inner in [("constant", {"type": "u8"}), ("for", {"type": "u32", "offset_type": "u8", "segment_length": 2})]:
        sid = f"testonly.lifting.kept.{next(_ids)}"
        entry = compose(CompositionRecipe("segmentize-uniform", sid, (inner,), {"segment_length": 4}))
        assert not entry.lifted
        assert [op.op_name for op in entry.decoder({}).vertices.values()] == ["segmentized"]


def _over_constant(tag):
    sid = f"testonly.lifting.{tag}.{next(_ids)}"
    return compose(CompositionRecipe("segmentize-variable", sid, (("constant", {"type": "u8"}),)))


class TestHostLoopSplits:
    """The host loop's unchecked slices and concatenation equal the checked columns."""

    def test_slices_and_result_equal_the_checked_columns(self):
        entry = _over_constant("split")
        inst = encode(entry.scheme_id, {"segments": [3, 2, 4]}, Column(U8, [1, 1, 1, 3, 3, 250, 250, 250, 250]))
        segments = list(inst.columns["segment_lengths"].values)
        pieces = entry._split(inst.columns, segments)
        types = [{label: col.element_type for label, col in p.items()} for p in pieces]
        assert types == [{"value": U8, "length": INT}] * 3
        assert pieces == [
            {"value": Column(U8, [v]), "length": Column(INT, [n])} for v, n in [(1, 3), (3, 2), (250, 4)]
        ]
        decoded = entry.decode_segments(inst.columns)
        assert decoded == Column(U8, [1, 1, 1, 3, 3, 250, 250, 250, 250]) and decoded.element_type is U8


class TestHostLoopVerifierRejects:
    """A segment the inner decoder fails on is a rejection, not an escaped error."""

    @pytest.fixture
    def bad(self):
        entry = _over_constant("reject")
        inst = encode(entry.scheme_id, {"segments": [3, 2]}, Column(U8, [1, 1, 1, 3, 3]))
        return inst.with_columns(**{"seg:length": Column(INT, [3, 2**64 - 1])})

    def test_api(self, bad):
        assert verify(bad) is False
        with pytest.raises(VerificationFailed):
            decode(bad)
        with pytest.raises(EvaluationError, match="too-long"):
            decode(bad, check=False)

    def test_cli(self, bad, tmp_path):
        bundle = str(tmp_path / "b")
        write_bundle(bad, bundle)
        assert main(["verify", bundle]) == 3
        assert main(["decode", bundle, str(tmp_path / "d")]) == 3
