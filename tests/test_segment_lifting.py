"""Segmentized codecs over position-wise inner schemes, lifted to one flat circuit.

Over a position-wise inner scheme (``nullsup``) a segmentized decoder is one
flat circuit and its verifier checks lengths without decoding; that this
agrees with the host loop is ``test_paths.py``'s ``host_loop`` path.  Here:
the per-segment encoding, no per-segment work, and the host loop itself.
"""

import importlib
import itertools
import os
import random

import pytest

from colcirc import Column, CompositionRecipe, SchemeInstance, compose, decode, encode, instantiate, scalar_column, verify, write_bundle
from colcirc.cli import main
from colcirc.errors import EvaluationError, VerificationFailed
from colcirc.types import INT, U8, U32, parse_type
from paths import LIFTED, host_loop, lifted_battery, lifted_family

compose_mod = importlib.import_module("colcirc.compose")  # the package's ``compose`` is the function
_ids = itertools.count()


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


@pytest.mark.parametrize("entry, iparams, t", [pytest.param(entry, iparams, t, id=tag) for tag, entry, iparams, t in LIFTED])
def test_lifted_encoding_is_the_per_segment_encoding(entry, iparams, t, tmp_path):
    assert entry.lifted
    bundles = 0
    for inst, family in lifted_battery(entry, t):
        if family is None:
            continue
        params, col = family
        assert verify(inst) and decode(inst, check=False)["col"] == col
        assert inst.columns == _per_segment_encoding(entry, iparams, params, col)
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
    for _, entry, _, t in LIFTED:
        params, col = lifted_family(entry, rng, t, 40)
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
    with host_loop():
        entry.verify_columns(inst.params, inst.columns)
    assert len(calls) == 40


def test_oracle_decodes_through_the_segmentized_operator():
    entry = LIFTED[0][1]
    with host_loop():
        assert [op.op_name for op in entry.decoder({}).vertices.values()] == ["segmentized"]
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
