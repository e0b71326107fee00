import math
import random
from itertools import accumulate

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from colcirc import (
    Column,
    SchemeInstance,
    decode,
    encode,
    make_column,
    scalar_column,
    verify,
    write_bundle,
)
from colcirc import rep_schemes as rs
from colcirc.cli import main
from colcirc.errors import NotEncodable, OperatorError, VerificationFailed
from colcirc.rep_schemes import SubcolumnStd, subcolumn_overlay, subcolumn_union
from colcirc.types import BIT, INT, U8, U16, ElementType

from scheme_cases import CASES, corruption_battery, roundtrip_battery

u8 = lambda v: make_column(U8, v)
u16 = lambda v: make_column(U16, v)
idx = lambda v: make_column(INT, v)


def sc(positions, values, t=U8):
    return SubcolumnStd(idx(positions), make_column(t, values))


class TestIndexed:
    def test_canonical(self):
        assert rs.indexed_decode(idx([0, 1, 2]), u8([5, 6, 7])).values == (5, 6, 7)

    def test_permuted(self):
        assert rs.indexed_decode(idx([2, 0, 1]), u8([1, 2, 3])).values == (2, 3, 1)

    def test_duplicate_rejected_at_verify(self):
        inst = SchemeInstance(
            "indexed", {"type": "u8"}, {"pos": idx([0, 0, 1]), "data": u8([1, 2, 3])}
        )
        assert not verify(inst)


class TestSubcolumnCombinations:
    def test_helloworld_overlay_figure(self):
        hw = [ord(c) for c in "helloworld"]
        ha = [ord(c) for c in "hellowarts"]
        sc1 = sc([0, 2, 4, 6, 8], [hw[i] for i in (0, 2, 4, 6, 8)])
        sc2 = sc([2, 6, 7, 9], [ha[i] for i in (2, 6, 7, 9)])
        merged = subcolumn_overlay(sc1, sc2)
        expect = dict(zip(sc1.pos.values, sc1.data.values))
        expect.update(zip(sc2.pos.values, sc2.data.values))
        assert merged.mapping() == expect and merged.is_canonical

    def test_overlay_with_empty(self):
        sc1 = sc([4, 1], [9, 8])
        out = subcolumn_overlay(sc1, sc([], []))
        assert out.mapping() == sc1.mapping() and out.is_canonical

    def test_disjoint_is_union(self):
        a, b = sc([0], [1]), sc([5], [2])
        assert subcolumn_union(a, b).mapping() == {0: 1, 5: 2}

    def test_union_idempotent(self):
        a = sc([3, 1], [7, 9])
        assert subcolumn_union(a, a).mapping() == a.mapping()

    def test_union_conflict(self):
        with pytest.raises(OperatorError, match="incompatible"):
            subcolumn_union(sc([1], [5]), sc([1], [6]))

    def test_lattice_laws(self):
        rng = random.Random(2)
        for _ in range(30):
            base = {i: rng.randrange(0, 99) for i in range(10)}

            def sub():
                dom = rng.sample(range(10), rng.randrange(0, 8))
                return sc(dom, [base[i] for i in dom])

            a, b, c = sub(), sub(), sub()
            assert subcolumn_union(a, b).mapping() == subcolumn_union(b, a).mapping()
            ab_c = subcolumn_union(subcolumn_union(a, b), c).mapping()
            a_bc = subcolumn_union(a, subcolumn_union(b, c)).mapping()
            assert ab_c == a_bc
            merged = subcolumn_overlay(a, b).mapping()
            assert all(merged[k] == v for k, v in b.mapping().items())
            assert all(merged[k] == v for k, v in a.mapping().items() if k not in b.mapping())

    def test_overlay_associative(self):
        rng = random.Random(3)
        for _ in range(30):
            def sub():
                dom = rng.sample(range(8), rng.randrange(0, 6))
                return sc(dom, [rng.randrange(0, 99) for _ in dom])

            a, b, c = sub(), sub(), sub()
            left = subcolumn_overlay(subcolumn_overlay(a, b), c).mapping()
            right = subcolumn_overlay(a, subcolumn_overlay(b, c)).mapping()
            assert left == right


class TestColumnSchemes:
    def test_complementing(self):
        out = rs.complementing_subcolumns_decode(idx([1]), u8([42]), u8([7, 9]))
        assert out.values == (7, 42, 9)

    def test_complementing_empty_pos(self):
        d2 = u8([3, 4])
        assert rs.complementing_subcolumns_decode(idx([]), u8([]), d2) == d2

    def test_complementing_full_pos(self):
        out = rs.complementing_subcolumns_decode(idx([2, 0, 1]), u8([1, 2, 3]), u8([]))
        assert out.values == (2, 3, 1)

    def test_patching_figure_toy(self):
        # narrow base bytes with wide patch values at exceptional positions
        phrase = "alarna och ravarna"
        base = make_column(U16, [ord(c) for c in phrase])
        overlay_pos = idx([0, 12])
        overlay_data = make_column(U16, [ord("å"), ord("ä")])
        out = rs.overlaid_column_decode(base, overlay_pos, overlay_data)
        assert "".join(chr(v) for v in out.values) == "ålarna och rävarna"

    def test_overlay_empty_and_full(self):
        data = u8([1, 2])
        assert rs.overlaid_column_decode(data, idx([]), u8([])) == data
        out = rs.overlaid_column_decode(data, idx([0, 1]), u8([9, 8]))
        assert out.values == (9, 8)


class TestSegmentedSubcolumn:
    def test_block_placement(self):
        out = rs.segmented_subcolumn_decode(2, idx([0, 3]), u8([1, 2, 3, 4]))
        assert out.mapping() == {0: 1, 1: 2, 6: 3, 7: 4}

    def test_iota_positions_give_prefix(self):
        out = rs.segmented_subcolumn_decode(2, idx([0, 1]), u8([5, 6, 7, 8]))
        assert out.mapping() == {0: 5, 1: 6, 2: 7, 3: 8}

    def test_helloworld_minus_low_figure(self):
        # "helloworld" without "low": domain blocks {0,1},{2,3},{8,9} of l=2?
        # the paper's cut removes positions 3..5; with l=3 blocks {0,1,2} and
        # {6,7,8} plus slack block {9} stay
        text = "helloworld"
        keep = [0, 1, 2, 6, 7, 8, 9]
        data = u8([ord(text[i]) for i in keep])
        out = rs.segmented_subcolumn_decode(3, idx([0, 2, 3]), data)
        assert out.mapping() == {i: ord(text[i]) for i in keep}

    def test_slack_must_be_maximal(self):
        inst = SchemeInstance(
            "subcolumn.segmented",
            {"type": "u8", "segment_length": 2},
            {
                "segment_length": scalar_column(INT, 2),
                "segment_pos": idx([3, 0]),
                "data": u8([1, 2, 3]),
            },
        )
        assert not verify(inst)


class TestIndexSets:
    def test_dense(self):
        assert rs.index_set_decode("dense", {"characteristic": make_column(BIT, [1, 0, 1])}) == (3, [0, 2])

    def test_contiguous(self):
        cols = {
            "start": scalar_column(INT, 2),
            "length": scalar_column(INT, 3),
            "full_length": scalar_column(INT, 10),
        }
        assert rs.index_set_decode("contiguous", cols) == (10, [2, 3, 4])

    def test_sparse_canonicalizes(self):
        inst = encode(
            "indexset.sparse", {}, {"full_length": scalar_column(INT, 6), "elements": idx([5, 1])}
        )
        assert decode(inst)["elements"].values == (1, 5)

    def test_mutually_inverse_through_canonical_form(self):
        rng = random.Random(9)
        for _ in range(25):
            n = rng.randrange(1, 30)
            elems = sorted(rng.sample(range(n), rng.randrange(0, n)))
            fam = {"full_length": scalar_column(INT, n), "elements": idx(elems)}
            sparse = decode(encode("indexset.sparse", {}, fam))
            dense = decode(encode("indexset.dense", {}, fam))
            assert sparse["elements"] == dense["elements"]
            assert sparse["full_length"] == dense["full_length"]
            if elems == list(range(elems[0] if elems else 0, (elems[-1] + 1) if elems else 0)):
                contig = decode(encode("indexset.contiguous", {}, fam))
                assert contig["elements"] == sparse["elements"]


class TestPartitions:
    def test_materialize(self):
        parts = rs.partition_materialize(idx([0, 1, 0]), 2)
        assert [p.pos.values for p in parts] == [(0, 2), (1,)]

    def test_constant_partition(self):
        parts = rs.partition_materialize(idx([1, 1, 1]), 3)
        assert [len(p.pos) for p in parts] == [0, 3, 0]

    def test_canonicalization_squeezes_empty_parts(self):
        out = rs.canonical_partition(idx([4, 2, 4, 7]))
        assert out.values == (1, 0, 1, 2)


class TestComponents:
    def test_zip_roundtrip(self):
        zipped = Column(ElementType.product(U8, U16), [(1, 300), (2, 400)])
        inst = encode("components", {"types": ["u8", "u16"]}, {"zipped": zipped})
        assert inst.columns["component_1"].values == (1, 2)
        assert decode(inst)["zipped"] == zipped

    def test_shattered_bitwise_decomposition(self):
        # u8 values come apart into eight bit-planes and reassemble exactly
        rng = random.Random(10)
        values = [rng.randrange(0, 256) for _ in range(12)]
        planes = []
        for v in values:
            planes.extend((v >> b) & 1 for b in range(8))
        inst = SchemeInstance(
            "components.shattered",
            {"type": "bit", "k": 8},
            {"segment_length": scalar_column(INT, 8), "components": make_column(BIT, planes)},
        )
        decoded = decode(inst)["composed"]
        rebuilt = [sum(bit << i for i, bit in enumerate(tup)) for tup in decoded.values]
        assert rebuilt == values

    def test_value_indicators_positional(self):
        # domain {a..e}: one-hot code 00100 denotes the third value
        inst = encode("value.indicators", {"domain_size": 5}, {"col": idx([2])})
        n = 1
        bits = inst.columns["bitmaps"].values
        assert bits[2 * n] == 1 and sum(bits) == 1
        assert decode(inst)["col"].values == (2,)


class TestValueIndicatorsDomainSize:
    """A ``domain_size`` below 1 names no value: reject it, never divide by it."""

    @staticmethod
    def _instance(bits):
        return SchemeInstance(
            "value.indicators",
            {"domain_size": 0},
            {"domain_size": scalar_column(INT, 0), "bitmaps": make_column(BIT, bits)},
        )

    @pytest.mark.parametrize("bits", [[], [1, 0]], ids=["empty", "two-bits"])
    def test_zero_is_rejected(self, bits):
        inst = self._instance(bits)
        assert verify(inst) is False
        with pytest.raises(VerificationFailed):
            decode(inst)

    @pytest.mark.parametrize("bits", [[], [1, 0]], ids=["empty", "two-bits"])
    def test_zero_exits_3(self, tmp_path, bits):
        bundle = str(tmp_path / "bundle")
        write_bundle(self._instance(bits), bundle)
        assert main(["verify", bundle]) == 3
        assert main(["decode", bundle, str(tmp_path / "out")]) == 3

    @pytest.mark.parametrize("d", [0, -1])
    @pytest.mark.parametrize("values", [[], [0]], ids=["empty", "one"])
    def test_encode_refuses(self, d, values):
        with pytest.raises(NotEncodable, match="domain_size"):
            encode("value.indicators", {"domain_size": d}, {"col": idx(values)})


class TestVarWidth:
    def test_overlapping_ranges_legal(self):
        fam = {
            "start_position": idx([0, 1]),
            "length": idx([2, 1]),
            "data": u8([97, 98, 99]),
        }
        inst = SchemeInstance("varwidth.std", {"type": "u8"}, fam)
        assert verify(inst)
        assert rs.varwidth_elements(decode(inst)) == [(97, 98), (98,)]

    def test_capped_trims_slots(self):
        inst = SchemeInstance(
            "varwidth.capped",
            {"type": "u8"},
            {
                "max_length": scalar_column(INT, 4),
                "lengths": idx([1, 3]),
                "data": u8([1, 0, 0, 0, 5, 6, 7, 0]),
            },
        )
        assert rs.varwidth_elements(decode(inst)) == [(1,), (5, 6, 7)]

    def test_zero_length_slot(self):
        fam = rs.canonical_varwidth([(9,), (), (5, 5)], U8)
        inst = encode("varwidth.std", {"type": "u8"}, fam)
        assert rs.varwidth_elements(decode(inst)) == [(9,), (), (5, 5)]


class TestNullable:
    def test_no_nulls_degenerate(self):
        col = u8([1, 2, 3])
        inst = rs.nullable_build("complementing", col, [], 0)
        assert decode(inst)["col"] == col

    def test_all_nulls(self):
        inst = rs.nullable_build("patched", u8([9, 9]), [0, 1], 0)
        assert decode(inst)["col"].values == (0, 0)

    def test_mixed_roundtrip_masked(self):
        rng = random.Random(11)
        for strategy in ("complementing", "patched"):
            for _ in range(15):
                n = rng.randrange(0, 16)
                vals = [rng.randrange(1, 99) for _ in range(n)]
                nulls = sorted(rng.sample(range(n), rng.randrange(0, n + 1))) if n else []
                col = u8(vals)
                inst = rs.nullable_build(strategy, col, nulls, 0)
                out = decode(inst)["col"]
                for i in range(n):
                    assert out[i] == (0 if i in set(nulls) else vals[i])


class TestBatteries:
    REP_SCHEMES = [
        "indexed",
        "subcolumn.std",
        "subcolumn.overlay",
        "subcolumn.union.disjoint",
        "column.complementing",
        "column.overlaid",
        "segmentation",
        "segmentation.uniform",
        "segmented",
        "segmented.uniform",
        "subcolumn.segmented",
        "indexset.sparse",
        "indexset.dense",
        "indexset.contiguous",
        "partition",
        "partition.k",
        "components",
        "components.concatenated",
        "components.shattered",
        "value.indicators",
        "varwidth.std",
        "varwidth.capped",
        "nullable.complementing",
        "nullable.patched",
    ]

    @pytest.mark.parametrize("scheme_id", REP_SCHEMES)
    def test_roundtrip_and_rejection(self, scheme_id):
        rng = random.Random(hash(scheme_id) & 0xFFFF)
        roundtrip_battery(scheme_id, CASES[scheme_id], rng, 25)
        corruption_battery(scheme_id, CASES[scheme_id], rng, 25)


# -- the verifier rules against the inline formulas they replaced ------------------------

U64_EDGES = [0, 1, 2, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1]
u64s = st.one_of(st.integers(0, 2**64 - 1), st.sampled_from(U64_EDGES))
small = st.integers(0, 6)  # small enough that distinct, in-range and tiling inputs come up often
floats = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]))
entries = st.lists(st.integers(0, 3), max_size=3).map(tuple)  # the elements ``vwdict`` orders
ordered = st.one_of(st.lists(small), st.lists(u64s), st.lists(floats), st.lists(entries)).map(tuple)


class TestVerifierRules:
    """Each rule in ``rep_schemes`` decides what the formula it replaced in the verifiers decides."""

    @settings(max_examples=150)
    @given(st.one_of(st.tuples(st.lists(small).map(tuple), small), st.tuples(st.lists(u64s).map(tuple), u64s)))
    def test_positions(self, case):
        pos, n = case
        assert rs._positions(pos, n) is (len(set(pos)) == len(pos) and all(p < n for p in pos))

    @settings(max_examples=150)
    @given(st.one_of(st.tuples(st.lists(small).map(tuple), small), st.tuples(st.lists(u64s).map(tuple), u64s)))
    def test_below(self, case):
        values, n = case
        assert rs._below(values, n) is all(v < n for v in values)

    @settings(max_examples=200)
    @given(ordered)
    def test_increasing(self, values):
        want = all(a < b for a, b in zip(values, values[1:]))
        assert rs._increasing(values) is want
        if all(type(v) is int for v in values):  # the integer sites' ``not any(a >= b)``
            assert want is not any(a >= b for a, b in zip(values, values[1:]))

    def test_increasing_floats(self):
        assert rs._increasing((-math.inf, -0.0, 1.5, math.inf))
        assert not rs._increasing((0.0, -0.0)) and not rs._increasing((0.0, math.nan, 1.0))
        assert rs._increasing(()) and rs._increasing((math.nan,))

    @settings(max_examples=150)
    @given(st.data())
    def test_tiled(self, data):
        lengths = data.draw(st.lists(st.integers(0, 3)).map(tuple))  # zero-length ranges among them
        starts = list(accumulate(lengths, initial=0))[:-1]
        edit = data.draw(st.sampled_from(["none", "shift", "drop", "extend"]))
        if edit == "shift" and starts:
            i = data.draw(st.integers(0, len(starts) - 1))
            starts[i] += data.draw(st.sampled_from([-1, 1, 2**63]))
        elif edit == "drop" and starts:
            starts.pop()
        elif edit == "extend":
            starts.append(sum(lengths))
        starts = tuple(starts)
        follows = all(starts[i] == starts[i - 1] + lengths[i - 1] for i in range(1, len(starts)))
        want = len(starts) == len(lengths) and (not starts or starts[0] == 0 and follows)
        assert rs._tiled(starts, lengths) is want

    @given(st.lists(u64s, max_size=2), st.one_of(u64s, small))
    def test_holds(self, values, value):
        cols = {"c": make_column(INT, values)}
        assert rs._holds(cols, "c", value) is (len(values) == 1 and values[0] == value)

    @given(st.one_of(small, u64s), st.one_of(st.integers(1, 7), u64s.filter(bool)))
    def test_segment_count(self, n, ell):
        assert rs._segment_count(n, ell) == -(-n // ell) == (n + ell - 1) // ell
        if n < 2**20:
            assert rs._segment_count(n, ell) == len(range(0, n, ell))  # the segments an encoder cuts
