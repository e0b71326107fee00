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
from colcirc.errors import NotEncodable, VerificationFailed
from colcirc.rep_schemes import SubcolumnStd
from colcirc.types import BIT, INT, U8, U16, ElementType

from scheme_cases import CASES, corruption_battery, roundtrip_battery

u8 = lambda v: make_column(U8, v)
u16 = lambda v: make_column(U16, v)
idx = lambda v: make_column(INT, v)


def sc(mapping, j):
    """``mapping`` as subcolumn ``j`` of a two-subcolumn family: ``pos_j`` and ``data_j``."""
    return {f"pos_{j}": idx(list(mapping)), f"data_{j}": u8(list(mapping.values()))}


class TestIndexed:
    def test_canonical(self):
        inst = SchemeInstance("indexed", {"type": "u8"}, {"pos": idx([0, 1, 2]), "data": u8([5, 6, 7])})
        assert decode(inst)["col"].values == (5, 6, 7)

    def test_permuted(self):
        inst = SchemeInstance("indexed", {"type": "u8"}, {"pos": idx([2, 0, 1]), "data": u8([1, 2, 3])})
        assert decode(inst)["col"].values == (2, 3, 1)

    def test_duplicate_rejected_at_verify(self):
        inst = SchemeInstance(
            "indexed", {"type": "u8"}, {"pos": idx([0, 0, 1]), "data": u8([1, 2, 3])}
        )
        assert not verify(inst)


class TestSubcolumnCombinations:
    def test_helloworld_overlay_figure(self):
        hw = {i: ord(c) for i, c in enumerate("helloworld") if i % 2 == 0}
        ha = {i: ord("hellowarts"[i]) for i in (2, 6, 7, 9)}
        out = decode(SchemeInstance("subcolumn.overlay", {"type": "u8"}, {**sc(hw, 1), **sc(ha, 2)}))
        assert SubcolumnStd(**out).mapping() == hw | ha

    def test_overlay_with_empty(self):
        out = decode(SchemeInstance("subcolumn.overlay", {"type": "u8"}, {**sc({4: 9, 1: 8}, 1), **sc({}, 2)}))
        assert SubcolumnStd(**out).mapping() == {4: 9, 1: 8}

    def test_disjoint_is_union(self):
        out = decode(SchemeInstance("subcolumn.union.disjoint", {"type": "u8"}, {**sc({0: 1}, 1), **sc({5: 2}, 2)}))
        assert SubcolumnStd(**out).mapping() == {0: 1, 5: 2}

    def test_union_conflict(self):
        family = {**sc({1: 5}, 1), **sc({1: 6}, 2)}
        assert not verify(SchemeInstance("subcolumn.union.disjoint", {"type": "u8"}, family))

    def test_lattice_laws(self):
        rng = random.Random(2)
        for _ in range(30):
            base = {i: rng.randrange(0, 99) for i in range(10)}
            a, b = ({i: base[i] for i in rng.sample(range(10), rng.randrange(0, 8))} for _ in "ab")
            out = decode(SchemeInstance("subcolumn.overlay", {"type": "u8"}, {**sc(a, 1), **sc(b, 2)}))
            merged = SubcolumnStd(**out).mapping()
            assert all(merged[k] == v for k, v in b.items())
            assert all(merged[k] == v for k, v in a.items() if k not in b)

    def test_overlay_associative(self):
        rng = random.Random(3)
        for _ in range(30):
            a, b, c = ({p: rng.randrange(0, 99) for p in rng.sample(range(8), rng.randrange(0, 6))} for _ in "abc")
            ab = SubcolumnStd(**decode(SchemeInstance("subcolumn.overlay", {"type": "u8"}, {**sc(a, 1), **sc(b, 2)})))
            left = decode(SchemeInstance("subcolumn.overlay", {"type": "u8"}, {**sc(ab.mapping(), 1), **sc(c, 2)}))
            bc = SubcolumnStd(**decode(SchemeInstance("subcolumn.overlay", {"type": "u8"}, {**sc(b, 1), **sc(c, 2)})))
            right = decode(SchemeInstance("subcolumn.overlay", {"type": "u8"}, {**sc(a, 1), **sc(bc.mapping(), 2)}))
            assert SubcolumnStd(**left).mapping() == SubcolumnStd(**right).mapping()


class TestColumnSchemes:
    def test_complementing(self):
        family = {"pos": idx([1]), "data_1": u8([42]), "data_2": u8([7, 9])}
        assert decode(SchemeInstance("column.complementing", {"type": "u8"}, family))["col"].values == (7, 42, 9)

    def test_complementing_empty_pos(self):
        d2 = u8([3, 4])
        family = {"pos": idx([]), "data_1": u8([]), "data_2": d2}
        assert decode(SchemeInstance("column.complementing", {"type": "u8"}, family))["col"] == d2

    def test_complementing_full_pos(self):
        family = {"pos": idx([2, 0, 1]), "data_1": u8([1, 2, 3]), "data_2": u8([])}
        assert decode(SchemeInstance("column.complementing", {"type": "u8"}, family))["col"].values == (2, 3, 1)

    def test_patching_figure_toy(self):
        # narrow base bytes with wide patch values at exceptional positions
        phrase = "alarna och ravarna"
        base = make_column(U16, [ord(c) for c in phrase])
        overlay_pos = idx([0, 12])
        overlay_data = make_column(U16, [ord("å"), ord("ä")])
        family = {"data": base, "overlay_pos": overlay_pos, "overlay_data": overlay_data}
        out = decode(SchemeInstance("column.overlaid", {"type": "u16"}, family))["col"]
        assert "".join(chr(v) for v in out.values) == "ålarna och rävarna"

    def test_overlay_empty_and_full(self):
        data = u8([1, 2])
        family = {"data": data, "overlay_pos": idx([]), "overlay_data": u8([])}
        assert decode(SchemeInstance("column.overlaid", {"type": "u8"}, family))["col"] == data
        family = {"data": data, "overlay_pos": idx([0, 1]), "overlay_data": u8([9, 8])}
        assert decode(SchemeInstance("column.overlaid", {"type": "u8"}, family))["col"].values == (9, 8)


class TestSegmentedSubcolumn:
    def test_block_placement(self):
        family = {"segment_length": scalar_column(INT, 2), "segment_pos": idx([0, 3]), "data": u8([1, 2, 3, 4])}
        out = decode(SchemeInstance("subcolumn.segmented", {"type": "u8", "segment_length": 2}, family))
        assert SubcolumnStd(**out).mapping() == {0: 1, 1: 2, 6: 3, 7: 4}

    def test_iota_positions_give_prefix(self):
        family = {"segment_length": scalar_column(INT, 2), "segment_pos": idx([0, 1]), "data": u8([5, 6, 7, 8])}
        out = decode(SchemeInstance("subcolumn.segmented", {"type": "u8", "segment_length": 2}, family))
        assert SubcolumnStd(**out).mapping() == {0: 5, 1: 6, 2: 7, 3: 8}

    def test_helloworld_minus_low_figure(self):
        # "helloworld" without "low": domain blocks {0,1},{2,3},{8,9} of l=2?
        # the paper's cut removes positions 3..5; with l=3 blocks {0,1,2} and
        # {6,7,8} plus slack block {9} stay
        text = "helloworld"
        keep = [0, 1, 2, 6, 7, 8, 9]
        data = u8([ord(text[i]) for i in keep])
        family = {"segment_length": scalar_column(INT, 3), "segment_pos": idx([0, 2, 3]), "data": data}
        out = decode(SchemeInstance("subcolumn.segmented", {"type": "u8", "segment_length": 3}, family))
        assert SubcolumnStd(**out).mapping() == {i: ord(text[i]) for i in keep}

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
        out = decode(SchemeInstance("indexset.dense", {}, {"characteristic": make_column(BIT, [1, 0, 1])}))
        assert out["full_length"].scalar() == 3 and out["elements"].values == (0, 2)

    def test_contiguous(self):
        cols = {
            "start": scalar_column(INT, 2),
            "length": scalar_column(INT, 3),
            "full_length": scalar_column(INT, 10),
        }
        out = decode(SchemeInstance("indexset.contiguous", {}, cols))
        assert out["full_length"].scalar() == 10 and out["elements"].values == (2, 3, 4)

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
        out = decode(SchemeInstance("partition", {"k": 2}, {"partition": idx([0, 1, 0])}))
        assert (out["pos_1"].values, out["pos_2"].values) == ((0, 2), (1,))

    def test_constant_partition(self):
        out = decode(SchemeInstance("partition", {"k": 3}, {"partition": idx([1, 1, 1])}))
        assert [len(out[f"pos_{j}"]) for j in (1, 2, 3)] == [0, 3, 0]


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
        inst = encode("nullable.complementing", {"type": "u8", "null_value": 0}, col)
        assert decode(inst)["col"] == col

    def test_all_nulls(self):
        family = {"data": u8([9, 9]), "overlay_pos": idx([0, 1]), "null_value": scalar_column(U8, 0)}
        inst = SchemeInstance("nullable.patched", {"type": "u8", "null_value": 0}, family)
        assert decode(inst)["col"].values == (0, 0)

    def test_mixed_roundtrip_masked(self):
        rng = random.Random(11)
        for strategy in ("complementing", "patched"):
            for _ in range(15):
                n = rng.randrange(0, 16)
                nulls = set(rng.sample(range(n), rng.randrange(0, n + 1))) if n else set()
                masked = u8([0 if i in nulls else rng.randrange(1, 99) for i in range(n)])
                inst = encode(f"nullable.{strategy}", {"type": "u8", "null_value": 0}, masked)
                assert decode(inst)["col"] == masked


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
