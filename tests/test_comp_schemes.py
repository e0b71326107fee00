import json
import math
from fractions import Fraction
from itertools import accumulate
import pathlib
import random
import re
import struct
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from colcirc import (
    Column,
    CompositionRecipe,
    SchemeInstance,
    codec,
    compose,
    decode,
    encode,
    evaluate_circuit,
    make_column,
    scalar_column,
    verify,
    write_bundle,
    write_col_file,
)
from colcirc import comp_schemes as cs
from colcirc.cli import main
from colcirc.errors import EvaluationError, NotEncodable, VerificationFailed
from colcirc.rep_schemes import canonical_varwidth, varwidth_elements
from colcirc.types import F64, I8, INT, U8, U16, U32, ElementType, parse_type

from paths import call
from scheme_cases import CASES, corruption_battery, roundtrip_battery

u8 = lambda v: make_column(U8, v)
u16 = lambda v: make_column(U16, v)
u32 = lambda v: make_column(U32, v)
idx = lambda v: make_column(INT, v)


class TestGenerated:
    def test_degree0(self):
        inst = SchemeInstance(
            "generated",
            {"type": "u8", "basis": [0]},
            {"length": scalar_column(INT, 3), "coefficients": u8([7])},
        )
        assert decode(inst)["col"].values == (7, 7, 7)

    def test_affine(self):
        inst = SchemeInstance(
            "generated",
            {"type": "u8", "basis": [0, 1]},
            {"length": scalar_column(INT, 4), "coefficients": u8([3, 2])},
        )
        assert decode(inst)["col"].values == (3, 5, 7, 9)

    def test_square(self):
        inst = SchemeInstance(
            "generated",
            {"type": "u8", "basis": [0, 1, 2]},
            {"length": scalar_column(INT, 4), "coefficients": u8([0, 0, 1])},
        )
        assert decode(inst)["col"].values == (0, 1, 4, 9)

    def test_float_bit_exact(self):
        f64 = ElementType.float_(64)
        col = Column(f64, [0.5 + 0.25 * i for i in range(6)])
        inst = encode("generated", {"type": "f64", "basis": [0, 1]}, col)
        assert decode(inst)["col"] == col

    @pytest.mark.parametrize("sid", ["generated", "generated.poly"])
    @pytest.mark.parametrize(
        "bad", [{"basis": [0, 1024]}, {"basis": ["a"]}, {"basis": [True]}, {"basis": 5}, {"degree": "x"}, {"degree": 1024}]
    )
    def test_a_degree_outside_0_to_1023_is_not_encodable(self, sid, bad, tmp_path):
        # past 1023, position 2 to that power overflows f64
        params = dict(bad, type="u32")
        with pytest.raises(NotEncodable, match="basis"):
            encode(sid, params, u32([1, 2]))
        manifest = pathlib.Path(write_bundle(encode(sid, {"type": "u32", "degree": 1}, u32([1, 2])), tmp_path / "b"))
        manifest.write_text(json.dumps(dict(json.loads(manifest.read_text()), params=params)))
        assert main(["verify", str(tmp_path / "b")]) == 2
        assert main(["decode", str(tmp_path / "b"), str(tmp_path / "d")]) == 2

    def test_degree_1023_builds_its_decoder(self):
        entry = codec("generated")
        assert len(entry.decoder(entry.normalize_params({"type": "f64", "basis": [1023]})).signature.inputs) == 2


class TestNoisy:
    def test_listing_semantics(self):
        inst = SchemeInstance(
            "noisy.generated",
            {"type": "u8", "basis": [0], "noise_type": "i8"},
            {"coefficients": u8([10]), "noise": make_column(I8, [-1, 0, 2])},
        )
        assert decode(inst)["col"].values == (9, 10, 12)

    def test_zero_noise(self):
        inst = SchemeInstance(
            "noisy.generated",
            {"type": "u8", "basis": [0], "noise_type": "i8"},
            {"coefficients": u8([10]), "noise": make_column(I8, [0, 0])},
        )
        assert decode(inst)["col"].values == (10, 10)

    def test_least_squares_residual_range(self):
        rng = random.Random(0)
        for _ in range(20):
            a, b = rng.randrange(100, 200), rng.randrange(0, 8)
            col = u32([a + b * i + rng.randrange(-15, 15) for i in range(20)])
            inst = encode("noisy.generated", {"type": "u32", "basis": [0, 1], "noise_type": "i8"}, col)
            lo, hi = I8.bounds()
            assert all(lo <= v <= hi for v in inst.columns["noise"].values)
            assert decode(inst)["col"] == col


class TestNarrowing:
    def test_ratio(self):
        from colcirc import compression_ratio

        inst = encode("nullsup", {"type": "u32", "narrow_type": "u8"}, u32([1, 2, 255]))
        assert compression_ratio(inst) == 4

    def test_not_encodable_reports_first_offender(self):
        with pytest.raises(NotEncodable, match="index 1"):
            encode("nullsup", {"type": "u32", "narrow_type": "u8"}, u32([1, 256]))

    def test_signed_sign_extension(self):
        from colcirc.types import I16

        inst = encode("nullsup", {"type": "i16", "narrow_type": "i8"}, make_column(I16, [-3]))
        assert decode(inst)["col"].values == (-3,)

    @pytest.mark.parametrize(
        "t, narrow_t, values",
        [
            ("u32", "u8", [0, 255]),
            ("u64", "u8", [7]),
            ("u64", "u32", [2**32 - 1]),
            ("i16", "i8", [-128, 127]),
            ("u8", "u8", [0, 255]),
            ("i8", "i8", [-128]),
            ("i16", "u8", [255]),
            ("f64", "f32", [0.5, -2.0]),
        ],
    )
    def test_narrow_type_inside_type_round_trips(self, t, narrow_t, values):
        col = make_column(parse_type(t), values)
        inst = encode("nullsup", {"type": t, "narrow_type": narrow_t}, col)
        assert verify(inst) and decode(inst)["col"] == col

    @pytest.mark.parametrize(
        "t, narrow_t",
        [("u8", "u32"), ("u8", "i8"), ("i8", "u8"), ("u32", "f32"), ("f64", "i32"), ("f32", "f64")],
    )
    def test_narrow_type_whose_cast_back_could_fail_is_not_encodable(self, t, narrow_t, tmp_path):
        params = {"type": t, "narrow_type": narrow_t}
        et = parse_type(t)
        col = make_column(et, [et.zero()])
        with pytest.raises(NotEncodable, match="narrow_type must be"):
            encode("nullsup", params, col)
        with pytest.raises(NotEncodable, match="narrow_type must be"):
            compose(CompositionRecipe("segmentize-variable", f"testonly.nullsup.{t}.{narrow_t}", (("nullsup", params),)))
        write_col_file(tmp_path / "in.col", col)
        argv = ["encode", "--scheme", "nullsup", "--params", json.dumps(params), str(tmp_path / "in.col")]
        assert main([*argv, str(tmp_path / "out")]) == 2


class TestRuns:
    def test_rle(self):
        inst = SchemeInstance(
            "run.rle", {"type": "u8"}, {"length": idx([2, 3]), "value": u8([4, 9])}
        )
        assert decode(inst)["col"].values == (4, 4, 9, 9, 9)

    def test_rpe(self):
        inst = SchemeInstance(
            "run.rpe",
            {"type": "u8"},
            {
                "start_position": idx([0, 2]),
                "value": u8([4, 9]),
                "overall_length": scalar_column(INT, 5),
            },
        )
        assert decode(inst)["col"].values == (4, 4, 9, 9, 9)

    def test_capped_split_rule(self):
        inst = encode("run.rle.capped", {"type": "u8", "cap": 2}, u8([5] * 5))
        assert inst.columns["length"].values == (2, 2, 1)
        assert inst.columns["value"].values == (5, 5, 5)

    def test_rpe_encoder_circuit_matches_host_encoder(self):
        rng = random.Random(1)
        enc = cs.rpe_encoder_circuit({"type": "u16"})
        for _ in range(25):
            col = u16([rng.randrange(0, 4) for _ in range(rng.randrange(0, 25))])
            out = evaluate_circuit(enc, {"col": col})
            host = encode("run.rpe", {"type": "u16"}, col)
            assert out["out:start_position"] == host.columns["start_position"]
            assert out["out:value"] == host.columns["value"]
            assert out["out:overall_length"] == host.columns["overall_length"]

    def test_rle_rpe_interconversion(self):
        rng = random.Random(2)
        for _ in range(25):
            col = u16([rng.randrange(0, 3) for _ in range(rng.randrange(1, 30))])
            rle = encode("run.rle", {"type": "u16"}, col)
            rpe = encode("run.rpe", {"type": "u16"}, col)
            # rle lengths = derivative(rpe starts ++ [overall])
            starts = list(rpe.columns["start_position"].values)
            ends = starts + [rpe.columns["overall_length"].scalar()]
            diffs = [ends[i + 1] - ends[i] for i in range(len(ends) - 1)]
            assert diffs == list(rle.columns["length"].values)
            # rpe starts = exclusive prefix sum of rle lengths
            acc, excl = 0, []
            for l in rle.columns["length"].values:
                excl.append(acc)
                acc += l
            assert excl == starts
            # converting then decoding equals direct decoding
            converted = SchemeInstance(
                "run.rpe",
                {"type": "u16"},
                {
                    "start_position": idx(excl),
                    "value": rle.columns["value"],
                    "overall_length": scalar_column(INT, len(col)),
                },
            )
            assert decode(converted)["col"] == decode(rle)["col"] == col

    def test_compressed_domain_sum(self):
        rng = random.Random(3)
        for _ in range(25):
            col = u16([rng.randrange(0, 9) for _ in range(rng.randrange(0, 40))])
            inst = encode("run.rle", {"type": "u16"}, col)
            # evaluated on the compressed form only
            values = inst.columns["value"]
            lengths = inst.columns["length"]
            compressed_sum = sum(v * l for v, l in zip(values.values, lengths.values))
            assert compressed_sum == sum(decode(inst)["col"].values)


class TestSplines:
    def test_equiknotted_per_segment_constants(self):
        inst = SchemeInstance(
            "spline.equiknotted",
            {"type": "u8", "basis": [0], "interval_length": 2},
            {
                "interval_length": scalar_column(INT, 2),
                "length": scalar_column(INT, 4),
                "coefficients": u8([3, 7]),
            },
        )
        assert decode(inst)["col"].values == (3, 3, 7, 7)

    def test_knotted_piecewise_ramp(self):
        # oracle: direct piecewise evaluation at segment-relative offsets
        segments = [(5, 2, 3), (100, 1, 4)]
        vals = []
        for base, slope, ln in segments:
            vals.extend(base + slope * i for i in range(ln))
        col = u16(vals)
        inst = encode("spline.knotted", {"type": "u16", "basis": [0, 1], "segments": [3, 4]}, col)
        assert decode(inst)["col"] == col

    def test_single_segment_reduces_to_generated(self):
        col = u16([9, 12, 15])
        spline = encode("spline.generalized", {"type": "u16", "basis": [0, 1]}, col)
        gen = encode("generated", {"type": "u16", "basis": [0, 1]}, col)
        assert decode(spline)["col"] == decode(gen)["col"] == col

    def test_float_knots(self):
        f64 = ElementType.float_(64)
        col = Column(f64, [0.0, 0.5, 10.0, 10.25, 10.5])
        inst = encode(
            "spline.knotted",
            {"type": "f64", "basis": [0, 1], "knots_float": True, "segments": [2, 3]},
            col,
        )
        assert verify(inst)
        assert inst.columns["knots"].element_type == f64
        assert decode(inst)["col"] == col

    # ``int`` and ``math.ceil`` in the verifier used to raise on these
    NON_FINITE_KNOTS = [[0.0, 3.0, math.inf], [0.0, math.nan, 5.0], [0.0, 3.0, math.nan]]

    def _non_finite_knots(self, knots):
        columns = {"knots": make_column(F64, knots), "coefficients": make_column(F64, [1.0, 0.5] * 2)}
        return SchemeInstance("spline.knotted", {"type": "f64", "basis": [0, 1], "knots_float": True}, columns)

    @pytest.mark.parametrize("knots", NON_FINITE_KNOTS, ids=["inf-last", "nan-inside", "nan-last"])
    def test_non_finite_float_knots_are_rejected(self, knots):
        inst = self._non_finite_knots(knots)
        assert verify(inst) is False
        with pytest.raises(VerificationFailed):
            decode(inst)
        with pytest.raises(EvaluationError):
            decode(inst, check=False)

    @pytest.mark.parametrize("knots", NON_FINITE_KNOTS, ids=["inf-last", "nan-inside", "nan-last"])
    def test_non_finite_float_knots_exit_3(self, tmp_path, knots):
        bundle = str(tmp_path / "bundle")
        write_bundle(self._non_finite_knots(knots), bundle)
        assert main(["verify", bundle]) == 3
        assert main(["decode", bundle, str(tmp_path / "out")]) == 3


class TestFrameOfReference:
    def test_listing(self):
        inst = SchemeInstance(
            "for",
            {"type": "u16", "offset_type": "u8", "segment_length": 2},
            {
                "segment_length": scalar_column(INT, 2),
                "reference": u16([100, 200]),
                "offsets": u8([1, 2, 3]),
            },
        )
        assert decode(inst)["col"].values == (101, 102, 203)

    def test_zero_offsets_step_function(self):
        inst = SchemeInstance(
            "for",
            {"type": "u16", "offset_type": "u8", "segment_length": 2},
            {
                "segment_length": scalar_column(INT, 2),
                "reference": u16([10, 20]),
                "offsets": u8([0, 0, 0, 0]),
            },
        )
        assert decode(inst)["col"].values == (10, 10, 20, 20)


class TestDeltas:
    def test_naive(self):
        inst = SchemeInstance(
            "delta.naive",
            {"type": "u16", "delta_type": "i8"},
            {"base": scalar_column(U16, 10), "delta": make_column(I8, [-1, 2, 2])},
        )
        assert decode(inst)["col"].values == (9, 11, 13)

    def test_segmented_resets_chains(self):
        inst = SchemeInstance(
            "delta",
            {"type": "u16", "delta_type": "i8", "segment_length": 2},
            {
                "segment_length": scalar_column(INT, 2),
                "base": u16([0, 100]),
                "delta": make_column(I8, [1, 1, 2, 3]),
            },
        )
        assert decode(inst)["col"].values == (1, 2, 102, 105)

    def test_patched_delta_witness(self):
        # k zeros then at least k copies of (k+1)*M with M = sup dom(i8)
        k, M = 4, 127
        col = u16([0] * k + [(k + 1) * M] * (k + 1))
        inst = encode("delta.patched", {"type": "u16", "delta_type": "i8", "segment_length": 9}, col)
        assert decode(inst)["col"] == col
        assert len(inst.columns["patch_pos"]) == 1
        assert inst.columns["patch_pos"].values == (k,)


class TestSegmentDictionaries:
    def test_listing(self):
        inst = SchemeInstance(
            "segdict",
            {"type": "u8", "segment_length": 2, "dict_size": 2},
            {
                "segment_length": scalar_column(INT, 2),
                "dictionary_entries": u8([1, 2, 3, 4]),
                "indices": idx([1, 0, 0, 1]),
            },
        )
        assert decode(inst)["col"].values == (2, 1, 3, 4)

    def test_single_segment_is_plain_dictionary(self):
        col = u16([7, 9, 7])
        seg = encode("segdict", {"type": "u16", "segment_length": 3, "dict_size": 2}, col)
        plain = encode("dict", {"type": "u16"}, col)
        assert decode(seg)["col"] == decode(plain)["col"] == col

    def test_two_level_equals_staged(self):
        rng = random.Random(4)
        for _ in range(15):
            ell, d = rng.randrange(1, 5), rng.randrange(1, 4)
            n = rng.randrange(0, 16)
            vals = []
            for at in range(0, n, ell):
                support = [rng.randrange(0, 99) for _ in range(d)]
                vals.extend(rng.choice(support) for _ in range(min(ell, n - at)))
            col = u16(vals)
            inst = encode("segdict.two_level", {"type": "u16", "segment_length": ell, "dict_size": d}, col)
            # staged oracle: decode the local layer, then the global dictionary
            local = SchemeInstance(
                "segdict",
                {"type": str(INT), "segment_length": ell, "dict_size": d},
                {
                    "segment_length": inst.columns["segment_length"],
                    "dictionary_entries": inst.columns["dictionary_entries"],
                    "indices": inst.columns["indices"],
                },
            )
            codes = decode(local)["col"]
            staged = call("gather", {"type": "u16"}, pos=codes, data=inst.columns["global_dictionary"])["result"]
            assert staged == decode(inst)["col"] == col


class TestCascade:
    def test_hand_simulated_two_phase(self):
        inst = SchemeInstance(
            "cascade",
            {"type": "u8", "bits": [1, 2]},
            {
                "dictionary_1": u8([0, ord("a")]),
                "indices_1": Column(ElementType.unsigned(1), [1, 0, 1]),
                "dictionary_2": u8([0, ord("x"), ord("y")]),
                "indices_2": Column(ElementType.unsigned(2), [2]),
            },
        )
        assert verify(inst)
        assert decode(inst)["col"].values == (ord("a"), ord("y"), ord("a"))

    def test_single_level_no_zeros(self):
        inst = SchemeInstance(
            "cascade",
            {"type": "u8", "bits": [2]},
            {
                "dictionary_1": u8([0, 7, 9]),
                "indices_1": Column(ElementType.unsigned(2), [1, 2, 1]),
            },
        )
        assert decode(inst)["col"].values == (7, 9, 7)

    def test_all_deferred_to_last_level(self):
        inst = SchemeInstance(
            "cascade",
            {"type": "u8", "bits": [1, 2]},
            {
                "dictionary_1": u8([0]),
                "indices_1": Column(ElementType.unsigned(1), [0, 0]),
                "dictionary_2": u8([0, 5, 6]),
                "indices_2": Column(ElementType.unsigned(2), [2, 1]),
            },
        )
        assert decode(inst)["col"].values == (6, 5)


class TestSubcolumnDictionary:
    def test_listing(self):
        inst = SchemeInstance(
            "subdict",
            {"type": "u8", "bits": 4},
            {
                "dictionary": u8([0, ord("a")]),
                "indices": Column(ElementType.unsigned(4), [1, 0, 1]),
                "residual_data": u8([ord("z")]),
            },
        )
        assert decode(inst)["col"].values == (ord("a"), ord("z"), ord("a"))

    def test_no_zeros_is_dictionary(self):
        inst = SchemeInstance(
            "subdict",
            {"type": "u8", "bits": 4},
            {
                "dictionary": u8([0, 5]),
                "indices": Column(ElementType.unsigned(4), [1, 1]),
                "residual_data": u8([]),
            },
        )
        assert decode(inst)["col"].values == (5, 5)

    def test_all_zeros_passthrough(self):
        inst = SchemeInstance(
            "subdict",
            {"type": "u8", "bits": 4},
            {
                "dictionary": u8([0]),
                "indices": Column(ElementType.unsigned(4), [0, 0]),
                "residual_data": u8([8, 9]),
            },
        )
        assert decode(inst)["col"].values == (8, 9)


class TestSurrogatePushdown:
    def test_equality_select_via_codes(self):
        rng = random.Random(5)
        for _ in range(25):
            col = u16([rng.randrange(0, 7) for _ in range(rng.randrange(1, 30))])
            inst = encode("dict.unique", {"type": "u16"}, col)
            v = rng.choice(col.values)
            code = list(inst.columns["dictionary"].values).index(v)
            decoded = decode(inst)["col"]
            value_eq = {"fn": "const_compare", "type": "u16", "cmp": "eq", "value": v}
            hits = call("elementwise", value_eq, arguments=decoded)["result"]
            by_value = call("select_indices", {}, characteristic=hits)
            code_eq = {"fn": "const_compare", "type": str(INT), "cmp": "eq", "value": code}
            hits = call("elementwise", code_eq, arguments=inst.columns["indices"])["result"]
            by_code = call("select_indices", {}, characteristic=hits)
            assert by_value == by_code

    def test_monotone_surrogate_order(self):
        rng = random.Random(6)
        for _ in range(25):
            col = u16([rng.randrange(0, 50) for _ in range(rng.randrange(2, 30))])
            inst = encode("dict.monotone", {"type": "u16"}, col)
            codes = inst.columns["indices"].values
            for i in range(len(col) - 1):
                assert (col[i] < col[i + 1]) == (codes[i] < codes[i + 1])


class TestIndexCompression:
    def test_common_prefix_derived_example(self):
        inst = SchemeInstance(
            "idx.common_prefix",
            {"w": 8, "p": 3},
            {
                "prefix": Column(ElementType.unsigned(3), [5]),
                "suffix_count": Column(ElementType.unsigned(5), [2]),
                "suffix": Column(ElementType.unsigned(5), [1, 9]),
            },
        )
        out = decode(inst)
        assert sorted(out["elements"].values) == [5 * 32 + 1, 5 * 32 + 9] == [161, 169]
        assert out["full_length"].scalar() == 256

    def test_empty_set(self):
        inst = encode(
            "idx.common_prefix",
            {"w": 8, "p": 3},
            {"full_length": scalar_column(INT, 256), "elements": idx([])},
        )
        assert all(len(c) == 0 for c in inst.columns.values())
        assert decode(inst)["elements"].values == ()

    def test_upper_half_splits_singles(self):
        fam = {"full_length": scalar_column(INT, 256), "elements": idx([3, 64, 65, 200])}
        inst = encode("idx.common_upper_half", {"w": 8}, fam)
        assert sorted(inst.columns["naive"].values) == [3, 200]
        assert inst.columns["prefix"].values == (4,)  # block 64..79
        assert sorted(decode(inst)["elements"].values) == [3, 64, 65, 200]

    @pytest.mark.parametrize("scheme_id, params", [("idx.common_prefix", {"w": 4, "p": 2}), ("idx.common_upper_half", {"w": 4})])
    def test_a_full_group_has_a_count_outside_its_type(self, scheme_id, params):
        # the 4 members of block 0 count one past the 2-bit count type
        fam = {"full_length": scalar_column(INT, 16), "elements": idx([0, 1, 2, 3])}
        with pytest.raises(NotEncodable, match=rf"^{re.escape(scheme_id)}: value 4 not in domain of u2"):
            encode(scheme_id, params, fam)

    def test_size_bound_spot_check(self):
        from colcirc import representation_size_bits

        rng = random.Random(7)
        w = 10
        n = 1 << w
        for m in (80, 160):
            elems = sorted(rng.sample(range(n), m))
            inst = encode(
                "idx.common_upper_half",
                {"w": w},
                {"full_length": scalar_column(INT, n), "elements": idx(elems)},
            )
            bits = representation_size_bits(inst.columns)
            assert bits <= (m / 2 + (1 << (w // 2))) * w


class TestVariableWidthCompression:
    def test_pvw_slot_layout(self):
        inst = SchemeInstance(
            "pvw",
            {"type": "u8", "period": 2},
            {
                "period": scalar_column(INT, 2),
                "widths": idx([1, 2]),
                "length": scalar_column(INT, 3),
                "data": u8([97, 98, 99, 100, 101, 102]),
            },
        )
        assert verify(inst)
        assert varwidth_elements(decode(inst)) == [(97,), (98,), (99, 100)]

    def test_pvw_period_one_is_per_element(self):
        elements = [(1, 2), (3,), ()]
        inst = encode("pvw", {"type": "u8", "period": 1}, canonical_varwidth(elements, U8))
        assert list(inst.columns["widths"].values) == [2, 1, 0]

    def test_vwdict_fish_and_cat(self):
        words = ["a", "fish", "and", "a", "cat", "and", "a", "fish", "and", "a", "cat"]
        elements = [tuple(w.encode()) for w in words]
        inst = encode("vwdict", {"type": "u8"}, canonical_varwidth(elements, U8))
        assert len(inst.columns["entry_lengths"]) == 4
        assert varwidth_elements(decode(inst)) == elements

    def test_vwdict_constant_string(self):
        inst = SchemeInstance(
            "vwdict",
            {"type": "u8"},
            {
                "indices": idx([0, 0, 0]),
                "entry_start_positions": idx([0]),
                "entry_lengths": idx([2]),
                "entry_data": u8([104, 105]),
            },
        )
        assert varwidth_elements(decode(inst)) == [(104, 105)] * 3

    def test_vwdict_overlapping_entries(self):
        inst = SchemeInstance(
            "vwdict",
            {"type": "u8"},
            {
                "indices": idx([0, 1]),
                "entry_start_positions": idx([0, 1]),
                "entry_lengths": idx([2, 2]),
                "entry_data": u8([97, 98, 99]),
            },
        )
        assert verify(inst)
        assert varwidth_elements(decode(inst)) == [(97, 98), (98, 99)]


class TestWidthShaping:
    def test_expected_width(self):
        assert cs.expected_width(0.25) == 4.0

    def test_expected_max_width_closed_form(self):
        p = 1 - 0.1 ** (1 / 8)
        assert abs(cs.expected_max_width(p, 4) - 7.738) < 5e-3


class TestBatteries:
    COMP_SCHEMES = [
        "constant",
        "generated",
        "generated.poly",
        "noisy.generated",
        "nullsup",
        "dict",
        "dict.unique",
        "dict.monotone",
        "run.full",
        "run.rle",
        "run.rpe",
        "run.rle.capped",
        "spline.generalized",
        "spline.knotted",
        "spline.equiknotted",
        "for",
        "delta.naive",
        "delta",
        "delta.patched",
        "segdict",
        "segdict.two_level",
        "cascade",
        "subdict",
        "idx.common_prefix",
        "idx.common_upper_half",
        "pvw",
        "vwdict",
        "vwdict.unique",
        "vwdict.monotone",
    ]

    @pytest.mark.parametrize("scheme_id", COMP_SCHEMES)
    def test_roundtrip_and_rejection(self, scheme_id):
        rng = random.Random(hash(scheme_id) & 0xFFFF)
        roundtrip_battery(scheme_id, CASES[scheme_id], rng, 25)
        corruption_battery(scheme_id, CASES[scheme_id], rng, 25)


class TestValuesOutsideTheType:
    """``Column`` is the one check that an encoded value lies in its type, and ``encode``
    turns its error into ``NotEncodable`` naming the scheme, the value, its index and the type."""

    @pytest.mark.parametrize(
        "scheme_id, params, values, value, index, narrow",
        [
            ("nullsup", {"type": "u32", "narrow_type": "u8"}, [0, 255, 256, 300], 256, 2, "u8"),
            ("delta", {"type": "u32", "delta_type": "i8", "segment_length": 4}, [0, 300, 301], 300, 1, "i8"),
            ("run.rle", {"type": "u32", "int_type": "u8"}, [7] * 300 + [8], 300, 0, "u8"),
            ("for", {"type": "u32", "offset_type": "u16", "segment_length": 4}, [3, 2, 65538, 9], 65536, 2, "u16"),
        ],
        ids=["nullsup", "delta", "run.rle", "for"],
    )
    def test_the_value_is_named(self, scheme_id, params, values, value, index, narrow):
        with pytest.raises(NotEncodable) as exc:
            encode(scheme_id, params, u32(values))
        assert str(exc.value) == f"{scheme_id}: value {value} not in domain of {narrow} (at index {index})"

    # each of these escaped as a raw TypeDomainError while a narrowing
    # check of its own let a float through for an integer type
    def test_float_offsets_for_an_integer_offset_type(self):
        with pytest.raises(NotEncodable, match=r"^for: value 0\.0 not in domain of u8"):
            encode("for", {"type": "f64", "offset_type": "u8", "segment_length": 4}, make_column(F64, [1.5, 2.5]))

    def test_float_noise_for_an_integer_noise_type(self):
        with pytest.raises(NotEncodable, match=r"^noisy\.generated: value .* not in domain of i8"):
            encode("noisy.generated", {"type": "f64", "noise_type": "i8", "basis": [0]}, make_column(F64, [0.0, 1.5, 3.25]))

    def test_a_negative_residual_of_a_composed_codec(self):
        sid = "testonly.outside.ewadd"
        inner = (("generated", {"type": "u32", "basis": [1]}), ("nullsup", {"type": "u32", "narrow_type": "u8"}))
        compose(CompositionRecipe("elementwise-add", sid, inner))
        with pytest.raises(NotEncodable, match=rf"^{re.escape(sid)}: value -1 not in domain of u32"):
            encode(sid, {}, u32([5, 0, 7, 1, 9, 2]))


class TestEncoderParams:
    """An encoder param or hint that no encoding can follow is ``NotEncodable``."""

    @pytest.fixture(scope="class")
    def segmentized(self):
        sid = "testonly.hint.segv"
        compose(CompositionRecipe("segmentize-variable", sid, (("nullsup", {"type": "u32", "narrow_type": "u8"}),)))
        return sid

    def _hinted(self, scheme_id, segmentized):
        if scheme_id == "segmentize-variable":
            return segmentized, {}
        return scheme_id, {"type": "u32", "basis": [0, 1]}

    @pytest.mark.parametrize("scheme_id", ["spline.generalized", "spline.knotted", "segmentize-variable"])
    @pytest.mark.parametrize(
        "segments",
        ["x", 7, [2.0, 2.0], [True] * 4, [0, 4], [-1, 5], [1, 2], [5]],
        ids=["str", "int", "floats", "bools", "zero", "negative", "short", "long"],
    )
    def test_segments_that_are_not_lengths_covering_the_column(self, scheme_id, segments, segmentized):
        sid, params = self._hinted(scheme_id, segmentized)
        with pytest.raises(NotEncodable, match="hint 'segments'"):
            encode(sid, dict(params, segments=segments), u32([1, 2, 3, 4]))

    @pytest.mark.parametrize("scheme_id", ["spline.generalized", "spline.knotted", "segmentize-variable"])
    def test_segments_that_cover_the_column(self, scheme_id, segmentized):
        sid, params = self._hinted(scheme_id, segmentized)
        col = u32([1, 2, 3, 4])
        assert decode(encode(sid, dict(params, segments=(2, 2)), col))["col"] == col

    @pytest.mark.parametrize(
        "scheme_id, params",
        [
            ("delta", {"type": "u32", "delta_type": "i8"}),
            ("delta.patched", {"type": "u32", "delta_type": "i8"}),
            ("for", {"type": "u32", "offset_type": "u8"}),
            ("segdict", {"type": "u32", "dict_size": 2}),
            ("segdict.two_level", {"type": "u32", "dict_size": 2}),
            ("subcolumn.segmented", {"type": "u32"}),
        ],
        ids=["delta", "delta.patched", "for", "segdict", "segdict.two_level", "subcolumn.segmented"],
    )
    @pytest.mark.parametrize("ell", [0, -1])
    def test_a_segment_length_below_one(self, scheme_id, params, ell):
        family = u32([1, 2, 3])
        if scheme_id == "subcolumn.segmented":
            family = {"pos": idx([0, 1, 2]), "data": family}
        with pytest.raises(NotEncodable, match=f"'segment_length' must be a positive integer, not {ell}"):
            encode(scheme_id, dict(params, segment_length=ell), family)

    @pytest.mark.parametrize(
        "scheme_id, params",
        [
            ("generated", {"type": "f64"}),
            ("noisy.generated", {"type": "f64", "noise_type": "f64"}),
            ("noisy.generated", {"type": "u32", "noise_type": "i64"}),
        ],
        ids=["generated-f64", "noisy-f64", "noisy-u32"],
    )
    def test_a_basis_past_the_float_range(self, scheme_id, params):
        # 399**200 is past f64, though the degree is inside the basis bound
        t = parse_type(params["type"])
        col = make_column(t, [t.zero()] * 400)
        with pytest.raises(NotEncodable, match="leaves the float range over 400 positions"):
            encode(scheme_id, dict(params, basis=[0, 200]), col)


def _per_element_basis(params, coeffs, n):
    """The per-element formula ``_eval_basis`` replaced."""
    degrees = cs._basis_degrees(params)
    return [sum(c * (i**d) for c, d in zip(coeffs, degrees)) for i in range(n)]


def _bits(values):
    return [struct.pack("<d", v) if isinstance(v, float) else v for v in values]


class TestEvalBasis:
    """The basis is evaluated a degree at a time with the old formula's additions."""

    @pytest.mark.parametrize(
        "params, coeffs",
        [
            ({"basis": [0]}, [7]),
            ({"degree": 1}, [3, -2]),
            ({"degree": 3}, [1, 0, -5, 2]),
            ({"basis": [2, 0, 1]}, [2**40, -(2**63), 9]),
            ({"basis": []}, []),
            ({"basis": [1, 0, 1, 0]}, [2, 3, -5, 4]),
            ({"basis": [1, 1]}, [4, -4]),
        ],
    )
    def test_integer_params(self, params, coeffs):
        for n in (0, 1, 2, 17):
            got = cs._eval_basis(params, coeffs, n)
            assert got == _per_element_basis(params, coeffs, n)
            assert all(type(v) is int for v in got)

    # from Python 3.12 on, ``sum`` adds floats with compensation, so the old
    # formula itself no longer adds term by term
    @pytest.mark.skipif(sys.version_info >= (3, 12), reason="sum() compensates float additions")
    @pytest.mark.parametrize(
        "params, coeffs",
        [
            ({"degree": 1}, [0.1, 0.7]),
            ({"degree": 2}, [1e16, 1.0, -0.3]),
            ({"basis": [3, 0, 1]}, [-1e-3, 0.2, 1e300]),
            ({"basis": [0, 1]}, [-0.0, -0.0]),
            ({"degree": 1}, [math.inf, -math.inf]),
            ({"degree": 2}, [math.nan, 0.5, 2]),
        ],
    )
    def test_float_params_give_the_same_bits(self, params, coeffs):
        rng = random.Random(7)
        cases = [(params, coeffs)]
        cases += [(params, [rng.uniform(-1e6, 1e6) for _ in coeffs]) for _ in range(20)]
        for p, cf in cases:
            got = cs._eval_basis(p, cf, 40)
            assert _bits(got) == _bits(_per_element_basis(p, cf, 40))


def _row_major_least_squares(values, degrees):
    """The normal equations ``_fit_float_least_squares`` replaced: row-major basis rows, k² generator sums."""
    n, k = len(values), len(degrees)
    if n == 0:
        return [0.0] * k
    xs = [[float(i**d) for d in degrees] for i in range(n)]
    ata = [[sum(x[a] * x[c] for x in xs) for c in range(k)] for a in range(k)]
    atb = [sum(x[a] * v for x, v in zip(xs, values)) for a in range(k)]
    coeffs = cs._solve_exact(ata, atb)
    return [0.0] * k if coeffs is None else [float(c) for c in coeffs]


def _least_squares_inputs(n):
    rng = random.Random(n)
    noisy = [float(900 + 3 * i + rng.randrange(-40, 40)) for i in range(n)]
    wide = [rng.uniform(-1e6, 1e6) for _ in range(n)]
    specials = [rng.choice([-0.0, 0.0, 1e300, -1e300, 0.1, float(i)]) for i in range(n)]
    with_inf = [math.inf if i == n // 2 else v for i, v in enumerate(wide)]
    with_nan = [math.nan if i == n - 1 else v for i, v in enumerate(noisy)]
    return [noisy, wide, specials, with_inf, with_nan, [-0.0] * n]


class TestLeastSquares:
    """The column-wise normal equations sum the row-major formula's products in its order."""

    @pytest.mark.parametrize("n", [0, 1, 5, 8000])
    @pytest.mark.parametrize("degrees", [[0], [0, 1], [0, 1, 2], [0, 1, 2, 3], [1, 3]])
    def test_same_bits_as_the_row_major_formula(self, degrees, n):
        for values in _least_squares_inputs(n):
            got = cs._fit_float_least_squares(values, degrees)
            assert _bits(got) == _bits(_row_major_least_squares(values, degrees))
            assert all(type(c) is float for c in got)

    def test_integer_fit_rounds_the_float_fit(self):
        values = [900 + 3 * i + (i * 7919) % 81 - 40 for i in range(500)]
        want = [int(round(c)) for c in _row_major_least_squares([float(v) for v in values], [0, 1, 2])]
        assert cs._fit_int_least_squares(values, [0, 1, 2]) == want


def _fraction_fit_poly_int(values, degrees):
    """The integer fit ``_fit_poly_int`` replaced: Gauss-Jordan elimination over ``Fraction``s."""
    k, n = len(degrees), len(values)
    if n == 0:
        return [0] * k
    use = degrees[: min(n, k)]
    m = len(use)
    aug = [[Fraction(i**d) for d in use] + [Fraction(values[i])] for i in range(m)]
    for c in range(m):
        pivot = next((r for r in range(c, m) if aug[r][c]), None)
        if pivot is None:
            return None
        aug[c], aug[pivot] = aug[pivot], aug[c]
        pv = aug[c][c]
        aug[c] = [x / pv for x in aug[c]]
        for r in range(m):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    coeffs = [aug[r][m] for r in range(m)]
    if any(c.denominator != 1 for c in coeffs):
        return None
    return [int(c) for c in coeffs] + [0] * (k - m)


_FIT_BOUNDS = [0, 1, -1, 2**64 - 1, 2**63 - 1, 2**63, -(2**63)]  # the u64 and i64 bounds, and one past
_fit_ints = st.one_of(st.integers(-1000, 1000), st.sampled_from(_FIT_BOUNDS))


@st.composite
def _int_fits(draw):
    """``(values, degrees)``: bases with gaps, repeats and no 0, over n below, at and above their size."""
    degrees = draw(st.one_of(st.lists(st.integers(0, 6), max_size=5), st.sampled_from([[0, 30], [1, 2], [3, 1, 0]])))
    n = draw(st.integers(0, len(degrees) + 2))
    if draw(st.booleans()):  # exactly polynomial
        coeffs = draw(st.lists(_fit_ints, min_size=len(degrees), max_size=len(degrees)))
        values = [sum(c * i**d for c, d in zip(coeffs, degrees)) for i in range(n)]
    else:
        values = draw(st.lists(_fit_ints, min_size=n, max_size=n))
    return values, degrees


class TestIntegerFit:
    """The integer fit solves in the integers and agrees with the ``Fraction`` solver it replaced."""

    @settings(max_examples=600, deadline=None)
    @given(_int_fits())
    @example(([1, 2], [1, 2]))  # singular: every row is zero at node 0
    @example(([0, 1, 3], [0, 1, 2]))  # i/2 + i*i/2: exact, but not integral
    @example(([5, 5 + 2**64 - 1], [0, 30]))
    @example(([2**64 - 1, -(2**63), 0], [2, 0, 1]))
    def test_matches_the_fraction_solver(self, case):
        values, degrees = case
        got = cs._fit_poly_int(values, degrees)
        assert got == _fraction_fit_poly_int(values, degrees)
        assert got is None or all(type(c) is int for c in got)

    def test_singular_and_non_integral_systems_have_no_fit(self):
        assert cs._fit_poly_int([1, 2], [1, 2]) is None
        assert cs._fit_poly_int([1, 2], [1, 1]) is None  # a repeated degree
        assert cs._fit_poly_int([0, 1, 3], [0, 1, 2]) is None
        assert cs._fit_poly_int([7, 9], [0, 1, 2]) == [7, 2, 0]  # a basis prefix, zero-padded
        assert cs._fit_poly_int([], [1, 2]) == [0, 0]


class TestFitsPastTheFloatRange:
    """A least-squares fit whose normal equations leave the float range is NaN; its callers
    use the zero model instead, so the column still encodes and decodes."""

    VALUES = [i % 7 for i in range(100)]  # with basis [0, 100]: sums of i**200 past the float range

    def test_noisy_float_round_trips(self):
        col = make_column(F64, [float(v) for v in self.VALUES])
        inst = encode("noisy.generated", {"type": "f64", "basis": [0, 100], "noise_type": "f64"}, col)
        assert inst.columns["coefficients"].values == (0.0, 0.0)
        assert verify(inst) and decode(inst)["col"] == col

    def test_noisy_integer_fit_past_i64_is_not_encodable(self):
        # the integer decoder raises each ``i`` to the 100th power in i64, which
        # overflows however small the coefficient, so no instance of it decodes
        with pytest.raises(NotEncodable, match="leaves i64"):
            encode("noisy.generated", {"type": "u32", "basis": [0, 100], "noise_type": "i64"}, u32(self.VALUES))

    @pytest.mark.parametrize(
        "scheme_id, params",
        [
            ("generated", {"type": "f64", "basis": [0, 100]}),
            ("spline.equiknotted", {"type": "f64", "basis": [0, 100], "interval_length": 100}),
        ],
        ids=["generated", "spline.equiknotted"],
    )
    def test_additive_fits_round_trip(self, scheme_id, params):
        sid = f"testonly.nonfinite.{scheme_id}"
        residual = ("nullsup", {"type": "f64", "narrow_type": "f64"})
        compose(CompositionRecipe("elementwise-add", sid, ((scheme_id, params), residual)))
        col = make_column(F64, [float(v) for v in self.VALUES])
        inst = encode(sid, {}, col)
        assert set(inst.columns["a:coefficients"].values) == {0.0}
        assert verify(inst) and decode(inst)["col"] == col


def _runs_by_loop(values):
    """The per-element loop ``_runs_of`` replaced: ``[first value, length]`` per run."""
    runs = []
    for v in values:
        if runs and runs[-1][0] == v:
            runs[-1][1] += 1
        else:
            runs.append([v, 1])
    return runs


_RUN_FLOATS = st.one_of(st.sampled_from([0.0, -0.0, 1.5, math.nan, math.inf, -math.inf]), st.floats())


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(st.integers(-2, 2), max_size=40), st.lists(_RUN_FLOATS, max_size=40)))
def test_runs_of_matches_the_per_element_loop(values):
    values = tuple(values)
    starts, lengths, run_values = cs._runs_of(values)
    runs = _runs_by_loop(values)
    assert lengths == [l for _, l in runs]
    # the run's first value, to the bit: 0.0 and -0.0 share a run, a NaN never continues one
    assert _bits(run_values) == _bits([v for v, _ in runs])
    assert starts == list(accumulate(lengths, initial=0))[:-1]


@pytest.mark.parametrize(
    "scheme, params",
    [
        ("vwdict", {"type": "u8"}),
        ("pvw", {"type": "u8", "period": 2}),
        ("varwidth.capped", {"type": "u8"}),
        ("varwidth.std", {"type": "u8"}),
    ],
)
@pytest.mark.parametrize("starts, lengths", [([0, 1], [1]), ([0], [1, 1])])
def test_a_family_with_unpaired_starts_and_lengths_is_not_encodable(scheme, params, starts, lengths):
    family = {"start_position": idx(starts), "length": idx(lengths), "data": u8([5, 6])}
    with pytest.raises(NotEncodable):
        encode(scheme, params, family)
