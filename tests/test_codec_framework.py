import itertools
import random
from fractions import Fraction

import pytest

from colcirc import (
    Column,
    CompositionRecipe,
    SchemeInstance,
    codec,
    compose,
    compression_ratio,
    decode,
    encode,
    make_column,
    register_codec,
    registered_schemes,
    scalar_column,
    verify,
)
from colcirc.codec import CodecEntry, params_key
from colcirc.errors import EvaluationError, NotEncodable, RegistryError, TypeDomainError, VerificationFailed
from colcirc.types import BIT, F32, F64, I8, I64, INT, U8, U16, U32

_suffix = itertools.count()


def unique_id(tag):
    return f"testonly.{tag}.{next(_suffix)}"


class TestRegistry:
    def test_register_and_resolve(self):
        sid = unique_id("reg")
        entry = CodecEntry(
            sid,
            build_decoder=lambda p: None,
            encode=lambda p, f: {},
        )
        register_codec(entry)
        assert codec(sid) is entry

    def test_duplicate_rejected(self):
        sid = unique_id("dup")
        entry = CodecEntry(
            sid,
            build_decoder=lambda p: None,
            encode=lambda p, f: {},
        )
        register_codec(entry)
        with pytest.raises(RegistryError):
            register_codec(entry)

    def test_unknown_scheme(self):
        with pytest.raises(RegistryError):
            codec("no.such.scheme")

    def test_at_least_25_builtins(self):
        # modules 6-7 of the build specify 24 + 29 schemes
        assert len(registered_schemes()) >= 25


class TestDispatch:
    def test_decode_constant(self):
        inst = SchemeInstance(
            "constant",
            {"type": "u8"},
            {"value": scalar_column(U8, 7), "length": scalar_column(INT, 3)},
        )
        assert decode(inst)["col"].values == (7, 7, 7)

    def test_decode_unregistered(self):
        inst = SchemeInstance("nope", {}, {})
        with pytest.raises(RegistryError):
            decode(inst)

    def test_decode_requires_verification(self):
        inst = SchemeInstance(
            "constant",
            {"type": "u8"},
            {"value": make_column(U8, [7, 8]), "length": scalar_column(INT, 3)},
        )
        with pytest.raises(VerificationFailed):
            decode(inst)

    def test_encode_not_encodable(self):
        with pytest.raises(NotEncodable):
            encode("constant", {"type": "u8"}, make_column(U8, [5, 6]))

    def test_encode_empty_constant(self):
        inst = encode("constant", {"type": "u8"}, make_column(U8, []))
        assert decode(inst)["col"].values == ()

    @pytest.mark.parametrize(
        "family, message",
        [
            ({"start_position": make_column(INT, [0]), "length": make_column(INT, [1])}, "expects the labeled family"),
            ({"start_position": make_column(INT, [0]), "length": make_column(INT, [1]), "data": [5]}, "'data' is not a column"),
            ([make_column(U8, [5])], "expects the labeled family"),
            (make_column(U8, [5]), "expects the labeled family"),
        ],
    )
    def test_encode_checks_the_family_shape_first(self, family, message):
        with pytest.raises(NotEncodable, match=message):
            encode("varwidth.std", {"type": "u8"}, family)

    @pytest.mark.parametrize("values", [[3, 3, 5], [300, 300, 5]])
    def test_an_ill_typed_family_is_not_encodable_whatever_its_values(self, values):
        with pytest.raises(NotEncodable, match="decodes 'col' as u8, but the family gives u32"):
            encode("run.rle", {"type": "u8"}, make_column(U32, values))
        with pytest.raises(NotEncodable, match="expects the labeled family"):
            encode("run.rle", {"type": "u8"}, {"col": make_column(U8, [3]), "extra": make_column(U8, [3])})

    def test_rle_is_total(self):
        rng = random.Random(0)
        for _ in range(10):
            col = make_column(U16, [rng.randrange(0, 4) for _ in range(rng.randrange(0, 30))])
            inst = encode("run.rle", {"type": "u16"}, col)
            assert verify(inst) and decode(inst)["col"] == col


class TestCompressionRatio:
    def test_constant_u32(self):
        inst = encode("constant", {"type": "u32", "int_type": "u32"}, make_column(U32, [9] * 1000))
        assert compression_ratio(inst) == Fraction(4000, 8)

    @pytest.mark.parametrize("sid, params", [("nullsup", {"type": "u32", "narrow_type": "u8"}), ("dict", {"type": "u32"})])
    def test_an_empty_family_in_no_bytes_is_one(self, sid, params):
        inst = encode(sid, params, make_column(U32, []))
        assert all(len(col) == 0 for col in inst.columns.values())
        assert compression_ratio(inst) == 1

    def test_indexed_identity_overhead(self):
        n = 16
        inst = encode("indexed", {"type": "u8"}, make_column(U8, range(n)))
        # n bytes of data blow up to 8n of positions plus n of data
        assert compression_ratio(inst) == Fraction(n, 9 * n)

    def test_rle_closed_form(self):
        col = make_column(U8, [1] * 10 + [2] * 10 + [3] * 10)
        inst = encode("run.rle", {"type": "u8", "int_type": "u32"}, col)
        runs = len(inst.columns["value"])
        assert compression_ratio(inst) == Fraction(30, 5 * runs)


class TestSubSchemeContainment:
    def test_unique_verifies_under_dict(self):
        rng = random.Random(4)
        for _ in range(20):
            col = make_column(U16, [rng.randrange(0, 6) for _ in range(rng.randrange(0, 20))])
            inst = encode("dict.unique", {"type": "u16"}, col)
            plain = SchemeInstance("dict", inst.params, inst.columns)
            assert verify(plain)
            assert decode(plain)["col"] == decode(inst)["col"]

    def test_monotone_verifies_under_unique(self):
        rng = random.Random(5)
        for _ in range(20):
            col = make_column(U16, [rng.randrange(0, 6) for _ in range(rng.randrange(0, 20))])
            inst = encode("dict.monotone", {"type": "u16"}, col)
            unique = SchemeInstance("dict.unique", inst.params, inst.columns)
            assert verify(unique)
            assert decode(unique)["col"] == decode(inst)["col"]

    def test_containment_strict(self):
        # dict accepts duplicate entries that dict.unique rejects
        dup = SchemeInstance(
            "dict",
            {"type": "u8"},
            {"dictionary": make_column(U8, [5, 5]), "indices": make_column(INT, [0, 1])},
        )
        assert verify(dup)
        assert not verify(SchemeInstance("dict.unique", dup.params, dup.columns))
        # dict.unique accepts unsorted entries that dict.monotone rejects
        unsorted = SchemeInstance(
            "dict.unique",
            {"type": "u8"},
            {"dictionary": make_column(U8, [9, 5]), "indices": make_column(INT, [0])},
        )
        assert verify(unsorted)
        assert not verify(SchemeInstance("dict.monotone", unsorted.params, unsorted.columns))

    def test_capped_rle_is_sub_scheme_of_rle(self):
        rng = random.Random(6)
        for _ in range(20):
            col = make_column(U16, [rng.randrange(0, 3) for _ in range(rng.randrange(0, 30))])
            capped = encode("run.rle.capped", {"type": "u16", "cap": 3}, col)
            as_rle = SchemeInstance(
                "run.rle",
                {"type": "u16"},
                {"length": capped.columns["length"], "value": capped.columns["value"]},
            )
            assert verify(as_rle)
            assert decode(as_rle)["col"] == decode(capped)["col"] == col


class TestCompose:
    def test_patch_constant_is_overlaid_recipe(self):
        sid = unique_id("patch")
        compose(CompositionRecipe("patch", sid, (("constant", {"type": "u8"}),)))
        rng = random.Random(7)
        for _ in range(10):
            vals = [7] * rng.randrange(1, 15)
            for i in rng.sample(range(len(vals)), min(len(vals), rng.randrange(0, 3))):
                vals[i] = rng.randrange(0, 200)
            col = make_column(U8, vals)
            inst = encode(sid, {}, col)
            assert verify(inst)
            # oracle: direct overlay loop over the base value
            base = [inst.columns["base:value"].scalar()] * len(vals)
            for p, v in zip(inst.columns["patch_pos"].values, inst.columns["patch_data"].values):
                base[p] = v
            assert decode(inst)["col"].values == tuple(base) == tuple(vals)

    def test_segmentize_uniform_constant_equals_rle(self):
        sid = unique_id("seguni")
        compose(
            CompositionRecipe(
                "segmentize-uniform", sid, (("constant", {"type": "u8"}),), {"segment_length": 4}
            )
        )
        rng = random.Random(8)
        for _ in range(10):
            seg_vals = [rng.randrange(0, 9) for _ in range(rng.randrange(0, 5))]
            vals = [v for v in seg_vals for _ in range(4)]
            col = make_column(U8, vals)
            inst = encode(sid, {}, col)
            rle = SchemeInstance(
                "run.rle",
                {"type": "u8"},
                {
                    "length": make_column(INT, [4] * len(seg_vals)),
                    "value": make_column(U8, seg_vals),
                },
            )
            assert decode(inst)["col"] == decode(rle)["col"] == col

    def test_elementwise_add_matches_noisy_generated(self):
        sid = unique_id("ewadd")
        compose(
            CompositionRecipe(
                "elementwise-add",
                sid,
                (
                    ("generated.poly", {"type": "u32", "degree": 1}),
                    ("nullsup", {"type": "u32", "narrow_type": "u8"}),
                ),
            )
        )
        rng = random.Random(9)
        for _ in range(10):
            a, b = rng.randrange(50, 90), rng.randrange(0, 6)
            vals = [a + b * i + rng.randrange(0, 12) for i in range(rng.randrange(1, 16))]
            col = make_column(U32, vals)
            inst = encode(sid, {}, col)
            assert verify(inst) and decode(inst)["col"] == col
            direct = encode(
                "noisy.generated", {"type": "u32", "basis": [0, 1], "noise_type": "i8"}, col
            )
            assert decode(direct)["col"] == decode(inst)["col"]

    def test_for_equals_composed_spline_plus_narrowing(self):
        sid = unique_id("forcmp")
        compose(
            CompositionRecipe(
                "elementwise-add",
                sid,
                (
                    ("spline.equiknotted", {"type": "u32", "basis": [0], "interval_length": 4}),
                    ("nullsup", {"type": "u32", "narrow_type": "u8"}),
                ),
            )
        )
        rng = random.Random(10)
        for _ in range(10):
            n = rng.randrange(1, 20)
            vals = []
            for at in range(0, n, 4):
                base = rng.randrange(0, 4000)
                vals.extend(base + rng.randrange(0, 200) for _ in range(min(4, n - at)))
            col = make_column(U32, vals)
            composed = encode(sid, {}, col)
            direct = encode("for", {"type": "u32", "offset_type": "u8", "segment_length": 4}, col)
            assert decode(composed)["col"] == decode(direct)["col"] == col

    def test_small_dict_fit(self):
        sid = unique_id("sdf")
        compose(
            CompositionRecipe(
                "small-dict-fit",
                sid,
                (("nullsup", {"type": "u32", "narrow_type": "u8"}),),
                {"bits": 2},
            )
        )
        rng = random.Random(11)
        for _ in range(10):
            vals = [rng.choice([7, 7, 7, 9, 9, rng.randrange(0, 200)]) for _ in range(rng.randrange(0, 20))]
            col = make_column(U32, vals)
            inst = encode(sid, {}, col)
            assert verify(inst) and decode(inst)["col"] == col

    def test_differentiate(self):
        sid = unique_id("diff")
        compose(
            CompositionRecipe(
                "differentiate",
                sid,
                (("nullsup", {"type": "i16", "narrow_type": "i8"}),),
                {"type": "u32"},
            )
        )
        rng = random.Random(12)
        for _ in range(10):
            at = rng.randrange(500, 1000)
            vals = []
            for _ in range(rng.randrange(1, 16)):
                vals.append(at)
                at = max(0, at + rng.randrange(-60, 60))
            col = make_column(U32, vals)
            inst = encode(sid, {}, col)
            assert verify(inst) and decode(inst)["col"] == col

    def test_alternate(self):
        sid = unique_id("alt")
        compose(
            CompositionRecipe(
                "alternate",
                sid,
                (
                    ("constant", {"type": "u8"}),
                    ("nullsup", {"type": "u8", "narrow_type": "u8"}),
                ),
            )
        )
        rng = random.Random(13)
        for _ in range(10):
            n = rng.randrange(0, 16)
            partition = [rng.randrange(0, 2) for _ in range(n)]
            c_val = rng.randrange(0, 99)
            vals = [c_val if p == 0 else rng.randrange(0, 200) for p in partition]
            col = make_column(U8, vals)
            inst = encode(sid, {"partition": partition}, col)
            assert verify(inst) and decode(inst)["col"] == col

    def test_incompatible_inner(self):
        sid = unique_id("badseg")
        with pytest.raises(NotEncodable, match="data-dependent"):
            compose(
                CompositionRecipe(
                    "segmentize-uniform", sid, (("run.rle", {"type": "u8"}),), {"segment_length": 4}
                )
            )

    def test_composed_decoder_uses_union_and_assignment(self):
        sid = unique_id("structure")
        entry = compose(CompositionRecipe("patch", sid, (("constant", {"type": "u8"}),)))
        dec = entry.decoder({})
        # the inner decoder's vertices and the scatter stage coexist in one circuit
        ops = {op.op_name for op in dec.vertices.values()}
        assert "replicate" in ops and "scatter" in ops
        from colcirc import validate_circuit

        assert validate_circuit(dec).ok


_NULLSUP = ("nullsup", {"type": "u32", "narrow_type": "u8"})


class TestMalformedRecipes:
    @pytest.mark.parametrize(
        "kind, inner, options",
        [
            pytest.param("segmentize-uniform", (_NULLSUP,), {}, id="no-segment-length"),
            pytest.param("segmentize-uniform", (_NULLSUP,), {"segment_length": 0}, id="segment-length-0"),
            pytest.param("segmentize-uniform", (_NULLSUP,), {"segment_length": -3}, id="segment-length-negative"),
            pytest.param("differentiate", (("nullsup", {"type": "i16", "narrow_type": "i8"}),), {}, id="no-type"),
            pytest.param("small-dict-fit", (_NULLSUP,), {"bits": "two"}, id="bits-not-an-integer"),
            pytest.param("small-dict-fit", (_NULLSUP,), {"bits": 65}, id="bits-too-wide"),
            pytest.param("patch", (), {}, id="patch-of-nothing"),
            pytest.param("elementwise-add", (("generated.poly", {"type": "u32", "degree": 1}),), {}, id="add-of-one"),
            pytest.param("alternate", (), {}, id="alternate-of-nothing"),
            pytest.param("patch", (("constant", {}),), {}, id="inner-params-without-type"),
            pytest.param("alternate", (("constant", {"type": "u8"}), _NULLSUP), {}, id="inner-types-differ"),
            pytest.param("patch", (("subcolumn.std", {"type": "u16"}),), {}, id="inner-not-single-column"),
        ],
    )
    def test_compose_raises_not_encodable(self, kind, inner, options):
        sid = unique_id(f"malformed.{kind}")
        with pytest.raises(NotEncodable):
            compose(CompositionRecipe(kind, sid, inner, options))
        assert sid not in registered_schemes()


class TestMalformedHints:
    @pytest.mark.parametrize(
        "kind, inner, hint, values",
        [
            pytest.param("segmentize-variable", (_NULLSUP,), {"segments": [1.5, 1.5]}, [1, 2, 3], id="segments-fractional"),
            pytest.param("segmentize-variable", (_NULLSUP,), {"segments": "ab"}, [1, 2], id="segments-a-string"),
            pytest.param("alternate", (("constant", {"type": "u32"}), _NULLSUP), {"partition": "ab"}, [1, 2], id="partition-a-string"),
            pytest.param("alternate", (("constant", {"type": "u32"}), _NULLSUP), {"partition": [-1, 0]}, [1, 2], id="partition-negative"),
        ],
    )
    def test_encode_raises_not_encodable(self, kind, inner, hint, values):
        sid = unique_id(f"hint.{kind}")
        compose(CompositionRecipe(kind, sid, inner))
        with pytest.raises(NotEncodable):
            encode(sid, hint, make_column(U32, values))


class TestBoundedUniformSegments:
    def test_a_huge_total_length_is_rejected_before_listing_segments(self):
        import time

        from colcirc.errors import ColcircError

        sid = unique_id("hugeseg")
        compose(CompositionRecipe("segmentize-uniform", sid, (_NULLSUP,), {"segment_length": 4}))
        inst = encode(sid, {}, make_column(U32, [1, 2, 3, 4, 5, 6]))
        huge = inst.with_columns(total_length=scalar_column(INT, 2**40))
        t0 = time.perf_counter()
        assert not verify(huge)
        assert time.perf_counter() - t0 < 1
        t0 = time.perf_counter()
        with pytest.raises(ColcircError):
            decode(huge, check=False)
        assert time.perf_counter() - t0 < 1

    def test_a_total_length_that_fits_still_decodes(self):
        sid = unique_id("fitseg")
        compose(CompositionRecipe("segmentize-uniform", sid, (_NULLSUP,), {"segment_length": 4}))
        for n in range(10):
            inst = encode(sid, {}, make_column(U32, list(range(n))))
            assert verify(inst) and decode(inst)["col"].values == tuple(range(n))
            for wrong in {n - 1, n + 1, n + 4} - {-1}:
                assert not verify(inst.with_columns(total_length=scalar_column(INT, wrong)))


class TestVerifierCircuits:
    def test_verifier_signature_matches_decoder_signature(self):
        from colcirc.circuit import evaluate_decision_circuit

        samples = {
            "indexed": {"type": "u8"},
            "constant": {"type": "u8"},
            "run.rle": {"type": "u8"},
            "dict.unique": {"type": "u8"},
            "delta": {"type": "u16", "delta_type": "i8", "segment_length": 2},
            "varwidth.std": {"type": "u8"},
        }
        for sid, params in samples.items():
            entry = codec(sid)
            params = entry.normalize_params(params)
            vc = entry.verifier_circuit(params)
            dc = entry.decoder(params)
            assert vc.signature.inputs == dc.signature.inputs, sid
            assert list(vc.signature.outputs.values())[0].width_bits == 1

    def test_permute_validity_rejected_by_lifted_verifier(self):
        from colcirc.circuit import evaluate_decision_circuit

        entry = codec("indexed")
        vc = entry.verifier_circuit({"type": "u8"})
        bad = {"pos": make_column(INT, [0, 0, 1]), "data": make_column(U8, [1, 2, 3])}
        good = {"pos": make_column(INT, [2, 0, 1]), "data": make_column(U8, [1, 2, 3])}

        def brute_force_bijection(pos, n):
            return sorted(pos) == list(range(n))

        assert evaluate_decision_circuit(vc, bad) is False
        assert not brute_force_bijection(bad["pos"].values, 3)
        assert evaluate_decision_circuit(vc, good) is True
        assert brute_force_bijection(good["pos"].values, 3)

    def test_differentiate_composition_matches_staged_decode(self):
        sid = unique_id("diffstage")
        entry = compose(
            CompositionRecipe(
                "differentiate",
                sid,
                (("nullsup", {"type": "i16", "narrow_type": "i8"}),),
                {"type": "u32"},
            )
        )
        rng = random.Random(14)
        for _ in range(10):
            at = rng.randrange(500, 900)
            vals = []
            for _ in range(rng.randrange(1, 14)):
                vals.append(at)
                at = max(0, at + rng.randrange(-50, 50))
            col = make_column(U32, vals)
            inst = encode(sid, {}, col)
            # staged oracle: decode the inner scheme, then integrate by hand
            inner = SchemeInstance(
                "nullsup",
                {"type": "i16", "narrow_type": "i8"},
                {"narrow": inst.columns["diff:narrow"]},
            )
            diffs = decode(inner)["col"].values
            acc = inst.columns["first"].scalar()
            staged = [acc]
            for d in diffs:
                acc += d
                staged.append(acc)
            assert list(decode(inst)["col"].values) == staged


# -- ill-formed instances ---------------------------------------------------------------

# (kind, inner schemes, options, params, decoded values): one instance of each
# composition exercised above
_COMPOSED_SAMPLES = [
    ("patch", (("constant", {"type": "u8"}),), {}, {}, U8, [7, 7, 9, 7]),
    ("segmentize-uniform", (("constant", {"type": "u8"}),), {"segment_length": 4}, {}, U8, [3] * 4 + [5] * 2),
    (
        "elementwise-add",
        (("generated.poly", {"type": "u32", "degree": 1}), ("nullsup", {"type": "u32", "narrow_type": "u8"})),
        {},
        {},
        U32,
        [50, 52, 55, 57],
    ),
    (
        "elementwise-add",
        (
            ("spline.equiknotted", {"type": "u32", "basis": [0], "interval_length": 4}),
            ("nullsup", {"type": "u32", "narrow_type": "u8"}),
        ),
        {},
        {},
        U32,
        [1000, 1010, 1100, 1050, 30, 40],
    ),
    ("small-dict-fit", (("nullsup", {"type": "u32", "narrow_type": "u8"}),), {"bits": 2}, {}, U32, [7, 7, 9, 100]),
    ("differentiate", (("nullsup", {"type": "i16", "narrow_type": "i8"}),), {"type": "u32"}, {}, U32, [500, 510, 490]),
    (
        "alternate",
        (("constant", {"type": "u8"}), ("nullsup", {"type": "u8", "narrow_type": "u8"})),
        {},
        {"partition": [0, 1, 0]},
        U8,
        [5, 100, 5],
    ),
    ("segmentize-variable", (("nullsup", {"type": "u32", "narrow_type": "u8"}),), {}, {"segments": [2, 1]}, U32, [1, 2, 3]),
]


def _retyped(col):
    """The column's values under another element type, or an empty column of one."""
    for t in (INT, I64, U32, U16, U8, I8, BIT, F64, F32):
        if t != col.element_type:
            try:
                return Column(t, col.values)
            except TypeDomainError:
                pass
    return Column(U8 if col.element_type == BIT else BIT, [])


def _ill_formed(inst):
    """Each instance with a label missing, an extra label or one column retyped."""
    for label in inst.columns:
        rest = {k: c for k, c in inst.columns.items() if k != label}
        yield f"missing {label}", SchemeInstance(inst.scheme_id, inst.params, rest)
        yield f"retyped {label}", inst.with_columns(**{label: _retyped(inst.columns[label])})
    some = next(iter(inst.columns.values()))
    yield "extra label", inst.with_columns(**{"extra:label": some})


def _assert_ill_formed_rejected(inst):
    assert verify(inst), inst.scheme_id
    for what, bad in _ill_formed(inst):
        assert not verify(bad), f"{inst.scheme_id}: {what} accepted"


class TestIllFormedInstancesRejected:
    def test_scheme_cases(self):
        from scheme_cases import CASES

        rng = random.Random(15)
        for scheme_id, case in CASES.items():
            for _ in range(3):
                params, family = case.gen(rng)
                _assert_ill_formed_rejected(encode(scheme_id, params, family))

    @pytest.mark.parametrize(
        "sample", _COMPOSED_SAMPLES, ids=[f"{s[0]}-{'+'.join(sid for sid, _ in s[1])}" for s in _COMPOSED_SAMPLES]
    )
    def test_composed(self, sample):
        kind, inner, options, params, t, values = sample
        sid = unique_id(f"illformed.{kind}")
        compose(CompositionRecipe(kind, sid, inner, options))
        _assert_ill_formed_rejected(encode(sid, params, make_column(t, values)))


def _decodes(inst) -> bool:
    try:
        decode(inst, check=False)
    except EvaluationError:
        return False
    return True


class TestComposedVerifiersCheckTheFinalCast:
    """``verify`` of an elementwise-add or differentiate instance holds exactly when its decoder succeeds."""

    def test_elementwise_add_sum_beyond_the_type(self):
        sid = unique_id("ewadd.u8")
        inner = ("nullsup", {"type": "u8", "narrow_type": "u8"})
        compose(CompositionRecipe("elementwise-add", sid, (inner, inner)))
        bad = SchemeInstance(sid, {}, {"a:narrow": make_column(U8, [200]), "b:narrow": make_column(U8, [200])})
        assert not verify(bad) and not _decodes(bad)
        edge = bad.with_columns(**{"b:narrow": make_column(U8, [55])})
        assert verify(edge) and decode(edge)["col"].values == (255,)

    def test_elementwise_add_f32_sum_beyond_the_type(self):
        sid = unique_id("ewadd.f32")
        inner = ("constant", {"type": "f32"})
        compose(CompositionRecipe("elementwise-add", sid, (inner, inner)))
        big = 3.4028234663852886e38  # the largest f32
        cols = {"a:value": make_column(F32, [big]), "b:value": make_column(F32, [big])}
        cols.update({"a:length": make_column(INT, [2]), "b:length": make_column(INT, [2])})
        bad = SchemeInstance(sid, {}, cols)
        assert not verify(bad) and not _decodes(bad)
        fine = bad.with_columns(**{"b:value": make_column(F32, [-big])})
        assert verify(fine) and decode(fine)["col"].values == (0.0, 0.0)

    @pytest.mark.parametrize("t", ["u8", "i8", "u64", "i64"])
    def test_elementwise_add_agrees_with_decode(self, t):
        sid = unique_id(f"ewadd.{t}")
        inner = ("nullsup", {"type": t, "narrow_type": t})
        compose(CompositionRecipe("elementwise-add", sid, (inner, inner)))
        et = codec(sid).form_spec({})["a:narrow"]
        lo, hi = et.bounds()
        rng = random.Random(t)
        picks = [lo, hi, lo // 2, hi // 2, hi // 2 + 1, 0, 1, -1, 2**63 - 1, 2**63]
        picks = [v for v in picks if lo <= v <= hi]
        for _ in range(200):
            n = rng.randrange(0, 4)
            a, b = ([rng.choice(picks) for _ in range(n)] for _ in range(2))
            inst = SchemeInstance(sid, {}, {"a:narrow": make_column(et, a), "b:narrow": make_column(et, b)})
            assert verify(inst) == _decodes(inst), (a, b)

    def test_differentiate_sum_beyond_the_type(self):
        sid = unique_id("diff.i8")
        compose(CompositionRecipe("differentiate", sid, (("nullsup", {"type": "i8", "narrow_type": "i8"}),), {"type": "u8"}))
        bad = SchemeInstance(sid, {}, {"diff:narrow": make_column(I8, [100, 100]), "first": make_column(U8, [200])})
        assert not verify(bad) and not _decodes(bad)
        edge = bad.with_columns(first=make_column(U8, [55]))
        assert verify(edge) and decode(edge)["col"].values == (55, 155, 255)

    @pytest.mark.parametrize("diff_type, t", [("i8", "u8"), ("i64", "u64"), ("u64", "i64"), ("i64", "i64")])
    def test_differentiate_agrees_with_decode(self, diff_type, t):
        sid = unique_id(f"diff.{diff_type}.{t}")
        compose(CompositionRecipe("differentiate", sid, (("nullsup", {"type": diff_type, "narrow_type": diff_type}),), {"type": t}))
        spec = codec(sid).form_spec({})
        dt, ft = spec["diff:narrow"], spec["first"]
        rng = random.Random(diff_type + t)
        for _ in range(200):
            d_lo, d_hi = dt.bounds()
            f_lo, f_hi = ft.bounds()
            diffs = [rng.choice([d_lo, d_hi, 0, 1, d_hi // 2, d_lo // 2]) for _ in range(rng.randrange(0, 4))]
            first = rng.choice([f_lo, f_hi, 0, f_hi // 2, 2**63 - 1, 2**63])
            first = min(max(first, f_lo), f_hi)
            inst = SchemeInstance(sid, {}, {"diff:narrow": make_column(dt, diffs), "first": make_column(ft, [first])})
            assert verify(inst) == _decodes(inst), (first, diffs)

    def test_differentiate_needs_integer_types(self):
        with pytest.raises(NotEncodable, match="integer"):
            compose(CompositionRecipe("differentiate", unique_id("diff.f64"), (("nullsup", {"type": "i8", "narrow_type": "i8"}),), {"type": "f64"}))


class TestLengthBeyondAnIndex:
    @pytest.mark.parametrize(
        "scheme, params, columns",
        [
            ("run.rpe", {"type": "u8"}, {"start_position": [0], "value": [7], "overall_length": [2**64 - 1]}),
            ("indexset.sparse", {}, {"full_length": [2**64 - 1], "elements": [0, 3]}),
            ("segmentation.uniform", {"segment_length": 4}, {"segment_length": [4], "overall_length": [2**64 - 1]}),
        ],
    )
    def test_decode_raises_evaluation_error(self, scheme, params, columns):
        cols = {label: make_column(U8 if label == "value" else INT, values) for label, values in columns.items()}
        with pytest.raises(EvaluationError, match="too-long"):
            decode(SchemeInstance(scheme, params, cols), check=False)


def test_decoder_cache_stops_growing_at_its_cap(monkeypatch):
    entry = codec("run.rle.capped")
    monkeypatch.setattr(entry, "_decoder_cache", {})  # the registry's entry gets its own cache back afterwards
    col = make_column(U8, [3, 3, 3, 9])
    for cap in range(1, 301):
        inst = encode("run.rle.capped", {"type": "u8", "cap": cap}, col)
        assert decode(inst)["col"] == col
    assert len(entry._decoder_cache) == 256
    # params past the cap still decode, through a decoder built for the call
    inst = encode("run.rle.capped", {"type": "u8", "cap": 1000}, col)
    assert params_key(inst.params) not in entry._decoder_cache
    assert decode(inst)["col"] == col and decode(inst, check=False)["col"] == col
