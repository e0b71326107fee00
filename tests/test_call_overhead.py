"""Per-call fast paths stay cheap and keep the checks they must keep.

An operator call reads the facts of its element types from the type
(interned, with bounds and kind predicates computed once), a ``scalar``
vertex builds its column once, and a widening integer cast of a well-typed
column passes the values through.  That every operator gives on boundary
values what it gives with every shortcut off is ``test_paths.py``'s
``checked`` path; here are the casts, messages and interning those shortcuts
rest on.  The count guard at the end pins the number of checked ``Column``
constructions per evaluation, so a per-call check that comes back fails here
deterministically, not by timing.
"""

import copy
import dataclasses
import importlib
import itertools
import random
from fractions import Fraction

import pytest

from colcirc import (
    Column,
    CompositionRecipe,
    circuit,
    codec,
    compose,
    encode,
    evaluate_circuit,
    in_port,
    instantiate,
    make_column,
    out_port,
)
from colcirc import comp_schemes as cs_mod
from colcirc import ops as ops_mod
from colcirc import types as types_mod
from colcirc.column import read_col_bytes, write_col_bytes
from colcirc.errors import ColcircError, EvaluationError, NotEncodable, OperatorError, TypeDomainError, VerificationFailed
from colcirc.types import BIT, BOTTOM, F32, F64, I8, I16, I32, I64, U8, U16, U32, U64, UNIT, ElementType, parse_type
from paths import count_checked_columns, edges, encoded, lineitem, splice_q6

# the package exports functions named after these modules
codec_mod = importlib.import_module("colcirc.codec")


def col(t, values):
    return make_column(t, values)


def idx(*values):
    return col(U64, values)


# -- casts ---------------------------------------------------------------------------------


def cast(src, dst, values):
    inst = instantiate("elementwise", {"fn": "cast", "from": str(src), "to": str(dst)})
    return inst.apply({"arguments": col(src, values)})["result"]


@pytest.mark.parametrize(
    "src, dst",
    [(U8, U16), (U8, U64), (U32, U64), (I8, I64), (U32, I64), (U8, I16), (BIT, U8), (U8, U8), (I32, I32), (U64, U64)],
)
def test_widening_cast_passes_values_through_unchecked(src, dst, monkeypatch):
    values = col(src, edges(src))
    built = count_checked_columns(monkeypatch)
    out = instantiate("elementwise", {"fn": "cast", "from": str(src), "to": str(dst)}).apply({"arguments": values})
    assert built == []
    assert out["result"].element_type is dst
    assert out["result"].values is values.values


@pytest.mark.parametrize(
    "src, dst, values, want",
    [
        (U16, U8, [0, 255], (0, 255)),  # narrowing, in range
        (U16, U8, [0, 256], "overflow: cast of 256 outside u8 range [0, 255]"),
        (U32, I32, [2**31 - 1], (2**31 - 1,)),  # same width, unsigned to signed
        (U32, I32, [2**31], "overflow: cast of 2147483648 outside i32 range [-2147483648, 2147483647]"),
        (I8, U8, [0, 127], (0, 127)),  # signed to unsigned
        (I8, U8, [5, -128], "overflow: cast of -128 outside u8 range [0, 255]"),
        (I8, U64, [-1], "overflow: cast of -1 outside u64 range [0, 18446744073709551615]"),
        (I64, BIT, [0, 1], (0, 1)),
        (I64, BIT, [2], "overflow: cast of 2 outside bit range [0, 1]"),
    ],
)
def test_cast_that_does_not_widen_is_range_checked(src, dst, values, want):
    if isinstance(want, str):
        with pytest.raises(OperatorError) as exc:
            cast(src, dst, values)
        assert str(exc.value) == want
    else:
        assert cast(src, dst, values) == col(dst, want)


# Mistyped direct applies: the column's type is not the one the signature
# declares, so no shortcut applies; outcomes and messages are the ones the
# checked paths always gave.
MISTYPED = [
    ({"fn": "cast", "from": "u8", "to": "u16"}, {"arguments": col(U32, [70000])}, OperatorError,
     "overflow: cast of 70000 outside u16 range [0, 65535]"),
    ({"fn": "cast", "from": "u8", "to": "u16"}, {"arguments": col(I32, [5, -1])}, OperatorError,
     "overflow: cast of -1 outside u16 range [0, 65535]"),
    ({"fn": "cast", "from": "i8", "to": "u8"}, {"arguments": col(F64, [1.5])}, TypeDomainError,
     "value 1.5 not in domain of u8 (at index 0)"),
    ({"fn": "cast", "from": "u8", "to": "i16"}, {"arguments": col(I64, [-40000])}, OperatorError,
     "overflow: cast of -40000 outside i16 range [-32768, 32767]"),
    ({"fn": "cast", "from": "bit", "to": "u8"}, {"arguments": col(U16, [256])}, OperatorError,
     "overflow: cast of 256 outside u8 range [0, 255]"),
    ({"fn": "add", "type": "u8"}, {"lhs": col(U16, [300]), "rhs": col(U16, [0])}, OperatorError,
     "overflow: result 300 outside u8 range [0, 255]"),
]


@pytest.mark.parametrize("params, inputs, error, message", MISTYPED)
def test_mistyped_direct_apply_keeps_its_check(params, inputs, error, message):
    with pytest.raises(error) as exc:
        instantiate("elementwise", params).apply(inputs)
    assert type(exc.value) is error
    assert str(exc.value) == message


def test_mistyped_cast_in_range_is_built_checked(monkeypatch):
    wide = col(U32, [300])
    built = count_checked_columns(monkeypatch)
    out = instantiate("elementwise", {"fn": "cast", "from": "u8", "to": "u64"}).apply({"arguments": wide})
    assert out["result"].values == (300,) and out["result"].element_type is U64
    assert built == [U64]


def test_domain_and_length_messages_are_unchanged():
    with pytest.raises(TypeDomainError, match=r"^value 300 not in domain of u8 \(at index 0\)$"):
        instantiate("gather", {"type": "u8"}).apply({"pos": idx(0), "data": col(U32, [300])})
    with pytest.raises(OperatorError) as exc:
        instantiate("select", {"type": "u8"}).apply({"data": col(U32, [1, 2]), "selection": col(BIT, [1])})
    assert str(exc.value) == "length-mismatch: unequal input lengths {'data': 2, 'selection': 1}"
    add = instantiate("elementwise", {"fn": "add", "type": "u8"})
    with pytest.raises(OperatorError) as exc:
        add.apply({"lhs": col(U8, [1, 2]), "rhs": col(U8, [0])})
    assert str(exc.value) == "length-mismatch: unequal input lengths {'lhs': 2, 'rhs': 1}"
    zip3 = instantiate("zip", {"types": ["u8", "u8", "u8"]})
    with pytest.raises(OperatorError) as exc:
        zip3.apply({"component_1": col(U8, [1]), "component_2": col(U8, [1]), "component_3": col(U8, [])})
    assert str(exc.value) == "length-mismatch: unequal input lengths {'component_1': 1, 'component_2': 1, 'component_3': 0}"


# -- interned types ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 7, 8, 24, 33, 64])
def test_parse_type_returns_the_interned_type(k):
    assert parse_type(f"u{k}") is ElementType.unsigned(k)
    assert parse_type(f"i{k}") is ElementType.signed(k)
    assert parse_type(" u8 ") is U8


def test_named_types_are_the_interned_ones():
    assert parse_type("f32") is ElementType.float_(32) is F32
    assert parse_type("f64") is F64
    assert parse_type("bit") is BIT and parse_type("unit") is UNIT and parse_type("bottom") is BOTTOM
    assert parse_type("prod(u8,i64)").components[0] is U8


@pytest.mark.parametrize("t", [BIT, UNIT, U8, ElementType.unsigned(24), I16, I64, F32, F64])
def test_read_col_bytes_returns_the_interned_type(t):
    c = col(t, [t.zero()] * 3)
    assert read_col_bytes(write_col_bytes(c)).element_type is t


def test_bottom_col_reads_as_the_interned_bottom():
    assert read_col_bytes(write_col_bytes(col(BOTTOM, []))).element_type is BOTTOM


def test_product_types_leave_the_intern_table_bounded():
    widths = [(a, b, c) for a in range(1, 65) for b in range(1, 65) for c in (1, 2, 3)]
    made = {ElementType.product(ElementType.unsigned(a), ElementType.signed(b), ElementType.unsigned(c)) for a, b, c in widths}
    assert len(made) >= 10_000
    for a in range(1, 20):
        parse_type(f"prod(u{a},prod(i{a},f64))")
    assert len(types_mod._INTERNED) <= 133


def test_bad_widths_stay_out_of_the_intern_table():
    before = dict(types_mod._INTERNED)
    for width in (0, 65, -1):
        with pytest.raises(ValueError):
            ElementType.unsigned(width)
    with pytest.raises(ColcircError):
        parse_type("u65")
    assert types_mod._INTERNED == before


def test_a_width_that_is_no_int_is_not_interned():
    t = ElementType.unsigned(8.0)
    assert t == U8 and t is not U8
    assert ElementType.unsigned(8) is U8


@pytest.mark.parametrize("t", [U8, I64, BIT, F32, ElementType.product(U8, I16)])
def test_a_copied_type_is_equal_and_well_typed(t):
    twin = copy.deepcopy(t)
    assert twin == t and hash(twin) == hash(t) and repr(twin) == repr(t)
    assert twin.is_integer == t.is_integer and twin.is_numeric == t.is_numeric
    inst = instantiate("no_op", {"type": str(t)})
    assert ops_mod._well_typed(inst, {"arguments": Column(twin, [])})
    values = [t.zero()] * 2
    out = instantiate("gather", {"type": str(t)}).apply({"pos": idx(1, 0), "data": Column(twin, values)})
    assert out["result"] == Column(t, values)


def test_cached_facts_are_not_fields():
    assert [f.name for f in dataclasses.fields(ElementType)] == ["kind", "width_bits", "components"]
    assert repr(U8) == "ElementType(kind=<Kind.UNSIGNED: 'unsigned'>, width_bits=8, components=())"
    assert U8.bounds() == (0, 255) and I8.bounds() == (-128, 127) and BIT.bounds() == (0, 1)
    assert U64.is_integer and U64.is_numeric and not F32.is_integer and F32.is_numeric
    assert not UNIT.is_numeric and not ElementType.product(U8).is_integer
    with pytest.raises(TypeError, match="has no integer bounds"):
        F64.bounds()


# -- the scalar memo ---------------------------------------------------------------------------


def scalar_circuit(value, type_name="u8"):
    k = instantiate("scalar", {"type": type_name, "value": value})
    add = instantiate("elementwise", {"fn": "add", "type": type_name})
    wires = {(out_port("k", "value"), in_port("add", "rhs"))}
    interface = {"x": in_port("add", "lhs"), "y": out_port("add", "result")}
    return circuit({"k": k, "add": add}, wires, interface)


def test_scalar_vertex_returns_one_column_built_once(monkeypatch):
    x = col(U8, [1])
    built = count_checked_columns(monkeypatch)
    c = scalar_circuit(5)
    k = c.vertices["k"]
    for _ in range(3):
        assert evaluate_circuit(c, {"x": x})["y"].values == (6,)
    assert len({id(k.apply({})["value"]) for _ in range(3)}) == 1
    assert k.apply({})["value"].values == (5,)
    assert built == [U8]


def test_scalar_instances_compare_as_before():
    a = instantiate("scalar", {"type": "u8", "value": 5})
    b = instantiate("scalar", {"type": "u8", "value": 5})
    a.apply({})
    assert a == b and repr(a) == repr(b)


@pytest.mark.parametrize("value", [256, -1, 1.0, "5"])
def test_out_of_domain_scalar_raises_on_every_evaluation(value):
    c = scalar_circuit(value)
    for _ in range(3):
        with pytest.raises(EvaluationError) as exc:
            evaluate_circuit(c, {"x": col(U8, [1])})
        assert exc.value.vertex_id == "k" and type(exc.value.cause) is TypeDomainError
    assert c.vertices["k"]._constant is None


# -- one decoder lookup per decode, inner decoders resolved once ----------------------------------


def test_checked_decode_looks_its_decoder_up_once(monkeypatch):
    inst = encode("run.rle", {"type": "u32"}, col(U32, [3, 3, 7]))
    keys, verifications = [], []
    params_key = codec_mod.params_key
    verify_columns = codec_mod.CodecEntry.verify_columns

    def counting_key(params):
        keys.append(params)
        return params_key(params)

    def counting_verify(self, params, columns):
        verifications.append(self.scheme_id)
        return verify_columns(self, params, columns)

    monkeypatch.setattr(codec_mod, "params_key", counting_key)
    monkeypatch.setattr(codec_mod.CodecEntry, "verify_columns", counting_verify)
    assert codec_mod.decode(inst)["col"].values == (3, 3, 7)
    assert len(keys) == 1 and verifications == ["run.rle"]
    keys.clear()
    codec_mod.decode(inst, check=False)
    assert len(keys) == 1


def test_checked_decode_of_a_bad_instance_still_fails_verification():
    inst = encode("run.rle", {"type": "u32"}, col(U32, [3, 3, 7]))
    bad = inst.with_columns(run_lengths=col(U64, [2]))
    with pytest.raises(VerificationFailed):
        codec_mod.decode(bad)  # lengths that do not add up
    with pytest.raises(VerificationFailed):
        codec_mod.decode(inst.with_columns(run_lengths=col(U32, [2, 1])))  # the wrong type


_composed_ids = itertools.count()


@pytest.mark.parametrize(
    "kind, inner, options, params, values",
    [
        ("segmentize-uniform", (("nullsup", {"type": "u32", "narrow_type": "u8"}),), {"segment_length": 2}, {}, [1, 2, 3, 4, 5]),
        ("alternate", (("constant", {"type": "u32"}), ("run.rle", {"type": "u32"})), {}, {"partition": [0, 1, 1, 0]}, [4, 6, 6, 4]),
    ],
)
def test_composed_decode_looks_no_inner_decoder_up(monkeypatch, kind, inner, options, params, values):
    # each inner decoder is resolved once per composed codec, so a checked
    # decode keys only its own params, however many parts and segments it has
    entry = compose(CompositionRecipe(kind, f"compose.test.lookups.{kind}.{next(_composed_ids)}", inner, options))
    inst = encode(entry.scheme_id, params, col(U32, values))
    keys = []
    params_key = codec_mod.params_key
    monkeypatch.setattr(codec_mod, "params_key", lambda params: keys.append(params) or params_key(params))
    assert codec_mod.decode(inst)["col"].values == tuple(values)
    assert len(keys) == 1


# -- encode: exact integer fits and once-per-decoder bookkeeping ----------------------------------


def test_an_integer_fit_constructs_no_fraction(monkeypatch):
    made = []
    new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", lambda cls, *a, **k: made.append(a) or new(cls, *a, **k))
    assert Fraction(1, 2) and made  # the counter counts
    made.clear()
    assert cs_mod._fit_poly_int([7, 10, 17], [0, 1, 2]) == [7, 1, 2]
    assert cs_mod._fit_poly_int([0, 1, 3], [0, 1, 2]) is None
    inst = encode("spline.generalized", {"type": "u32", "degree": 2, "segments": [3, 2]}, col(U32, [7, 10, 17, 4, 4]))
    assert inst.columns["coefficients"].values == (7, 1, 2, 4, 0, 0)
    assert made == []


def test_a_repeat_encode_keys_its_params_once_and_derives_no_spec(monkeypatch):
    params = {"type": "u32", "narrow_type": "u8"}
    family = col(U32, [1, 2, 3])
    want = encode("nullsup", params, family)  # finds or builds the decoder, and its decoded spec
    keys, derived = [], []
    params_key = codec_mod.params_key
    without_out_prefix = codec_mod._without_out_prefix
    monkeypatch.setattr(codec_mod, "params_key", lambda p: keys.append(p) or params_key(p))
    monkeypatch.setattr(codec_mod, "_without_out_prefix", lambda o: derived.append(o) or without_out_prefix(o))
    for _ in range(3):
        keys.clear()
        assert encode("nullsup", dict(params), {"col": family}) == want
        assert len(keys) == 1
    assert derived == []
    with pytest.raises(NotEncodable, match="decodes 'col' as u32, but the family gives u8"):
        encode("nullsup", params, col(U8, [1, 2, 3]))


def test_normalized_params_key_once_for_the_form_and_the_decoder(monkeypatch):
    entry = codec_mod.codec("nullsup")
    params = entry.normalize_params({"type": "u32", "narrow_type": "u8"})
    keys = []
    params_key = codec_mod.params_key
    monkeypatch.setattr(codec_mod, "params_key", lambda p: keys.append(p) or params_key(p))
    assert entry.form_spec(params) is entry.decoder(params).signature.inputs
    assert len(keys) == 1
    # an instance keeps plain params, so it keeps no decoder alive
    assert type(encode("nullsup", params, col(U32, [1, 2, 3])).params) is dict


# -- the count guard: checked Column constructions per evaluation ------------------------------


def tiny_q6():
    """Q6 with each lineitem column's decoder spliced in, over 9 rows, and its inputs."""
    rng = random.Random(12)
    ranges = {"shipdate": (8700, 9200), "discount": (0, 11), "quantity": (1, 50), "extended_price": (1000, 90000)}
    table = {name: [rng.randrange(*bounds) for _ in range(9)] for name, bounds in ranges.items()}
    return splice_q6({}, lineitem(4)), encoded(table, lineitem(4))


def rle_decoder():
    params = {"type": "u32"}
    inst = encode("run.rle", params, col(U32, [3, 3, 3, 7, 7, 1]))
    return codec("run.rle").decoder(inst.params), inst.columns


@pytest.mark.parametrize("make", [rle_decoder, tiny_q6], ids=["run.rle", "q6"])
def test_checked_constructions_per_evaluation(make, monkeypatch):
    c, inputs = make()
    want = evaluate_circuit(c, inputs)
    scalars = sum(op.op_name == "scalar" for op in c.vertices.values())
    built = count_checked_columns(monkeypatch)
    for _ in range(50):
        assert evaluate_circuit(c, inputs) == want
    # each scalar's column was built by the first evaluation above; every
    # other output is proved in its domain, and the Q6 casts only widen
    assert built == []
    fresh, fresh_inputs = make()
    for vertex in fresh.vertices.values():
        object.__setattr__(vertex, "_constant", None)
    built.clear()
    for _ in range(50):
        evaluate_circuit(fresh, fresh_inputs)
    assert len(built) <= scalars
