"""The one-pass domain and overflow checks agree with the per-value ones.

``Column`` construction checks a whole column at once and falls back to
``ElementType.check_value`` only to name the first bad value; the checked
operators do the same with their results.  These tests hold the bulk paths
to the per-value definitions: the same accepted columns, the same first
offending index and value, the same error codes.
"""

import math

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from colcirc import Column, make_column, read_col_bytes, write_col_bytes
from colcirc.column import _range_of
from colcirc.errors import ColcircError, OperatorError, TypeDomainError
from colcirc.types import BIT, F32, F64, I8, I16, I32, I64, U8, U16, U32, U64, UNIT, ElementType, Kind
from paths import call, count_checked_columns, same


class IntSub(int):
    pass


class FloatSub(float):
    pass


NAN = float("nan")
INF = float("inf")

simple_types = st.one_of(
    st.builds(ElementType.unsigned, st.integers(1, 64)),
    st.builds(ElementType.signed, st.integers(1, 64)),
    st.sampled_from([BIT, F32, F64, UNIT]),
)
element_types = st.one_of(
    simple_types,
    st.lists(simple_types, min_size=1, max_size=3).map(lambda cs: ElementType.product(*cs)),
)

# values outside (or at the edge of) some domain, whatever the column's type
odd_values = st.sampled_from(
    [
        True,
        False,
        IntSub(1),
        IntSub(300),
        -1,
        2**63,
        2**64 - 1,
        2**64,
        -(2**63),
        -(2**63) - 1,
        0.0,
        1.0,
        0.1,
        1e300,
        -1e300,
        NAN,
        INF,
        -INF,
        FloatSub(0.5),
        (),
        (1,),
        [],
        None,
        "1",
    ]
)


def in_domain(et):
    """A strategy of values that belong to ``et``."""
    k = et.kind
    if k in (Kind.UNSIGNED, Kind.SIGNED, Kind.BIT):
        lo, hi = et.bounds()
        return st.one_of(st.integers(lo, hi), st.sampled_from([lo, hi]))
    if k is Kind.FLOAT:
        if et.width_bits == 32:
            return st.floats(width=32)
        return st.floats()
    if k is Kind.UNIT:
        return st.just(())
    return st.tuples(*(in_domain(c) for c in et.components))


@st.composite
def typed_columns(draw):
    """A column type and values that are mostly, but not always, in its domain."""
    et = draw(element_types)
    vals = draw(st.lists(in_domain(et), max_size=12))
    for _ in range(draw(st.integers(0, 2))):
        vals.insert(draw(st.integers(0, len(vals))), draw(odd_values))
    return et, vals


def first_bad(et, vals):
    return next((i for i, v in enumerate(vals) if not et.contains(v)), None)


@settings(max_examples=400, deadline=None)
@given(typed_columns())
def test_bulk_check_matches_per_value_check(case):
    et, vals = case
    bad = first_bad(et, vals)
    if et._all_contained(tuple(vals)):
        assert bad is None
    if bad is None:
        col = Column(et, vals)
        if et.kind is Kind.BIT:
            assert col.values == tuple(int(v) for v in vals)
            assert all(type(v) is int for v in col.values)
        else:
            assert len(col.values) == len(vals)
            assert all(a is b for a, b in zip(col.values, vals))
    else:
        with pytest.raises(TypeDomainError) as exc:
            Column(et, vals)
        assert exc.value.index == bad
        assert exc.value.value is vals[bad]


@pytest.mark.parametrize(
    "et, vals",
    [
        (U64, [0, 2**63, 2**64 - 1]),
        (I64, [-(2**63), 0, 2**63 - 1]),
        (ElementType.unsigned(12), [0, 4095]),
        (ElementType.signed(1), [-1, 0]),
        (BIT, [0, 1, 1]),
        (F64, [0.1, NAN, INF, -INF]),
        (F32, [0.5, 1.5, INF, -INF]),
        (UNIT, [(), ()]),
        (ElementType.product(U8, BIT), [(255, 1), (0, 0)]),
    ],
)
def test_plain_columns_take_the_one_pass_path(et, vals):
    assert et._all_contained(tuple(vals))
    assert Column(et, vals).values == tuple(vals)


@pytest.mark.parametrize(
    "et, vals, index",
    [
        (U64, [2**64 - 1, 2**64], 1),
        (I64, [2**63 - 1, 2**63], 1),
        (I64, [0, -(2**63) - 1], 1),
        (U8, [1, True], 1),
        (U8, [0, 1.0], 1),
        (I16, [5, 0.5, 7], 1),
        (F64, [0.5, 1], 1),
        (F32, [0.5, 0.1], 1),
        (F32, [1e300], 0),
        (F32, [0.0, -1e300], 1),
        (UNIT, [(), (1,)], 1),
        (ElementType.product(U8, BIT), [(1, 1), (1, 2)], 1),
        (ElementType.product(U8, BIT), [(1, 1), (1,)], 1),
    ],
)
def test_first_bad_value_is_reported(et, vals, index):
    with pytest.raises(TypeDomainError) as exc:
        Column(et, vals)
    assert exc.value.index == index and exc.value.value is vals[index]


def test_bools_are_normalized_in_bit_columns_only():
    col = Column(BIT, [True, 0, False, IntSub(1)])
    assert col.values == (1, 0, 0, 1) and all(type(v) is int for v in col.values)
    assert type(Column(ElementType.product(BIT), [(True,)]).values[0][0]) is bool
    with pytest.raises(TypeDomainError):
        Column(U8, [0, False])


def test_int_and_float_subclasses_are_accepted_as_is():
    v = IntSub(7)
    assert Column(U8, [v]).values[0] is v
    f = FloatSub(0.5)
    assert Column(F32, [f]).values[0] is f


def test_f32_keeps_nan_and_infinities():
    col = Column(F32, [NAN, INF, -INF])
    assert math.isnan(col.values[0]) and col.values[1:] == (INF, -INF)


# -- f32 range -------------------------------------------------------------------


def test_finite_double_beyond_f32_range_is_a_domain_error():
    assert not F32.contains(1e300)
    assert not F32.contains(-1e39)
    with pytest.raises(TypeDomainError) as exc:
        Column(F32, [0.5, 1e300])
    assert exc.value.index == 1


def test_cast_beyond_f32_range_overflows():
    f64 = Column(F64, [0.5, 1e300, 1e301])
    with pytest.raises(OperatorError) as exc:
        call("elementwise", {"fn": "cast", "from": "f64", "to": "f32"}, arguments=f64)
    assert exc.value.code == "overflow" and "1e+300" in str(exc.value)


@pytest.mark.parametrize("src", [U64, I64, I16])
def test_integer_cast_to_f32_is_exact_or_overflows(src):
    params = {"fn": "cast", "from": str(src), "to": "f32"}
    cast = lambda vals: call("elementwise", params, arguments=Column(src, vals))["result"]
    assert cast([0, 1, 2**15 - 1]).values == (0.0, 1.0, 32767.0)
    if src.width_bits > 16:
        assert cast([2**24, 2**31]).values == (16777216.0, 2147483648.0)
        msg = overflow(lambda: cast([2**24, 2**24 + 1]))
        assert msg == "overflow: 16777217 not exactly representable as f32"


def test_cast_to_f32_keeps_nan_and_infinities():
    params = {"fn": "cast", "from": "f64", "to": "f32"}
    out = call("elementwise", params, arguments=Column(F64, [NAN, INF, -INF, 0.5]))["result"]
    assert math.isnan(out.values[0]) and out.values[1:] == (INF, -INF, 0.5)


# -- exact-boundary overflow in the checked operators -------------------------------


def overflow(fn):
    with pytest.raises(OperatorError) as exc:
        fn()
    assert exc.value.code == "overflow"
    return str(exc.value)


def test_add_overflow_boundary():
    add = lambda a, b: call("elementwise", {"fn": "add", "type": "u8"}, lhs=make_column(U8, a), rhs=make_column(U8, b))
    assert add([254, 0], [1, 255])["result"].values == (255, 255)
    msg = overflow(lambda: add([255, 254, 255], [0, 2, 9]))
    assert "result 256 outside u8" in msg


def test_sub_overflow_boundary():
    sub = lambda a, b: call("elementwise", {"fn": "sub", "type": "u8"}, lhs=make_column(U8, a), rhs=make_column(U8, b))
    assert sub([1], [1])["result"].values == (0,)
    msg = overflow(lambda: sub([5, 1, 0], [5, 2, 9]))
    assert "result -1 outside u8" in msg


def test_mul_overflow_boundary():
    mul = lambda a, b: call("elementwise", {"fn": "mul", "type": "i8"}, lhs=make_column(I8, a), rhs=make_column(I8, b))
    assert mul([-64], [2])["result"].values == (-128,)
    msg = overflow(lambda: mul([-64, 64, -100], [2, 2, 2]))
    assert "result 128 outside i8" in msg


def test_scale_overflow_boundary():
    scale = lambda vals: call("elementwise", {"fn": "scale", "type": "u8", "k": 2}, arguments=make_column(U8, vals))
    assert scale([127])["result"].values == (254,)
    msg = overflow(lambda: scale([127, 128, 200]))
    assert "result 256 outside u8" in msg


def test_scale_of_floats_is_unchecked_like_float_mul():
    out = call("elementwise", {"fn": "scale", "type": "f64", "k": 2}, arguments=Column(F64, [1.5, -0.5]))
    assert out["result"].values == (3.0, -1.0)


def test_derivative_overflow_boundary():
    diff = lambda vals: call("derivative", {"type": "u8", "out_type": "i8"}, col=make_column(U8, vals))
    assert diff([0, 127, 0])["differences"].values == (127, -127)
    msg = overflow(lambda: diff([0, 127, 255, 0]))
    assert "result 128 outside i8" in msg


def test_integer_cast_overflow_boundary():
    params = {"fn": "cast", "from": "i16", "to": "u8"}
    cast = lambda vals: call("elementwise", params, arguments=make_column(I16, vals))["result"]
    assert cast([0, 255]).values == (0, 255)
    msg = overflow(lambda: cast([255, -1, 256]))
    assert "cast of -1 outside u8" in msg


def test_float_cast_without_integer_value_overflows():
    params = {"fn": "cast", "from": "f64", "to": "i64"}
    cast = lambda vals: call("elementwise", params, arguments=Column(F64, vals))["result"]
    assert cast([2.5, -2.5]).values == (2, -2)
    assert "cast of nan" in overflow(lambda: cast([1.0, NAN]))
    assert "cast of inf" in overflow(lambda: cast([INF]))
    assert "cast of 1e+300 outside i64 range" in overflow(lambda: cast([1e300]))


def test_prefix_add_overflow_boundary_inclusive():
    sums = lambda vals: call("prefix_aggregate", {"op": "add", "type": "u8"}, data=make_column(U8, vals))
    assert sums([100, 155])["aggregates"].values == (100, 255)
    msg = overflow(lambda: sums([100, 155, 1, 200]))
    assert "prefix aggregate 256 outside u8" in msg


def test_prefix_add_overflow_boundary_exclusive_checks_the_total():
    params = {"op": "add", "mode": "exclusive", "type": "u8"}
    sums = lambda vals: call("prefix_aggregate", params, data=make_column(U8, vals))
    assert sums([100, 155])["aggregates"].values == (0, 100)
    # every output is in range; only the dropped total overflows
    msg = overflow(lambda: sums([100, 155, 1]))
    assert "prefix aggregate 256 outside u8" in msg


# -- .col payloads ------------------------------------------------------------------


@pytest.mark.parametrize(
    "et, vals",
    [
        (U8, [0, 255]),
        (ElementType.unsigned(12), [0, 4095, 7]),
        (ElementType.signed(12), [-2048, 2047, -1]),
        (ElementType.unsigned(24), [0, 2**24 - 1]),
        (ElementType.signed(24), [-(2**23), 2**23 - 1]),
        (I16, [-(2**15), 2**15 - 1]),
        (U64, [0, 2**63, 2**64 - 1]),
        (I64, [-(2**63), 2**63 - 1]),
        (F32, [0.5, -INF, 3.0]),
        (F64, [0.1, -0.0, INF]),
    ],
)
def test_col_payload_roundtrip(et, vals):
    data = write_col_bytes(Column(et, vals))
    assert len(data) == 15 + et.byte_width * len(vals)
    signed = et.kind is Kind.SIGNED
    if et.kind is not Kind.FLOAT:  # the payload is little-endian two's complement
        assert data[15 : 15 + et.byte_width] == vals[0].to_bytes(et.byte_width, "little", signed=signed)
    assert read_col_bytes(data) == Column(et, vals)


NATIVE_PAYLOADS = [
    (U8, [0, 255, 7]),
    (U16, [0, 2**16 - 1, 7]),
    (U32, [0, 2**32 - 1, 7]),
    (U64, [0, 2**63, 2**64 - 1]),
    (I8, [-128, 127, -1]),
    (I16, [-(2**15), 2**15 - 1, -1]),
    (I32, [-(2**31), 2**31 - 1, -1]),
    (I64, [-(2**63), 2**63 - 1, -1]),
    (BIT, [1, 0, 1, 1, 0, 0, 0, 0, 1]),
    (F32, [0.5, -0.0, 0.0, INF, -INF, NAN]),
    (F64, [0.1, -0.0, 0.0, INF, -INF, NAN]),
]


@pytest.mark.parametrize("et, vals", NATIVE_PAYLOADS, ids=[str(et) for et, _ in NATIVE_PAYLOADS])
def test_native_width_payload_is_read_unchecked(et, vals, monkeypatch):
    col = Column(et, vals)
    data = write_col_bytes(col)
    built = count_checked_columns(monkeypatch)
    back = read_col_bytes(data)
    assert built == []  # the payload's format is the domain check
    assert back.element_type is et
    if any(map(math.isnan, vals)):
        assert same(back.values, col.values)
    else:
        assert back == col
    assert write_col_bytes(back) == data  # -0.0 and the NaN's bits included


def test_unchecked_read_records_no_range_and_kernels_still_check():
    a = read_col_bytes(write_col_bytes(Column(U8, [200] * 40)))
    b = read_col_bytes(write_col_bytes(Column(U8, [100] * 40)))
    assert _range_of(a) is None and _range_of(b) is None
    add = {"fn": "add", "type": "u8"}
    assert "outside u8" in overflow(lambda: call("elementwise", add, lhs=a, rhs=b))
    c = read_col_bytes(write_col_bytes(Column(U8, [55] * 40)))
    assert call("elementwise", add, lhs=a, rhs=c)["result"].values == (255,) * 40


def test_odd_width_payload_keeps_its_bound_check(monkeypatch):
    # (type, values, first byte of value 1, its replacement bytes, the value they read as)
    cases = [
        (ElementType.unsigned(12), [1, 2], 17, (0xFFFF).to_bytes(2, "little"), 0xFFFF),
        (ElementType.signed(12), [1, -2], 17, (0x7FFF).to_bytes(2, "little"), 0x7FFF),
        (ElementType.signed(12), [1, -2], 17, (0x8000).to_bytes(2, "little"), -0x8000),
        (ElementType.unsigned(20), [1, 2], 18, (0xFFFFFF).to_bytes(3, "little"), 0xFFFFFF),
        (ElementType.signed(20), [1, -2], 18, (0x800000).to_bytes(3, "little"), -0x800000),
    ]
    for et, vals, at, patch, value in cases:
        data = bytearray(write_col_bytes(Column(et, vals)))
        data[at : at + len(patch)] = patch
        with pytest.raises(TypeDomainError) as exc:
            read_col_bytes(bytes(data))
        assert exc.value.index == 1 and exc.value.value == value
    # u24 and i24 fill their three bytes, so no payload leaves the domain; they
    # still take the checked constructor, as every width without an array does
    odd = [(ElementType.unsigned(24), [0, 2**24 - 1]), (ElementType.signed(24), [-(2**23), 2**23 - 1])]
    datas = [write_col_bytes(Column(et, vals)) for et, vals in odd]
    built = count_checked_columns(monkeypatch)
    assert [read_col_bytes(data).values for data in datas] == [tuple(vals) for _, vals in odd]
    assert built == [et for et, _ in odd]


@pytest.mark.parametrize(
    "data",
    [
        b"CCOL1",
        b"CCOL1\x00",
        b"CCOL1\x00\x20",
        b"CCOL1\x00\x20" + b"\x00" * 7,
    ],
)
def test_truncated_col_header_is_rejected(data):
    with pytest.raises(ColcircError, match="truncated"):
        read_col_bytes(data)


@pytest.mark.parametrize("tag, width", [(2, 16), (0, 0), (0, 65), (1, 0), (3, 2), (4, 1)])
def test_invalid_col_element_type_is_rejected(tag, width):
    data = b"CCOL1" + bytes([tag, width]) + (0).to_bytes(8, "little")
    with pytest.raises(ColcircError, match="element type"):
        read_col_bytes(data)
