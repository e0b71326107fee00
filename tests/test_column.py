import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from colcirc import (
    Column,
    SegmentedViewSpec,
    frequency_distribution,
    make_column,
    read_col_bytes,
    representation_size_bytes,
    scalar_column,
    segmented_get,
    write_col_bytes,
)
from colcirc.column import MAX_UNIT_LENGTH
from colcirc.errors import ColcircError, OperatorError, TypeDomainError
from colcirc.types import BIT, F32, F64, I8, U8, U16, U32, UNIT, ElementType, parse_type


class TestElementTypes:
    def test_widths(self):
        assert U8.width_bits == 8 and BIT.width_bits == 1
        assert parse_type("unit").width_bits == 0
        assert ElementType.product(U8, U16).width_bits == 24

    def test_bad_widths(self):
        with pytest.raises(ValueError):
            ElementType.unsigned(65)
        with pytest.raises(ValueError):
            ElementType.float_(16)

    def test_product_cap(self):
        with pytest.raises(ValueError):
            ElementType.product(*([parse_type("u64")] * 9))

    def test_bottom_has_no_values(self):
        assert not parse_type("bottom").contains(0)

    def test_parse_roundtrip(self):
        for name in ["u8", "i16", "f32", "bit", "unit", "prod(u8,prod(u16,bit))"]:
            assert str(parse_type(name)) == name

    def test_f32_domain_is_exact(self):
        assert F32.contains(0.5)
        assert not F32.contains(0.1)  # not representable in 4 bytes
        assert F64.contains(0.1)


class TestMakeColumn:
    def test_direct(self):
        col = make_column(U8, [1, 2, 3])
        assert len(col) == 3 and col[1] == 2

    def test_empty(self):
        assert len(make_column(BIT, [])) == 0

    def test_out_of_domain_reports_index(self):
        with pytest.raises(TypeDomainError) as exc:
            make_column(U8, [300])
        assert exc.value.index == 0 and exc.value.value == 300

    def test_immutable(self):
        col = make_column(U8, [1])
        with pytest.raises(AttributeError):
            col.values = (2,)

    def test_scalar_accessor(self):
        assert scalar_column(U8, 7).scalar() == 7
        with pytest.raises(OperatorError):
            make_column(U8, [1, 2]).scalar()


class TestFrequency:
    def test_by_counting(self):
        ft = frequency_distribution(make_column(U8, [1, 1, 2]))
        assert ft.entries == {1: 2, 2: 1} and ft.total == 3

    def test_empty(self):
        ft = frequency_distribution(make_column(U8, []))
        assert ft.entries == {} and ft.total == 0

    def test_constant(self):
        ft = frequency_distribution(make_column(U8, [7] * 4))
        assert ft.entries == {7: 4}

    @given(st.lists(st.integers(0, 255), max_size=40))
    def test_counts_sum_to_length(self, values):
        ft = frequency_distribution(make_column(U8, values))
        assert sum(ft.entries.values()) == len(values)
        assert all(U8.contains(v) for v in ft.support)


class TestSegmentedView:
    def test_examples(self):
        col = make_column(U8, range(10))
        spec = SegmentedViewSpec(3, 10)
        assert segmented_get(col, spec, 1, 2) == 7
        with pytest.raises(OperatorError):
            segmented_get(col, spec, 2, 3)  # slack segment has one element
        one = SegmentedViewSpec(1, 10)
        assert segmented_get(col, one, 0, 4) == 4

    @given(st.lists(st.integers(0, 255), max_size=30), st.integers(1, 7))
    def test_flattening_reproduces_column(self, values, ell):
        col = make_column(U8, values)
        spec = SegmentedViewSpec(ell, len(values))
        flat = []
        for j in range(spec.segment_count):
            for i in range(ell):
                if j * ell + i >= len(values):
                    break
                flat.append(segmented_get(col, spec, i, j))
        assert flat == list(values)


class TestSizes:
    def test_u32(self):
        assert representation_size_bytes({"a": make_column(U32, range(10))}) == 40

    def test_bit_packing(self):
        assert representation_size_bytes({"b": make_column(BIT, [1] * 12)}) == 2

    def test_mixed(self):
        fam = {"x": make_column(U16, range(4)), "y": make_column(U8, range(3))}
        assert representation_size_bytes(fam) == 11


class TestColFiles:
    def test_header(self):
        raw = write_col_bytes(make_column(U8, [1, 2]))
        assert raw[:5] == b"CCOL1" and raw[5] == 0 and raw[6] == 8
        assert int.from_bytes(raw[7:15], "little") == 2
        assert raw[15:] == b"\x01\x02"

    def test_bit_lsb_first(self):
        raw = write_col_bytes(make_column(BIT, [1, 0, 1, 1, 0, 0, 0, 0, 1]))
        assert raw[15:] == bytes([0b00001101, 0b00000001])

    def test_bit_payload_matches_the_value_by_value_loop(self):
        # every pattern of up to 10 bits, random ones up to 17, and 1000 random columns
        rng = random.Random(18)
        cols = [[(k >> i) & 1 for i in range(n)] for n in range(11) for k in range(1 << n)]
        cols += [[rng.randrange(2) for _ in range(n)] for n in range(11, 18) for _ in range(40)]
        cols += [[rng.randrange(2) for _ in range(rng.randrange(0, 300))] for _ in range(1000)]
        for values in cols:
            col = make_column(BIT, values)
            raw = write_col_bytes(col)
            assert raw[15:] == _pack_bits_reference(values)
            assert read_col_bytes(raw) == col
            if len(values) % 8:  # padding bits are ignored
                padded = raw[:-1] + bytes([raw[-1] | (0xFF << len(values) % 8) & 0xFF])
                assert read_col_bytes(padded).values == _unpack_bits_reference(padded[15:], len(values))

    @pytest.mark.parametrize("n, payload", [(9, b"\x01"), (8, b"\x01\x02"), (0, b"\x00")])
    def test_bit_payload_of_the_wrong_size(self, n, payload):
        header = write_col_bytes(make_column(BIT, []))[:7] + n.to_bytes(8, "little")
        with pytest.raises(ColcircError, match=f"bit payload of {len(payload)} bytes, expected {(n + 7) // 8}"):
            read_col_bytes(header + payload)

    def test_signed_le(self):
        raw = write_col_bytes(make_column(I8, [-3]))
        assert raw[15:] == b"\xfd"

    @pytest.mark.parametrize("n", [2**64 - 1, MAX_UNIT_LENGTH + 1])
    def test_unit_length_is_capped_before_allocating(self, n):
        header = write_col_bytes(Column(UNIT, []))[:7]
        with pytest.raises(ColcircError, match="unit column length"):
            read_col_bytes(header + n.to_bytes(8, "little"))

    def test_unit_writer_refuses_what_the_reader_would(self, monkeypatch):
        monkeypatch.setattr("colcirc.column.MAX_UNIT_LENGTH", 3)
        assert read_col_bytes(write_col_bytes(Column(UNIT, [()] * 3))) == Column(UNIT, [()] * 3)
        with pytest.raises(ColcircError, match="unit column length"):
            write_col_bytes(Column(UNIT, [()] * 4))

    def test_product_not_serializable(self):
        col = Column(ElementType.product(U8, U8), [(1, 2)])
        with pytest.raises(ColcircError):
            write_col_bytes(col)

    @settings(max_examples=60)
    @given(
        st.sampled_from(["u8", "u16", "u32", "u64", "i8", "i32", "bit", "unit", "f64"]),
        st.data(),
    )
    def test_roundtrip(self, tname, data):
        et = parse_type(tname)
        if et.is_integer and str(et) != "bit":
            lo, hi = et.bounds()
            values = data.draw(st.lists(st.integers(lo, hi), max_size=20))
        elif str(et) == "bit":
            values = data.draw(st.lists(st.integers(0, 1), max_size=20))
        elif et.kind.value == "unit":
            values = [()] * data.draw(st.integers(0, 10))
        else:
            values = data.draw(st.lists(st.floats(allow_nan=False, width=64), max_size=20))
        col = Column(et, values)
        assert read_col_bytes(write_col_bytes(col)) == col

    def test_equality_pointwise(self):
        assert make_column(U8, [1, 2]) == make_column(U8, [1, 2])
        assert make_column(U8, [1, 2]) != make_column(U16, [1, 2])
        assert make_column(U8, [1, 2]) != make_column(U8, [1, 2, 3])


def _pack_bits_reference(values):
    """The value-by-value bit packing: value i sets bit i & 7 of byte i >> 3."""
    out = bytearray((len(values) + 7) // 8)
    for i, v in enumerate(values):
        if v:
            out[i >> 3] |= 1 << (i & 7)
    return bytes(out)


def _unpack_bits_reference(payload, n):
    return tuple((payload[i >> 3] >> (i & 7)) & 1 for i in range(n))
