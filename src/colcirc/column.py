"""Immutable columns, column statistics, segmented views, and `.col` files.

A column is an evaluated function ``0..n-1 -> domain(element_type)``; it is
the only kind of value carried on circuit wires.  Length-1 columns double as
scalars throughout the package.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from dataclasses import dataclass

from .errors import ColcircError, OperatorError
from .types import ElementType, Kind, _interned


# Below this many values a scan costs less than keeping a range, so no
# shorter column records one (see ``Column._range``).
_RANGED = 32


class Column:
    """An immutable, fixed-element-type sequence of values.

    Columns compare equal iff they have the same element type, length and
    pointwise values.

    ``_range`` is a private proven ``(lo, hi)`` around an integer column's
    values, kept for columns of at least ``_RANGED`` values: the checked
    constructor keeps the ``min``/``max`` its domain check found, and
    catalog operators derive or record one where it is free (see
    ``ops._interval``).  The slot stays unset while no range is known, so
    building a column costs no extra store; read it with :func:`_range_of`.
    It is a cache, not part of the value: ``==``, ``hash`` and every
    serialization ignore it.
    """

    __slots__ = ("element_type", "values", "_hash", "_range")

    def __init__(self, element_type: ElementType, values):
        vals = tuple(values)
        found = element_type._contained(vals)
        if found is False:
            vals = element_type._walk(vals)
        elif found is not None and len(vals) >= _RANGED:
            _set_range(self, found)
        _set_type(self, element_type)
        _set_values(self, vals)
        _set_hash(self, None)

    @classmethod
    def _trusted(cls, element_type: ElementType, values) -> "Column":
        """A column whose values the caller has already proved in the domain.

        Skips :meth:`ElementType.check_values`.  Only three kinds of caller
        may use it: a catalog kernel whose own logic establishes the output
        domain, given inputs of their declared types (through ``ops._out``;
        ``OperatorInstance.apply`` rebuilds the outputs checked when an
        input has another type), a host loop that slices or concatenates
        columns already of ``element_type``, and :func:`read_col_bytes` for
        a payload whose byte format bounds every value to the type (bit
        payloads, and native-width integer and float arrays).
        """
        col = _new(cls)
        _set_type(col, element_type)
        _set_values(col, tuple(values))
        _set_hash(col, None)
        return col

    def __setattr__(self, name, value):
        raise AttributeError("columns are immutable")

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]

    def __iter__(self):
        return iter(self.values)

    def __eq__(self, other):
        if not isinstance(other, Column):
            return NotImplemented
        return (
            self.element_type == other.element_type
            and self.values == other.values
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.element_type, self.values))
            _set_hash(self, h)
        return h

    def __repr__(self):
        shown = ", ".join(repr(v) for v in self.values[:8])
        if len(self.values) > 8:
            shown += ", ..."
        return f"Column({self.element_type}, [{shown}])"

    def scalar(self):
        """The single value of a length-1 column."""
        if len(self.values) != 1:
            raise OperatorError("non-scalar", f"expected a scalar, got length {len(self.values)}")
        return self.values[0]

    def size_bytes(self) -> int:
        """Byte-aligned storage footprint (bit columns are packed)."""
        if self.element_type.kind is Kind.BIT:
            return (len(self.values) + 7) // 8
        return self.element_type.byte_width * len(self.values)

    def size_bits(self) -> int:
        return self.element_type.width_bits * len(self.values)


# the slot descriptors' setters: they bypass the immutability guard in
# ``__setattr__`` at half the cost of ``object.__setattr__``
_new = object.__new__
_set_type = Column.element_type.__set__
_set_values = Column.values.__set__
_set_hash = Column._hash.__set__
_set_range = Column._range.__set__


def _range_of(col: Column):
    """The proven ``(lo, hi)`` recorded for ``col``, or None."""
    return getattr(col, "_range", None)


def make_column(element_type: ElementType, values) -> Column:
    return Column(element_type, values)


def scalar_column(element_type: ElementType, value) -> Column:
    return Column(element_type, (value,))


@dataclass(frozen=True)
class FrequencyTable:
    """Occurrence counts of the values appearing in a column."""

    entries: dict
    total: int

    @property
    def support(self):
        return set(self.entries)

    def top(self, k: int):
        """The ``k`` most frequent (value, count) pairs, count-descending."""
        return sorted(self.entries.items(), key=lambda kv: (-kv[1], repr(kv[0])))[:k]


def frequency_distribution(col: Column) -> FrequencyTable:
    return FrequencyTable(dict(Counter(col.values)), len(col))


@dataclass(frozen=True)
class SegmentedViewSpec:
    """Interpretation of a length-n column as ceil(n/l) consecutive segments."""

    segment_length: int
    column_length: int

    def __post_init__(self):
        if self.segment_length <= 0:
            raise ValueError("segment length must be positive")
        if self.column_length < 0:
            raise ValueError("column length must be non-negative")

    @property
    def segment_count(self) -> int:
        return -(-self.column_length // self.segment_length)


def segmented_get(col: Column, spec: SegmentedViewSpec, i: int, j: int):
    """Element ``i`` of segment ``j``, i.e. ``col[j*l + i]``."""
    ell = spec.segment_length
    if not 0 <= i < ell or j < 0:
        raise OperatorError("out-of-range", f"segment coordinates ({i}, {j}) invalid for l={ell}")
    flat = j * ell + i
    if flat >= len(col):
        raise OperatorError("out-of-range", f"index {flat} beyond column length {len(col)}")
    return col[flat]


def representation_size_bytes(cols) -> int:
    """Total byte footprint of a labeled column family (dict or iterable)."""
    if isinstance(cols, dict):
        cols = cols.values()
    return sum(c.size_bytes() for c in cols)


def representation_size_bits(cols) -> int:
    if isinstance(cols, dict):
        cols = cols.values()
    return sum(c.size_bits() for c in cols)


# -- binary .col files -------------------------------------------------------

_MAGIC = b"CCOL1"
_KIND_TAGS = {
    Kind.UNSIGNED: 0,
    Kind.SIGNED: 1,
    Kind.FLOAT: 2,
    Kind.BIT: 3,
    Kind.UNIT: 4,
    Kind.BOTTOM: 5,
}
_TAG_KINDS = {v: k for k, v in _KIND_TAGS.items()}
_HEADER_BYTES = 15  # magic, kind tag, width, u64 length
# a unit column has no payload to bound its header's length, so the length
# itself is capped: a reader checks it before allocating, and a writer
# refuses what a reader would
MAX_UNIT_LENGTH = 1 << 24

# array typecodes by (kind, bytes per element); odd sizes such as u24's have none
_TYPECODES = {
    (kind, array(code).itemsize): code
    for kind, codes in ((Kind.UNSIGNED, "QLIHB"), (Kind.SIGNED, "qlihb"), (Kind.FLOAT, "df"))
    for code in codes
}


# bit values 0/1 as the digits b"0"/b"1" of a binary literal, and back
_BIT_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_DIGIT_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _native_array(et: ElementType, values=()):
    """A native-order array of ``et`` values, or None for odd byte widths."""
    code = _TYPECODES.get((et.kind, et.byte_width))
    return None if code is None else array(code, values)


def _pack_values(col: Column) -> bytes:
    et = col.element_type
    k = et.kind
    if k is Kind.BIT:
        # value i is bit i of one little-endian integer: LSB-first within each byte
        n = len(col)
        bits = int(bytes(col.values[::-1]).translate(_BIT_DIGITS), 2) if n else 0
        return bits.to_bytes((n + 7) // 8, "little")
    if k is Kind.UNIT:
        return b""
    packed = _native_array(et, col.values)
    if packed is not None:
        if sys.byteorder == "big":
            packed.byteswap()  # .col payloads are little-endian
        return packed.tobytes()
    width = et.byte_width
    if k is Kind.SIGNED:
        return b"".join(v.to_bytes(width, "little", signed=True) for v in col.values)
    return b"".join(v.to_bytes(width, "little") for v in col.values)


def write_col_bytes(col: Column) -> bytes:
    et = col.element_type
    if et.kind is Kind.PRODUCT:
        raise ColcircError("product-typed columns are not file-serializable")
    if et.kind is Kind.UNIT and len(col) > MAX_UNIT_LENGTH:
        raise ColcircError(f"unit column length {len(col)} exceeds the cap of {MAX_UNIT_LENGTH}")
    header = _MAGIC + bytes([_KIND_TAGS[et.kind], et.width_bits]) + len(col).to_bytes(8, "little")
    return header + _pack_values(col)


def read_col_bytes(data: bytes) -> Column:
    if data[:5] != _MAGIC:
        raise ColcircError("not a .col file (bad magic)")
    if len(data) < _HEADER_BYTES:
        raise ColcircError(f"truncated .col header: {len(data)} of {_HEADER_BYTES} bytes")
    kind = _TAG_KINDS.get(data[5])
    if kind is None:
        raise ColcircError(f"unknown element-type tag {data[5]}")
    width = data[6]
    try:
        et = _interned(kind, width)
    except ValueError as exc:
        raise ColcircError(f"bad .col element type: {exc}") from None
    n = int.from_bytes(data[7:15], "little")
    payload = data[15:]
    if kind is Kind.BIT:
        need = (n + 7) // 8
        if len(payload) != need:
            raise ColcircError(f"bit payload of {len(payload)} bytes, expected {need}")
        bits = int.from_bytes(payload, "little") & ((1 << n) - 1)  # padding bits are ignored
        vals = format(bits, "b").zfill(n)[::-1].encode().translate(_DIGIT_BITS) if n else b""
        return Column._trusted(et, vals)  # each value is one bit: 0 or 1
    if kind is Kind.UNIT:
        if payload:
            raise ColcircError("unit column carries no payload")
        if n > MAX_UNIT_LENGTH:
            raise ColcircError(f"unit column length {n} exceeds the cap of {MAX_UNIT_LENGTH}")
        return Column(et, [()] * n)
    if kind is Kind.BOTTOM:
        if n or payload:
            raise ColcircError("bottom columns are empty")
        return Column(et, [])
    step = et.byte_width
    if len(payload) != step * n:
        raise ColcircError(f"{'float' if kind is Kind.FLOAT else 'integer'} payload length mismatch")
    unpacked = _native_array(et)
    if unpacked is not None:
        unpacked.frombytes(payload)
        if sys.byteorder == "big":
            unpacked.byteswap()
        if 8 * unpacked.itemsize == et.width_bits:
            # the array's typecode bounds every value to the type: no second
            # domain pass, and no range (``ops._interval`` falls back to the bounds)
            return Column._trusted(et, unpacked.tolist())
        return Column(et, unpacked.tolist())
    signed = kind is Kind.SIGNED
    vals = [int.from_bytes(payload[i * step : (i + 1) * step], "little", signed=signed) for i in range(n)]
    return Column(et, vals)


def write_col_file(path, col: Column) -> None:
    with open(path, "wb") as f:
        f.write(write_col_bytes(col))


def read_col_file(path) -> Column:
    with open(path, "rb") as f:
        return read_col_bytes(f.read())
