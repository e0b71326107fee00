"""Fixed-width element types carried on circuit wires.

A type has a domain, a width in bits, and a deterministic byte-level
representation used by the ``.col`` file format.  Product types exist only
as outputs of tuple-constructing operators and as variable-width building
blocks; they are capped at 512 bits and are not file-serializable.
"""

from __future__ import annotations

import struct
from array import array
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

from .errors import ColcircError, TypeDomainError


class Kind(Enum):
    UNSIGNED = "unsigned"
    SIGNED = "signed"
    FLOAT = "float"
    BIT = "bit"
    UNIT = "unit"
    BOTTOM = "bottom"
    PRODUCT = "product"


_MAX_PRODUCT_BITS = 512
_INTEGER_KINDS = frozenset((Kind.UNSIGNED, Kind.SIGNED, Kind.BIT))


def _integer_bounds(k: Kind, w) -> tuple[int, int]:
    if k is Kind.UNSIGNED:
        return 0, (1 << w) - 1
    if k is Kind.SIGNED:
        half = 1 << (w - 1)
        return -half, half - 1
    return 0, 1  # bit


@dataclass(frozen=True)
class ElementType:
    kind: Kind
    width_bits: int
    components: tuple["ElementType", ...] = field(default=())

    def __post_init__(self):
        k, w = self.kind, self.width_bits
        if k in (Kind.UNSIGNED, Kind.SIGNED):
            if not 1 <= w <= 64:
                raise ValueError(f"integer width must be in 1..64, got {w}")
        elif k is Kind.FLOAT:
            if w not in (32, 64):
                raise ValueError(f"float width must be 32 or 64, got {w}")
        elif k is Kind.BIT:
            if w != 1:
                raise ValueError("bit type has width 1")
        elif k in (Kind.UNIT, Kind.BOTTOM):
            if w != 0:
                raise ValueError(f"{k.value} type has width 0")
        elif k is Kind.PRODUCT:
            if not self.components:
                raise ValueError("product type needs at least one component")
            if w != sum(c.width_bits for c in self.components):
                raise ValueError("product width must equal the sum of component widths")
            if w > _MAX_PRODUCT_BITS:
                raise ValueError(f"product width {w} exceeds the {_MAX_PRODUCT_BITS}-bit cap")
        if k is not Kind.PRODUCT and self.components:
            raise ValueError("only product types have components")
        # facts every operator call asks for, computed once; set past the
        # frozen guard and not fields, so ==, hash and repr ignore them
        integer = k in _INTEGER_KINDS
        object.__setattr__(self, "is_integer", integer)
        object.__setattr__(self, "is_numeric", integer or k is Kind.FLOAT)
        try:
            bounds = _integer_bounds(k, w) if integer else None
        except TypeError:  # a width that is no int (8.0) has no shifts, so no bounds
            bounds = None
        object.__setattr__(self, "_bounds", bounds)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def unsigned(width: int) -> "ElementType":
        return _interned(Kind.UNSIGNED, width)

    @staticmethod
    def signed(width: int) -> "ElementType":
        return _interned(Kind.SIGNED, width)

    @staticmethod
    def float_(width: int) -> "ElementType":
        return _interned(Kind.FLOAT, width)

    @staticmethod
    def product(*components: "ElementType") -> "ElementType":
        return ElementType(Kind.PRODUCT, sum(c.width_bits for c in components), tuple(components))

    # -- domain ------------------------------------------------------------

    # ``is_integer`` (unsigned, signed or bit) and ``is_numeric`` (integer or
    # float) are plain attributes, set by ``__post_init__``

    def bounds(self) -> tuple[int, int]:
        """Inclusive integer bounds; only meaningful for integer kinds."""
        b = self._bounds
        if b is None:
            raise TypeError(f"{self} has no integer bounds")
        return b

    def contains(self, value) -> bool:
        k = self.kind
        if self.is_integer:
            if isinstance(value, bool) or not isinstance(value, int):
                return k is Kind.BIT and isinstance(value, bool)
            lo, hi = self.bounds()
            return lo <= value <= hi
        if k is Kind.FLOAT:
            if not isinstance(value, float):
                return False
            if self.width_bits == 64:
                return True
            # f32 domain: values that survive a round-trip through 4 bytes
            try:
                packed = struct.pack("<f", value)
            except OverflowError:  # finite, but beyond the f32 range
                return False
            return struct.unpack("<f", packed)[0] == value or value != value
        if k is Kind.UNIT:
            return value == ()
        if k is Kind.BOTTOM:
            return False
        if k is Kind.PRODUCT:
            return (
                isinstance(value, tuple)
                and len(value) == len(self.components)
                and all(c.contains(v) for c, v in zip(self.components, value))
            )
        raise AssertionError(k)

    def check_value(self, value, index=None):
        if not self.contains(value):
            raise TypeDomainError(
                f"value {value!r} not in domain of {self}"
                + (f" (at index {index})" if index is not None else ""),
                index=index,
                value=value,
            )

    def check_values(self, vals: tuple) -> tuple:
        """Check a whole column against the domain; return it normalized.

        One C-level pass settles the common case.  Only when it fails does
        the per-value :meth:`check_value` loop run, raising for the first bad
        value; bit columns that needed it come back with bools as plain ints.
        """
        if self._contained(vals) is False:
            return self._walk(vals)
        return vals

    def _walk(self, vals: tuple) -> tuple:
        """The per-value check of :meth:`check_values`, for a column its pass did not settle."""
        for i, v in enumerate(vals):
            self.check_value(v, index=i)
        if self.kind is Kind.BIT:
            vals = tuple(map(int, vals))
        return vals

    def _all_contained(self, vals: tuple) -> bool:
        """True if every value is in the domain, decided without a Python loop.

        False only means "look closer": bools, int and float subclasses, NaN
        and out-of-range values all take the per-value path.
        """
        return self._contained(vals) is not False

    def _contained(self, vals: tuple):
        """:meth:`_all_contained`, as False; else the ``(min, max)`` its pass
        found for a non-empty integer column, or None."""
        if not vals:
            return None
        if self.is_integer:
            if set(map(type, vals)) != {int}:
                return False
            lo, hi = self.bounds()
            vmin, vmax = min(vals), max(vals)
            return (vmin, vmax) if lo <= vmin and vmax <= hi else False
        if self.is_numeric:  # float
            if set(map(type, vals)) != {float}:
                return False
            return None if self.width_bits == 64 or array("f", vals).tolist() == list(vals) else False
        k = self.kind
        if k is Kind.UNIT:
            return None if vals.count(()) == len(vals) else False
        if k is Kind.PRODUCT:
            ok = (
                set(map(type, vals)) == {tuple}
                and set(map(len, vals)) == {len(self.components)}
                and all(c._all_contained(col) for c, col in zip(self.components, zip(*vals)))
            )
            return None if ok else False
        return False

    def zero(self):
        """A canonical filler value (used for scatter bases and padding)."""
        k = self.kind
        if k in (Kind.UNSIGNED, Kind.BIT):
            return 0
        if k is Kind.SIGNED:
            return 0
        if k is Kind.FLOAT:
            return 0.0
        if k is Kind.UNIT:
            return ()
        if k is Kind.PRODUCT:
            return tuple(c.zero() for c in self.components)
        raise TypeError(f"{self} has no values")

    # -- sizes and names -----------------------------------------------------

    @property
    def byte_width(self) -> int:
        """Bytes one element occupies in byte-aligned storage; 0 for bit/unit."""
        if self.kind is Kind.BIT:
            return 0
        return (self.width_bits + 7) // 8

    def __str__(self) -> str:
        k = self.kind
        if k is Kind.UNSIGNED:
            return f"u{self.width_bits}"
        if k is Kind.SIGNED:
            return f"i{self.width_bits}"
        if k is Kind.FLOAT:
            return f"f{self.width_bits}"
        if k is Kind.PRODUCT:
            return "prod(" + ",".join(str(c) for c in self.components) + ")"
        return k.value


@lru_cache(maxsize=256)  # types are immutable; schemes re-parse the same few names per call
def parse_type(name: str) -> ElementType:
    """Parse the textual type names used in circuit/bundle JSON files.

    An unknown name, or a known form that no element type has (``u65``,
    ``prod()``), raises :class:`ColcircError` naming it.
    """
    try:
        return _parse_type(name.strip())
    except ValueError as exc:  # ElementType's width and product checks
        raise ColcircError(f"bad element type name {name!r}: {exc}") from None


def _parse_type(name: str) -> ElementType:
    if name == "bit":
        return BIT
    if name == "unit":
        return UNIT
    if name == "bottom":
        return BOTTOM
    if name.startswith("prod(") and name.endswith(")"):
        inner = name[5:-1]
        parts, depth, cur = [], 0, []
        for ch in inner:
            if ch == "," and depth == 0:
                parts.append("".join(cur))
                cur = []
                continue
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            cur.append(ch)
        if cur:
            parts.append("".join(cur))
        return ElementType.product(*(parse_type(p) for p in parts))
    prefix, rest = name[:1], name[1:]
    if prefix in ("u", "i", "f") and rest.isdigit():
        width = int(rest)
        if prefix == "u":
            return ElementType.unsigned(width)
        if prefix == "i":
            return ElementType.signed(width)
        return ElementType.float_(width)
    raise ColcircError(f"unknown element type name {name!r}")


# One canonical instance per non-product type, so the usual ``is`` test
# settles type checks; it stays a fast path ahead of ``==``, since a copied
# or unpickled type is equal but not interned.  Only valid int widths get
# in (8.0 == 8, but u8.0 must not stand for u8), so the table holds at most
# 64 + 64 + 2 + 3 = 133 types; product types are built fresh.
_INTERNED: dict = {}


def _interned(kind: Kind, width) -> ElementType:
    if type(width) is not int:
        return ElementType(kind, width)
    t = _INTERNED.get((kind, width))
    if t is None:
        t = _INTERNED.setdefault((kind, width), ElementType(kind, width))
    return t


BIT = _interned(Kind.BIT, 1)
UNIT = _interned(Kind.UNIT, 0)
BOTTOM = _interned(Kind.BOTTOM, 0)
U8 = ElementType.unsigned(8)
U16 = ElementType.unsigned(16)
U32 = ElementType.unsigned(32)
U64 = ElementType.unsigned(64)
I8 = ElementType.signed(8)
I16 = ElementType.signed(16)
I32 = ElementType.signed(32)
I64 = ElementType.signed(64)
F32 = ElementType.float_(32)
F64 = ElementType.float_(64)

# The index type: wide enough for any column handled by this implementation.
INT = U64
