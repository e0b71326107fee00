"""Declared params: the kinds of value that scheme, recipe and operator params take, and their one checker.

A declaration maps each param name to a :class:`ParamKind`.  :func:`check`
validates a params dict against it and converts nothing, so an accepted dict
is used as given: an integer kind takes an ``int`` and no ``bool``, and
refuses ``2.5`` rather than read it as 2.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import NamedTuple

from .errors import ColcircError, NotEncodable
from .types import parse_type

# 2.0 ** 1024 overflows f64, so at a higher degree position 2 overflows every type
MAX_DEGREE = 1023
# decoders that build vertices per part or per domain value, and encoders that pad
# to a length a param sets, take at most this many, so a well-formed but huge param
# is refused before any vertex is built or any padding allocated
MAX_PARTS = 4096


class ParamKind(NamedTuple):
    what: str  # the values it takes, as an error message names them
    ok: Callable[[object], bool]
    required: bool = True
    unless: str | None = None  # a param whose presence lets this one be absent
    hint: bool = False  # an encoder hint: dropped from the params an instance keeps

    def optional(self) -> ParamKind:
        return self._replace(required=False)


def _is_type(v) -> bool:
    try:
        return isinstance(v, str) and parse_type(v) is not None
    except ColcircError:
        return False


def _list_of(ok, nonempty=False):
    return lambda v: isinstance(v, (list, tuple)) and (bool(v) or not nonempty) and all(map(ok, v))


def _int_in(lo, hi=float("inf")):
    return lambda v: type(v) is int and lo <= v <= hi


def one_of(table) -> ParamKind:
    """A name that keys ``table``."""
    return ParamKind(f"one of {', '.join(sorted(table))}", lambda v: isinstance(v, str) and v in table)


TYPE = ParamKind("an element type name", _is_type)
TYPES = ParamKind("a non-empty list of element type names", _list_of(_is_type, nonempty=True))
INTEGER = ParamKind("an integer", lambda v: type(v) is int)
POSITIVE = ParamKind("a positive integer", _int_in(1))
PARTS = ParamKind(f"a positive integer at most {MAX_PARTS}", _int_in(1, MAX_PARTS))
DOMAIN_SIZE = ParamKind(f"an integer at most {MAX_PARTS}", _int_in(float("-inf"), MAX_PARTS))
NUMBER = ParamKind("a number", lambda v: type(v) is int or type(v) is float)
WIDTH = ParamKind("an integer width in 1..64", _int_in(1, 64))
EVEN_WIDTH = ParamKind("an even integer width in 2..64", lambda v: WIDTH.ok(v) and v % 2 == 0)
WIDTHS = ParamKind("a non-empty list of integer widths in 1..64", _list_of(_int_in(1, 64), nonempty=True))
DEGREE = ParamKind(f"a basis degree in 0..{MAX_DEGREE}", _int_in(0, MAX_DEGREE), required=False)
DEGREES = ParamKind(f"a list of basis degrees in 0..{MAX_DEGREE}", _list_of(_int_in(0, MAX_DEGREE)), unless="degree")
BOOL = ParamKind("true or false", lambda v: type(v) is bool)
NAME = ParamKind("a name", lambda v: isinstance(v, str))
OBJECT = ParamKind("an object", lambda v: isinstance(v, dict))
VALUE = ParamKind("a value", lambda v: True)
SEGMENTS = ParamKind("a list of positive integer lengths", _list_of(_int_in(1)), required=False, hint=True)
PARTITION = ParamKind("a list of non-negative part numbers", _list_of(_int_in(0)), required=False, hint=True)


def check(
    declared: dict, params, bad=NotEncodable, missing=ColcircError, what="scheme param", none_missing=False
) -> None:
    """Raise ``missing`` for the first absent required param, ``bad`` for the first given one not of its kind.

    With ``none_missing`` (the operator rule), a param given as ``None`` is
    missing, even where the declaration makes it optional.
    """
    for name, kind in declared.items():
        if name in params:
            value = params[name]
            if value is None and none_missing:
                raise missing(f"missing {what} {name!r}")
            if not kind.ok(value):
                raise bad(f"{what} {name!r} must be {kind.what}, not {value!r}")
        elif kind.required and (kind.unless is None or kind.unless not in params):
            raise missing(f"missing {what} {name!r}")
