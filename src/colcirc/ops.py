"""The operator catalog: named, parameterized computational nodes.

Every operator is a pure partial function from labeled input columns to
labeled output columns.  Violated length or domain contracts raise
:class:`OperatorError`; arithmetic is checked, never wrapping.

Catalog entries resolve ``(op_name, params)`` to a concrete
:class:`OperatorInstance` whose signature uses the element types named in
the params, so circuits can be type-checked structurally.
"""

from __future__ import annotations

import math
import operator
import threading
from array import array
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate, compress

from .column import _RANGED, Column, _range_of, _set_range, scalar_column
from .errors import OperatorError, RegistryError
from .params import BOOL, INTEGER, NUMBER, PARTS, TYPE, TYPES, VALUE, check, one_of
from .types import BIT, INT, ElementType, Kind, parse_type

# an enum member is a descriptor lookup on its class; the hot paths read these
_FLOAT = Kind.FLOAT


# The frozen dataclasses here and in ``circuit`` write their own ``__init__``,
# at about half the cost of the generated one.  It sets fields with ``_set``,
# not through ``self.__dict__``: a materialized ``__dict__`` makes every later
# attribute read several times slower.  Equality, repr and hashing are generated.
_set = object.__setattr__


@dataclass(frozen=True, init=False)
class Signature:
    """Labeled input and output element types of an operator or circuit."""

    inputs: dict
    outputs: dict

    def __init__(self, inputs: dict, outputs: dict):
        if not inputs.keys().isdisjoint(outputs):  # no set is built for the common, disjoint case
            overlap = set(inputs) & set(outputs)
            raise ValueError(f"input and output labels must be disjoint, both have {overlap}")
        _set(self, "inputs", inputs)
        _set(self, "outputs", outputs)


@dataclass(frozen=True, init=False)
class OperatorInstance:
    """A catalog operator bound to concrete params and element types."""

    op_name: str
    params: dict
    signature: Signature
    # what ``instantiate`` resolved once for the kernel from the params: a
    # ``fused`` instance's parsed subcircuit, a ``segmentized`` or
    # ``host_verify`` instance's codec entry; everything else leaves this None
    inner: object = field(default=None, compare=False, repr=False)

    def __init__(self, op_name: str, params: dict, signature: Signature, inner: object = None):
        _set(self, "op_name", op_name)
        _set(self, "params", params)
        _set(self, "signature", signature)
        _set(self, "inner", inner)

    # a ``scalar`` instance's output column, made and checked on its first
    # apply; not a field, so equality and repr ignore it
    _constant = None

    def apply(self, inputs: dict) -> dict:
        """Run the kernel: the one place that decides what it may trust.

        A kernel assumes its input columns have their declared types, and
        skips the domain re-check of ``Column(...)`` only for outputs its own
        logic proves: values copied from the inputs, 0/1 results, integers it
        has range-checked.  When an input has another type (a mismatched edge
        of an unvalidated circuit, or a direct call), every output is rebuilt
        by the checked constructor with its declared type.
        """
        try:
            typed = _well_typed(self, inputs)
        except (KeyError, AttributeError, TypeError):
            raise _bad_input(self, inputs) from None
        out = _CATALOG[self.op_name].apply(self, inputs)
        if typed:
            return out
        declared = self.signature.outputs
        return {label: Column(declared[label], col.values) for label, col in out.items()}


class _OpDef:
    def __init__(self, name, signature, apply, params):
        self.name = name
        self.signature = signature  # checked params -> (inputs, outputs) or (inputs, outputs, inner)
        self.apply = apply  # (inst, {label: Column}) -> {label: Column}
        self.params = params  # {param name: ParamKind}


_CATALOG: dict[str, _OpDef] = {}

# guards the check-and-insert of this catalog and of the codec registry;
# reentrant because loading the builtin schemes registers codecs under it
REGISTRY_LOCK = threading.RLock()


def register_operator(name, signature, apply, params=None):
    """Add operator ``name`` to the catalog.

    Its declaration holds ``params``, a dict from each param it reads to a
    ``colcirc.params`` kind, and ``signature``, which maps params that passed
    that check (the instance's own copy) to ``(inputs, outputs)``, two dicts
    from label to element type, or to ``(inputs, outputs, inner)`` for an
    instance that carries what its kernel needs resolved (a parsed
    subcircuit, a codec entry).  ``apply(inst, cols)`` runs it.  The kernel
    returns exactly the declared output labels, each a column of its
    declared type: evaluation stores them unchecked.
    """
    with REGISTRY_LOCK:
        if name in _CATALOG:
            raise RegistryError(f"operator {name!r} already registered")
        _CATALOG[name] = _OpDef(name, signature, apply, params or {})


def catalog_names():
    return sorted(_CATALOG)


def instantiate(op_name: str, params: dict | None = None) -> OperatorInstance:
    """The instance of ``op_name`` over ``params``: the one place that checks operator params."""
    entry = _CATALOG.get(op_name)
    if entry is None:
        raise RegistryError(f"unknown operator {op_name!r}")
    params = dict(params) if params else {}
    check(entry.params, params, _BAD_PARAMS, _BAD_PARAMS, "parameter", none_missing=True)
    sig = entry.signature(params)
    return OperatorInstance(op_name, params, Signature(sig[0], sig[1]), sig[2] if len(sig) > 2 else None)


# a missing, ``None`` or malformed operator param
_BAD_PARAMS = partial(OperatorError, "bad-params")


def _typ(params, key="type"):
    return parse_type(params[key])


def _product(params, components) -> ElementType:
    """The product of ``components``, which ``params`` give; one past the width cap is ``bad-params``."""
    try:
        return ElementType.product(*components)
    except ValueError as exc:
        raise OperatorError("bad-params", f"{exc}, in {params}") from None


def _require_equal_lengths(cols, labels):
    labels_left = iter(labels)
    for first in labels_left:
        n = len(cols[first].values)
        for label in labels_left:
            if len(cols[label].values) != n:
                lengths = {label: len(cols[label]) for label in labels}
                raise OperatorError("length-mismatch", f"unequal input lengths {lengths}")


def _check_int(et: ElementType, value, what="result"):
    lo, hi = et.bounds()
    if not lo <= value <= hi:
        raise OperatorError("overflow", f"{what} {value} outside {et} range [{lo}, {hi}]")
    return value


# -- value ranges ----------------------------------------------------------------
#
# An integer column may carry a proven ``(lo, hi)`` around its values
# (``Column._range``).  A checked kernel derives an interval for its result
# from its inputs' intervals and reads no value when that lies inside the
# result type; otherwise it scans its result and records what it found,
# so the next operator does not scan again.  Copy operators hand a
# known data range on.  An interval only ever over-approximates, so a check
# it skips could not have failed.
#
# Below ``_RANGED`` values a scan costs less than the bookkeeping, so short
# outputs are only scanned and derive or inherit no range; an operator that
# needs a short input's range reads it (``_known``).


def _interval(col):
    """A proven ``(lo, hi)`` around an integer column's values: its recorded
    range, else its type's bounds; None for other columns."""
    return _range_of(col) or col.element_type._bounds


def _known(col, n):
    """The recorded range of ``col``, or None.

    An integer column with none and at most half as long as ``n``, the
    length of the output it feeds, is scanned and keeps what it found.
    """
    rng = _range_of(col)
    if rng is None and 0 < 2 * len(col.values) <= n and col.element_type._bounds is not None:
        rng = min(col.values), max(col.values)
        _set_range(col, rng)
    return rng


def _hull(ranges):
    """The least interval around every one of ``ranges``; None if one is unknown."""
    if None in ranges:
        return None
    return min(ranges)[0], max(map(_upper, ranges))


_upper = operator.itemgetter(1)


def _span(*ends):
    return min(ends), max(ends)


def _fit(t: ElementType, values, rng, what="result", sources=None):
    """Prove integer results ``values`` inside ``t``; return a range around them.

    ``rng`` is an interval around the values derived from the inputs', or
    None.  When it lies inside ``t``'s bounds no value is read.  Otherwise
    one ``min``/``max`` pass decides, and a value outside raises
    ``OperatorError("overflow")`` naming the first one (as ``cast of <s>``
    for the corresponding ``sources`` value, when given).  None for fewer
    than ``_RANGED`` values, which keep no range.
    """
    if not values:
        return None
    lo, hi = t._bounds or t.bounds()  # the call raises for a type without bounds
    if rng is None or rng[0] < lo or hi < rng[1]:
        rng = min(values), max(values)
        if rng[0] < lo or hi < rng[1]:
            if sources is None:
                for v in values:
                    _check_int(t, v, what)
            else:
                for s, v in zip(sources, values):
                    if not lo <= v <= hi:
                        raise OperatorError("overflow", f"cast of {s} outside {t} range [{lo}, {hi}]")
    return rng if len(values) >= _RANGED else None


def _well_typed(inst, cols) -> bool:
    """True if every input column has the element type the signature declares."""
    for label, t in inst.signature.inputs.items():
        et = cols[label].element_type
        if et is not t and et != t:
            return False
    return True


def _bad_input(inst, inputs):
    """The error for inputs that are no mapping of each declared label to a column."""
    if isinstance(inputs, Mapping):
        for label in inst.signature.inputs:
            if not isinstance(inputs.get(label), Column):
                what = "is not a column" if label in inputs else "is missing"
                return OperatorError("bad-input", f"{inst.op_name} input {label!r} {what}")
    return OperatorError("bad-input", f"{inst.op_name} inputs are not a mapping of labels to columns")


def _out(t: ElementType, values, rng=None) -> Column:
    """An output the kernel proved in ``t``'s domain, unchecked, keeping the range ``rng``."""
    col = Column._trusted(t, values)
    if rng is not None:
        _set_range(col, rng)
    return col


# -- signatures ---------------------------------------------------------------

# in a fixed signature, the element type that the ``type`` param names
_T = None


def _fixed(inputs, outputs):
    """The signature of an operator whose shape no param changes; ``_T`` stands for its ``type``."""
    typed_in = [label for label, et in inputs.items() if et is _T]
    typed_out = [label for label, et in outputs.items() if et is _T]

    def sig(params):
        ins, outs = inputs.copy(), outputs.copy()  # copies, not comprehensions: this runs per instance
        if typed_in or typed_out:
            t = _typ(params)
            for label in typed_in:
                ins[label] = t
            for label in typed_out:
                outs[label] = t
        return ins, outs

    return sig


_TYPED = {"type": TYPE}
_UNARY = _fixed({"arguments": _T}, {"result": _T})
_PREDICATE = _fixed({"arguments": _T}, {"result": BIT})


def _components(label):
    """The signature that zips one column per name in ``types`` into the product column ``label``."""

    def sig(params):
        comps = list(map(parse_type, params["types"]))
        return {f"component_{i + 1}": t for i, t in enumerate(comps)}, {label: _product(params, comps)}

    return sig


# -- elementwise functions ---------------------------------------------------
#
# Each builtin is (declared params, signature, vectorized run).


def _binary_arith(pyop, bound):
    """A checked binary operator; ``bound`` maps the operands' intervals to the result's."""

    def run(inst, cols):
        t = inst.signature.outputs["result"]
        lhs, rhs = cols["lhs"], cols["rhs"]
        vals = list(map(pyop, lhs.values, rhs.values))
        if t.kind is _FLOAT:  # every Python float lies in f64; f32 results stay checked
            return {"result": _out(t, vals) if t.width_bits == 64 else Column(t, vals)}
        rng = None
        if len(vals) >= _RANGED:
            a, b = _interval(lhs), _interval(rhs)
            rng = a and b and bound(a, b)
        return {"result": _out(t, vals, _fit(t, vals, rng))}

    return _TYPED, _fixed({"lhs": _T, "rhs": _T}, {"result": _T}), run


def _binary_bool(pyop):
    def run(inst, cols):
        vals = list(map(pyop, cols["lhs"].values, cols["rhs"].values))
        return {"result": _out(BIT, vals)}

    return {}, _fixed({"lhs": BIT, "rhs": BIT}, {"result": BIT}), run


def _comparison(pyop):
    def run(inst, cols):
        vals = [1 if pyop(a, b) else 0 for a, b in zip(cols["lhs"].values, cols["rhs"].values)]
        return {"result": _out(BIT, vals)}

    return _TYPED, _fixed({"lhs": _T, "rhs": _T}, {"result": BIT}), run


def _not_run(inst, cols):
    vals = [1 - v for v in cols["arguments"].values]
    return {"result": _out(BIT, vals)}


def _identity_run(inst, cols):
    return {"result": cols["arguments"]}


def _in_range_run(inst, cols):
    lo, hi = inst.params["lo"], inst.params["hi"]
    vals = [1 if lo <= v <= hi else 0 for v in cols["arguments"].values]
    return {"result": _out(BIT, vals)}


# one comprehension per comparison, so no function is called per element
_CONST_COMPARES = {
    "eq": lambda vals, ref: [1 if v == ref else 0 for v in vals],
    "ne": lambda vals, ref: [1 if v != ref else 0 for v in vals],
    "lt": lambda vals, ref: [1 if v < ref else 0 for v in vals],
    "le": lambda vals, ref: [1 if v <= ref else 0 for v in vals],
    "gt": lambda vals, ref: [1 if v > ref else 0 for v in vals],
    "ge": lambda vals, ref: [1 if v >= ref else 0 for v in vals],
}


def _const_compare_run(inst, cols):
    compare = _CONST_COMPARES[inst.params.get("cmp", "eq")]
    vals = compare(cols["arguments"].values, inst.params["value"])
    return {"result": _out(BIT, vals)}


_F64_EXACT = 1 << 53


def _float_cast(arg: Column, src: ElementType, dst: ElementType):
    """Cast numeric values to a float type; a value the result type cannot hold exactly overflows."""
    vals = arg.values
    if src.is_integer and vals:
        rng = _interval(arg)
        if rng is None or rng[0] < -_F64_EXACT or rng[1] > _F64_EXACT:
            rng = min(vals), max(vals)
            if rng[0] < -_F64_EXACT or rng[1] > _F64_EXACT:
                for v in vals:
                    if abs(v) > _F64_EXACT:
                        raise OperatorError("overflow", f"{v} not exactly representable as a float")
    out = list(map(float, vals))
    if dst.width_bits == 32:
        f32 = array("f", out).tolist()
        if src != dst and f32 != out:
            for s, v, f in zip(vals, out, f32):
                if f != v and v == v:
                    raise OperatorError("overflow", f"{s} not exactly representable as f32")
        out = f32
    return out


def _cast_sig(params):
    src = _typ(params, "from")
    dst = _typ(params, "to")
    if not (src.is_numeric and dst.is_numeric):
        raise OperatorError("bad-params", f"cast needs numeric types, got {src} to {dst}")
    return {"arguments": src}, {"result": dst}


def _cast_run(inst, cols):
    src = inst.signature.inputs["arguments"]
    dst = inst.signature.outputs["result"]
    arg = cols["arguments"]
    vals = arg.values
    if dst.kind is _FLOAT:  # a float result may still leave f32: it stays checked
        return {"result": Column(dst, _float_cast(arg, src, dst))}
    if src.kind is _FLOAT:
        try:
            out = list(map(int, vals))  # truncation toward zero
        except (ValueError, OverflowError):
            bad = next(v for v in vals if not math.isfinite(v))
            raise OperatorError("overflow", f"cast of {bad} has no integer value") from None
        rng = _fit(dst, out, None, sources=vals)
    else:  # integers pass through; an interval inside dst (a widening cast) reads none
        out = vals
        rng = _interval(arg) if len(vals) >= _RANGED else arg.element_type._bounds
        rng = _fit(dst, out, rng, sources=vals)
    return {"result": _out(dst, out, rng)}


def _clip_by_run(inst, cols):
    # k > 0 is checked here: a decoder may hold k = 0 for an instance its verifier rejects
    k = inst.params["k"]
    if k <= 0:
        raise OperatorError("bad-params", "clip_by needs a positive k")
    t = inst.signature.outputs["result"]
    arg = cols["arguments"]
    vals = [v // k for v in arg.values]
    # 0 <= v // k <= v for v >= 0, and v <= v // k < 0 otherwise
    proved = type(k) is int and t.is_integer
    rng = _interval(arg) if proved and len(vals) >= _RANGED else None
    return {"result": _out(t, vals, rng and (rng[0] // k, rng[1] // k)) if proved else Column(t, vals)}


def _scale_run(inst, cols):
    k = inst.params["k"]
    t = inst.signature.outputs["result"]
    arg = cols["arguments"]
    vals = [v * k for v in arg.values]
    if t.kind is _FLOAT:  # as for _binary_arith; a float times an int or float is a float
        f64 = t.width_bits == 64 and type(k) in (int, float)
        return {"result": _out(t, vals) if f64 else Column(t, vals)}
    a = _interval(arg) if type(k) is int and len(vals) >= _RANGED else None
    rng = _fit(t, vals, a and _span(a[0] * k, a[1] * k))
    return {"result": _out(t, vals, rng) if type(k) is int else Column(t, vals)}


def _tuple_make_run(inst, cols):
    labels = list(inst.signature.inputs)
    t = inst.signature.outputs["result"]
    vals = list(zip(*(cols[lb].values for lb in labels))) if labels else []
    return {"result": _out(t, vals)}


def _carve_sig(params):
    w, p = params["w"], params["p"]
    if not 0 < p < w <= 64:
        raise OperatorError("bad-params", f"carve needs 0 < p < w <= 64, got w={w} p={p}")
    return (
        {"arguments": ElementType.unsigned(w)},
        {"prefixes": ElementType.unsigned(p), "suffixes": ElementType.unsigned(w - p)},
    )


def _carve_run(inst, cols):
    w, p = inst.params["w"], inst.params["p"]
    shift = w - p
    mask = (1 << shift) - 1
    pre, suf = [], []
    for v in cols["arguments"].values:
        if v >> w:
            raise OperatorError("out-of-range", f"value {v} exceeds {w} bits")
        pre.append(v >> shift)
        suf.append(v & mask)
    # an int v with v >> w == 0 lies in [0, 2**w): both parts fit
    return {
        "prefixes": _out(inst.signature.outputs["prefixes"], pre),
        "suffixes": _out(inst.signature.outputs["suffixes"], suf),
    }


_WITH_K = {"type": TYPE, "k": NUMBER}
_ELEMENTWISE_FNS = {
    "add": _binary_arith(operator.add, lambda a, b: (a[0] + b[0], a[1] + b[1])),
    "sub": _binary_arith(operator.sub, lambda a, b: (a[0] - b[1], a[1] - b[0])),
    "mul": _binary_arith(operator.mul, lambda a, b: _span(a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])),
    "and": _binary_bool(operator.and_),
    "or": _binary_bool(operator.or_),
    "not": ({}, _fixed({"arguments": BIT}, {"result": BIT}), _not_run),
    "eq": _comparison(lambda a, b: a == b),
    "lt": _comparison(lambda a, b: a < b),
    "le": _comparison(lambda a, b: a <= b),
    "in_range": ({"type": TYPE, "lo": NUMBER, "hi": NUMBER}, _PREDICATE, _in_range_run),
    "const_compare": (
        {"type": TYPE, "cmp": one_of(_CONST_COMPARES).optional(), "value": NUMBER},
        _PREDICATE,
        _const_compare_run,
    ),
    "identity": (_TYPED, _UNARY, _identity_run),
    "cast": ({"from": TYPE, "to": TYPE}, _cast_sig, _cast_run),
    "clip_by": (_WITH_K, _UNARY, _clip_by_run),
    "scale": (_WITH_K, _UNARY, _scale_run),
    "tuple_make": ({"types": TYPES}, _components("result"), _tuple_make_run),
    "carve": ({"w": INTEGER, "p": INTEGER}, _carve_sig, _carve_run),
}


# ``fn`` decides which other params an elementwise operator reads, so the
# operator declares none and ``_ew_sig`` checks them all in one pass, ``fn`` first
_FN = {"fn": one_of(_ELEMENTWISE_FNS)}
_EW_PARAMS = {fn: {**_FN, **declared} for fn, (declared, _, _) in _ELEMENTWISE_FNS.items()}


def _ew_sig(params):
    fn = params.get("fn")
    declared = _EW_PARAMS.get(fn, _FN) if isinstance(fn, str) else _FN
    check(declared, params, _BAD_PARAMS, _BAD_PARAMS, "parameter", none_missing=True)
    return _ELEMENTWISE_FNS[fn][1](params)


def _ew_apply(inst, cols):
    _require_equal_lengths(cols, inst.signature.inputs)
    return _ELEMENTWISE_FNS[inst.params["fn"]][2](inst, cols)


register_operator("elementwise", _ew_sig, _ew_apply)


# -- simple generators and structural operators -------------------------------


def _scalar_run(inst, cols):
    col = inst._constant
    if col is None:  # a value outside the type raises here, on every call
        col = scalar_column(inst.signature.outputs["value"], inst.params["value"])
        object.__setattr__(inst, "_constant", col)
    return {"value": col}


register_operator("scalar", _fixed({}, {"value": _T}), _scalar_run, {"value": VALUE, "type": TYPE})


def _noop_run(inst, cols):
    return {"result": cols["arguments"]}


register_operator("no_op", _UNARY, _noop_run, _TYPED)


def _too_long(n):
    # past 2**63 - 1 a length overflows an index; below it, the interpreter
    # may still refuse the allocation (MemoryError) before any memory is taken
    return OperatorError("too-long", f"a length of {n} does not fit an index")


def _replicate_run(inst, cols):
    value = cols["value"].scalar()
    factor = cols["factor"].scalar()
    if factor < 0:
        raise OperatorError("negative-factor", f"cannot replicate {factor} times")
    t = inst.signature.outputs["replicated"]
    try:
        values = (value,) * factor
    except (OverflowError, MemoryError):
        raise _too_long(factor) from None
    rng = (value, value) if factor >= _RANGED and t.is_integer else None
    return {"replicated": _out(t, values, rng)}


register_operator("replicate", _fixed({"value": _T, "factor": INT}, {"replicated": _T}), _replicate_run, _TYPED)


def _select_run(inst, cols):
    _require_equal_lengths(cols, ("data", "selection"))
    # The relaxed variant (ordered=False) is allowed to emit any permutation
    # of the selected elements; this implementation keeps the original order
    # in both modes, which satisfies the weaker contract.
    t = inst.signature.outputs["selected"]
    data = cols["data"]
    vals = compress(data.values, cols["selection"].values)
    rng = _range_of(data) if len(data.values) >= _RANGED else None
    return {"selected": _out(t, vals, rng)}


register_operator(
    "select",
    _fixed({"data": _T, "selection": BIT}, {"selected": _T}),
    _select_run,
    {"type": TYPE, "ordered": BOOL.optional()},
)


def _iota_sig(params):
    t = _typ(params) if "type" in params else INT
    if not t.is_integer:
        raise OperatorError("bad-params", "iota output type must be an integer type")
    return {"n": INT}, {"result": t}


def _iota_run(inst, cols):
    n = cols["n"].scalar()
    if n < 0:
        raise OperatorError("negative-length", f"iota of negative length {n}")
    t = inst.signature.outputs["result"]
    if n:
        _check_int(t, n - 1, what="iota maximum")
    try:
        # 0 and n - 1 are in t
        return {"result": _out(t, range(n), (0, n - 1) if n >= _RANGED else None)}
    except (OverflowError, MemoryError):
        raise _too_long(n) from None


register_operator("iota", _iota_sig, _iota_run, {"type": TYPE.optional()})


def _permute_run(inst, cols):
    _require_equal_lengths(cols, ("permutation", "data"))
    perm = cols["permutation"].values
    data = cols["data"].values
    n = len(perm)
    out = [None] * n
    seen = [False] * n
    for i, p in enumerate(perm):
        if not 0 <= p < n or seen[p]:
            raise OperatorError("not-a-permutation", f"position {p} at index {i} is invalid or repeated")
        seen[p] = True
        out[p] = data[i]
    return {"permuted": _out(inst.signature.outputs["permuted"], out)}


register_operator("permute", _fixed({"permutation": INT, "data": _T}, {"permuted": _T}), _permute_run, _TYPED)


def _length_run(inst, cols):
    return {"result": _out(INT, (len(cols["col"]),))}


register_operator("length", _fixed({"col": _T}, {"result": INT}), _length_run, _TYPED)


def _concat_sig(params):
    t = _typ(params)
    k = params.get("k", 2)
    return {f"col_{i + 1}": t for i in range(k)}, {"result": t}


def _concat_run(inst, cols):
    t = inst.signature.outputs["result"]
    vals = []
    for label in inst.signature.inputs:
        vals.extend(cols[label].values)
    n = len(vals)
    rng = _hull([_known(cols[label], n) for label in inst.signature.inputs]) if n >= _RANGED else None
    return {"result": _out(t, vals, rng)}


register_operator("concatenate", _concat_sig, _concat_run, {"type": TYPE, "k": PARTS.optional()})


def _scatter_run(inst, cols):
    _require_equal_lengths(cols, ("pos", "data"))
    col = cols["col"]
    base = list(col.values)
    n = len(base)
    seen = set()
    for p, d in zip(cols["pos"].values, cols["data"].values):
        if not 0 <= p < n:
            raise OperatorError("out-of-range", f"scatter position {p} beyond length {n}")
        if p in seen:
            raise OperatorError("duplicate-position", f"scatter position {p} repeated")
        seen.add(p)
        base[p] = d
    rng = _hull((_known(col, n), _known(cols["data"], n))) if n >= _RANGED else None
    return {"result": _out(inst.signature.outputs["result"], base, rng)}


register_operator("scatter", _fixed({"col": _T, "pos": INT, "data": _T}, {"result": _T}), _scatter_run, _TYPED)


def _gather_run(inst, cols):
    data_col = cols["data"]
    data = data_col.values
    n = len(data)
    pos_col = cols["pos"]
    pos = pos_col.values
    long = len(pos) >= _RANGED
    if pos:
        # only an end the interval leaves unproved is read; a long column keeps what was
        rng = (_interval(pos_col) if long else pos_col.element_type._bounds) or (-1, n)
        lo, hi = rng
        if lo < 0:
            lo = min(pos)
        if hi >= n:
            hi = max(pos)
        if long and (lo, hi) != rng and pos_col.element_type._bounds is not None:
            _set_range(pos_col, (lo, hi))
        if lo < 0 or hi >= n:
            for p in pos:
                if not 0 <= p < n:
                    raise OperatorError("out-of-range", f"gather position {p} beyond length {n}")
    if len(pos) > 1:
        out = operator.itemgetter(*pos)(data)
    else:  # itemgetter of one key returns the bare value
        out = [data[p] for p in pos]
    rng = _known(data_col, len(pos)) if long else None  # gathered values are data values
    return {"result": _out(inst.signature.outputs["result"], out, rng)}


register_operator("gather", _fixed({"pos": INT, "data": _T}, {"result": _T}), _gather_run, _TYPED)


def _select_indices_run(inst, cols):
    flags = cols["characteristic"].values
    rng = (0, len(flags) - 1) if len(flags) >= _RANGED else None
    return {"indices": _out(INT, compress(range(len(flags)), flags), rng)}


register_operator("select_indices", _fixed({"characteristic": BIT}, {"indices": INT}), _select_indices_run)


# -- segmented-view operators --------------------------------------------------


def _seg_divisible(col, ell):
    if ell <= 0:
        raise OperatorError("bad-params", f"segment length must be positive, got {ell}")
    if len(col) % ell:
        raise OperatorError(
            "slack-segment-present", f"segment length {ell} does not divide column length {len(col)}"
        )


def _transpose_run(inst, cols):
    ell = cols["segment_length"].scalar()
    col = cols["col"]
    _seg_divisible(col, ell)
    k = len(col) // ell
    vals = col.values
    out = [vals[j * ell + i] for i in range(ell) for j in range(k)]
    return {
        "transposed": _out(inst.signature.outputs["transposed"], out),
        "transposed_segment_length": scalar_column(INT, k),
    }


register_operator(
    "transpose",
    _fixed({"segment_length": INT, "col": _T}, {"transposed": _T, "transposed_segment_length": INT}),
    _transpose_run,
    _TYPED,
)


_REPLICATED = _fixed({"col": _T, "segment_length": INT, "factor": INT}, {"replicated": _T, "out_segment_length": INT})


def _replicate_segments_run(inst, cols):
    ell = cols["segment_length"].scalar()
    factor = cols["factor"].scalar()
    col = cols["col"]
    _seg_divisible(col, ell)
    if factor < 0:
        raise OperatorError("negative-factor", f"cannot replicate {factor} times")
    out = []
    try:
        for j in range(len(col) // ell):
            seg = col.values[j * ell : (j + 1) * ell]
            out.extend(seg * factor)
    except (OverflowError, MemoryError):
        raise _too_long(factor) from None
    return {
        "replicated": _out(inst.signature.outputs["replicated"], out),
        "out_segment_length": scalar_column(INT, ell),
    }


register_operator("replicate_segments", _REPLICATED, _replicate_segments_run, _TYPED)


def _replicate_within_run(inst, cols):
    ell = cols["segment_length"].scalar()
    factor = cols["factor"].scalar()
    col = cols["col"]
    _seg_divisible(col, ell)
    if factor < 0:
        raise OperatorError("negative-factor", f"cannot replicate {factor} times")
    out = []
    try:
        for v in col.values:
            out.extend([v] * factor)
    except (OverflowError, MemoryError):
        raise _too_long(factor) from None
    return {
        "replicated": _out(inst.signature.outputs["replicated"], out),
        "out_segment_length": scalar_column(INT, ell * factor),
    }


register_operator("replicate_within_segments", _REPLICATED, _replicate_within_run, _TYPED)


def _zip_run(inst, cols):
    labels = list(inst.signature.inputs)
    _require_equal_lengths(cols, labels)
    t = inst.signature.outputs["zipped"]
    vals = list(zip(*(cols[lb].values for lb in labels)))
    return {"zipped": _out(t, vals)}


register_operator("zip", _components("zipped"), _zip_run, {"types": TYPES})


def _composed_sig(params):
    base = _typ(params)
    return (
        {"segment_length": INT, "components": base},
        {"composed": _product(params, [base] * params["k"])},
    )


_COMPOSED = {"type": TYPE, "k": PARTS}


def _compose_segments_run(inst, cols):
    k = inst.params["k"]
    ell = cols["segment_length"].scalar()
    col = cols["components"]
    if ell < 0 or len(col) != ell * k:
        raise OperatorError(
            "length-mismatch", f"expected {k} segments of length {ell}, got column length {len(col)}"
        )
    vals = col.values
    out = [tuple(vals[j * ell + i] for j in range(k)) for i in range(ell)]
    return {"composed": _out(inst.signature.outputs["composed"], out)}


register_operator("compose_segments", _composed_sig, _compose_segments_run, _COMPOSED)


def _assemble_run(inst, cols):
    k = inst.params["k"]
    if cols["segment_length"].scalar() != k:
        raise OperatorError("bad-params", "assemble segment_length input must equal k")
    col = cols["components"]
    _seg_divisible(col, k)
    vals = col.values
    out = [tuple(vals[i * k : (i + 1) * k]) for i in range(len(col) // k)]
    return {"composed": _out(inst.signature.outputs["composed"], out)}


register_operator("assemble", _composed_sig, _assemble_run, _COMPOSED)


# -- arithmetic over adjacency -------------------------------------------------


def widened_signed(et: ElementType) -> ElementType:
    """One widening step: a signed type able to hold any difference of values."""
    if not et.is_integer:
        raise OperatorError("bad-params", f"no widening rule for {et}")
    return ElementType.signed(min(64, et.width_bits * 2 if et.width_bits > 1 else 8))


def _derivative_sig(params):
    t = _typ(params)
    if not t.is_numeric:
        raise OperatorError("bad-params", "derivative needs a numeric column")
    if "out_type" in params:
        out = _typ(params, "out_type")
    elif t.kind is Kind.FLOAT:
        out = t
    else:
        out = widened_signed(t)
    return {"col": t}, {"differences": out}


def _derivative_run(inst, cols):
    col = cols["col"]
    if len(col) < 1:
        raise OperatorError("empty-input", "derivative needs at least one element")
    out_t = inst.signature.outputs["differences"]
    vals = col.values
    diffs = list(map(operator.sub, vals[1:], vals[:-1]))
    if out_t.kind is _FLOAT:
        return {"differences": Column(out_t, diffs)}
    a = _interval(col) if len(diffs) >= _RANGED else None
    # a difference of values in [lo, hi] lies in [lo - hi, hi - lo]
    rng = _fit(out_t, diffs, a and (a[0] - a[1], a[1] - a[0]))
    # float inputs with an integer out_type leave floats: those stay checked
    proved = inst.signature.inputs["col"].is_integer
    return {"differences": _out(out_t, diffs, rng) if proved else Column(out_t, diffs)}


register_operator("derivative", _derivative_sig, _derivative_run, {"type": TYPE, "out_type": TYPE.optional()})


_AGG_OPS = {
    "add": (operator.add, lambda t: 0 if t.is_integer else 0.0),
    "max": (lambda a, b: a if a >= b else b, lambda t: t.bounds()[0] if t.is_integer else float("-inf")),
    "min": (lambda a, b: a if a <= b else b, lambda t: t.bounds()[1] if t.is_integer else float("inf")),
    "and": (lambda a, b: a & b, lambda t: 1),
    "or": (lambda a, b: a | b, lambda t: 0),
}


def _prefix_sig(params):
    if params.get("op", "add") in ("and", "or"):
        t = BIT
    elif "type" in params:
        t = _typ(params)
    else:  # the other ops aggregate values of the named type
        raise OperatorError("bad-params", "missing parameter 'type'")
    return {"data": t}, {"aggregates": t}


def _prefix_run(inst, cols):
    op = inst.params.get("op", "add")
    mode = inst.params.get("mode", "inclusive")
    t = inst.signature.outputs["aggregates"]
    combine, neutral = _AGG_OPS[op]
    # acc[0] is the neutral element, acc[-1] the total; exclusive mode drops
    # the total, but an overflowing total is still an overflow
    data = cols["data"]
    if op == "add":  # the default combination adds at C speed; ``operator.add`` is a call per value
        acc = list(accumulate(data.values, initial=neutral(t)))
    else:
        acc = list(accumulate(data.values, combine, initial=neutral(t)))
    exclusive = mode == "exclusive"
    rng = None
    if op == "add" and t.is_integer:
        n = len(data.values)
        a = _interval(data) if n >= _RANGED else None
        if a is not None and a[0] >= 0 and n:
            # sums of non-negative values never decrease: the total is the largest, and the
            # output's two ends bound it exactly (Blelloch 1989)
            if acc[-1] > t._bounds[1]:
                _fit(t, acc, None, what="prefix aggregate")  # raises, naming the first sum past the type
            rng = (acc[0], acc[-2]) if exclusive else (acc[1], acc[-1])
        else:
            # the k-th sum of values in [lo, hi] lies in [k*lo, k*hi], for k in 0..n
            rng = _fit(t, acc, a and (min(0, n * a[0]), max(0, n * a[1])), what="prefix aggregate")
    out = acc[:-1] if exclusive else acc[1:]
    # integer max/min pick inputs or t's bounds, and/or of bits stay bits
    return {"aggregates": _out(t, out, rng) if t.is_integer else Column(t, out)}


register_operator(
    "prefix_aggregate",
    _prefix_sig,
    _prefix_run,
    {"op": one_of(_AGG_OPS).optional(), "mode": one_of(("inclusive", "exclusive")).optional(), "type": TYPE.optional()},
)


def _same_as_prev_run(inst, cols):
    vals = cols["col"].values
    out = [0] * len(vals)
    for i in range(1, len(vals)):
        out[i] = 1 if vals[i] == vals[i - 1] else 0
    return {"result": _out(BIT, out)}


register_operator("is_same_as_previous", _fixed({"col": _T}, {"result": BIT}), _same_as_prev_run, _TYPED)


def _split_first_run(inst, cols):
    col = cols["col"]
    if len(col) == 0:
        raise OperatorError("empty-input", "split_first needs a non-empty column")
    t = inst.signature.outputs["head"]
    return {"head": _out(t, col.values[:1]), "tail": _out(t, col.values[1:])}


register_operator("split_first", _fixed({"col": _T}, {"head": _T, "tail": _T}), _split_first_run, _TYPED)


def _carve_op_sig(params):
    params["fn"] = "carve"  # the instance runs, and is written, as elementwise carve
    return _carve_sig(params)


register_operator("carve", _carve_op_sig, _ew_apply, _ELEMENTWISE_FNS["carve"][0])
