"""Compression codecs, all built from catalog operators.

Index-generated columns, support compaction (narrowing, dictionaries), run
encodings, splines and frame-of-reference, compressed differences, segment
and cascaded dictionaries, index-subset compression, and variable-width
forms.  Integer decode pipelines accumulate in i64, so unsigned inputs are
supported up to 63 bits of magnitude.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import accumulate, compress, repeat
from operator import add, mul, ne, sub

from .builder import CircuitBuilder, Wire, expand_ranges, run_index_wires
from .codec import _segments_hint, register_scheme
from .column import Column, _range_of, scalar_column
from .errors import NotEncodable
from .params import BOOL, DEGREE, DEGREES, EVEN_WIDTH, PARTS, POSITIVE, SEGMENTS, TYPE, WIDTH, WIDTHS
from .rep_schemes import (
    _TYPED,
    _col_below,
    _et,
    _holds,
    _increasing,
    _is_distinct,
    _padding,
    _positions,
    _ranges_within,
    _segment_count,
    _tiled,
    canonical_varwidth,
    indexset_equivalent,
    varwidth_elements,
    varwidth_equivalent,
)
from .types import INT, ElementType, Kind, parse_type

_INT = str(INT)
_WIDE = "i64"
_WIDE_HI = parse_type(_WIDE).bounds()[1]
_POLY = {"type": TYPE, "basis": DEGREES, "degree": DEGREE}  # ``degree`` d stands for the basis 0..d


def _int_t(params):
    return params.get("int_type", _INT)


def _int_et(params):
    return parse_type(_int_t(params))


def _is_float(params) -> bool:
    return _et(params).kind is Kind.FLOAT


def _compute_t(params) -> str:
    return str(_et(params)) if _is_float(params) else _WIDE


def _widen(b: CircuitBuilder, params, wire, src_t=None) -> Wire:
    return b.cast(src_t or params["type"], _compute_t(params), wire)


def _narrow_out(b: CircuitBuilder, params, wire) -> Wire:
    return b.cast(_compute_t(params), params["type"], wire)


# -- generated columns ------------------------------------------------------------


def _basis_degrees(params):
    """The degrees of ``params``' basis: ``basis``, or 0 to ``degree``."""
    basis = params.get("basis")
    return list(range(params["degree"] + 1)) if basis is None else basis


def _powers_fit(params, n) -> bool:
    """True if an integer decoder's powers ``i**d`` of the positions ``i`` below ``n`` stay in ``i64``."""
    degrees = _basis_degrees(params)
    return _is_float(params) or n < 2 or not degrees or (n - 1) ** max(degrees) <= _WIDE_HI


def _refuse_past_i64(params, n):
    if not _powers_fit(params, n):
        raise NotEncodable(f"basis {_basis_degrees(params)} over {n} positions leaves i64")


def _poly_eval_wires(b: CircuitBuilder, params, rel: Wire, coeff_of, n: Wire) -> Wire:
    """Sum of coeff_j * rel^degree_j in the compute type.

    ``coeff_of(j)`` returns a compute-typed column wire aligned with ``rel``.
    """
    ct = _compute_t(params)
    degrees = _basis_degrees(params)
    acc = None
    cur, cur_deg = None, 0
    for j, d in enumerate(degrees):
        while cur_deg < d:
            cur = rel if cur is None else b.ew("mul", {"type": ct}, lhs=cur, rhs=rel)
            cur_deg += 1
        if d == 0:
            term = coeff_of(j)
        else:
            term = b.ew("mul", {"type": ct}, lhs=coeff_of(j), rhs=cur)
        acc = term if acc is None else b.add_cols(ct, acc, term)
    if acc is None:
        zero = 0.0 if _is_float(params) else 0
        acc = b.replicate(ct, b.scalar(ct, zero), n)
    return acc


def _generated_decoder(params):
    ct = _compute_t(params)
    b = CircuitBuilder()
    length = b.input("length")
    coeffs = _widen(b, params, b.input("coefficients"))
    idx = b.iota(length)
    rel = b.cast(_INT, ct, idx)

    def coeff_of(j):
        cj = b.gather(ct, b.scalar(_INT, j), coeffs)
        return b.replicate(ct, cj, length)

    acc = _poly_eval_wires(b, params, rel, coeff_of, length)
    b.result("col", _narrow_out(b, params, acc))
    return b.build()


def _generated_verify(params, cols):
    length = cols["length"]
    if len(length) != 1 or len(cols["coefficients"]) != len(_basis_degrees(params)):
        return False
    return _powers_fit(params, length[0])


def _eval_basis(params, coeffs, n):
    """``sum(c * i**d for c, d in zip(coeffs, degrees))`` for each ``i`` in ``range(n)``."""
    degrees = _basis_degrees(params)
    if all(type(c) is int for c in coeffs):
        # exact: any order of additions gives the same integers
        c0 = sum(c for c, d in zip(coeffs, degrees) if d == 0)
        c1 = sum(c for c, d in zip(coeffs, degrees) if d == 1)
        values = range(c0, c0 + c1 * n, c1) if c1 else repeat(c0, n)
        for c, d in zip(coeffs, degrees):
            if d > 1 and c:
                values = map(add, values, map(mul, repeat(c, n), map(pow, range(n), repeat(d, n))))
        return list(values)
    # a term at a time in the formula's order, starting from the integer 0 (so
    # that a first term of -0.0 gives 0.0): float results are the same bits;
    # ``c * 1`` is ``c`` and ``c * i**1`` is ``c * i``, so those need no ``pow``
    values = repeat(0, n)
    for c, d in zip(coeffs, degrees):
        if d == 0:
            terms = repeat(c, n)
        elif d == 1:
            terms = map(mul, repeat(c, n), range(n))
        else:
            terms = map(mul, repeat(c, n), map(pow, range(n), repeat(d, n)))
        values = map(add, values, terms)
    try:
        return list(values)
    except OverflowError:  # some ``i**d`` is past the float range
        raise NotEncodable(f"basis {degrees} leaves the float range over {n} positions") from None


def _generated_encode(params, family):
    col = family["col"]
    et = _et(params)
    _refuse_past_i64(params, len(col))
    coeffs = _fit_segment(params, col.values)
    if coeffs is None:
        raise NotEncodable("column is not generated by the basis")
    return {"length": scalar_column(INT, len(col)), "coefficients": Column(et, coeffs)}


def _fit_poly_int(values, degrees):
    """The exact integer coefficients of ``degrees`` through ``values``, or None.

    Solves in the integers: fraction-free (Bareiss) elimination divides only
    where the division is exact, and back-substitution's ``divmod`` leaves a
    remainder exactly where the rational solution is not integral.  None when
    the system is singular or its solution is not integral.
    """
    k = len(degrees)
    n = len(values)
    if n == 0:
        return [0] * k
    # under-determined fits interpolate on a basis prefix, zero-padding the rest
    use = degrees[: min(n, k)]
    m = len(use)
    aug = [[i**d for d in use] + [values[i]] for i in range(m)]
    prev = 1
    for c in range(m):
        # the pivot is the first nonzero entry in the column, as in ``_solve_exact``
        pivot = next((r for r in range(c, m) if aug[r][c]), None)
        if pivot is None:
            return None
        aug[c], aug[pivot] = aug[pivot], aug[c]
        top = aug[c]
        pv = top[c]
        for r in range(c + 1, m):
            f = aug[r][c]
            aug[r] = [(pv * x - f * y) // prev for x, y in zip(aug[r], top)]
        prev = pv
    coeffs = [0] * m
    for c in reversed(range(m)):
        row = aug[c]
        q, rest = divmod(row[m] - sum(map(mul, row[c + 1 : m], coeffs[c + 1 :])), row[c])
        if rest:
            return None
        coeffs[c] = q
    return coeffs + [0] * (k - m)


def _fit_poly_float(values, degrees):
    k = len(degrees)
    n = len(values)
    if n == 0:
        return [0.0] * k
    use = degrees[: min(n, k)]
    rows = list(zip(*(_float_powers(d, len(use)) for d in use)))
    coeffs = _solve_exact(rows, list(values[: len(use)]))
    return None if coeffs is None else [float(c) for c in coeffs] + [0.0] * (k - len(use))


def _solve_exact(rows, rhs):
    """Gauss-Jordan elimination in the entries' field; None when singular.

    The float fits (``_fit_poly_float``, ``_fit_float_least_squares``) solve
    in the floats with it, so their coefficients keep these exact bits; the
    integer fit solves in the integers (``_fit_poly_int``).
    """
    k = len(rhs)
    aug = [list(r) + [v] for r, v in zip(rows, rhs)]
    for c in range(k):
        pivot = next((r for r in range(c, k) if aug[r][c]), None)
        if pivot is None:
            return None
        aug[c], aug[pivot] = aug[pivot], aug[c]
        pv = aug[c][c]
        aug[c] = [x / pv for x in aug[c]]
        for r in range(k):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [aug[r][k] for r in range(k)]


def _shifted_int_fit(params, values):
    """Rounded least-squares fit clamped into the type, residual-corrected."""
    et = _et(params)
    degrees = _basis_degrees(params)
    coeffs = _fit_int_least_squares(values, degrees)
    lo, hi = et.bounds()
    coeffs = [min(max(c, lo), hi) for c in coeffs]
    base = _eval_basis(params, coeffs, len(values))
    if et.kind is Kind.UNSIGNED and 0 in degrees and values:
        # pull the constant term down so residuals are non-negative
        worst = min(map(sub, values, base))
        j = degrees.index(0)
        if worst < 0 and lo <= coeffs[j] + worst <= hi:
            coeffs[j] += worst
            base = list(map(add, base, repeat(worst, len(base))))
    if base and not (lo <= min(base) and max(base) <= hi):
        raise NotEncodable("fitted model leaves the decoded type's domain")
    return coeffs, base


def _generated_fit_additive(params, col):
    if _is_float(params):
        coeffs = _fit_least_squares(list(col.values), _basis_degrees(params))
        base = _eval_basis(params, coeffs, len(col))
    else:
        _, base = _shifted_int_fit(params, list(col.values))
    return Column(_et(params), base)


def _register_generated(scheme_id, normalize=None):
    register_scheme(
        scheme_id,
        _POLY,
        build_decoder=_generated_decoder,
        encode=_generated_encode,
        host_verify=_generated_verify,
        normalize_params=normalize,
        encoded_lengths=lambda p, n: {"length": 1, "coefficients": len(_basis_degrees(p))},
        fit_additive=_generated_fit_additive,
    )


def _degree_as_basis(params):
    """``degree`` d as the basis 0..d (a malformed one is left for the params check), and no basis as ``[0]``."""
    if "degree" in params and DEGREE.ok(params["degree"]):
        return dict({k: v for k, v in params.items() if k != "degree"}, basis=list(range(params["degree"] + 1)))
    return params if "basis" in params or "degree" in params else dict(params, basis=[0])


_register_generated("generated")
_register_generated("generated.poly", normalize=_degree_as_basis)


def _constant_decoder(params):
    t = params["type"]
    int_t = _int_t(params)
    b = CircuitBuilder()
    value = b.input("value")
    length = b.cast(int_t, _INT, b.input("length"))
    b.result("col", b.replicate(t, value, length))
    return b.build()


def _constant_encode(params, family):
    col = family["col"]
    et = _et(params)
    support = set(col.values)
    if len(support) > 1:
        raise NotEncodable(f"column has {len(support)} distinct values")
    value = col.values[0] if col.values else et.zero()
    return {"value": scalar_column(et, value), "length": scalar_column(_int_et(params), len(col))}


def _constant_fit(params, family):
    col = family["col"]
    et = _et(params)
    if not col.values:
        return {"col": col}, []
    majority = Counter(col.values).most_common(1)[0][0]
    base = Column(et, [majority] * len(col))
    patches = [(i, v) for i, v in enumerate(col.values) if v != majority]
    return {"col": base}, patches


def _constant_fit_additive(params, col):
    et = _et(params)
    base = min(col.values) if col.values else et.zero()
    return Column(et, [base] * len(col))


register_scheme(
    "constant",
    {"type": TYPE, "int_type": TYPE.optional()},
    build_decoder=_constant_decoder,
    encode=_constant_encode,
    host_verify=lambda p, cols: len(cols["value"]) == 1 and len(cols["length"]) == 1,
    encoded_lengths=lambda p, n: {"value": 1, "length": 1},
    fit=_constant_fit,
    fit_additive=_constant_fit_additive,
)


def _noisy_decoder(params):
    ct = _compute_t(params)
    b = CircuitBuilder()
    noise = b.input("noise")
    coeffs = _widen(b, params, b.input("coefficients"))
    n = b.length(noise, params["noise_type"])
    idx = b.iota(n)
    rel = b.cast(_INT, ct, idx)

    def coeff_of(j):
        cj = b.gather(ct, b.scalar(_INT, j), coeffs)
        return b.replicate(ct, cj, n)

    gen = _poly_eval_wires(b, params, rel, coeff_of, n)
    up = b.cast(params["noise_type"], ct, noise)
    b.result("col", _narrow_out(b, params, b.add_cols(ct, gen, up)))
    return b.build()


def _noisy_encode(params, family):
    col = family["col"]
    et = _et(params)
    noise_et = _et(params, "noise_type")
    degrees = _basis_degrees(params)
    if _is_float(params):
        coeffs = _fit_least_squares(list(col.values), degrees)
    else:
        coeffs = _fit_int_least_squares(col.values, degrees)
        _refuse_past_i64(params, len(col))
        lo, hi = et.bounds()
        coeffs = [min(max(c, lo), hi) for c in coeffs]  # the noise absorbs the clamping
    base = _eval_basis(params, coeffs, len(col))
    return {"coefficients": Column(et, coeffs), "noise": Column(noise_et, map(sub, col.values, base))}


def _fit_int_least_squares(values, degrees):
    return [int(round(c)) for c in _fit_least_squares(list(map(float, values)), degrees)]


def _fit_least_squares(values, degrees):
    """``_fit_float_least_squares``, or the zero model where that fit is not finite (a
    normal-equation sum past the float range makes it NaN)."""
    coeffs = _fit_float_least_squares(values, degrees)
    return coeffs if all(map(math.isfinite, coeffs)) else [0.0] * len(degrees)


def _float_powers(d, n):
    """``float(i**d)`` for each ``i`` in ``range(n)``."""
    if d == 0:
        return [1.0] * n
    if d == 1:
        # 0.0 + 1.0 + ... is exact below 2**53, so this is ``float(i)``
        return list(accumulate(repeat(1.0, n - 1), initial=0.0)) if n else []
    try:
        return [float(i**d) for i in range(n)]
    except OverflowError:
        raise NotEncodable(f"basis degree {d} leaves the float range over {n} positions") from None


def _fit_float_least_squares(values, degrees):
    """Coefficients minimizing the squared residual, from the normal equations.

    Each entry of the normal equations sums its products in row order
    (``i`` = 0, 1, ...), as the textbook ``sum(x[a] * x[c] for x in rows)``
    does, so the coefficients are the same bits; a column of degree 0 is all
    1.0, and ``1.0 * x`` is ``x``, so its entries sum the other factor alone.
    """
    n = len(values)
    k = len(degrees)
    if n == 0:
        return [0.0] * k
    cols = [_float_powers(d, n) for d in degrees]

    def dot(a, other):
        """The sum of ``x[a] * y`` over rows ``x`` and ``y`` in ``other``."""
        return sum(other) if degrees[a] == 0 else sum(map(mul, cols[a], other))

    ata = [[0.0] * k for _ in range(k)]
    for a in range(k):
        for c in range(a, k):
            # x[a] * x[c] is x[c] * x[a], so one half gives the other
            ata[a][c] = ata[c][a] = dot(c, cols[a]) if degrees[a] else dot(a, cols[c])
    atb = [dot(a, values) for a in range(k)]
    coeffs = _solve_exact(ata, atb)
    return [0.0] * k if coeffs is None else [float(c) for c in coeffs]


def _noisy_verify(params, cols):
    return len(cols["coefficients"]) == len(_basis_degrees(params)) and _powers_fit(params, len(cols["noise"]))


register_scheme(
    "noisy.generated",
    {**_POLY, "noise_type": TYPE},
    build_decoder=_noisy_decoder,
    encode=_noisy_encode,
    host_verify=_noisy_verify,
    encoded_lengths=lambda p, n: {"coefficients": len(_basis_degrees(p)), "noise": n},
)


# -- support compaction ------------------------------------------------------------


def _narrows(t: ElementType, narrow: ElementType) -> bool:
    """True if ``narrow`` is an integer type inside integer ``t``'s bounds, or a float narrower than float ``t``."""
    if t.is_integer and narrow.is_integer:
        (lo, hi), (narrow_lo, narrow_hi) = t.bounds(), narrow.bounds()
        return lo <= narrow_lo and narrow_hi <= hi
    return t.kind is Kind.FLOAT is narrow.kind and narrow.width_bits < t.width_bits


def _nullsup_decoder(params):
    t, narrow_t = params["type"], params["narrow_type"]
    b = CircuitBuilder()
    narrow = b.input("narrow")
    if narrow_t == t:
        # an identity narrowing decodes to the input itself, which takes a relay
        b.result("col", b.noop(narrow, t))
    elif _narrows(parse_type(t), parse_type(narrow_t)):
        # the cast back cannot fail, so the form check alone decides membership
        b.result("col", b.cast(narrow_t, t, narrow))
    else:
        raise NotEncodable(
            f"nullsup narrow_type must be {t}, an integer type inside its bounds or a narrower float, not {narrow_t}"
        )
    return b.build()


def _nullsup_encode(params, family):
    col = family["col"]
    return {"narrow": Column(_et(params, "narrow_type"), col.values)}


register_scheme(
    "nullsup",
    {"type": TYPE, "narrow_type": TYPE},
    build_decoder=_nullsup_decoder,
    encode=_nullsup_encode,
    encoded_lengths=lambda p, n: {"narrow": n},
)


def _dict_decoder(params):
    t = params["type"]
    b = CircuitBuilder()
    out = b.gather(t, b.input("indices"), b.input("dictionary"))
    b.result("col", out)
    return b.build()


def _dict_verify_base(params, cols):
    return _col_below(cols["indices"], len(cols["dictionary"]))


def _dict_verify_unique(params, cols):
    return _dict_verify_base(params, cols) and _is_distinct(cols["dictionary"].values)


def _dict_verify_monotone(params, cols):
    return _dict_verify_unique(params, cols) and _increasing(cols["dictionary"].values)


def _dict_encode_factory(variant):
    def encode(params, family):
        col = family["col"]
        et = _et(params)
        if variant == "monotone":
            entries = sorted(set(col.values))
        else:
            entries = list(dict.fromkeys(col.values))  # first-occurrence order
        index_of = {v: i for i, v in enumerate(entries)}
        return {
            "dictionary": Column(et, entries),
            "indices": Column(INT, list(map(index_of.__getitem__, col.values))),
        }

    return encode


for _variant, _verifier in (
    ("dict", _dict_verify_base),
    ("dict.unique", _dict_verify_unique),
    ("dict.monotone", _dict_verify_monotone),
):
    register_scheme(
        _variant,
        _TYPED,
        build_decoder=_dict_decoder,
        encode=_dict_encode_factory(_variant.rsplit(".", 1)[-1] if "." in _variant else "plain"),
        host_verify=_verifier,
    )


# -- run encodings -------------------------------------------------------------------


def _runs_of(values):
    """The runs of ``values`` as ``(starts, lengths, run values)``.

    A run goes on while each value is ``==`` to the one before it, so a NaN
    never continues a run, and ``0.0`` and ``-0.0`` form one run that keeps
    its first value.
    """
    n = len(values)
    if not n:
        return [], [], []
    starts = [0, *compress(range(1, n), map(ne, values[1:], values))]
    lengths = list(map(sub, [*starts[1:], n], starts))
    return starts, lengths, list(map(values.__getitem__, starts))


def _run_decode_tail(b, params, starts: Wire, overall: Wire, values: Wire) -> Wire:
    run_of = run_index_wires(b, starts, overall)
    return b.gather(params["type"], run_of, values)


def _run_full_decoder(params):
    b = CircuitBuilder()
    starts = b.input("start_position")
    lengths = b.input("length")
    values = b.input("value")
    ends = b.add_cols(_INT, starts, lengths)
    overall = b.last_element(_INT, b.concat(_INT, b.scalar(_INT, 0), ends))
    b.result("col", _run_decode_tail(b, params, starts, overall, values))
    return b.build()


def _run_full_verify(params, cols):
    starts = cols["start_position"].values
    lengths = cols["length"].values
    return len(starts) == len(cols["value"]) and _tiled(starts, lengths) and min(lengths, default=1) >= 1


def _run_full_encode(params, family):
    col = family["col"]
    starts, lengths, values = _runs_of(col.values)
    return {
        "start_position": Column(INT, starts),
        "length": Column(INT, lengths),
        "value": Column(_et(params), values),
    }


register_scheme(
    "run.full",
    _TYPED,
    build_decoder=_run_full_decoder,
    encode=_run_full_encode,
    host_verify=_run_full_verify,
)


def _rpe_decoder(params):
    b = CircuitBuilder()
    starts = b.input("start_position")
    values = b.input("value")
    overall = b.input("overall_length")
    b.result("col", _run_decode_tail(b, params, starts, overall, values))
    return b.build()


def _rpe_verify(params, cols):
    starts = cols["start_position"].values
    if len(starts) != len(cols["value"]) or len(cols["overall_length"]) != 1:
        return False
    overall = cols["overall_length"][0]
    if not starts:
        return overall == 0
    return starts[0] == 0 and _increasing(starts) and starts[-1] < overall


def _rpe_encode(params, family):
    col = family["col"]
    starts, _, values = _runs_of(col.values)
    return {
        "start_position": Column(INT, starts),
        "value": Column(_et(params), values),
        "overall_length": scalar_column(INT, len(col)),
    }


def rpe_encoder_circuit(params):
    """The run-position encoder circuit: run starts via IsSameAsPrevious."""
    t = params["type"]
    b = CircuitBuilder()
    col = b.input("col")
    same = b.add("is_same_as_previous", {"type": t}, col=col)
    boundary = b.ew("not", {}, arguments=same)
    starts = b.add("select_indices", {}, characteristic=boundary)
    b.result("start_position", starts)
    b.result("value", b.gather(t, starts, col))
    b.result("overall_length", b.length(col, t))
    return b.build()


register_scheme(
    "run.rpe",
    _TYPED,
    build_decoder=_rpe_decoder,
    encode=_rpe_encode,
    host_verify=_rpe_verify,
)


def _rle_decoder(params, capped=False):
    int_t = _int_t(params)
    b = CircuitBuilder()
    if capped:
        b.sink(b.input("cap"), _INT)
    lengths = b.cast(int_t, _INT, b.input("length"))
    values = b.input("value")
    starts = b.prefix(_INT, "add", lengths, mode="exclusive")
    overall = b.total(_INT, lengths)
    b.result("col", _run_decode_tail(b, params, starts, overall, values))
    return b.build()


def _rle_verify(params, cols):
    lengths = cols["length"]
    values = lengths.values
    if len(values) != len(cols["value"].values):
        return False
    rng = _range_of(lengths)  # a recorded range from 1 up spares the scan
    return rng is not None and rng[0] >= 1 or min(values, default=1) >= 1


def _rle_encode(params, family):
    col = family["col"]
    _, lengths, values = _runs_of(col.values)
    return {
        "length": Column(_int_et(params), lengths),
        "value": Column(_et(params), values),
    }


register_scheme(
    "run.rle",
    {"type": TYPE, "int_type": TYPE.optional()},
    build_decoder=_rle_decoder,
    encode=_rle_encode,
    host_verify=_rle_verify,
)


def _capped_rle_verify(params, cols):
    r = params["cap"]
    return _holds(cols, "cap", r) and _rle_verify(params, cols) and max(cols["length"].values, default=0) <= r


def _capped_rle_encode(params, family):
    col = family["col"]
    r = params["cap"]
    int_et = _int_et(params)
    lengths, values = [], []
    _, run_lengths, run_values = _runs_of(col.values)
    for v, l in zip(run_values, run_lengths):
        while l > r:
            lengths.append(r)
            values.append(v)
            l -= r
        if l:
            lengths.append(l)
            values.append(v)
    return {
        "cap": scalar_column(INT, r),
        "length": Column(int_et, lengths),
        "value": Column(_et(params), values),
    }


register_scheme(
    "run.rle.capped",
    {"type": TYPE, "int_type": TYPE.optional(), "cap": POSITIVE},
    build_decoder=lambda p: _rle_decoder(p, capped=True),
    encode=_capped_rle_encode,
    host_verify=_capped_rle_verify,
)


# -- splines and frame of reference -----------------------------------------------------


def _segment_poly_tail(b, params, idx: Wire, seg: Wire, seg_start_ct: Wire, coeffs_w: Wire, n: Wire) -> Wire:
    """Per-segment polynomial at offset (idx - segment start)."""
    ct = _compute_t(params)
    k = len(_basis_degrees(params))
    rel = b.sub_cols(ct, b.cast(_INT, ct, idx), seg_start_ct)

    def coeff_of(j):
        slot = b.add_cols(
            _INT,
            b.ew("scale", {"type": _INT, "k": k}, arguments=seg),
            b.replicate(_INT, b.scalar(_INT, j), n),
        )
        return b.gather(ct, slot, coeffs_w)

    return _poly_eval_wires(b, params, rel, coeff_of, n)


def _spline_generalized_decoder(params):
    ct = _compute_t(params)
    b = CircuitBuilder()
    starts = b.input("segment_start_pos")
    lengths = b.input("segment_length")
    coeffs = _widen(b, params, b.input("coefficients"))
    ends = b.add_cols(_INT, starts, lengths)
    n = b.last_element(_INT, b.concat(_INT, b.scalar(_INT, 0), ends))
    idx = b.iota(n)
    seg = run_index_wires(b, starts, n)
    seg_start = b.cast(_INT, ct, b.gather(_INT, seg, starts))
    acc = _segment_poly_tail(b, params, idx, seg, seg_start, coeffs, n)
    b.result("col", _narrow_out(b, params, acc))
    return b.build()


def _spline_generalized_verify(params, cols):
    starts = cols["segment_start_pos"].values
    lengths = cols["segment_length"].values
    k = len(_basis_degrees(params))
    return len(cols["coefficients"]) == k * len(starts) and _tiled(starts, lengths) and min(lengths, default=1) >= 1


def _fit_segment(params, values):
    degrees = _basis_degrees(params)
    if _is_float(params):
        coeffs = _fit_poly_float(values, degrees)
    else:
        coeffs = _fit_poly_int(values, degrees)
    if coeffs is None:
        return None
    if _eval_basis(params, coeffs, len(values)) != list(values):
        return None
    return coeffs


def _fit_segments(params, values, segments) -> list:
    """The coefficients of each consecutive segment's exact fit, in segment order."""
    coeffs = []
    at = 0
    for l in segments:
        seg_coeffs = _fit_segment(params, values[at : at + l])
        if seg_coeffs is None:
            raise NotEncodable(f"segment at {at} does not follow the basis")
        coeffs.extend(seg_coeffs)
        at += l
    return coeffs


def _spline_generalized_encode(params, family):
    col = family["col"]
    segments = _segments_hint(params, len(col))
    return {
        "segment_start_pos": Column(INT, list(accumulate(segments, initial=0))[:-1]),
        "segment_length": Column(INT, segments),
        "coefficients": Column(_et(params), _fit_segments(params, col.values, segments)),
    }


register_scheme(
    "spline.generalized",
    {**_POLY, "segments": SEGMENTS},
    build_decoder=_spline_generalized_decoder,
    encode=_spline_generalized_encode,
    host_verify=_spline_generalized_verify,
)


def _knotted_decoder(params):
    ct = _compute_t(params)
    b = CircuitBuilder()
    if params.get("knots_float", False):
        if ct != "f64":
            raise NotEncodable("float knots require a float decoded type")
        knots = b.input("knots")
        m = b.sub_cols(_INT, b.length(knots, "f64"), b.scalar(_INT, 1))
        fstarts = b.gather("f64", b.iota(m), knots)
        # ceil(x) = -trunc(-x); the float-to-int cast truncates toward zero
        fzero = b.replicate("f64", b.scalar("f64", 0.0), m)
        neg_trunc = b.cast("f64", "i64", b.sub_cols("f64", fzero, fstarts))
        izero = b.replicate("i64", b.scalar("i64", 0), m)
        starts = b.cast("i64", _INT, b.sub_cols("i64", izero, neg_trunc))
        n = b.add_cols(_INT, b.cast("f64", _INT, b.last_element("f64", knots)), b.scalar(_INT, 1))
        idx = b.iota(n)
        seg = run_index_wires(b, starts, n)
        seg_start_ct = b.gather("f64", seg, fstarts)
    else:
        knots = b.input("knots")
        m = b.sub_cols(_INT, b.length(knots, _INT), b.scalar(_INT, 1))
        starts = b.gather(_INT, b.iota(m), knots)
        n = b.add_cols(_INT, b.last_element(_INT, knots), b.scalar(_INT, 1))
        idx = b.iota(n)
        seg = run_index_wires(b, starts, n)
        seg_start_ct = b.cast(_INT, ct, b.gather(_INT, seg, starts))
    coeffs = _widen(b, params, b.input("coefficients"))
    acc = _segment_poly_tail(b, params, idx, seg, seg_start_ct, coeffs, n)
    b.result("col", _narrow_out(b, params, acc))
    return b.build()


def _knotted_verify(params, cols):
    knots = cols["knots"].values
    k = len(_basis_degrees(params))
    if len(knots) < 2 or len(cols["coefficients"]) != k * (len(knots) - 1):
        return False
    floats = params.get("knots_float", False)
    if floats and not all(map(math.isfinite, knots)):
        return False  # neither ``int`` nor ``math.ceil`` takes an infinity or a NaN
    if knots[0] != 0 or not _increasing(knots):
        return False
    # float knots: the last is a whole number, and each knot interval holds an integer index
    return not floats or knots[-1] == int(knots[-1]) and _increasing([math.ceil(x) for x in knots[:-1]])


def _knotted_encode(params, family):
    col = family["col"]
    et = _et(params)
    n = len(col)
    if n < 2:
        # the knot convention (first 0, last n-1, strictly increasing)
        # cannot delimit a segment inside a shorter column
        raise NotEncodable("knotted splines need at least two elements")
    segments = _segments_hint(params, n)
    if len(segments) > 1 and segments[-1] < 2:
        # the last knot is n-1 and delimits an inclusive final segment, so a
        # singleton final segment would collide with the previous knot
        raise NotEncodable("the final knotted segment needs at least two elements")
    coeffs = _fit_segments(params, col.values, segments)
    knots = list(accumulate(segments, initial=0))
    knots[-1] = n - 1
    if params.get("knots_float", False):
        knots_col = Column(parse_type("f64"), [float(x) for x in knots])
    else:
        knots_col = Column(INT, knots)
    return {"knots": knots_col, "coefficients": Column(et, coeffs)}


register_scheme(
    "spline.knotted",
    {**_POLY, "knots_float": BOOL.optional(), "segments": SEGMENTS},
    build_decoder=_knotted_decoder,
    encode=_knotted_encode,
    host_verify=_knotted_verify,
)


def _equiknotted_decoder(params):
    ct = _compute_t(params)
    ell = params["interval_length"]
    b = CircuitBuilder()
    b.sink(b.input("interval_length"), _INT)
    n = b.input("length")
    coeffs = _widen(b, params, b.input("coefficients"))
    idx = b.iota(n)
    seg = b.ew("clip_by", {"type": _INT, "k": ell}, arguments=idx)
    seg_start_ct = b.cast(_INT, ct, b.ew("scale", {"type": _INT, "k": ell}, arguments=seg))
    acc = _segment_poly_tail(b, params, idx, seg, seg_start_ct, coeffs, n)
    b.result("col", _narrow_out(b, params, acc))
    return b.build()


def _equiknotted_verify(params, cols):
    ell = params["interval_length"]
    if not _holds(cols, "interval_length", ell) or len(cols["length"]) != 1:
        return False
    k = len(_basis_degrees(params))
    return len(cols["coefficients"]) == k * _segment_count(cols["length"][0], ell)


def _equiknotted_encode(params, family):
    col = family["col"]
    et = _et(params)
    ell = params["interval_length"]
    n = len(col)
    coeffs = _fit_segments(params, col.values, [min(ell, n - at) for at in range(0, n, ell)])
    return {
        "interval_length": scalar_column(INT, ell),
        "length": scalar_column(INT, n),
        "coefficients": Column(et, coeffs),
    }


def _equiknotted_fit_additive(params, col):
    ell = params["interval_length"]
    base = []
    for at in range(0, len(col), ell):
        seg = list(col.values[at : at + ell])
        if _is_float(params):
            coeffs = _fit_least_squares(seg, _basis_degrees(params))
            base.extend(_eval_basis(params, coeffs, len(seg)))
        else:
            _, seg_base = _shifted_int_fit(params, seg)
            base.extend(seg_base)
    return Column(_et(params), base)


register_scheme(
    "spline.equiknotted",
    {**_POLY, "interval_length": POSITIVE},
    build_decoder=_equiknotted_decoder,
    encode=_equiknotted_encode,
    host_verify=_equiknotted_verify,
    encoded_lengths=lambda p, n: {
        "interval_length": 1,
        "length": 1,
        "coefficients": len(_basis_degrees(p)) * _segment_count(n, p["interval_length"]),
    },
    fit_additive=_equiknotted_fit_additive,
)


def _for_decoder(params):
    ct = _compute_t(params)
    off_t = params["offset_type"]
    ell = params["segment_length"]
    b = CircuitBuilder()
    b.sink(b.input("segment_length"), _INT)
    offsets = b.input("offsets")
    reference = _widen(b, params, b.input("reference"))
    n = b.length(offsets, off_t)
    seg = b.ew("clip_by", {"type": _INT, "k": ell}, arguments=b.iota(n))
    ref_i = b.gather(ct, seg, reference)
    up = b.cast(off_t, ct, offsets)
    b.result("col", _narrow_out(b, params, b.add_cols(ct, ref_i, up)))
    return b.build()


def _for_verify(params, cols):
    ell = params["segment_length"]
    n = len(cols["offsets"])
    return _holds(cols, "segment_length", ell) and len(cols["reference"]) == _segment_count(n, ell)


def _for_encode(params, family):
    col = family["col"]
    et = _et(params)
    off_et = _et(params, "offset_type")
    ell = params["segment_length"]
    refs, offs = [], []
    for at in range(0, len(col), ell):
        seg = col.values[at : at + ell]
        ref = min(seg)
        refs.append(ref)
        offs.extend(map(sub, seg, repeat(ref, len(seg))))
    return {
        "segment_length": scalar_column(INT, ell),
        "reference": Column(et, refs),
        "offsets": Column(off_et, offs),
    }


register_scheme(
    "for",
    {"type": TYPE, "offset_type": TYPE, "segment_length": POSITIVE},
    build_decoder=_for_decoder,
    encode=_for_encode,
    host_verify=_for_verify,
    encoded_lengths=lambda p, n: {
        "segment_length": 1,
        "reference": _segment_count(n, p["segment_length"]),
        "offsets": n,
    },
)


# -- compressed differences ---------------------------------------------------------------


def _naive_delta_decoder(params):
    t = params["type"]
    b = CircuitBuilder()
    base = b.cast(t, _WIDE, b.input("base"))
    delta = b.cast(params["delta_type"], _WIDE, b.input("delta"))
    ps = b.prefix(_WIDE, "add", delta)
    n = b.length(ps, _WIDE)
    basecol = b.replicate(_WIDE, base, n)
    b.result("col", b.cast(_WIDE, t, b.add_cols(_WIDE, basecol, ps)))
    return b.build()


def _naive_delta_encode(params, family):
    col = family["col"]
    et = _et(params)
    delta_et = _et(params, "delta_type")
    if not col.values:
        return {"base": scalar_column(et, et.zero()), "delta": Column(delta_et, [])}
    base = col.values[0]
    deltas = [0, *map(sub, col.values[1:], col.values)]
    return {"base": scalar_column(et, base), "delta": Column(delta_et, deltas)}


register_scheme(
    "delta.naive",
    {"type": TYPE, "delta_type": TYPE},
    build_decoder=_naive_delta_decoder,
    encode=_naive_delta_encode,
    host_verify=lambda p, cols: len(cols["base"]) == 1,
    encoded_lengths=lambda p, n: {"base": 1, "delta": n},
)


_DELTA = {"type": TYPE, "delta_type": TYPE, "segment_length": POSITIVE}


def _delta_decoder(params, patched=False):
    """Segmented integration of the deltas in i64; ``patched`` scatters ``patch_data`` over them first."""
    t = params["type"]
    ell = params["segment_length"]
    b = CircuitBuilder()
    b.sink(b.input("segment_length"), _INT)
    delta = b.input("delta")
    n = b.length(delta, params["delta_type"])
    widened = b.cast(params["delta_type"], _WIDE, delta)
    if patched:
        widened = b.scatter(_WIDE, widened, b.input("patch_pos"), b.input("patch_data"))
    ps = b.prefix(_WIDE, "add", widened)
    ps0 = b.concat(_WIDE, b.scalar(_WIDE, 0), ps)
    idx = b.iota(n)
    ip1 = b.add_cols(_INT, idx, b.replicate(_INT, b.scalar(_INT, 1), n))
    upto_i = b.gather(_WIDE, ip1, ps0)
    seg = b.ew("clip_by", {"type": _INT, "k": ell}, arguments=idx)
    seg_floor = b.ew("scale", {"type": _INT, "k": ell}, arguments=seg)
    before_seg = b.gather(_WIDE, seg_floor, ps0)
    within = b.sub_cols(_WIDE, upto_i, before_seg)
    base_w = b.gather(_WIDE, seg, b.cast(t, _WIDE, b.input("base")))
    b.result("col", b.cast(_WIDE, t, b.add_cols(_WIDE, base_w, within)))
    return b.build()


def _delta_verify(params, cols):
    ell = params["segment_length"]
    n = len(cols["delta"])
    return _holds(cols, "segment_length", ell) and len(cols["base"]) == _segment_count(n, ell)


def _delta_encode_parts(params, col):
    ell = params["segment_length"]
    bases, deltas = [], []
    for at in range(0, len(col), ell):
        seg = col.values[at : at + ell]
        bases.append(seg[0])
        deltas.append(0)
        deltas.extend(map(sub, seg[1:], seg))
    return bases, deltas


def _delta_encode(params, family):
    col = family["col"]
    et = _et(params)
    delta_et = _et(params, "delta_type")
    bases, deltas = _delta_encode_parts(params, col)
    return {
        "segment_length": scalar_column(INT, params["segment_length"]),
        "base": Column(et, bases),
        "delta": Column(delta_et, deltas),
    }


register_scheme(
    "delta",
    _DELTA,
    build_decoder=_delta_decoder,
    encode=_delta_encode,
    host_verify=_delta_verify,
    encoded_lengths=lambda p, n: {
        "segment_length": 1,
        "base": _segment_count(n, p["segment_length"]),
        "delta": n,
    },
)


def _patched_delta_verify(params, cols):
    pos = cols["patch_pos"].values
    return _delta_verify(params, cols) and len(pos) == len(cols["patch_data"]) and _positions(pos, len(cols["delta"]))


def _patched_delta_encode(params, family):
    col = family["col"]
    et = _et(params)
    delta_et = _et(params, "delta_type")
    bases, deltas = _delta_encode_parts(params, col)
    patch_pos, patch_data, stored = [], [], []
    for i, d in enumerate(deltas):
        if delta_et.contains(d):
            stored.append(d)
        else:
            patch_pos.append(i)
            patch_data.append(d)
            stored.append(0)
    return {
        "segment_length": scalar_column(INT, params["segment_length"]),
        "base": Column(et, bases),
        "delta": Column(delta_et, stored),
        "patch_pos": Column(INT, patch_pos),
        "patch_data": Column(parse_type(_WIDE), patch_data),
    }


register_scheme(
    "delta.patched",
    _DELTA,
    build_decoder=lambda p: _delta_decoder(p, patched=True),
    encode=_patched_delta_encode,
    host_verify=_patched_delta_verify,
)


# -- segment dictionaries ------------------------------------------------------------------


_SEGDICT = {"type": TYPE, "segment_length": POSITIVE, "dict_size": PARTS}  # padding per segment


def _segdict_decoder(params, two_level=False):
    t = params["type"]
    ell = params["segment_length"]
    d = params["dict_size"]
    entry_t = _INT if two_level else t
    b = CircuitBuilder()
    b.sink(b.input("segment_length"), _INT)
    entries = b.input("dictionary_entries")
    indices = b.input("indices")
    n = b.length(indices, _INT)
    seg = b.ew("clip_by", {"type": _INT, "k": ell}, arguments=b.iota(n))
    slot = b.add_cols(_INT, indices, b.ew("scale", {"type": _INT, "k": d}, arguments=seg))
    codes = b.gather(entry_t, slot, entries)
    if two_level:
        b.result("col", b.gather(t, codes, b.input("global_dictionary")))
    else:
        b.result("col", codes)
    return b.build()


def _segdict_verify(params, cols, two_level=False):
    ell = params["segment_length"]
    d = params["dict_size"]
    if not _holds(cols, "segment_length", ell) or not _col_below(cols["indices"], d):
        return False
    entries = cols["dictionary_entries"]
    if len(entries) != d * _segment_count(len(cols["indices"]), ell):
        return False
    return not two_level or _col_below(entries, len(cols["global_dictionary"]))


def _segdict_encode_entries(params, values, code_of, filler):
    ell = params["segment_length"]
    d = params["dict_size"]
    entries, indices = [], []
    for at in range(0, len(values), ell):
        seg = values[at : at + ell]
        local = list(dict.fromkeys(seg))
        if len(local) > d:
            raise NotEncodable(
                f"segment at {at} has {len(local)} distinct values, dictionary holds {d}"
            )
        padded = local + _padding(local[0] if local else filler, d - len(local))
        index_of = {v: i for i, v in enumerate(local)}
        entries.extend(code_of(v) for v in padded)
        indices.extend(index_of[v] for v in seg)
    return entries, indices


def _segdict_encode(params, family):
    col = family["col"]
    et = _et(params)
    entries, indices = _segdict_encode_entries(params, list(col.values), lambda v: v, et.zero())
    return {
        "segment_length": scalar_column(INT, params["segment_length"]),
        "dictionary_entries": Column(et, entries),
        "indices": Column(INT, indices),
    }


register_scheme(
    "segdict",
    _SEGDICT,
    build_decoder=lambda p: _segdict_decoder(p, two_level=False),
    encode=_segdict_encode,
    host_verify=lambda p, cols: _segdict_verify(p, cols, two_level=False),
)


def _segdict2_encode(params, family):
    col = family["col"]
    et = _et(params)
    global_entries = list(dict.fromkeys(col.values))
    code = {v: i for i, v in enumerate(global_entries)}
    if not global_entries:
        global_entries = [et.zero()]
    entries, indices = _segdict_encode_entries(params, list(col.values), lambda v: code[v], None)
    return {
        "segment_length": scalar_column(INT, params["segment_length"]),
        "dictionary_entries": Column(INT, entries),
        "indices": Column(INT, indices),
        "global_dictionary": Column(et, global_entries),
    }


register_scheme(
    "segdict.two_level",
    _SEGDICT,
    build_decoder=lambda p: _segdict_decoder(p, two_level=True),
    encode=_segdict2_encode,
    host_verify=lambda p, cols: _segdict_verify(p, cols, two_level=True),
)


# -- frequency-skew schemes -----------------------------------------------------------------


def _cascade_decoder(params):
    t = params["type"]
    bits = params["bits"]
    b = CircuitBuilder()
    idx1_t = str(ElementType.unsigned(bits[0]))
    first = b.input("indices_1")
    n = b.length(first, idx1_t)
    residual = b.iota(n)
    out = b.replicate(t, b.scalar(t, _et(params).zero()), n)
    for i, b_i in enumerate(bits):
        it = str(ElementType.unsigned(b_i))
        codes = first if i == 0 else b.input(f"indices_{i + 1}")
        codes_w = b.cast(it, _INT, codes)
        covered = b.ew("const_compare", {"type": _INT, "cmp": "ne", "value": 0}, arguments=codes_w)
        pos_i = b.add("select", {"type": _INT}, data=residual, selection=covered)
        sel_codes = b.add("select", {"type": _INT}, data=codes_w, selection=covered)
        data_i = b.gather(t, sel_codes, b.input(f"dictionary_{i + 1}"))
        out = b.scatter(t, out, pos_i, data_i)
        residual = b.add(
            "select", {"type": _INT}, data=residual, selection=b.ew("not", {}, arguments=covered)
        )
    b.result("col", out)
    return b.build()


def _cascade_verify(params, cols):
    bits = params["bits"]
    remaining = len(cols["indices_1"])
    for i, b_i in enumerate(bits):
        dictionary = cols[f"dictionary_{i + 1}"]
        indices = cols[f"indices_{i + 1}"]
        if not 1 <= len(dictionary) <= (1 << b_i):
            return False
        if len(indices) != remaining:
            return False
        if not _col_below(indices, len(dictionary)):
            return False
        remaining = indices.values.count(0)
    return remaining == 0


def _cascade_encode(params, family):
    col = family["col"]
    et = _et(params)
    bits = params["bits"]
    freq = Counter(col.values)
    ranked = [v for v, _ in sorted(freq.items(), key=lambda kv: (-kv[1], repr(kv[0])))]
    level_of = {}
    at = 0
    for i, b_i in enumerate(bits):
        room = (1 << b_i) - 1
        for v in ranked[at : at + room]:
            level_of[v] = i
        at += room
    if len(ranked) > at:
        raise NotEncodable(f"support of {len(ranked)} values exceeds cascade capacity {at}")
    columns = {}
    residual = list(col.values)
    for i, b_i in enumerate(bits):
        mine = [v for v in ranked if level_of.get(v) == i]
        entries = [et.zero()] + mine
        code = {v: j + 1 for j, v in enumerate(mine)}
        idx_et = ElementType.unsigned(b_i)
        columns[f"dictionary_{i + 1}"] = Column(et, entries)
        columns[f"indices_{i + 1}"] = Column(idx_et, [code.get(v, 0) for v in residual])
        residual = [v for v in residual if v not in code]
    return columns


register_scheme(
    "cascade",
    {"type": TYPE, "bits": WIDTHS},
    build_decoder=_cascade_decoder,
    encode=_cascade_encode,
    host_verify=_cascade_verify,
)


def _subdict_decoder(params):
    t = params["type"]
    it = str(ElementType.unsigned(params.get("bits", 16)))
    b = CircuitBuilder()
    indices = b.cast(it, _INT, b.input("indices"))
    zero_mask = b.ew("const_compare", {"type": _INT, "cmp": "eq", "value": 0}, arguments=indices)
    pos_z = b.add("select_indices", {}, characteristic=zero_mask)
    base = b.gather(t, indices, b.input("dictionary"))
    b.result("col", b.scatter(t, base, pos_z, b.input("residual_data")))
    return b.build()


def _subdict_verify(params, cols):
    d = len(cols["dictionary"])
    indices = cols["indices"]
    return d >= 1 and _col_below(indices, d) and len(cols["residual_data"]) == indices.values.count(0)


def _subdict_encode(params, family):
    col = family["col"]
    et = _et(params)
    bits = params.get("bits", 16)
    room = (1 << bits) - 1
    freq = Counter(col.values)
    ranked = [v for v, _ in sorted(freq.items(), key=lambda kv: (-kv[1], repr(kv[0])))][:room]
    code = {v: j + 1 for j, v in enumerate(ranked)}
    entries = [et.zero()] + ranked
    idx_et = ElementType.unsigned(bits)
    return {
        "dictionary": Column(et, entries),
        "indices": Column(idx_et, [code.get(v, 0) for v in col.values]),
        "residual_data": Column(et, [v for v in col.values if v not in code]),
    }


register_scheme(
    "subdict",
    {"type": TYPE, "bits": WIDTH.optional()},
    build_decoder=_subdict_decoder,
    encode=_subdict_encode,
    host_verify=_subdict_verify,
)


# -- index-subset compression -----------------------------------------------------------------


def _cp_types(params):
    w, p = params["w"], params["p"]
    if p >= w:
        raise NotEncodable(f"idx.common_prefix needs a prefix narrower than the width, not p={p} w={w}")
    return ElementType.unsigned(p), ElementType.unsigned(w - p)


def _prefix_groups(b: CircuitBuilder, pre_t, suf_t, shift) -> Wire:
    """The elements of the ``prefix`` groups: each ``suffix`` plus its group's prefix shifted up
    ``shift`` bits, the groups sized by ``suffix_count``."""
    prefix = b.cast(pre_t, _INT, b.input("prefix"))
    counts = b.cast(suf_t, _INT, b.input("suffix_count"))
    suffix = b.cast(suf_t, _INT, b.input("suffix"))
    starts = b.prefix(_INT, "add", counts, mode="exclusive")
    group = run_index_wires(b, starts, b.total(_INT, counts))
    shifted = b.ew("scale", {"type": _INT, "k": 1 << shift}, arguments=b.gather(_INT, group, prefix))
    return b.add_cols(_INT, shifted, suffix)


def _common_prefix_decoder(params):
    w, p = params["w"], params["p"]
    pre_t, suf_t = (str(t) for t in _cp_types(params))
    b = CircuitBuilder()
    elements = _prefix_groups(b, pre_t, suf_t, w - p)
    b.result("full_length", b.scalar(_INT, 1 << w))
    b.result("elements", elements)
    return b.build()


def _common_prefix_verify(params, cols):
    prefixes = cols["prefix"].values
    counts = cols["suffix_count"].values
    suffixes = cols["suffix"].values
    if len(prefixes) != len(counts) or not _increasing(prefixes):
        return False
    if min(counts, default=1) < 1 or sum(counts) != len(suffixes):
        return False
    return all(_increasing(suffixes[at : at + c]) for at, c in zip(accumulate(counts, initial=0), counts))


def _common_prefix_groups(params, family):
    w, p = params["w"], params["p"]
    n_full = family["full_length"].scalar()
    if n_full != 1 << w:
        raise NotEncodable(f"scheme covers index sets over exactly 2^{w} = {1 << w}")
    elements = sorted(family["elements"].values)
    if not _is_distinct(elements):
        raise NotEncodable("index set elements must be distinct")
    shift = w - p
    groups = {}
    for e in elements:
        if e >> w:
            raise NotEncodable(f"element {e} exceeds {w} bits")
        groups.setdefault(e >> shift, []).append(e & ((1 << shift) - 1))
    return groups


def _common_prefix_encode(params, family):
    pre_et, suf_et = _cp_types(params)
    groups = _common_prefix_groups(params, family)
    prefixes, counts, suffixes = [], [], []
    for g in sorted(groups):
        members = groups[g]
        prefixes.append(g)
        counts.append(len(members))
        suffixes.extend(members)
    return {
        "prefix": Column(pre_et, prefixes),
        "suffix_count": Column(suf_et, counts),
        "suffix": Column(suf_et, suffixes),
    }


register_scheme(
    "idx.common_prefix",
    {"w": WIDTH, "p": WIDTH},
    build_decoder=_common_prefix_decoder,
    encode=_common_prefix_encode,
    host_verify=_common_prefix_verify,
    equivalent=indexset_equivalent,
)


def _common_upper_half_decoder(params):
    w = params["w"]
    half = w // 2
    naive_t = str(ElementType.unsigned(w))
    half_t = str(ElementType.unsigned(half))
    b = CircuitBuilder()
    naive = b.cast(naive_t, _INT, b.input("naive"))
    elements = b.concat(_INT, naive, _prefix_groups(b, half_t, half_t, half))
    b.result("full_length", b.scalar(_INT, 1 << w))
    b.result("elements", elements)
    return b.build()


def _common_upper_half_verify(params, cols):
    w = params["w"]
    if not _common_prefix_verify(params, cols):
        return False
    naive_blocks = [e >> w // 2 for e in cols["naive"].values]
    # no two naive elements, and no naive element and group, share a block
    return _is_distinct(naive_blocks) and not (set(naive_blocks) & set(cols["prefix"].values))


def _common_upper_half_encode(params, family):
    w = params["w"]
    half = w // 2
    groups = _common_prefix_groups({"w": w, "p": half}, family)
    naive, prefixes, counts, suffixes = [], [], [], []
    for g in sorted(groups):
        members = groups[g]
        if len(members) == 1:
            naive.append((g << half) | members[0])
        else:
            prefixes.append(g)
            counts.append(len(members))
            suffixes.extend(members)
    he = ElementType.unsigned(half)
    return {
        "naive": Column(ElementType.unsigned(w), naive),
        "prefix": Column(he, prefixes),
        "suffix_count": Column(he, counts),
        "suffix": Column(he, suffixes),
    }


register_scheme(
    "idx.common_upper_half",
    {"w": EVEN_WIDTH},
    build_decoder=_common_upper_half_decoder,
    encode=_common_upper_half_encode,
    host_verify=_common_upper_half_verify,
    equivalent=indexset_equivalent,
)


# -- variable-width compression -----------------------------------------------------------------


def _pvw_decoder(params):
    t = params["type"]
    period = params["period"]
    b = CircuitBuilder()
    b.sink(b.input("period"), _INT)
    widths = b.input("widths")
    length = b.input("length")
    data = b.input("data")
    idx = b.iota(length)
    group = b.ew("clip_by", {"type": _INT, "k": period}, arguments=idx)
    lengths = b.gather(_INT, group, widths)
    group_base = b.ew(
        "scale", {"type": _INT, "k": period}, arguments=b.prefix(_INT, "add", widths, mode="exclusive")
    )
    base = b.gather(_INT, group, group_base)
    within = b.sub_cols(_INT, idx, b.ew("scale", {"type": _INT, "k": period}, arguments=group))
    offset = b.ew("mul", {"type": _INT}, lhs=within, rhs=lengths)
    src_starts = b.add_cols(_INT, base, offset)
    out_starts, out_data = expand_ranges(b, t, src_starts, lengths, data)
    b.result("start_position", out_starts)
    b.result("length", lengths)
    b.result("data", out_data)
    return b.build()


def _pvw_verify(params, cols):
    period = params["period"]
    if not _holds(cols, "period", period) or len(cols["length"]) != 1:
        return False
    widths = cols["widths"].values
    return len(widths) == _segment_count(cols["length"][0], period) and len(cols["data"]) == period * sum(widths)


def padded_varwidth_equivalent(params, a, b):
    """Element equality up to trailing zero padding.

    Widths are shaped per group by padding elements with the base type's
    zero, so the original trailing zeros are not recoverable by design.
    """
    if a["data"].element_type != b["data"].element_type:
        return False
    zero = a["data"].element_type.zero()

    def strip(elements):
        out = []
        for e in elements:
            i = len(e)
            while i and e[i - 1] == zero:
                i -= 1
            out.append(e[:i])
        return out

    return strip(varwidth_elements(a)) == strip(varwidth_elements(b))


def _pvw_encode(params, family):
    period = params["period"]
    elements = varwidth_elements(family)
    base_et = family["data"].element_type
    filler = base_et.zero()
    widths, data = [], []
    for at in range(0, len(elements), period):
        group = elements[at : at + period]
        width = max((len(e) for e in group), default=0)
        widths.append(width)
        for e in group:
            data.extend(e)
            data.extend([filler] * (width - len(e)))
        data.extend(_padding(filler, width * (period - len(group))))
    return {
        "period": scalar_column(INT, period),
        "widths": Column(INT, widths),
        "length": scalar_column(INT, len(elements)),
        "data": Column(base_et, data),
    }


register_scheme(
    "pvw",
    {"type": TYPE, "period": PARTS},  # padding per group
    build_decoder=_pvw_decoder,
    encode=_pvw_encode,
    host_verify=_pvw_verify,
    equivalent=padded_varwidth_equivalent,
)


def _vwdict_decoder(params):
    t = params["type"]
    b = CircuitBuilder()
    indices = b.input("indices")
    entry_starts = b.input("entry_start_positions")
    entry_lengths = b.input("entry_lengths")
    data = b.input("entry_data")
    lengths = b.gather(_INT, indices, entry_lengths)
    src_starts = b.gather(_INT, indices, entry_starts)
    out_starts, out_data = expand_ranges(b, t, src_starts, lengths, data)
    b.result("start_position", out_starts)
    b.result("length", lengths)
    b.result("data", out_data)
    return b.build()


def _vwdict_entries(cols):
    starts = cols["entry_start_positions"].values
    lengths = cols["entry_lengths"].values
    data = cols["entry_data"].values
    return [tuple(data[s : s + l]) for s, l in zip(starts, lengths)]


def _vwdict_verify_base(params, cols):
    m = len(cols["entry_start_positions"])
    if len(cols["entry_lengths"]) != m:
        return False
    if not _ranges_within(cols["entry_start_positions"].values, cols["entry_lengths"].values, len(cols["entry_data"])):
        return False
    return _col_below(cols["indices"], m)


def _vwdict_verify_unique(params, cols):
    return _vwdict_verify_base(params, cols) and _is_distinct(_vwdict_entries(cols))


def _vwdict_verify_monotone(params, cols):
    return _vwdict_verify_unique(params, cols) and _increasing(_vwdict_entries(cols))


def _vwdict_encode_factory(variant):
    def encode(params, family):
        elements = varwidth_elements(family)
        base_et = family["data"].element_type
        if variant == "monotone":
            entries = sorted(set(elements))
        else:
            entries = list(dict.fromkeys(elements))
        index_of = {e: i for i, e in enumerate(entries)}
        stored = canonical_varwidth(entries, base_et)
        return {
            "indices": Column(INT, list(map(index_of.__getitem__, elements))),
            "entry_start_positions": stored["start_position"],
            "entry_lengths": stored["length"],
            "entry_data": stored["data"],
        }

    return encode


for _variant, _vverify in (
    ("vwdict", _vwdict_verify_base),
    ("vwdict.unique", _vwdict_verify_unique),
    ("vwdict.monotone", _vwdict_verify_monotone),
):
    register_scheme(
        _variant,
        _TYPED,
        build_decoder=_vwdict_decoder,
        encode=_vwdict_encode_factory(_variant.rsplit(".", 1)[-1] if "." in _variant else "plain"),
        host_verify=_vverify,
        equivalent=varwidth_equivalent,
    )


# -- width-shaping analysis (periodic width setting) ------------------------------------------


def expected_width(p: float) -> float:
    """Mean of the geometric width distribution with minimum 1."""
    return 1.0 / p


def expected_max_width(p: float, k: int, tol: float = 1e-12) -> float:
    """Mean of the maximum of k independent geometric widths.

    Series over j >= 0 of 1 - (1 - (1-p)^j)^k, summed to convergence.
    """
    q = 1.0 - p
    total = 0.0
    j = 0
    while True:
        term = 1.0 - (1.0 - q**j) ** k
        total += term
        if j > 0 and term < tol:
            return total
        j += 1
