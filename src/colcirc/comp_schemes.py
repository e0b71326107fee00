"""Compression codecs, all built from catalog operators.

Index-generated columns, support compaction (narrowing, dictionaries), run
encodings, splines and frame-of-reference, compressed differences, segment
and cascaded dictionaries, index-subset compression, and variable-width
forms.  Integer decode pipelines accumulate in i64, so unsigned inputs are
supported up to 63 bits of magnitude.
"""

from __future__ import annotations

import operator
from collections import Counter
from itertools import repeat

from .builder import CircuitBuilder, Wire, expand_ranges, run_index_wires
from .codec import CodecEntry, register_codec
from .column import Column, scalar_column
from .errors import NotEncodable
from .rep_schemes import (
    _et,
    _is_distinct,
    _t,
    indexset_equivalent,
    varwidth_elements,
    varwidth_equivalent,
)
from .types import INT, ElementType, Kind, parse_type

_INT = str(INT)
_WIDE = "i64"


def _int_t(params):
    return str(params.get("int_type", _INT))


def _int_et(params):
    return parse_type(_int_t(params))


def _fits(et: ElementType, value) -> bool:
    if et.kind is Kind.FLOAT:
        return et.contains(float(value))
    lo, hi = et.bounds()
    return lo <= value <= hi


def _checked_narrow(et: ElementType, values, what):
    values = list(values)
    if values and et.kind is not Kind.FLOAT:
        # one pass settles an integer target; a float among the values could
        # be a NaN, which min/max can skip, so that takes the loop below
        lo, hi = et.bounds()
        if lo <= min(values) and max(values) <= hi and float not in map(type, values):
            return values
    for i, v in enumerate(values):
        if not _fits(et, v):
            raise NotEncodable(f"{what}: value {v} at index {i} does not fit {et}")
    return values


def _is_float(params) -> bool:
    return _et(params).kind is Kind.FLOAT


def _compute_t(params) -> str:
    return str(_et(params)) if _is_float(params) else _WIDE


def _widen(b: CircuitBuilder, params, wire, src_t=None) -> Wire:
    return b.cast(src_t or _t(params), _compute_t(params), wire)


def _narrow_out(b: CircuitBuilder, params, wire) -> Wire:
    return b.cast(_compute_t(params), _t(params), wire)


# -- generated columns ------------------------------------------------------------


def _basis_degrees(params):
    basis = params.get("basis")
    if basis is None:
        basis = list(range(int(params["degree"]) + 1))
    return [int(d) for d in basis]


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
    return len(cols["length"]) == 1 and len(cols["coefficients"]) == len(_basis_degrees(params))


def _eval_basis(params, coeffs, n):
    # one degree at a time, each term added in the order ``sum(c * i**d for
    # c, d in ...)`` would add it, so float results are the same bits
    values = [0] * n
    for c, d in zip(coeffs, _basis_degrees(params)):
        terms = map(operator.mul, repeat(c, n), map(pow, range(n), repeat(d, n)))
        values = list(map(operator.add, values, terms))
    return values


def _generated_encode(params, family):
    col = family["col"]
    et = _et(params)
    degrees = _basis_degrees(params)
    n = len(col)
    if _is_float(params):
        coeffs = _fit_poly_float(col.values, degrees)
    else:
        coeffs = _fit_poly_int(col.values, degrees)
    if coeffs is None or _eval_basis(params, coeffs, n) != list(col.values):
        raise NotEncodable("column is not generated by the basis")
    coeffs = _checked_narrow(et, coeffs, "coefficient")
    return {"length": scalar_column(INT, n), "coefficients": Column(et, coeffs)}


def _fit_poly_int(values, degrees):
    from fractions import Fraction

    k = len(degrees)
    n = len(values)
    if n == 0:
        return [0] * k
    # under-determined fits interpolate on a basis prefix, zero-padding the rest
    use = degrees[: min(n, k)]
    rows = [[Fraction(i**d) for d in use] for i in range(len(use))]
    rhs = [Fraction(v) for v in values[: len(use)]]
    coeffs = _solve_exact(rows, rhs)
    if coeffs is None or any(c.denominator != 1 for c in coeffs):
        return None
    return [int(c) for c in coeffs] + [0] * (k - len(use))


def _fit_poly_float(values, degrees):
    k = len(degrees)
    n = len(values)
    if n == 0:
        return [0.0] * k
    use = degrees[: min(n, k)]
    rows = [[float(i**d) for d in use] for i in range(len(use))]
    coeffs = _solve_exact(rows, list(values[: len(use)]))
    return None if coeffs is None else [float(c) for c in coeffs] + [0.0] * (k - len(use))


def _solve_exact(rows, rhs):
    """Gaussian elimination in the entries' field; None when singular."""
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
        worst = min(v - m for v, m in zip(values, base))
        j = degrees.index(0)
        if worst < 0 and lo <= coeffs[j] + worst <= hi:
            coeffs[j] += worst
            base = [m + worst for m in base]
    if any(not lo <= m <= hi for m in base):
        raise NotEncodable("fitted model leaves the decoded type's domain")
    return coeffs, base


def _generated_fit_additive(params, col):
    if _is_float(params):
        coeffs = _fit_float_least_squares(list(col.values), _basis_degrees(params))
        base = _eval_basis(params, coeffs, len(col))
    else:
        _, base = _shifted_int_fit(params, list(col.values))
    return Column(_et(params), base)


def _register_generated(scheme_id, normalize=None):
    register_codec(
        CodecEntry(
            scheme_id,
            build_decoder=_generated_decoder,
            encode=_generated_encode,
            host_verify=_generated_verify,
            normalize_params=normalize,
            encoded_lengths=lambda p, n: {"length": 1, "coefficients": len(_basis_degrees(p))},
            fit_additive=_generated_fit_additive,
        )
    )


_register_generated("generated")
_register_generated(
    "generated.poly",
    normalize=lambda p: dict(
        {k: v for k, v in p.items() if k != "degree"},
        basis=list(range(int(p["degree"]) + 1)) if "degree" in p else p.get("basis", [0]),
    ),
)


def _constant_decoder(params):
    t = _t(params)
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
    int_et = _int_et(params)
    if not _fits(int_et, len(col)):
        raise NotEncodable(f"length {len(col)} does not fit {int_et}")
    return {"value": scalar_column(et, value), "length": scalar_column(int_et, len(col))}


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


register_codec(
    CodecEntry(
        "constant",
        build_decoder=_constant_decoder,
        encode=_constant_encode,
        host_verify=lambda p, cols: len(cols["value"]) == 1 and len(cols["length"]) == 1,
        encoded_lengths=lambda p, n: {"value": 1, "length": 1},
        fit=_constant_fit,
        fit_additive=_constant_fit_additive,
    )
)


def _noise_t(params):
    return str(params["noise_type"])


def _noisy_decoder(params):
    ct = _compute_t(params)
    b = CircuitBuilder()
    noise = b.input("noise")
    coeffs = _widen(b, params, b.input("coefficients"))
    n = b.length(noise, _noise_t(params))
    idx = b.iota(n)
    rel = b.cast(_INT, ct, idx)

    def coeff_of(j):
        cj = b.gather(ct, b.scalar(_INT, j), coeffs)
        return b.replicate(ct, cj, n)

    gen = _poly_eval_wires(b, params, rel, coeff_of, n)
    up = b.cast(_noise_t(params), ct, noise)
    b.result("col", _narrow_out(b, params, b.add_cols(ct, gen, up)))
    return b.build()


def _noisy_encode(params, family):
    col = family["col"]
    et = _et(params)
    noise_et = parse_type(_noise_t(params))
    degrees = _basis_degrees(params)
    if _is_float(params):
        coeffs = _fit_float_least_squares(list(col.values), degrees)
    else:
        coeffs = _fit_int_least_squares(col.values, degrees)
        lo, hi = et.bounds()
        coeffs = [min(max(c, lo), hi) for c in coeffs]  # the noise absorbs the clamping
    base = _eval_basis(params, coeffs, len(col))
    noise = [v - g for v, g in zip(col.values, base)]
    noise = _checked_narrow(noise_et, noise, "noise residual")
    coeffs = _checked_narrow(et, coeffs, "coefficient")
    return {"coefficients": Column(et, coeffs), "noise": Column(noise_et, noise)}


def _fit_int_least_squares(values, degrees):
    coeffs = _fit_float_least_squares([float(v) for v in values], degrees)
    return [int(round(c)) for c in coeffs]


def _fit_float_least_squares(values, degrees):
    n = len(values)
    k = len(degrees)
    if n == 0:
        return [0.0] * k
    xs = [[float(i**d) for d in degrees] for i in range(n)]
    ata = [[sum(x[a] * x[c] for x in xs) for c in range(k)] for a in range(k)]
    atb = [sum(x[a] * v for x, v in zip(xs, values)) for a in range(k)]
    coeffs = _solve_exact(ata, atb)
    return [0.0] * k if coeffs is None else [float(c) for c in coeffs]


register_codec(
    CodecEntry(
        "noisy.generated",
        build_decoder=_noisy_decoder,
        encode=_noisy_encode,
        host_verify=lambda p, cols: len(cols["coefficients"]) == len(_basis_degrees(p)),
        encoded_lengths=lambda p, n: {"coefficients": len(_basis_degrees(p)), "noise": n},
    )
)


# -- support compaction ------------------------------------------------------------


def _narrow_t(params):
    return str(params["narrow_type"])


def _narrows(t: ElementType, narrow: ElementType) -> bool:
    """True if ``narrow`` is an integer type inside integer ``t``'s bounds, or a float narrower than float ``t``."""
    if t.is_integer and narrow.is_integer:
        (lo, hi), (narrow_lo, narrow_hi) = t.bounds(), narrow.bounds()
        return lo <= narrow_lo and narrow_hi <= hi
    return t.kind is Kind.FLOAT is narrow.kind and narrow.width_bits < t.width_bits


def _nullsup_decoder(params):
    t, narrow_t = _t(params), _narrow_t(params)
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
    narrow_et = parse_type(_narrow_t(params))
    vals = _checked_narrow(narrow_et, col.values, "narrowed value")
    return {"narrow": Column(narrow_et, vals)}


register_codec(
    CodecEntry(
        "nullsup",
        build_decoder=_nullsup_decoder,
        encode=_nullsup_encode,
        encoded_lengths=lambda p, n: {"narrow": n},
    )
)


def _dict_decoder(params):
    t = _t(params)
    b = CircuitBuilder()
    out = b.gather(t, b.input("indices"), b.input("dictionary"))
    b.result("col", out)
    return b.build()


def _dict_verify_base(params, cols):
    d = len(cols["dictionary"])
    return all(i < d for i in cols["indices"].values)


def _dict_verify_unique(params, cols):
    return _dict_verify_base(params, cols) and _is_distinct(cols["dictionary"].values)


def _dict_verify_monotone(params, cols):
    if not _dict_verify_unique(params, cols):
        return False
    vals = cols["dictionary"].values
    return all(a < b for a, b in zip(vals, vals[1:]))


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
            "indices": Column(INT, [index_of[v] for v in col.values]),
        }

    return encode


for _variant, _verifier in (
    ("dict", _dict_verify_base),
    ("dict.unique", _dict_verify_unique),
    ("dict.monotone", _dict_verify_monotone),
):
    register_codec(
        CodecEntry(
            _variant,
            build_decoder=_dict_decoder,
            encode=_dict_encode_factory(_variant.rsplit(".", 1)[-1] if "." in _variant else "plain"),
            host_verify=_verifier,
        )
    )


# -- run encodings -------------------------------------------------------------------


def _runs_of(values):
    runs = []
    for v in values:
        if runs and runs[-1][0] == v:
            runs[-1][1] += 1
        else:
            runs.append([v, 1])
    return runs


def _run_decode_tail(b, params, starts: Wire, overall: Wire, values: Wire) -> Wire:
    run_of = run_index_wires(b, starts, overall)
    return b.gather(_t(params), run_of, values)


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
    if len(starts) != len(lengths) or len(starts) != len(cols["value"]):
        return False
    if not starts:
        return True
    if starts[0] != 0 or any(l < 1 for l in lengths):
        return False
    return all(starts[i] == starts[i - 1] + lengths[i - 1] for i in range(1, len(starts)))


def _run_full_encode(params, family):
    col = family["col"]
    starts, lengths, values = [], [], []
    at = 0
    for v, l in _runs_of(col.values):
        starts.append(at)
        lengths.append(l)
        values.append(v)
        at += l
    return {
        "start_position": Column(INT, starts),
        "length": Column(INT, lengths),
        "value": Column(_et(params), values),
    }


register_codec(
    CodecEntry(
        "run.full",
        build_decoder=_run_full_decoder,
        encode=_run_full_encode,
        host_verify=_run_full_verify,
    )
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
    if starts[0] != 0 or any(a >= b for a, b in zip(starts, starts[1:])):
        return False
    return starts[-1] < overall


def _rpe_encode(params, family):
    col = family["col"]
    starts, values = [], []
    at = 0
    for v, l in _runs_of(col.values):
        starts.append(at)
        values.append(v)
        at += l
    return {
        "start_position": Column(INT, starts),
        "value": Column(_et(params), values),
        "overall_length": scalar_column(INT, len(col)),
    }


def rpe_encoder_circuit(params):
    """The run-position encoder circuit: run starts via IsSameAsPrevious."""
    t = _t(params)
    b = CircuitBuilder()
    col = b.input("col")
    same = b.add("is_same_as_previous", {"type": t}, col=col)
    boundary = b.ew("not", {}, arguments=same)
    starts = b.add("select_indices", {}, characteristic=boundary)
    b.result("start_position", starts)
    b.result("value", b.gather(t, starts, col))
    b.result("overall_length", b.length(col, t))
    return b.build()


register_codec(
    CodecEntry(
        "run.rpe",
        build_decoder=_rpe_decoder,
        encode=_rpe_encode,
        host_verify=_rpe_verify,
    )
)


def _rle_decoder(params):
    int_t = _int_t(params)
    b = CircuitBuilder()
    lengths = b.cast(int_t, _INT, b.input("length"))
    values = b.input("value")
    starts = b.prefix(_INT, "add", lengths, mode="exclusive")
    overall = b.total(_INT, lengths)
    b.result("col", _run_decode_tail(b, params, starts, overall, values))
    return b.build()


def _rle_verify(params, cols):
    lengths = cols["length"].values
    return len(lengths) == len(cols["value"]) and all(l >= 1 for l in lengths)


def _rle_encode(params, family):
    col = family["col"]
    int_et = _int_et(params)
    runs = _runs_of(col.values)
    lengths = _checked_narrow(int_et, [l for _, l in runs], "run length")
    return {
        "length": Column(int_et, lengths),
        "value": Column(_et(params), [v for v, _ in runs]),
    }


register_codec(
    CodecEntry(
        "run.rle",
        build_decoder=_rle_decoder,
        encode=_rle_encode,
        host_verify=_rle_verify,
    )
)


def _capped_rle_decoder(params):
    int_t = _int_t(params)
    b = CircuitBuilder()
    b.sink(b.input("cap"), _INT)
    lengths = b.cast(int_t, _INT, b.input("length"))
    values = b.input("value")
    starts = b.prefix(_INT, "add", lengths, mode="exclusive")
    overall = b.total(_INT, lengths)
    b.result("col", _run_decode_tail(b, params, starts, overall, values))
    return b.build()


def _capped_rle_verify(params, cols):
    r = int(params["cap"])
    if len(cols["cap"]) != 1 or cols["cap"][0] != r:
        return False
    lengths = cols["length"].values
    if len(lengths) != len(cols["value"]):
        return False
    return all(1 <= l <= r for l in lengths)


def _capped_rle_encode(params, family):
    col = family["col"]
    r = int(params["cap"])
    if r < 1:
        raise NotEncodable("cap must be positive")
    int_et = _int_et(params)
    lengths, values = [], []
    for v, l in _runs_of(col.values):
        while l > r:
            lengths.append(r)
            values.append(v)
            l -= r
        if l:
            lengths.append(l)
            values.append(v)
    lengths = _checked_narrow(int_et, lengths, "run length")
    return {
        "cap": scalar_column(INT, r),
        "length": Column(int_et, lengths),
        "value": Column(_et(params), values),
    }


register_codec(
    CodecEntry(
        "run.rle.capped",
        build_decoder=_capped_rle_decoder,
        encode=_capped_rle_encode,
        host_verify=_capped_rle_verify,
    )
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
    if len(starts) != len(lengths) or len(cols["coefficients"]) != k * len(starts):
        return False
    if not starts:
        return True
    if starts[0] != 0 or any(l < 1 for l in lengths):
        return False
    return all(starts[i] == starts[i - 1] + lengths[i - 1] for i in range(1, len(starts)))


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


def _spline_generalized_encode(params, family):
    col = family["col"]
    et = _et(params)
    segments = params.get("segments")
    n = len(col)
    if segments is None:
        segments = [n] if n else []
    if sum(segments) != n or any(l < 1 for l in segments):
        raise NotEncodable("segment lengths must be positive and cover the column")
    starts, coeffs = [], []
    at = 0
    for l in segments:
        seg_coeffs = _fit_segment(params, list(col.values[at : at + l]))
        if seg_coeffs is None:
            raise NotEncodable(f"segment at {at} does not follow the basis")
        starts.append(at)
        coeffs.extend(_checked_narrow(et, seg_coeffs, "coefficient"))
        at += l
    return {
        "segment_start_pos": Column(INT, starts),
        "segment_length": Column(INT, list(segments)),
        "coefficients": Column(et, coeffs),
    }


register_codec(
    CodecEntry(
        "spline.generalized",
        build_decoder=_spline_generalized_decoder,
        encode=_spline_generalized_encode,
        host_verify=_spline_generalized_verify,
        normalize_params=lambda p: {k: v for k, v in p.items() if k != "segments"},
    )
)


def _knots_float(params) -> bool:
    return bool(params.get("knots_float"))


def _knotted_decoder(params):
    ct = _compute_t(params)
    b = CircuitBuilder()
    if _knots_float(params):
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
    import math

    knots = cols["knots"].values
    k = len(_basis_degrees(params))
    if len(knots) < 2:
        return False
    if len(cols["coefficients"]) != k * (len(knots) - 1):
        return False
    if knots[0] != 0 or any(a >= b for a, b in zip(knots, knots[1:])):
        return False
    if _knots_float(params):
        if knots[-1] != int(knots[-1]):
            return False
        ceils = [math.ceil(x) for x in knots[:-1]]
        if any(a >= b for a, b in zip(ceils, ceils[1:])):
            return False  # a knot interval without any integer index
    return True


def _knotted_encode(params, family):
    col = family["col"]
    et = _et(params)
    n = len(col)
    if n < 2:
        # the knot convention (first 0, last n-1, strictly increasing)
        # cannot delimit a segment inside a shorter column
        raise NotEncodable("knotted splines need at least two elements")
    segments = params.get("segments", [n])
    if sum(segments) != n or any(l < 1 for l in segments):
        raise NotEncodable("segment lengths must be positive and cover the column")
    if len(segments) > 1 and segments[-1] < 2:
        # the last knot is n-1 and delimits an inclusive final segment, so a
        # singleton final segment would collide with the previous knot
        raise NotEncodable("the final knotted segment needs at least two elements")
    knots, coeffs = [0], []
    at = 0
    for l in segments:
        seg_coeffs = _fit_segment(params, list(col.values[at : at + l]))
        if seg_coeffs is None:
            raise NotEncodable(f"segment at {at} does not follow the basis")
        coeffs.extend(_checked_narrow(et, seg_coeffs, "coefficient"))
        at += l
        knots.append(min(at, n - 1))
    knots[-1] = n - 1
    if _knots_float(params):
        knots_col = Column(parse_type("f64"), [float(x) for x in knots])
    else:
        knots_col = Column(INT, knots)
    return {"knots": knots_col, "coefficients": Column(et, coeffs)}


register_codec(
    CodecEntry(
        "spline.knotted",
        build_decoder=_knotted_decoder,
        encode=_knotted_encode,
        host_verify=_knotted_verify,
        normalize_params=lambda p: {k: v for k, v in p.items() if k != "segments"},
    )
)


def _equiknotted_decoder(params):
    ct = _compute_t(params)
    ell = int(params["interval_length"])
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
    ell = int(params["interval_length"])
    if ell < 1 or len(cols["interval_length"]) != 1 or cols["interval_length"][0] != ell:
        return False
    if len(cols["length"]) != 1:
        return False
    n = cols["length"][0]
    k = len(_basis_degrees(params))
    return len(cols["coefficients"]) == k * -(-n // ell)


def _equiknotted_encode(params, family):
    col = family["col"]
    et = _et(params)
    ell = int(params["interval_length"])
    if ell < 1:
        raise NotEncodable("interval_length must be positive")
    coeffs = []
    n = len(col)
    for at in range(0, n, ell):
        seg_coeffs = _fit_segment(params, list(col.values[at : at + ell]))
        if seg_coeffs is None:
            raise NotEncodable(f"segment at {at} does not follow the basis")
        coeffs.extend(_checked_narrow(et, seg_coeffs, "coefficient"))
    return {
        "interval_length": scalar_column(INT, ell),
        "length": scalar_column(INT, n),
        "coefficients": Column(et, coeffs),
    }


def _equiknotted_fit_additive(params, col):
    ell = int(params["interval_length"])
    base = []
    for at in range(0, len(col), ell):
        seg = list(col.values[at : at + ell])
        if _is_float(params):
            coeffs = _fit_float_least_squares(seg, _basis_degrees(params))
            base.extend(_eval_basis(params, coeffs, len(seg)))
        else:
            _, seg_base = _shifted_int_fit(params, seg)
            base.extend(seg_base)
    return Column(_et(params), base)


register_codec(
    CodecEntry(
        "spline.equiknotted",
        build_decoder=_equiknotted_decoder,
        encode=_equiknotted_encode,
        host_verify=_equiknotted_verify,
        encoded_lengths=lambda p, n: {
            "interval_length": 1,
            "length": 1,
            "coefficients": len(_basis_degrees(p)) * -(-n // int(p["interval_length"])),
        },
        fit_additive=_equiknotted_fit_additive,
    )
)


def _offset_t(params):
    return str(params["offset_type"])


def _for_decoder(params):
    ct = _compute_t(params)
    off_t = _offset_t(params)
    ell = int(params["segment_length"])
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
    ell = int(params["segment_length"])
    if ell < 1 or len(cols["segment_length"]) != 1 or cols["segment_length"][0] != ell:
        return False
    n = len(cols["offsets"])
    return len(cols["reference"]) == -(-n // ell)


def _for_encode(params, family):
    col = family["col"]
    et = _et(params)
    off_et = parse_type(_offset_t(params))
    ell = int(params["segment_length"])
    refs, offs = [], []
    for at in range(0, len(col), ell):
        seg = col.values[at : at + ell]
        ref = min(seg)
        refs.append(ref)
        offs.extend(v - ref for v in seg)
    offs = _checked_narrow(off_et, offs, "offset")
    return {
        "segment_length": scalar_column(INT, ell),
        "reference": Column(et, refs),
        "offsets": Column(off_et, offs),
    }


register_codec(
    CodecEntry(
        "for",
        build_decoder=_for_decoder,
        encode=_for_encode,
        host_verify=_for_verify,
        encoded_lengths=lambda p, n: {
            "segment_length": 1,
            "reference": -(-n // int(p["segment_length"])),
            "offsets": n,
        },
    )
)


# -- compressed differences ---------------------------------------------------------------


def _delta_t(params):
    return str(params["delta_type"])


def _naive_delta_decoder(params):
    t = _t(params)
    b = CircuitBuilder()
    base = b.cast(t, _WIDE, b.input("base"))
    delta = b.cast(_delta_t(params), _WIDE, b.input("delta"))
    ps = b.prefix(_WIDE, "add", delta)
    n = b.length(ps, _WIDE)
    basecol = b.replicate(_WIDE, base, n)
    b.result("col", b.cast(_WIDE, t, b.add_cols(_WIDE, basecol, ps)))
    return b.build()


def _naive_delta_encode(params, family):
    col = family["col"]
    et = _et(params)
    delta_et = parse_type(_delta_t(params))
    if not col.values:
        return {"base": scalar_column(et, et.zero()), "delta": Column(delta_et, [])}
    base = col.values[0]
    deltas = [0] + [col.values[i + 1] - col.values[i] for i in range(len(col) - 1)]
    deltas = _checked_narrow(delta_et, deltas, "delta")
    return {"base": scalar_column(et, base), "delta": Column(delta_et, deltas)}


register_codec(
    CodecEntry(
        "delta.naive",
        build_decoder=_naive_delta_decoder,
        encode=_naive_delta_encode,
        host_verify=lambda p, cols: len(cols["base"]) == 1,
        encoded_lengths=lambda p, n: {"base": 1, "delta": n},
    )
)


def _delta_pipeline(b, params, widened: Wire, base, n: Wire) -> Wire:
    """Segmented integration over an i64 delta column."""
    t = _t(params)
    ell = int(params["segment_length"])
    ps = b.prefix(_WIDE, "add", widened)
    ps0 = b.concat(_WIDE, b.scalar(_WIDE, 0), ps)
    idx = b.iota(n)
    ip1 = b.add_cols(_INT, idx, b.replicate(_INT, b.scalar(_INT, 1), n))
    upto_i = b.gather(_WIDE, ip1, ps0)
    seg = b.ew("clip_by", {"type": _INT, "k": ell}, arguments=idx)
    seg_floor = b.ew("scale", {"type": _INT, "k": ell}, arguments=seg)
    before_seg = b.gather(_WIDE, seg_floor, ps0)
    within = b.sub_cols(_WIDE, upto_i, before_seg)
    base_w = b.gather(_WIDE, seg, b.cast(t, _WIDE, base))
    return b.cast(_WIDE, t, b.add_cols(_WIDE, base_w, within))


def _delta_decoder(params):
    b = CircuitBuilder()
    b.sink(b.input("segment_length"), _INT)
    delta = b.input("delta")
    n = b.length(delta, _delta_t(params))
    widened = b.cast(_delta_t(params), _WIDE, delta)
    b.result("col", _delta_pipeline(b, params, widened, b.input("base"), n))
    return b.build()


def _delta_verify(params, cols):
    ell = int(params["segment_length"])
    if ell < 1 or len(cols["segment_length"]) != 1 or cols["segment_length"][0] != ell:
        return False
    n = len(cols["delta"])
    return len(cols["base"]) == -(-n // ell)


def _delta_encode_parts(params, col):
    ell = int(params["segment_length"])
    bases, deltas = [], []
    for at in range(0, len(col), ell):
        seg = col.values[at : at + ell]
        bases.append(seg[0])
        deltas.append(0)
        deltas.extend(seg[i + 1] - seg[i] for i in range(len(seg) - 1))
    return bases, deltas


def _delta_encode(params, family):
    col = family["col"]
    et = _et(params)
    delta_et = parse_type(_delta_t(params))
    bases, deltas = _delta_encode_parts(params, col)
    deltas = _checked_narrow(delta_et, deltas, "delta")
    return {
        "segment_length": scalar_column(INT, int(params["segment_length"])),
        "base": Column(et, bases),
        "delta": Column(delta_et, deltas),
    }


register_codec(
    CodecEntry(
        "delta",
        build_decoder=_delta_decoder,
        encode=_delta_encode,
        host_verify=_delta_verify,
        encoded_lengths=lambda p, n: {
            "segment_length": 1,
            "base": -(-n // int(p["segment_length"])),
            "delta": n,
        },
    )
)


def _patched_delta_decoder(params):
    b = CircuitBuilder()
    b.sink(b.input("segment_length"), _INT)
    delta = b.input("delta")
    n = b.length(delta, _delta_t(params))
    widened = b.cast(_delta_t(params), _WIDE, delta)
    patched = b.scatter(_WIDE, widened, b.input("patch_pos"), b.input("patch_data"))
    b.result("col", _delta_pipeline(b, params, patched, b.input("base"), n))
    return b.build()


def _patched_delta_verify(params, cols):
    if not _delta_verify(params, {k: cols[k] for k in ("segment_length", "base", "delta")}):
        return False
    pos = cols["patch_pos"].values
    if len(pos) != len(cols["patch_data"]) or not _is_distinct(pos):
        return False
    return all(p < len(cols["delta"]) for p in pos)


def _patched_delta_encode(params, family):
    col = family["col"]
    et = _et(params)
    delta_et = parse_type(_delta_t(params))
    bases, deltas = _delta_encode_parts(params, col)
    patch_pos, patch_data, stored = [], [], []
    for i, d in enumerate(deltas):
        if _fits(delta_et, d):
            stored.append(d)
        else:
            patch_pos.append(i)
            patch_data.append(d)
            stored.append(0)
    return {
        "segment_length": scalar_column(INT, int(params["segment_length"])),
        "base": Column(et, bases),
        "delta": Column(delta_et, stored),
        "patch_pos": Column(INT, patch_pos),
        "patch_data": Column(parse_type(_WIDE), patch_data),
    }


register_codec(
    CodecEntry(
        "delta.patched",
        build_decoder=_patched_delta_decoder,
        encode=_patched_delta_encode,
        host_verify=_patched_delta_verify,
    )
)


# -- segment dictionaries ------------------------------------------------------------------


def _segdict_decoder(params, two_level=False):
    t = _t(params)
    ell = int(params["segment_length"])
    d = int(params["dict_size"])
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
    ell = int(params["segment_length"])
    d = int(params["dict_size"])
    if ell < 1 or d < 1:
        return False
    if len(cols["segment_length"]) != 1 or cols["segment_length"][0] != ell:
        return False
    n = len(cols["indices"])
    m = -(-n // ell)
    if len(cols["dictionary_entries"]) != d * m:
        return False
    if any(i >= d for i in cols["indices"].values):
        return False
    if two_level:
        g = len(cols["global_dictionary"])
        return all(e < g for e in cols["dictionary_entries"].values)
    return True


def _segdict_encode_entries(params, values, code_of, filler):
    ell = int(params["segment_length"])
    d = int(params["dict_size"])
    entries, indices = [], []
    for at in range(0, len(values), ell):
        seg = values[at : at + ell]
        local = list(dict.fromkeys(seg))
        if len(local) > d:
            raise NotEncodable(
                f"segment at {at} has {len(local)} distinct values, dictionary holds {d}"
            )
        padded = local + [local[0] if local else filler] * (d - len(local))
        index_of = {v: i for i, v in enumerate(local)}
        entries.extend(code_of(v) for v in padded)
        indices.extend(index_of[v] for v in seg)
    return entries, indices


def _segdict_encode(params, family):
    col = family["col"]
    et = _et(params)
    entries, indices = _segdict_encode_entries(params, list(col.values), lambda v: v, et.zero())
    return {
        "segment_length": scalar_column(INT, int(params["segment_length"])),
        "dictionary_entries": Column(et, entries),
        "indices": Column(INT, indices),
    }


register_codec(
    CodecEntry(
        "segdict",
        build_decoder=lambda p: _segdict_decoder(p, two_level=False),
        encode=_segdict_encode,
        host_verify=lambda p, cols: _segdict_verify(p, cols, two_level=False),
    )
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
        "segment_length": scalar_column(INT, int(params["segment_length"])),
        "dictionary_entries": Column(INT, entries),
        "indices": Column(INT, indices),
        "global_dictionary": Column(et, global_entries),
    }


register_codec(
    CodecEntry(
        "segdict.two_level",
        build_decoder=lambda p: _segdict_decoder(p, two_level=True),
        encode=_segdict2_encode,
        host_verify=lambda p, cols: _segdict_verify(p, cols, two_level=True),
    )
)


# -- frequency-skew schemes -----------------------------------------------------------------


def _cascade_bits(params):
    return [int(x) for x in params["bits"]]


def _cascade_decoder(params):
    t = _t(params)
    bits = _cascade_bits(params)
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
    bits = _cascade_bits(params)
    remaining = len(cols["indices_1"])
    for i, b_i in enumerate(bits):
        dictionary = cols[f"dictionary_{i + 1}"]
        indices = cols[f"indices_{i + 1}"]
        if not 1 <= len(dictionary) <= (1 << b_i):
            return False
        if len(indices) != remaining:
            return False
        if any(v >= len(dictionary) for v in indices.values):
            return False
        remaining = sum(1 for v in indices.values if v == 0)
    return remaining == 0


def _cascade_encode(params, family):
    col = family["col"]
    et = _et(params)
    bits = _cascade_bits(params)
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


register_codec(
    CodecEntry(
        "cascade",
        build_decoder=_cascade_decoder,
        encode=_cascade_encode,
        host_verify=_cascade_verify,
    )
)


def _subdict_bits(params):
    return int(params.get("bits", 16))


def _subdict_decoder(params):
    t = _t(params)
    it = str(ElementType.unsigned(_subdict_bits(params)))
    b = CircuitBuilder()
    indices = b.cast(it, _INT, b.input("indices"))
    zero_mask = b.ew("const_compare", {"type": _INT, "cmp": "eq", "value": 0}, arguments=indices)
    pos_z = b.add("select_indices", {}, characteristic=zero_mask)
    base = b.gather(t, indices, b.input("dictionary"))
    b.result("col", b.scatter(t, base, pos_z, b.input("residual_data")))
    return b.build()


def _subdict_verify(params, cols):
    d = len(cols["dictionary"])
    if d < 1:
        return False
    vals = cols["indices"].values
    if any(v >= d for v in vals):
        return False
    return len(cols["residual_data"]) == sum(1 for v in vals if v == 0)


def _subdict_encode(params, family):
    col = family["col"]
    et = _et(params)
    bits = _subdict_bits(params)
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


register_codec(
    CodecEntry(
        "subdict",
        build_decoder=_subdict_decoder,
        encode=_subdict_encode,
        host_verify=_subdict_verify,
    )
)


# -- index-subset compression -----------------------------------------------------------------


def _cp_types(params):
    w, p = int(params["w"]), int(params["p"])
    return ElementType.unsigned(p), ElementType.unsigned(w - p)


def _common_prefix_decoder(params):
    w, p = int(params["w"]), int(params["p"])
    pre_t, suf_t = (str(t) for t in _cp_types(params))
    b = CircuitBuilder()
    prefix = b.cast(pre_t, _INT, b.input("prefix"))
    counts = b.cast(suf_t, _INT, b.input("suffix_count"))
    suffix = b.cast(suf_t, _INT, b.input("suffix"))
    starts = b.prefix(_INT, "add", counts, mode="exclusive")
    total = b.total(_INT, counts)
    group = run_index_wires(b, starts, total)
    pre_of = b.gather(_INT, group, prefix)
    shifted = b.ew("scale", {"type": _INT, "k": 1 << (w - p)}, arguments=pre_of)
    elements = b.add_cols(_INT, shifted, suffix)
    b.result("full_length", b.scalar(_INT, 1 << w))
    b.result("elements", elements)
    return b.build()


def _common_prefix_verify(params, cols):
    prefixes = cols["prefix"].values
    counts = cols["suffix_count"].values
    suffixes = cols["suffix"].values
    if len(prefixes) != len(counts):
        return False
    if any(a >= b for a, b in zip(prefixes, prefixes[1:])):
        return False
    if any(c < 1 for c in counts) or sum(counts) != len(suffixes):
        return False
    at = 0
    for c in counts:
        window = suffixes[at : at + c]
        if any(a >= b for a, b in zip(window, window[1:])):
            return False
        at += c
    return True


def _common_prefix_groups(params, family):
    w, p = int(params["w"]), int(params["p"])
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
    w, p = int(params["w"]), int(params["p"])
    pre_et, suf_et = _cp_types(params)
    groups = _common_prefix_groups(params, family)
    prefixes, counts, suffixes = [], [], []
    for g in sorted(groups):
        members = groups[g]
        if len(members) >= (1 << (w - p)):
            raise NotEncodable(f"group {g} has {len(members)} members; counts are {w - p}-bit")
        prefixes.append(g)
        counts.append(len(members))
        suffixes.extend(members)
    return {
        "prefix": Column(pre_et, prefixes),
        "suffix_count": Column(suf_et, counts),
        "suffix": Column(suf_et, suffixes),
    }


register_codec(
    CodecEntry(
        "idx.common_prefix",
        build_decoder=_common_prefix_decoder,
        encode=_common_prefix_encode,
        host_verify=_common_prefix_verify,
        equivalent=indexset_equivalent,
    )
)


def _common_upper_half_decoder(params):
    w = int(params["w"])
    half = w // 2
    naive_t = str(ElementType.unsigned(w))
    half_t = str(ElementType.unsigned(half))
    b = CircuitBuilder()
    naive = b.cast(naive_t, _INT, b.input("naive"))
    prefix = b.cast(half_t, _INT, b.input("prefix"))
    counts = b.cast(half_t, _INT, b.input("suffix_count"))
    suffix = b.cast(half_t, _INT, b.input("suffix"))
    starts = b.prefix(_INT, "add", counts, mode="exclusive")
    total = b.total(_INT, counts)
    group = run_index_wires(b, starts, total)
    pre_of = b.gather(_INT, group, prefix)
    shifted = b.ew("scale", {"type": _INT, "k": 1 << half}, arguments=pre_of)
    grouped = b.add_cols(_INT, shifted, suffix)
    elements = b.concat(_INT, naive, grouped)
    b.result("full_length", b.scalar(_INT, 1 << w))
    b.result("elements", elements)
    return b.build()


def _common_upper_half_verify(params, cols):
    w = int(params["w"])
    if w % 2:
        return False
    half = w // 2
    inner = {
        "prefix": cols["prefix"],
        "suffix_count": cols["suffix_count"],
        "suffix": cols["suffix"],
    }
    if not _common_prefix_verify({"w": w, "p": half}, inner):
        return False
    naive = cols["naive"].values
    if not _is_distinct(naive):
        return False
    naive_blocks = [e >> half for e in naive]
    if len(set(naive_blocks)) != len(naive_blocks):
        return False  # two naive elements share a block
    return not (set(naive_blocks) & set(cols["prefix"].values))


def _common_upper_half_encode(params, family):
    w = int(params["w"])
    if w % 2:
        raise NotEncodable("width must be even")
    half = w // 2
    groups = _common_prefix_groups({"w": w, "p": half}, family)
    naive, prefixes, counts, suffixes = [], [], [], []
    for g in sorted(groups):
        members = groups[g]
        if len(members) == 1:
            naive.append((g << half) | members[0])
        else:
            if len(members) >= (1 << half):
                raise NotEncodable(f"group {g} overflows the {half}-bit count")
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


register_codec(
    CodecEntry(
        "idx.common_upper_half",
        build_decoder=_common_upper_half_decoder,
        encode=_common_upper_half_encode,
        host_verify=_common_upper_half_verify,
        equivalent=indexset_equivalent,
    )
)


# -- variable-width compression -----------------------------------------------------------------


def _pvw_decoder(params):
    t = _t(params)
    period = int(params["period"])
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
    period = int(params["period"])
    if period < 1 or len(cols["period"]) != 1 or cols["period"][0] != period:
        return False
    if len(cols["length"]) != 1:
        return False
    n = cols["length"][0]
    widths = cols["widths"].values
    if len(widths) != -(-n // period):
        return False
    return len(cols["data"]) == period * sum(widths)


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
    period = int(params["period"])
    if period < 1:
        raise NotEncodable("period must be positive")
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
        data.extend([filler] * (width * (period - len(group))))
    return {
        "period": scalar_column(INT, period),
        "widths": Column(INT, widths),
        "length": scalar_column(INT, len(elements)),
        "data": Column(base_et, data),
    }


register_codec(
    CodecEntry(
        "pvw",
        build_decoder=_pvw_decoder,
        encode=_pvw_encode,
        host_verify=_pvw_verify,
        equivalent=padded_varwidth_equivalent,
    )
)


def _vwdict_decoder(params):
    t = _t(params)
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
    n_data = len(cols["entry_data"])
    starts = cols["entry_start_positions"].values
    lengths = cols["entry_lengths"].values
    if any(s + l > n_data for s, l in zip(starts, lengths)):
        return False
    return all(i < m for i in cols["indices"].values)


def _vwdict_verify_unique(params, cols):
    if not _vwdict_verify_base(params, cols):
        return False
    entries = _vwdict_entries(cols)
    return len(set(entries)) == len(entries)


def _vwdict_verify_monotone(params, cols):
    if not _vwdict_verify_unique(params, cols):
        return False
    entries = _vwdict_entries(cols)
    return all(a < b for a, b in zip(entries, entries[1:]))


def _vwdict_encode_factory(variant):
    def encode(params, family):
        elements = varwidth_elements(family)
        base_et = family["data"].element_type
        if variant == "monotone":
            entries = sorted(set(elements))
        else:
            entries = list(dict.fromkeys(elements))
        index_of = {e: i for i, e in enumerate(entries)}
        starts, lengths, data = [], [], []
        at = 0
        for e in entries:
            starts.append(at)
            lengths.append(len(e))
            data.extend(e)
            at += len(e)
        return {
            "indices": Column(INT, [index_of[e] for e in elements]),
            "entry_start_positions": Column(INT, starts),
            "entry_lengths": Column(INT, lengths),
            "entry_data": Column(base_et, data),
        }

    return encode


for _variant, _vverify in (
    ("vwdict", _vwdict_verify_base),
    ("vwdict.unique", _vwdict_verify_unique),
    ("vwdict.monotone", _vwdict_verify_monotone),
):
    register_codec(
        CodecEntry(
            _variant,
            build_decoder=_vwdict_decoder,
            encode=_vwdict_encode_factory(_variant.rsplit(".", 1)[-1] if "." in _variant else "plain"),
            host_verify=_vverify,
            equivalent=varwidth_equivalent,
        )
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
