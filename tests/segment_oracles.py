"""The uniform-segment decoders as they were built before ``spread``: the differential oracles.

Each builder derives every position's segment by position arithmetic, an
``iota`` cut by ``clip_by`` into segment numbers that ``gather`` then reads
per-segment values at.  ``tests/test_spread_oracles.py`` decodes the same
instances through these and through the builtin decoders, which broadcast
per-segment values with ``spread``, and requires the same columns or the
same kind of operator error.
"""

from colcirc.builder import CircuitBuilder, expand_ranges
from colcirc.comp_schemes import _INT, _WIDE, _compute_t, _narrow_out, _segment_poly_tail, _widen


def _clip(b, wire, k):
    return b.ew("clip_by", {"type": _INT, "k": k}, arguments=wire)


def _scale(b, wire, k):
    return b.ew("scale", {"type": _INT, "k": k}, arguments=wire)


def for_decoder(params):
    ct = _compute_t(params)
    off_t = params["offset_type"]
    ell = params["segment_length"]
    b = CircuitBuilder()
    b.sink(b.input("segment_length"), _INT)
    offsets = b.input("offsets")
    reference = _widen(b, params, b.input("reference"))
    n = b.length(offsets, off_t)
    seg = _clip(b, b.iota(n), ell)
    ref_i = b.gather(ct, seg, reference)
    up = b.cast(off_t, ct, offsets)
    b.result("col", _narrow_out(b, params, b.add_cols(ct, ref_i, up)))
    return b.build()


def delta_decoder(params, patched=False):
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
    seg = _clip(b, idx, ell)
    before_seg = b.gather(_WIDE, _scale(b, seg, ell), ps0)
    within = b.sub_cols(_WIDE, upto_i, before_seg)
    base_w = b.gather(_WIDE, seg, b.cast(t, _WIDE, b.input("base")))
    b.result("col", b.cast(_WIDE, t, b.add_cols(_WIDE, base_w, within)))
    return b.build()


def segdict_decoder(params, two_level=False):
    t = params["type"]
    ell = params["segment_length"]
    d = params["dict_size"]
    entry_t = _INT if two_level else t
    b = CircuitBuilder()
    b.sink(b.input("segment_length"), _INT)
    entries = b.input("dictionary_entries")
    indices = b.input("indices")
    n = b.length(indices, _INT)
    seg = _clip(b, b.iota(n), ell)
    slot = b.add_cols(_INT, indices, _scale(b, seg, d))
    codes = b.gather(entry_t, slot, entries)
    b.result("col", b.gather(t, codes, b.input("global_dictionary")) if two_level else codes)
    return b.build()


def segmented_subcolumn_decoder(params):
    t = params["type"]
    ell = params["segment_length"]
    b = CircuitBuilder()
    b.sink(b.input("segment_length"), _INT)
    segment_pos = b.input("segment_pos")
    data = b.noop(b.input("data"), t)
    n = b.length(data, t)
    idx = b.iota(n)
    seg = _clip(b, idx, ell)
    base = _scale(b, b.gather(_INT, seg, segment_pos), ell)
    offset = b.sub_cols(_INT, idx, _scale(b, seg, ell))
    b.result("pos", b.add_cols(_INT, base, offset))
    b.result("data", data)
    return b.build()


def pvw_decoder(params):
    t = params["type"]
    period = params["period"]
    b = CircuitBuilder()
    b.sink(b.input("period"), _INT)
    widths = b.input("widths")
    length = b.input("length")
    data = b.input("data")
    idx = b.iota(length)
    group = _clip(b, idx, period)
    lengths = b.gather(_INT, group, widths)
    group_base = _scale(b, b.prefix(_INT, "add", widths, mode="exclusive"), period)
    base = b.gather(_INT, group, group_base)
    within = b.sub_cols(_INT, idx, _scale(b, group, period))
    offset = b.ew("mul", {"type": _INT}, lhs=within, rhs=lengths)
    out_starts, out_data = expand_ranges(b, t, b.add_cols(_INT, base, offset), lengths, data)
    b.result("start_position", out_starts)
    b.result("length", lengths)
    b.result("data", out_data)
    return b.build()


def equiknotted_decoder(params):
    ct = _compute_t(params)
    ell = params["interval_length"]
    b = CircuitBuilder()
    b.sink(b.input("interval_length"), _INT)
    n = b.input("length")
    coeffs = _widen(b, params, b.input("coefficients"))
    idx = b.iota(n)
    seg = _clip(b, idx, ell)
    seg_start_ct = b.cast(_INT, ct, _scale(b, seg, ell))
    acc = _segment_poly_tail(b, params, idx, seg, seg_start_ct, coeffs, n)
    b.result("col", _narrow_out(b, params, acc))
    return b.build()


# each rewritten scheme's old builder
ORACLES = {
    "for": for_decoder,
    "delta": delta_decoder,
    "delta.patched": lambda p: delta_decoder(p, patched=True),
    "segdict": segdict_decoder,
    "segdict.two_level": lambda p: segdict_decoder(p, two_level=True),
    "subcolumn.segmented": segmented_subcolumn_decoder,
    "pvw": pvw_decoder,
    "spline.equiknotted": equiknotted_decoder,
}
