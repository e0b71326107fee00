"""Per-scheme random instance generators and targeted corruptions.

Each case produces ``(params, decoded_family)`` pairs inside the scheme's
encodable set, plus a list of corruption functions that mutate a valid
encoded instance into a well-typed but invalid one.  Schemes whose listings
state no encoded-form constraints have an empty corruption list.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from colcirc import Column, scalar_column
from colcirc.rep_schemes import canonical_varwidth
from colcirc.types import INT, U8, U16, U32, ElementType


def col(t, values):
    return Column(t, list(values))


def ints(rng, n, lo=0, hi=50):
    return [rng.randrange(lo, hi) for _ in range(n)]


def run_col(rng, t=U16, max_runs=6, max_len=5):
    values = []
    for _ in range(rng.randrange(1, max_runs)):
        values.extend([rng.randrange(0, 30)] * rng.randrange(1, max_len))
    return col(t, values)


def subset(rng, universe, size):
    return sorted(rng.sample(range(universe), size))


@dataclass
class Case:
    gen: callable  # rng -> (params, family)
    corruptions: list = field(default_factory=list)


def _swap(values, i, j):
    out = list(values)
    out[i], out[j] = out[j], out[i]
    return out


def replace_col(inst, label, values):
    old = inst.columns[label]
    return inst.with_columns(**{label: Column(old.element_type, values)})


def drop_last(inst, label):
    vals = inst.columns[label].values
    return replace_col(inst, label, list(vals[:-1]))


def corrupt_truncate(label):
    def fn(rng, inst):
        if len(inst.columns[label]) == 0:
            return None
        return drop_last(inst, label)

    return fn


def corrupt_set(label, index, value):
    def fn(rng, inst):
        vals = list(inst.columns[label].values)
        if index >= len(vals):
            return None
        vals[index] = value
        return replace_col(inst, label, vals)

    return fn


def corrupt_dup_first(label):
    def fn(rng, inst):
        vals = list(inst.columns[label].values)
        if len(vals) < 2:
            return None
        vals[1] = vals[0]
        return replace_col(inst, label, vals)

    return fn


def corrupt_out_of_range(label, bound_of):
    def fn(rng, inst):
        vals = list(inst.columns[label].values)
        if not vals:
            return None
        vals[rng.randrange(len(vals))] = bound_of(inst)
        return replace_col(inst, label, vals)

    return fn


def corrupt_extend(label, count=1, value=0):
    def fn(rng, inst):
        vals = list(inst.columns[label].values) + [value] * count
        return replace_col(inst, label, vals)

    return fn


def corrupt_flip_bit(label):
    def fn(rng, inst):
        vals = list(inst.columns[label].values)
        if not vals:
            return None
        i = rng.randrange(len(vals))
        vals[i] = 1 - vals[i]
        return replace_col(inst, label, vals)

    return fn


def corrupt_pad_to(label, target_len, value=0):
    def fn(rng, inst):
        vals = list(inst.columns[label].values)
        if len(vals) >= target_len:
            return None
        vals.extend([value] * (target_len - len(vals)))
        return replace_col(inst, label, vals)

    return fn


def corrupt_extend_multi(**updates):
    """Append the given values to several columns at once."""

    def fn(rng, inst):
        out = inst
        for label, extra in updates.items():
            vals = list(out.columns[label].values) + list(extra)
            out = replace_col(out, label, vals)
        return out

    return fn


# -- generators --------------------------------------------------------------------


def gen_any_column(rng):
    return {"type": "u16"}, {"col": col(U16, ints(rng, rng.randrange(0, 16)))}


def gen_nonempty_column(rng):
    return {"type": "u16"}, {"col": col(U16, ints(rng, rng.randrange(1, 16)))}


def gen_constant(rng):
    n = rng.randrange(0, 16)
    v = rng.randrange(0, 1000)
    return {"type": "u32"}, {"col": col(U32, [v] * n)}


def gen_generated(rng):
    a, b = rng.randrange(0, 40), rng.randrange(0, 7)
    n = rng.randrange(0, 14)
    return (
        {"type": "u32", "basis": [0, 1]},
        {"col": col(U32, [a + b * i for i in range(n)])},
    )


def gen_generated_poly(rng):
    a, b, c = rng.randrange(0, 40), rng.randrange(0, 5), rng.randrange(0, 3)
    n = rng.randrange(0, 12)
    return (
        {"type": "u32", "degree": 2},
        {"col": col(U32, [a + b * i + c * i * i for i in range(n)])},
    )


def gen_noisy(rng):
    a, b = rng.randrange(50, 90), rng.randrange(0, 5)
    n = rng.randrange(1, 14)
    vals = [max(0, a + b * i + rng.randrange(-10, 10)) for i in range(n)]
    return {"type": "u32", "basis": [0, 1], "noise_type": "i8"}, {"col": col(U32, vals)}


def gen_nullsup(rng):
    return (
        {"type": "u32", "narrow_type": "u8"},
        {"col": col(U32, ints(rng, rng.randrange(0, 16), 0, 256))},
    )


def gen_dictled(rng):
    return {"type": "u16"}, {"col": col(U16, ints(rng, rng.randrange(0, 20), 0, 8))}


def gen_runs(rng):
    return {"type": "u16"}, {"col": run_col(rng)}


def gen_capped_runs(rng):
    params, fam = gen_runs(rng)
    params["cap"] = rng.randrange(2, 6)
    return params, fam


def gen_spline_generalized(rng):
    pieces = []
    segments = []
    for _ in range(rng.randrange(1, 4)):
        l = rng.randrange(1, 6)
        a, b = rng.randrange(0, 60), rng.randrange(0, 6)
        pieces.extend(a + b * i for i in range(l))
        segments.append(l)
    return (
        {"type": "u32", "basis": [0, 1], "segments": segments},
        {"col": col(U32, pieces)},
    )


def gen_spline_knotted(rng):
    while True:
        params, fam = gen_spline_generalized(rng)
        segments = params["segments"]
        if len(fam["col"]) >= 2 and (len(segments) == 1 or segments[-1] >= 2):
            return dict(params, basis=[0, 1]), fam


def gen_spline_equiknotted(rng):
    ell = rng.randrange(1, 5)
    n = rng.randrange(1, 14)
    vals = []
    for at in range(0, n, ell):
        l = min(ell, n - at)
        a, b = rng.randrange(0, 60), rng.randrange(0, 6)
        vals.extend(a + b * i for i in range(l))
    return {"type": "u32", "basis": [0, 1], "interval_length": ell}, {"col": col(U32, vals)}


def gen_for(rng):
    ell = rng.randrange(1, 5)
    n = rng.randrange(0, 14)
    vals = []
    for at in range(0, n, ell):
        base = rng.randrange(0, 5000)
        vals.extend(base + rng.randrange(0, 200) for _ in range(min(ell, n - at)))
    return {"type": "u32", "offset_type": "u8", "segment_length": ell}, {"col": col(U32, vals)}


def gen_walk(rng):
    n = rng.randrange(0, 16)
    vals, at = [], rng.randrange(500, 1000)
    for _ in range(n):
        vals.append(at)
        at += rng.randrange(-60, 60)
        at = max(0, at)
    return {"type": "u32", "delta_type": "i8"}, {"col": col(U32, vals)}


def gen_delta(rng):
    params, fam = gen_walk(rng)
    params["segment_length"] = rng.randrange(1, 5)
    return params, fam


def gen_patched_delta(rng):
    n = rng.randrange(2, 16)
    vals, at = [], rng.randrange(500, 1000)
    big_jump_at = rng.randrange(1, n)
    for i in range(n):
        vals.append(at)
        jump = rng.randrange(200, 900) if i + 1 == big_jump_at else rng.randrange(-50, 50)
        at = max(0, at + jump)
    return (
        {"type": "u32", "delta_type": "i8", "segment_length": rng.randrange(1, 5)},
        {"col": col(U32, vals)},
    )


def gen_segdict(rng):
    ell = rng.randrange(1, 5)
    d = rng.randrange(1, 4)
    n = rng.randrange(0, 14)
    vals = []
    for at in range(0, n, ell):
        support = [rng.randrange(0, 100) for _ in range(d)]
        vals.extend(rng.choice(support) for _ in range(min(ell, n - at)))
    return {"type": "u16", "segment_length": ell, "dict_size": d}, {"col": col(U16, vals)}


def gen_cascade(rng):
    n = rng.randrange(1, 16)
    support = list(range(1, 10))
    weights = [1.0 / k for k in range(1, 10)]
    vals = rng.choices(support, weights=weights, k=n)
    return {"type": "u16", "bits": [2, 4]}, {"col": col(U16, vals)}


def gen_subdict(rng):
    return {"type": "u16", "bits": 2}, {"col": col(U16, ints(rng, rng.randrange(0, 16), 0, 9))}


def gen_common_prefix(rng):
    w, p = 8, 3
    size = rng.randrange(0, 20)
    elems = subset(rng, 1 << w, size)
    return (
        {"w": w, "p": p},
        {"full_length": scalar_column(INT, 1 << w), "elements": col(INT, elems)},
    )


def gen_common_upper_half(rng):
    w = 8
    size = rng.randrange(0, 30)
    elems = subset(rng, 1 << w, size)
    return (
        {"w": w},
        {"full_length": scalar_column(INT, 1 << w), "elements": col(INT, elems)},
    )


def gen_elements(rng, max_elems=8, max_width=4):
    return [
        tuple(rng.randrange(0, 256) for _ in range(rng.randrange(0, max_width + 1)))
        for _ in range(rng.randrange(0, max_elems))
    ]


def gen_varwidth(rng):
    return {"type": "u8"}, canonical_varwidth(gen_elements(rng), U8)


def gen_pvw(rng):
    params, fam = gen_varwidth(rng)
    params["period"] = rng.randrange(1, 4)
    return params, fam


def gen_indexed(rng):
    return {"type": "u16"}, {"col": col(U16, ints(rng, rng.randrange(0, 16)))}


def gen_subcolumn(rng):
    n = rng.randrange(0, 12)
    positions = sorted(rng.sample(range(40), n))
    return (
        {"type": "u16"},
        {"pos": col(INT, positions), "data": col(U16, ints(rng, n))},
    )


def gen_complementing(rng):
    return {"type": "u16"}, {"col": col(U16, ints(rng, rng.randrange(0, 14)))}


def gen_identity(rng):
    n = rng.randrange(1, 16)
    return {}, {"col": col(INT, range(n))}


def gen_uniform_identity(rng):
    n = rng.randrange(0, 16)
    return {"segment_length": rng.randrange(1, 6)}, {"col": col(INT, range(n))}


def gen_segmented(rng):
    return {"type": "u16"}, {"col": col(U16, ints(rng, rng.randrange(0, 14)))}


def gen_uniformly_segmented(rng):
    return (
        {"type": "u16", "segment_length": rng.randrange(1, 6)},
        {"col": col(U16, ints(rng, rng.randrange(0, 14)))},
    )


def gen_segmented_subcolumn(rng):
    ell = rng.randrange(1, 4)
    blocks = sorted(rng.sample(range(8), rng.randrange(0, 4)))
    pos = []
    for b in blocks:
        pos.extend(range(b * ell, (b + 1) * ell))
    if blocks and rng.random() < 0.3:
        short = rng.randrange(1, ell + 1)
        cut = [p for p in pos if p < max(blocks) * ell] + list(
            range(max(blocks) * ell, max(blocks) * ell + short)
        )
        pos = cut
    return (
        {"type": "u16", "segment_length": ell},
        {"pos": col(INT, pos), "data": col(U16, ints(rng, len(pos)))},
    )


def gen_indexset_sparse(rng):
    n = rng.randrange(1, 40)
    size = rng.randrange(0, n)
    return {}, {"full_length": scalar_column(INT, n), "elements": col(INT, subset(rng, n, size))}


def gen_indexset_contiguous(rng):
    n = rng.randrange(1, 40)
    length = rng.randrange(0, n + 1)
    start = rng.randrange(0, n - length + 1) if n > length else 0
    return (
        {},
        {
            "full_length": scalar_column(INT, n),
            "elements": col(INT, range(start, start + length)),
        },
    )


def gen_partition(rng):
    k = rng.randrange(1, 4)
    n = rng.randrange(0, 14)
    assignment = [rng.randrange(0, k) for _ in range(n)]
    family = {}
    for j in range(k):
        idxs = [i for i, a in enumerate(assignment) if a == j]
        family[f"pos_{j + 1}"] = col(INT, idxs)
        family[f"data_{j + 1}"] = col(INT, idxs)
    return {"k": k}, family


def gen_partition_k(rng):
    k = rng.randrange(1, 4)
    n = rng.randrange(0, 14)
    return (
        {"type": "u16", "k": k, "partition": [rng.randrange(0, k) for _ in range(n)]},
        {"col": col(U16, ints(rng, n))},
    )


def gen_components(rng):
    n = rng.randrange(0, 12)
    zipped = [(rng.randrange(0, 256), rng.randrange(0, 1000)) for _ in range(n)]
    return (
        {"types": ["u8", "u16"]},
        {"zipped": col(ElementType.product(U8, U16), zipped)},
    )


def gen_concatenated(rng):
    k = rng.randrange(1, 4)
    ell = rng.randrange(0, 8)
    zipped = [tuple(rng.randrange(0, 200) for _ in range(k)) for _ in range(ell)]
    return (
        {"type": "u8", "k": k},
        {"composed": col(ElementType.product(*([U8] * k)), zipped)},
    )


def gen_shattered(rng):
    k = rng.randrange(2, 4)  # with k = 1 any truncation keeps divisibility
    ell = rng.randrange(0, 8)
    zipped = [tuple(rng.randrange(0, 200) for _ in range(k)) for _ in range(ell)]
    return (
        {"type": "u8", "k": k},
        {"composed": col(ElementType.product(*([U8] * k)), zipped)},
    )


def gen_value_indicators(rng):
    d = rng.randrange(1, 5)
    n = rng.randrange(0, 12)
    return {"domain_size": d}, {"col": col(INT, [rng.randrange(0, d) for _ in range(n)])}


def gen_capped_width(rng):
    elements = gen_elements(rng, max_width=3)
    m = max((len(e) for e in elements), default=1) or 1
    return {"type": "u8", "max_length": m + rng.randrange(0, 2)}, canonical_varwidth(elements, U8)


def gen_nullable(rng):
    n = rng.randrange(0, 14)
    vals = ints(rng, n, 1, 50)
    nulls = sorted(rng.sample(range(n), rng.randrange(0, n + 1))) if n else []
    for i in nulls:
        vals[i] = 0
    return {"type": "u16", "null_value": 0}, {"col": col(U16, vals)}


# -- harnesses ---------------------------------------------------------------------


def roundtrip_battery(scheme_id, case, rng, count):
    """decode(encode(X)) ~ X and verify(encode(X)) for ``count`` instances."""
    from colcirc import decode, encode, equivalent, verify

    done = 0
    while done < count:
        params, family = case.gen(rng)
        inst = encode(scheme_id, params, family)
        assert verify(inst), f"{scheme_id}: encoder output rejected for {params}"
        decoded = decode(inst)
        assert equivalent(scheme_id, inst.params, decoded, family), (
            f"{scheme_id}: roundtrip mismatch for {params}: {decoded} != {family}"
        )
        done += 1


def corruption_battery(scheme_id, case, rng, count, max_attempts_factor=60):
    """``count`` targeted corruptions, all rejected by the verifier."""
    from colcirc import encode, verify

    if not case.corruptions:
        return 0
    done = 0
    attempts = 0
    limit = count * max_attempts_factor
    while done < count:
        attempts += 1
        assert attempts <= limit, f"{scheme_id}: could not produce {count} corruptions"
        params, family = case.gen(rng)
        inst = encode(scheme_id, params, family)
        fn = case.corruptions[attempts % len(case.corruptions)]
        corrupted = fn(rng, inst)
        if corrupted is None:
            continue
        assert not verify(corrupted), (
            f"{scheme_id}: corruption {fn} produced a still-valid instance"
        )
        done += 1
    return done


# -- the case table -----------------------------------------------------------------

_LEN = corrupt_truncate
_FAR_LENGTH = 10**4  # far past any generated column; an unchecked decode allocates it


CASES = {
    # representation schemes
    "indexed": Case(
        gen_indexed,
        [corrupt_dup_first("pos"), _LEN("pos"), corrupt_out_of_range("pos", lambda i: 10**6)],
    ),
    "subcolumn.std": Case(gen_subcolumn, [corrupt_dup_first("pos"), _LEN("pos")]),
    "subcolumn.overlay": Case(
        gen_subcolumn,
        [
            corrupt_extend_multi(pos_2=[5, 5], data_2=[0, 0]),
            corrupt_extend_multi(pos_1=[10**6]),
            corrupt_dup_first("pos_1"),
        ],
    ),
    "subcolumn.union.disjoint": Case(
        gen_subcolumn,
        [
            corrupt_extend_multi(pos_2=[5, 5], data_2=[0, 0]),
            corrupt_extend_multi(pos_1=[10**6]),
            lambda rng, inst: corrupt_extend_multi(
                pos_2=[inst.columns["pos_1"][0]], data_2=[0]
            )(rng, inst)
            if len(inst.columns["pos_1"])
            else None,
        ],
    ),
    "column.complementing": Case(
        gen_complementing,
        [
            corrupt_extend_multi(pos=[10**6], data_1=[0]),
            corrupt_extend_multi(pos=[0, 0], data_1=[0, 0]),
            corrupt_extend_multi(data_1=[0]),
        ],
    ),
    "column.overlaid": Case(
        gen_complementing,
        [
            corrupt_extend_multi(overlay_pos=[10**6], overlay_data=[0]),
            corrupt_extend_multi(overlay_pos=[0, 0], overlay_data=[0, 0]),
            corrupt_extend_multi(overlay_pos=[0]),
        ],
    ),
    "segmentation": Case(
        gen_identity,
        [corrupt_set("start", 0, 3), _LEN("length")],
    ),
    "segmentation.uniform": Case(gen_uniform_identity, [corrupt_set("segment_length", 0, 0)]),
    "segmented": Case(gen_segmented, [corrupt_set("segment_length", 0, 10**6), _LEN("segment_start_pos")]),
    "segmented.uniform": Case(gen_uniformly_segmented, [corrupt_set("segment_length", 0, 0)]),
    "subcolumn.segmented": Case(
        gen_segmented_subcolumn,
        [corrupt_dup_first("segment_pos"), corrupt_extend("data", 3), corrupt_set("segment_length", 0, 999)],
    ),
    "indexset.sparse": Case(
        gen_indexset_sparse,
        [corrupt_dup_first("elements"), corrupt_out_of_range("elements", lambda i: 10**6)],
    ),
    "indexset.dense": Case(gen_indexset_sparse, []),
    "indexset.contiguous": Case(
        gen_indexset_contiguous,
        [corrupt_set("length", 0, _FAR_LENGTH)],
    ),
    "partition": Case(gen_partition, [corrupt_out_of_range("partition", lambda i: 10**6)]),
    "partition.k": Case(
        gen_partition_k,
        [corrupt_dup_first("pos_1"), _LEN("data_1")],
    ),
    "components": Case(gen_components, [_LEN("component_1")]),
    "components.concatenated": Case(gen_concatenated, [corrupt_set("segment_length", 0, 999), _LEN("components")]),
    "components.shattered": Case(gen_shattered, [corrupt_set("segment_length", 0, 999), _LEN("components")]),
    "value.indicators": Case(
        gen_value_indicators,
        [corrupt_set("domain_size", 0, 999), corrupt_flip_bit("bitmaps")],
    ),
    "varwidth.std": Case(gen_varwidth, [corrupt_out_of_range("start_position", lambda i: 10**6), _LEN("length")]),
    "varwidth.capped": Case(
        gen_capped_width,
        [
            corrupt_set("lengths", 0, _FAR_LENGTH),
            _LEN("data"),
            lambda rng, inst: corrupt_set("max_length", 0, 0)(rng, inst)
            if len(inst.columns["data"])
            else None,
        ],
    ),
    "nullable.complementing": Case(
        gen_nullable,
        [corrupt_dup_first("pos"), corrupt_out_of_range("pos", lambda i: 10**6)],
    ),
    "nullable.patched": Case(
        gen_nullable,
        [corrupt_dup_first("overlay_pos"), corrupt_out_of_range("overlay_pos", lambda i: 10**6)],
    ),
    # compression schemes
    "constant": Case(gen_constant, [_LEN("value")]),
    "generated": Case(gen_generated, [_LEN("coefficients")]),
    "generated.poly": Case(gen_generated_poly, [_LEN("coefficients")]),
    "noisy.generated": Case(gen_noisy, [_LEN("coefficients")]),
    "nullsup": Case(gen_nullsup, []),
    "dict": Case(gen_dictled, [corrupt_out_of_range("indices", lambda i: 10**6)]),
    "dict.unique": Case(
        gen_dictled,
        [corrupt_dup_first("dictionary"), corrupt_out_of_range("indices", lambda i: 10**6)],
    ),
    "dict.monotone": Case(
        gen_dictled,
        [
            corrupt_dup_first("dictionary"),
            lambda rng, inst: replace_col(inst, "dictionary", _swap(inst.columns["dictionary"].values, 0, 1))
            if len(inst.columns["dictionary"]) >= 2
            else None,
        ],
    ),
    "run.full": Case(
        gen_runs,
        [corrupt_set("start_position", 0, 2), corrupt_set("length", 0, 0), _LEN("value")],
    ),
    "run.rpe": Case(
        gen_runs,
        [corrupt_set("start_position", 0, 1), corrupt_dup_first("start_position"), _LEN("value")],
    ),
    "run.rle": Case(gen_runs, [corrupt_set("length", 0, 0), _LEN("value")]),
    "run.rle.capped": Case(
        gen_capped_runs,
        [corrupt_set("length", 0, 0), corrupt_out_of_range("length", lambda i: _FAR_LENGTH), corrupt_set("cap", 0, 0)],
    ),
    "spline.generalized": Case(
        gen_spline_generalized,
        [corrupt_set("segment_start_pos", 0, 5), _LEN("coefficients")],
    ),
    "spline.knotted": Case(
        gen_spline_knotted,
        [corrupt_set("knots", 0, 7), corrupt_dup_first("knots"), _LEN("coefficients")],
    ),
    "spline.equiknotted": Case(
        gen_spline_equiknotted,
        [_LEN("coefficients"), corrupt_set("interval_length", 0, 999)],
    ),
    "for": Case(gen_for, [_LEN("reference"), corrupt_set("segment_length", 0, 999)]),
    "delta.naive": Case(gen_walk, [_LEN("base")]),
    "delta": Case(gen_delta, [_LEN("base"), corrupt_set("segment_length", 0, 999)]),
    "delta.patched": Case(
        gen_patched_delta,
        [corrupt_dup_first("patch_pos"), corrupt_out_of_range("patch_pos", lambda i: 10**6)],
    ),
    "segdict": Case(
        gen_segdict,
        [_LEN("dictionary_entries"), corrupt_out_of_range("indices", lambda i: 10**6)],
    ),
    "segdict.two_level": Case(
        gen_segdict,
        [corrupt_out_of_range("dictionary_entries", lambda i: 10**6), _LEN("dictionary_entries")],
    ),
    "cascade": Case(
        gen_cascade,
        [
            corrupt_pad_to("dictionary_1", 5),
            _LEN("indices_2"),
            lambda rng, inst: corrupt_extend("indices_2", 1, 1)(rng, inst),
        ],
    ),
    "subdict": Case(
        gen_subdict,
        [_LEN("residual_data"), corrupt_extend("residual_data")],
    ),
    "idx.common_prefix": Case(
        gen_common_prefix,
        [corrupt_set("suffix_count", 0, 0), corrupt_dup_first("prefix"), _LEN("suffix")],
    ),
    "idx.common_upper_half": Case(
        gen_common_upper_half,
        [corrupt_dup_first("naive"), corrupt_set("suffix_count", 0, 0), _LEN("suffix")],
    ),
    "pvw": Case(
        gen_pvw,
        [_LEN("widths"), corrupt_set("period", 0, 999), _LEN("data")],
    ),
    "vwdict": Case(
        gen_varwidth,
        [corrupt_out_of_range("indices", lambda i: 10**6), corrupt_out_of_range("entry_start_positions", lambda i: 10**6)],
    ),
    "vwdict.unique": Case(
        gen_varwidth,
        [corrupt_out_of_range("indices", lambda i: 10**6)],
    ),
    "vwdict.monotone": Case(
        gen_varwidth,
        [corrupt_out_of_range("indices", lambda i: 10**6)],
    ),
}
