"""Structural (non-compressing) representation schemes.

Indexed columns, subcolumns and their combinations, segmentations, index
sets, partitions, component de/composition, variable-width columns, and
nullable recipes.  Every decoder is a circuit over catalog operators;
verifiers here are host decision procedures.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain
from operator import add, eq, lt

from .builder import CircuitBuilder, expand_ranges
from .codec import register_scheme
from .column import Column, _range_of, scalar_column
from .errors import NotEncodable, OperatorError
from .params import DOMAIN_SIZE, PARTITION, PARTS, POSITIVE, TYPE, TYPES, VALUE
from .types import BIT, INT, ElementType, parse_type

_INT = str(INT)
_TYPED = {"type": TYPE}


def _et(params, key="type") -> ElementType:
    return parse_type(params[key])


# -- the rules verifiers state about encoded columns, each written once ------------


def _is_distinct(values) -> bool:
    return len(set(values)) == len(values)


def _positions(pos, n) -> bool:
    """True if ``pos`` holds distinct positions, each below ``n``."""
    return _below(pos, n) and _is_distinct(pos)


def _below(values, n) -> bool:
    """True if every value is below ``n``: indices into ``n`` entries."""
    return not values or max(values) < n


def _col_below(col, n) -> bool:
    """``_below`` of a column's values: a recorded range (``_range_of``) below ``n`` spares the scan."""
    rng = _range_of(col)
    if rng is not None and rng[1] < n:
        return True
    values = col.values
    return not values or max(values) < n


def _increasing(values) -> bool:
    """True if each value is ``<`` the one after it (a NaN is ``<`` nothing)."""
    return all(map(lt, values, values[1:]))


def _tiled(starts, lengths) -> bool:
    """True if the ranges ``[s, s + l)`` follow one another from 0, each starting where the one before ends."""
    return len(starts) == len(lengths) and all(map(eq, starts, accumulate(lengths, initial=0)))


def _ranges_within(starts, lengths, n) -> bool:
    """True if every range ``[s, s + l)`` ends at or before ``n``."""
    return max(map(add, starts, lengths), default=0) <= n


def _holds(cols, label, value) -> bool:
    """True if column ``label`` holds the one value ``value`` (the param it repeats)."""
    col = cols[label]
    return len(col) == 1 and col.values[0] == value


def _segment_count(n, ell) -> int:
    """The number of segments of ``ell`` (the last one shorter) that cover ``n`` values."""
    return -(-n // ell)


def _padding(filler, count) -> list:
    """``count`` copies of ``filler``, the padding a param sizes; one no list can hold is not encodable."""
    try:
        return [filler] * count
    except (OverflowError, MemoryError):
        raise NotEncodable(f"a padding of {count} values does not fit a column") from None


# -- host-level subcolumn values ------------------------------------------------


@dataclass(frozen=True)
class SubcolumnStd:
    """Standard representation of a subcolumn: paired pos and data columns."""

    pos: Column
    data: Column

    def __post_init__(self):
        if len(self.pos) != len(self.data):
            raise OperatorError("length-mismatch", "pos and data lengths must match")
        if not _is_distinct(self.pos.values):
            raise OperatorError("duplicate-position", "subcolumn positions must be distinct")

    def mapping(self) -> dict:
        return dict(zip(self.pos.values, self.data.values))

    def canonical(self) -> "SubcolumnStd":
        items = sorted(self.mapping().items())
        return SubcolumnStd(
            Column(self.pos.element_type, [p for p, _ in items]),
            Column(self.data.element_type, [d for _, d in items]),
        )


def subcolumn_family_equivalent(params, a: dict, b: dict) -> bool:
    """Same partial function: canonicalize both sides, then compare."""

    def canon(fam):
        return SubcolumnStd(fam["pos"], fam["data"]).canonical()

    return canon(a) == canon(b)


# -- scheme helpers ---------------------------------------------------------------


def _membership_bitmap(b: CircuitBuilder, domain_size, pos):
    """Bit column of ``domain_size`` with ones at the given positions."""
    zeros = b.replicate("bit", b.scalar("bit", 0), domain_size)
    ones = b.replicate("bit", b.scalar("bit", 1), b.length(pos, _INT))
    return b.scatter("bit", zeros, pos, ones)


# -- Indexed ----------------------------------------------------------------------


def _indexed_decoder(params):
    t = params["type"]
    b = CircuitBuilder()
    permuted = b.add("permute", {"type": t}, permutation=b.input("pos"), data=b.input("data"))
    b.result("col", permuted)
    return b.build()


def _indexed_verify(params, cols):
    pos = cols["pos"].values
    return len(pos) == len(cols["data"]) and _positions(pos, len(pos))  # a permutation


def _indexed_encode(params, family):
    col = family["col"]
    et = _et(params)
    if col.element_type != et:
        raise NotEncodable(f"expected a {et} column")
    return {"pos": Column(INT, range(len(col))), "data": col}


register_scheme(
    "indexed",
    _TYPED,
    build_decoder=_indexed_decoder,
    encode=_indexed_encode,
    host_verify=_indexed_verify,
    encoded_lengths=lambda p, n: {"pos": n, "data": n},
)


# -- subcolumn schemes ---------------------------------------------------------------


def _subcol_std_decoder(params):
    t = params["type"]
    b = CircuitBuilder()
    b.result("pos", b.noop(b.input("pos"), _INT))
    b.result("data", b.noop(b.input("data"), t))
    return b.build()


def _subcol_std_verify(params, cols):
    return len(cols["pos"]) == len(cols["data"]) and _is_distinct(cols["pos"].values)


def _subcol_std_encode(params, family):
    sc = SubcolumnStd(family["pos"], family["data"]).canonical()
    return {"pos": sc.pos, "data": sc.data}


register_scheme(
    "subcolumn.std",
    _TYPED,
    build_decoder=_subcol_std_decoder,
    encode=_subcol_std_encode,
    host_verify=_subcol_std_verify,
    equivalent=subcolumn_family_equivalent,
)


def _overlay_decoder(params):
    t = params["type"]
    b = CircuitBuilder()
    pos1 = b.input("pos_1")
    data1 = b.input("data_1")
    pos2 = b.input("pos_2")
    data2 = b.input("data_2")
    # bound on the domain so membership can be materialized densely
    zero = b.scalar(_INT, 0)
    all_pos = b.concat(_INT, zero, pos1, pos2)
    running_max = b.prefix(_INT, "max", all_pos)
    maxv = b.last_element(_INT, running_max)
    m = b.add_cols(_INT, maxv, b.scalar(_INT, 1))
    membership = _membership_bitmap(b, m, pos2)
    in_second = b.gather("bit", pos1, membership)
    keep = b.ew("not", {}, arguments=in_second)
    kept_pos = b.add("select", {"type": _INT}, data=pos1, selection=keep)
    kept_data = b.add("select", {"type": t}, data=data1, selection=keep)
    b.result("pos", b.concat(_INT, kept_pos, pos2))
    b.result("data", b.concat(t, kept_data, data2))
    return b.build()


def _overlay_verify(params, cols):
    return (
        len(cols["pos_1"]) == len(cols["data_1"])
        and len(cols["pos_2"]) == len(cols["data_2"])
        and _is_distinct(cols["pos_1"].values)
        and _is_distinct(cols["pos_2"].values)
    )


def _overlay_encode(params, family):
    # canonical encoded form: the subcolumn itself plus an empty overlay
    sc = SubcolumnStd(family["pos"], family["data"]).canonical()
    t = _et(params)
    return {
        "pos_1": sc.pos,
        "data_1": sc.data,
        "pos_2": Column(INT, []),
        "data_2": Column(t, []),
    }


register_scheme(
    "subcolumn.overlay",
    _TYPED,
    build_decoder=_overlay_decoder,
    encode=_overlay_encode,
    host_verify=_overlay_verify,
    equivalent=subcolumn_family_equivalent,
)


def _disjoint_union_decoder(params):
    t = params["type"]
    b = CircuitBuilder()
    b.result("pos", b.concat(_INT, b.input("pos_1"), b.input("pos_2")))
    b.result("data", b.concat(t, b.input("data_1"), b.input("data_2")))
    return b.build()


def _disjoint_union_verify(params, cols):
    if not _overlay_verify(params, cols):
        return False
    return not (set(cols["pos_1"].values) & set(cols["pos_2"].values))


def _disjoint_union_encode(params, family):
    sc = SubcolumnStd(family["pos"], family["data"]).canonical()
    t = _et(params)
    return {"pos_1": sc.pos, "data_1": sc.data, "pos_2": Column(INT, []), "data_2": Column(t, [])}


register_scheme(
    "subcolumn.union.disjoint",
    _TYPED,
    build_decoder=_disjoint_union_decoder,
    encode=_disjoint_union_encode,
    host_verify=_disjoint_union_verify,
    equivalent=subcolumn_family_equivalent,
)


# -- full-column schemes from subcolumn combinations ----------------------------------


def _complementing_decoder(params):
    t = params["type"]
    b = CircuitBuilder()
    pos = b.input("pos")
    data1 = b.input("data_1")
    data2 = b.input("data_2")
    n = b.add_cols(_INT, b.length(data1, t), b.length(data2, t))
    membership = _membership_bitmap(b, n, pos)
    complement = b.add("select_indices", {}, characteristic=b.ew("not", {}, arguments=membership))
    base = b.replicate(t, b.scalar(t, _et(params).zero()), n)
    first = b.scatter(t, base, pos, data1)
    b.result("col", b.scatter(t, first, complement, data2))
    return b.build()


def _complementing_verify(params, cols):
    pos, d1 = cols["pos"], cols["data_1"]
    return len(pos) == len(d1) and _positions(pos.values, len(d1) + len(cols["data_2"]))


def _complementing_encode(params, family):
    col = family["col"]
    # canonical choice: first subcolumn empty, everything in the complement
    t = _et(params)
    return {"pos": Column(INT, []), "data_1": Column(t, []), "data_2": col}


register_scheme(
    "column.complementing",
    _TYPED,
    build_decoder=_complementing_decoder,
    encode=_complementing_encode,
    host_verify=_complementing_verify,
)


def _overlaid_decoder(params):
    t = params["type"]
    b = CircuitBuilder()
    out = b.scatter(t, b.input("data"), b.input("overlay_pos"), b.input("overlay_data"))
    b.result("col", out)
    return b.build()


def _overlaid_verify(params, cols):
    pos = cols["overlay_pos"]
    return len(pos) == len(cols["overlay_data"]) and _positions(pos.values, len(cols["data"]))


def _overlaid_encode(params, family):
    return {
        "data": family["col"],
        "overlay_pos": Column(INT, []),
        "overlay_data": Column(_et(params), []),
    }


register_scheme(
    "column.overlaid",
    _TYPED,
    build_decoder=_overlaid_decoder,
    encode=_overlaid_encode,
    host_verify=_overlaid_verify,
)


# -- segmentations ---------------------------------------------------------------------


def _segmentation_ok(start, length, n=None):
    return len(start) > 0 and _tiled(start, length) and (n is None or start[-1] + length[-1] == n)


def _segmentation_decoder(params):
    b = CircuitBuilder()
    start = b.input("start")
    length = b.input("length")
    ends = b.add_cols(_INT, start, length)
    n = b.last_element(_INT, ends)
    b.result("col", b.iota(n))
    return b.build()


def _segmentation_encode(params, family):
    col = family["col"]
    if list(col.values) != list(range(len(col))):
        raise NotEncodable("segmentations represent identity columns only")
    return {"start": Column(INT, [0]), "length": Column(INT, [len(col)])}


register_scheme(
    "segmentation",
    {},
    build_decoder=_segmentation_decoder,
    encode=_segmentation_encode,
    host_verify=lambda p, cols: _segmentation_ok(cols["start"].values, cols["length"].values),
)


def _uniform_segmentation_decoder(params):
    b = CircuitBuilder()
    b.sink(b.input("segment_length"), _INT)
    b.result("col", b.iota(b.input("overall_length")))
    return b.build()


def _uniform_segmentation_encode(params, family):
    col = family["col"]
    if list(col.values) != list(range(len(col))):
        raise NotEncodable("segmentations represent identity columns only")
    ell = params.get("segment_length", max(1, len(col)))
    return {"segment_length": scalar_column(INT, ell), "overall_length": scalar_column(INT, len(col))}


register_scheme(
    "segmentation.uniform",
    {"segment_length": POSITIVE.optional()},
    build_decoder=_uniform_segmentation_decoder,
    encode=_uniform_segmentation_encode,
    host_verify=lambda p, cols: len(cols["segment_length"]) == 1
    and len(cols["overall_length"]) == 1
    and cols["segment_length"][0] >= 1,
)


def _segmented_decoder(params):
    t = params["type"]
    b = CircuitBuilder()
    b.sink(b.input("segment_start_pos"), _INT)
    b.sink(b.input("segment_length"), _INT)
    b.result("col", b.noop(b.input("data"), t))
    return b.build()


def _segmented_encode(params, family):
    col = family["col"]
    return {
        "data": col,
        "segment_start_pos": Column(INT, [0]),
        "segment_length": Column(INT, [len(col)]),
    }


register_scheme(
    "segmented",
    _TYPED,
    build_decoder=_segmented_decoder,
    encode=_segmented_encode,
    host_verify=lambda p, cols: _segmentation_ok(
        cols["segment_start_pos"].values, cols["segment_length"].values, len(cols["data"])
    ),
)


def _uniformly_segmented_decoder(params):
    t = params["type"]
    b = CircuitBuilder()
    b.sink(b.input("segment_length"), _INT)
    b.result("col", b.noop(b.input("data"), t))
    return b.build()


def _uniformly_segmented_encode(params, family):
    ell = params.get("segment_length", 1)
    return {"data": family["col"], "segment_length": scalar_column(INT, ell)}


register_scheme(
    "segmented.uniform",
    {"type": TYPE, "segment_length": POSITIVE.optional()},
    build_decoder=_uniformly_segmented_decoder,
    encode=_uniformly_segmented_encode,
    host_verify=lambda p, cols: len(cols["segment_length"]) == 1 and cols["segment_length"][0] >= 1,
)


def _segmented_subcolumn_decoder(params):
    t = params["type"]
    ell = params["segment_length"]
    b = CircuitBuilder()
    b.sink(b.input("segment_length"), _INT)
    segment_pos = b.input("segment_pos")
    data = b.noop(b.input("data"), t)
    n = b.length(data, t)
    idx = b.iota(n)
    seg = b.ew("clip_by", {"type": _INT, "k": ell}, arguments=idx)
    seg_base = b.gather(_INT, seg, segment_pos)
    base = b.ew("scale", {"type": _INT, "k": ell}, arguments=seg_base)
    offset = b.sub_cols(_INT, idx, b.ew("scale", {"type": _INT, "k": ell}, arguments=seg))
    b.result("pos", b.add_cols(_INT, base, offset))
    b.result("data", data)
    return b.build()


def _segmented_subcolumn_verify(params, cols):
    ell = params["segment_length"]
    if not _holds(cols, "segment_length", ell):
        return False
    n = len(cols["data"])
    segs = cols["segment_pos"].values
    if len(segs) != _segment_count(n, ell) or not _is_distinct(segs):
        return False
    return not n % ell or segs[-1] == max(segs)  # slack participates only as the maximal position


def _segmented_subcolumn_encode(params, family):
    ell = params["segment_length"]
    sc = SubcolumnStd(family["pos"], family["data"]).canonical()
    pos = sc.pos.values
    segs, data_order = [], []
    i = 0
    while i < len(pos):
        seg = pos[i] // ell
        run = [p for p in pos[i : i + ell] if p // ell == seg]
        expected = list(range(seg * ell, seg * ell + len(run)))
        if list(run) != expected:
            raise NotEncodable(f"domain does not respect the {ell}-segmentation near index {pos[i]}")
        if len(run) < ell and any(p // ell > seg for p in pos):
            raise NotEncodable("a short segment is only allowed at the maximal position")
        segs.append(seg)
        data_order.extend(sc.data.values[i : i + len(run)])
        i += len(run)
    return {
        "segment_length": scalar_column(INT, ell),
        "segment_pos": Column(INT, segs),
        "data": Column(sc.data.element_type, data_order),
    }


register_scheme(
    "subcolumn.segmented",
    {"type": TYPE, "segment_length": POSITIVE},
    build_decoder=_segmented_subcolumn_decoder,
    encode=_segmented_subcolumn_encode,
    host_verify=_segmented_subcolumn_verify,
    equivalent=subcolumn_family_equivalent,
)


# -- index sets ------------------------------------------------------------------------


def indexset_equivalent(params, a, b):
    return (
        a["full_length"].values == b["full_length"].values
        and sorted(a["elements"].values) == sorted(b["elements"].values)
    )


def _sparse_indexset_decoder(params):
    b = CircuitBuilder()
    full = b.noop(b.input("full_length"), _INT)
    elements = b.input("elements")
    membership = _membership_bitmap(b, full, elements)
    b.result("full_length", full)
    b.result("elements", b.add("select_indices", {}, characteristic=membership))
    return b.build()


def _sparse_indexset_verify(params, cols):
    full = cols["full_length"]
    return len(full) == 1 and _positions(cols["elements"].values, full[0])


def _sparse_indexset_encode(params, family):
    n = family["full_length"].scalar()
    vals = sorted(family["elements"].values)
    if any(v >= n for v in vals) or not _is_distinct(vals):
        raise NotEncodable("index set elements must be distinct and below full_length")
    return {"full_length": scalar_column(INT, n), "elements": Column(INT, vals)}


register_scheme(
    "indexset.sparse",
    {},
    build_decoder=_sparse_indexset_decoder,
    encode=_sparse_indexset_encode,
    host_verify=_sparse_indexset_verify,
    equivalent=indexset_equivalent,
)


def _dense_indexset_decoder(params):
    b = CircuitBuilder()
    char = b.input("characteristic")
    b.result("full_length", b.length(char, "bit"))
    b.result("elements", b.add("select_indices", {}, characteristic=char))
    return b.build()


def _dense_indexset_encode(params, family):
    n = family["full_length"].scalar()
    members = set(family["elements"].values)
    if any(v >= n for v in members):
        raise NotEncodable("index set elements must be below full_length")
    return {"characteristic": Column(BIT, [1 if i in members else 0 for i in range(n)])}


register_scheme(
    "indexset.dense",
    {},
    build_decoder=_dense_indexset_decoder,
    encode=_dense_indexset_encode,
    equivalent=indexset_equivalent,
)


def _contiguous_indexset_decoder(params):
    b = CircuitBuilder()
    start = b.input("start")
    length = b.input("length")
    full = b.noop(b.input("full_length"), _INT)
    base = b.iota(length)
    shift = b.replicate(_INT, start, length)
    b.result("full_length", full)
    b.result("elements", b.add_cols(_INT, base, shift))
    return b.build()


def _contiguous_indexset_verify(params, cols):
    if any(len(cols[k]) != 1 for k in ("start", "length", "full_length")):
        return False
    return cols["start"][0] + cols["length"][0] <= cols["full_length"][0]


def _contiguous_indexset_encode(params, family):
    n = family["full_length"].scalar()
    vals = sorted(family["elements"].values)
    if vals and vals != list(range(vals[0], vals[0] + len(vals))):
        raise NotEncodable("index set is not contiguous")
    start = vals[0] if vals else 0
    if start + len(vals) > n:
        raise NotEncodable("range exceeds full_length")
    return {
        "start": scalar_column(INT, start),
        "length": scalar_column(INT, len(vals)),
        "full_length": scalar_column(INT, n),
    }


register_scheme(
    "indexset.contiguous",
    {},
    build_decoder=_contiguous_indexset_decoder,
    encode=_contiguous_indexset_encode,
    host_verify=_contiguous_indexset_verify,
    equivalent=indexset_equivalent,
)


# -- partitions -------------------------------------------------------------------------


def _partition_decoder(params):
    k = params["k"]
    b = CircuitBuilder()
    part = b.input("partition")
    for j in range(k):
        match = b.ew("const_compare", {"type": _INT, "cmp": "eq", "value": j}, arguments=part)
        pos = b.add("select_indices", {}, characteristic=match)
        b.result(f"pos_{j + 1}", pos)
        b.result(f"data_{j + 1}", pos)
    return b.build()


def _partition_verify(params, cols):
    k = params["k"]
    return _col_below(cols["partition"], k)


def _partition_encode(params, family):
    k = params["k"]
    n = None
    assignment = {}
    for j in range(k):
        pos = family[f"pos_{j + 1}"].values
        for p in pos:
            if p in assignment:
                raise NotEncodable(f"index {p} appears in two parts")
            assignment[p] = j
    n = len(assignment)
    if sorted(assignment) != list(range(n)):
        raise NotEncodable("parts must cover the index range without gaps")
    return {"partition": Column(INT, [assignment[i] for i in range(n)])}


def _partition_equivalent(params, a, b):
    k = params["k"]

    def parts(fam):
        return [tuple(sorted(fam[f"pos_{j + 1}"].values)) for j in range(k)]

    return parts(a) == parts(b)


register_scheme(
    "partition",
    {"k": PARTS},
    build_decoder=_partition_decoder,
    encode=_partition_encode,
    host_verify=_partition_verify,
    equivalent=_partition_equivalent,
)


def _partitioned_k_decoder(params):
    k = params["k"]
    t = params["type"]
    b = CircuitBuilder()
    poss = [b.input(f"pos_{j + 1}") for j in range(k)]
    datas = [b.input(f"data_{j + 1}") for j in range(k)]
    n = b.length(poss[0], _INT)
    for j in range(1, k):
        n = b.add_cols(_INT, n, b.length(poss[j], _INT))
    out = b.replicate(t, b.scalar(t, _et(params).zero()), n)
    for j in range(k):
        out = b.scatter(t, out, poss[j], datas[j])
    b.result("col", out)
    return b.build()


def _partitioned_k_verify(params, cols):
    k = params["k"]
    if any(len(cols[f"pos_{j + 1}"]) != len(cols[f"data_{j + 1}"]) for j in range(k)):
        return False
    pos = [p for j in range(k) for p in cols[f"pos_{j + 1}"].values]
    return _positions(pos, len(pos))  # the parts are disjoint and cover every index


def _partitioned_k_encode(params, family):
    k = params["k"]
    col = family["col"]
    partition = params.get("partition")
    n = len(col)
    if partition is None:
        assignment = [0] * n  # canonical default: everything in part 1
    else:
        assignment = list(partition)
        if len(assignment) != n or any(j >= k for j in assignment):
            raise NotEncodable("partition assignment does not match the column")
    out = {}
    for j in range(k):
        idxs = [i for i in range(n) if assignment[i] == j]
        out[f"pos_{j + 1}"] = Column(INT, idxs)
        out[f"data_{j + 1}"] = Column(col.element_type, [col[i] for i in idxs])
    return out


register_scheme(
    "partition.k",
    {"type": TYPE, "k": PARTS, "partition": PARTITION},
    build_decoder=_partitioned_k_decoder,
    encode=_partitioned_k_encode,
    host_verify=_partitioned_k_verify,
)


# -- components -------------------------------------------------------------------------


def _components_types(params):
    return list(map(parse_type, params["types"]))


def _components_decoder(params):
    types = _components_types(params)
    b = CircuitBuilder()
    wired = {f"component_{i + 1}": b.input(f"component_{i + 1}") for i in range(len(types))}
    zipped = b.add("zip", {"types": [str(t) for t in types]}, **wired)
    b.result("zipped", zipped)
    return b.build()


def _components_verify(params, cols):
    lengths = {len(c) for c in cols.values()}
    return len(lengths) <= 1


def _components_encode(params, family):
    types = _components_types(params)
    zipped = family["zipped"]
    columns = [[] for _ in types]
    for v in zipped.values:
        for i, item in enumerate(v):
            columns[i].append(item)
    return {f"component_{i + 1}": Column(types[i], columns[i]) for i in range(len(types))}


register_scheme(
    "components",
    {"types": TYPES},
    build_decoder=_components_decoder,
    encode=_components_encode,
    host_verify=_components_verify,
)


def _concat_components_decoder(params):
    k = params["k"]
    t = params["type"]
    b = CircuitBuilder()
    comp = b.add(
        "compose_segments",
        {"type": t, "k": k},
        segment_length=b.input("segment_length"),
        components=b.input("components"),
    )
    b.result("composed", comp)
    return b.build()


def _concat_components_verify(params, cols):
    k = params["k"]
    if len(cols["segment_length"]) != 1:
        return False
    ell = cols["segment_length"][0]
    return len(cols["components"]) == ell * k


def _concat_components_encode(params, family):
    k = params["k"]
    zipped = family["composed"]
    t = _et(params)
    parts = [[v[j] for v in zipped.values] for j in range(k)]
    flat = [x for part in parts for x in part]
    return {
        "segment_length": scalar_column(INT, len(zipped)),
        "components": Column(t, flat),
    }


register_scheme(
    "components.concatenated",
    {"type": TYPE, "k": PARTS},
    build_decoder=_concat_components_decoder,
    encode=_concat_components_encode,
    host_verify=_concat_components_verify,
)


def _shattered_decoder(params):
    k = params["k"]
    t = params["type"]
    b = CircuitBuilder()
    comp = b.add(
        "assemble",
        {"type": t, "k": k},
        segment_length=b.input("segment_length"),
        components=b.input("components"),
    )
    b.result("composed", comp)
    return b.build()


def _shattered_verify(params, cols):
    k = params["k"]
    return _holds(cols, "segment_length", k) and len(cols["components"]) % k == 0


def _shattered_encode(params, family):
    k = params["k"]
    zipped = family["composed"]
    t = _et(params)
    flat = [x for v in zipped.values for x in v]
    return {"segment_length": scalar_column(INT, k), "components": Column(t, flat)}


register_scheme(
    "components.shattered",
    {"type": TYPE, "k": PARTS},
    build_decoder=_shattered_decoder,
    encode=_shattered_encode,
    host_verify=_shattered_verify,
)


def _value_indicators_decoder(params):
    d = params["domain_size"]
    b = CircuitBuilder()
    b.sink(b.input("domain_size"), _INT)
    bitmaps = b.input("bitmaps")
    total = b.length(bitmaps, "bit")
    n = b.ew("clip_by", {"type": _INT, "k": d}, arguments=total)
    acc = None
    for j in range(d):
        offset = b.ew("scale", {"type": _INT, "k": j}, arguments=n)  # scalar j*n
        idx = b.add_cols(_INT, b.iota(n), b.replicate(_INT, offset, n))
        seg = b.gather("bit", idx, bitmaps)
        wide = b.cast("bit", _INT, seg)
        term = b.ew("scale", {"type": _INT, "k": j}, arguments=wide)
        acc = term if acc is None else b.add_cols(_INT, acc, term)
    b.result("col", acc if acc is not None else b.iota(b.scalar(_INT, 0)))
    return b.build()


def _value_indicators_verify(params, cols):
    d = params["domain_size"]
    if not _holds(cols, "domain_size", d):
        return False
    bits = cols["bitmaps"].values
    if d < 1 or len(bits) % d:
        return False
    n = len(bits) // d
    return all(sum(bits[j * n + i] for j in range(d)) == 1 for i in range(n))


def _value_indicators_encode(params, family):
    d = params["domain_size"]
    if d < 1:
        raise NotEncodable(f"domain_size must be at least 1, got {d}")
    col = family["col"]
    if any(v >= d for v in col.values):
        raise NotEncodable(f"value outside the {d}-value domain")
    n = len(col)
    bits = [0] * (n * d)
    for i, v in enumerate(col.values):
        bits[v * n + i] = 1
    return {"domain_size": scalar_column(INT, d), "bitmaps": Column(BIT, bits)}


register_scheme(
    "value.indicators",
    {"domain_size": DOMAIN_SIZE},
    build_decoder=_value_indicators_decoder,
    encode=_value_indicators_encode,
    host_verify=_value_indicators_verify,
)


# -- variable-width columns ----------------------------------------------------------------


def varwidth_elements(family: dict) -> list:
    """Element list view: tuple of base values per element.

    Raises ``NotEncodable`` unless there is one length per start position.
    """
    start = family["start_position"].values
    length = family["length"].values
    if len(start) != len(length):
        raise NotEncodable(f"{len(start)} start positions but {len(length)} lengths")
    data = family["data"].values
    return [tuple(data[s : s + l]) for s, l in zip(start, length)]


def varwidth_equivalent(params, a, b):
    return (
        varwidth_elements(a) == varwidth_elements(b)
        and a["data"].element_type == b["data"].element_type
    )


def canonical_varwidth(elements, base_type: ElementType) -> dict:
    """The standard form of a sequence of elements: each stored right after the one before."""
    lengths = list(map(len, elements))
    starts = list(accumulate(lengths, initial=0))
    del starts[-1]  # where an element after the last would start
    data = list(chain.from_iterable(elements))
    return {
        "start_position": Column(INT, starts),
        "length": Column(INT, lengths),
        "data": Column(base_type, data),
    }


def _varwidth_std_decoder(params):
    t = params["type"]
    b = CircuitBuilder()
    starts = b.input("start_position")
    lengths = b.noop(b.input("length"), _INT)
    data = b.input("data")
    out_starts, out_data = expand_ranges(b, t, starts, lengths, data)
    b.result("start_position", out_starts)
    b.result("length", lengths)
    b.result("data", out_data)
    return b.build()


def _varwidth_std_verify(params, cols):
    starts = cols["start_position"].values
    lengths = cols["length"].values
    if len(starts) != len(lengths):
        return False
    return _ranges_within(starts, lengths, len(cols["data"]))


def _varwidth_std_encode(params, family):
    if not _varwidth_std_verify(params, family):
        raise NotEncodable("element ranges must lie within the data column")
    return canonical_varwidth(varwidth_elements(family), family["data"].element_type)


register_scheme(
    "varwidth.std",
    _TYPED,
    build_decoder=_varwidth_std_decoder,
    encode=_varwidth_std_encode,
    host_verify=_varwidth_std_verify,
    equivalent=varwidth_equivalent,
)


def _capped_width_decoder(params):
    t = params["type"]
    b = CircuitBuilder()
    max_len = b.input("max_length")
    lengths = b.noop(b.input("lengths"), _INT)
    data = b.input("data")
    n = b.length(lengths, _INT)
    slot = b.replicate(_INT, max_len, n)
    starts = b.ew("mul", {"type": _INT}, lhs=b.iota(n), rhs=slot)
    out_starts, out_data = expand_ranges(b, t, starts, lengths, data)
    b.result("start_position", out_starts)
    b.result("length", lengths)
    b.result("data", out_data)
    return b.build()


def _capped_width_verify(params, cols):
    if len(cols["max_length"]) != 1:
        return False
    m = cols["max_length"][0]
    lengths = cols["lengths"].values
    if any(l > m for l in lengths):
        return False
    return len(cols["data"]) == m * len(lengths)


def _capped_width_encode(params, family):
    elements = varwidth_elements(family)
    base = family["data"].element_type
    m = params.get("max_length", max((len(e) for e in elements), default=1) or 1)
    filler = base.zero()
    data, lengths = [], []
    for e in elements:
        if len(e) > m:
            raise NotEncodable(f"element of width {len(e)} exceeds the cap {m}")
        lengths.append(len(e))
        data.extend(e)
        data.extend(_padding(filler, m - len(e)))
    return {
        "max_length": scalar_column(INT, m),
        "lengths": Column(INT, lengths),
        "data": Column(base, data),
    }


register_scheme(
    "varwidth.capped",
    {"type": TYPE, "max_length": PARTS.optional()},  # padding per element
    build_decoder=_capped_width_decoder,
    encode=_capped_width_encode,
    host_verify=_capped_width_verify,
    equivalent=varwidth_equivalent,
)


# -- nullable recipes ----------------------------------------------------------------------


def _nullable_complementing_decoder(params):
    t = params["type"]
    b = CircuitBuilder()
    pos = b.input("pos")
    data = b.input("data")
    n = b.input("length")
    null_value = b.input("null_value")
    base = b.replicate(t, null_value, n)
    b.result("col", b.scatter(t, base, pos, data))
    return b.build()


def _nullable_complementing_verify(params, cols):
    if len(cols["length"]) != 1 or len(cols["null_value"]) != 1:
        return False
    pos = cols["pos"].values
    return len(pos) == len(cols["data"]) and _positions(pos, cols["length"][0])


def _nullable_complementing_encode(params, family):
    col = family["col"]
    null_value = params["null_value"]
    idx = [i for i, v in enumerate(col.values) if v != null_value]
    return {
        "pos": Column(INT, idx),
        "data": Column(col.element_type, [col[i] for i in idx]),
        "length": scalar_column(INT, len(col)),
        "null_value": scalar_column(col.element_type, null_value),
    }


register_scheme(
    "nullable.complementing",
    {"type": TYPE, "null_value": VALUE},
    build_decoder=_nullable_complementing_decoder,
    encode=_nullable_complementing_encode,
    host_verify=_nullable_complementing_verify,
)


def _nullable_patched_decoder(params):
    t = params["type"]
    b = CircuitBuilder()
    data = b.input("data")
    pos = b.input("overlay_pos")
    null_value = b.input("null_value")
    fill = b.replicate(t, null_value, b.length(pos, _INT))
    b.result("col", b.scatter(t, data, pos, fill))
    return b.build()


def _nullable_patched_verify(params, cols):
    return len(cols["null_value"]) == 1 and _positions(cols["overlay_pos"].values, len(cols["data"]))


def _nullable_patched_encode(params, family):
    col = family["col"]
    null_value = params["null_value"]
    idx = [i for i, v in enumerate(col.values) if v == null_value]
    return {
        "data": col,
        "overlay_pos": Column(INT, idx),
        "null_value": scalar_column(col.element_type, null_value),
    }


register_scheme(
    "nullable.patched",
    {"type": TYPE, "null_value": VALUE},
    build_decoder=_nullable_patched_decoder,
    encode=_nullable_patched_encode,
    host_verify=_nullable_patched_verify,
)
