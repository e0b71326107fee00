"""Generic codec composition patterns.

Each recipe manufactures a new :class:`CodecEntry` out of registered inner
schemes.  A composed decoder is one builder program that embeds each inner
decoder, fed from its encoded-form labels under a prefix ending in ``:`` (no
recipe label has one).  Segmentization declares its encoded form instead of
deriving it.  Over a position-wise inner scheme (see
:class:`_SegmentizedCodec`) decoding commutes with segmentation, so its
decoder embeds the inner decoder once over the concatenated segments and
adds the length checks.  Over any other inner scheme it lifts the catalog's
``segmentized`` operator, which runs the inner decoder per segment in a
host loop: the number of segments is data-dependent, so that decoder
cannot be unrolled into a fixed circuit.

Every composed codec verifies and decodes by one rule (see
:class:`_ComposedCodec`): its parts are checked and decoded once, and a
checked decode hands them to the rest of its decoder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate, chain, islice, repeat
from operator import sub
from typing import NamedTuple

from .builder import CircuitBuilder, Input
from .circuit import ColumnarCircuit, check_valid, evaluate_circuit
from .codec import CodecEntry, _partition_hint, _resolved, _segments_hint, codec, register_codec
from .column import Column, _range_of, _segment_lengths, scalar_column
from .errors import ColcircError, EvaluationError, NotEncodable, OperatorError
from .ops import _set, register_operator
from .params import NAME, PARTITION, POSITIVE, SEGMENTS, TYPE, WIDTH, check
from .rep_schemes import _col_below, _holds, _positions
from .transform import cut_label, induced_subcircuit
from .types import INT, Kind, parse_type

_INT = str(INT)
_WIDE = "i64"
_WIDE_LO, _WIDE_HI = parse_type(_WIDE).bounds()


@dataclass(frozen=True)
class CompositionRecipe:
    kind: str  # segmentize-uniform | segmentize-variable | patch | alternate
    #           | elementwise-add | differentiate | small-dict-fit
    scheme_id: str
    inner: tuple  # of (scheme_id, params) pairs
    options: dict = field(default_factory=dict)


def compose(recipe: CompositionRecipe) -> CodecEntry:
    """A new codec of ``recipe``, registered; its options are checked against its kind's declared ones first."""
    if recipe.kind not in _KINDS:
        raise NotEncodable(f"unknown composition kind {recipe.kind!r}")
    make, options = _KINDS[recipe.kind]
    check(options, recipe.options, missing=NotEncodable, what=f"{recipe.kind} option")
    return register_codec(make(recipe))


def _strip(prefix, columns):
    return {label[len(prefix) :]: col for label, col in columns.items() if label.startswith(prefix)}


def _wide_bounds(t):
    """The values of integer type ``t`` that survive a decoder's trip through ``i64`` and back."""
    lo, hi = t.bounds()
    return max(lo, _WIDE_LO), min(hi, _WIDE_HI)


def _inner_decode(decoder, columns) -> Column:
    return evaluate_circuit(decoder, columns)["out:col"]


def _decoded(pieces):
    """Each ``(inner, piece)`` of ``pieces`` decoded by its inner ``(entry, iparams, decoder)``; None
    if an inner verifier rejects its piece or a decode fails."""
    out = []
    for (entry, iparams, decoder), piece in pieces:
        if not entry.verify_columns(iparams, piece):
            return None
        try:
            out.append(_inner_decode(decoder, piece))
        except ColcircError:
            return None
    return out


class _Tail(NamedTuple):
    circuit: ColumnarCircuit  # the decoder's vertices outside its parts, under their own ids
    feeds: tuple  # (tail input label, inner index): the cut in-ports each decoded part feeds


def _tail_of(decoder: ColumnarCircuit, parts) -> _Tail:
    """``decoder`` without the inner decoders ``parts`` lists: (inner index, its vertex ids) each.

    An input relay that feeds part vertices only goes with them.  What is
    left reads the recipe's own columns and, at each cut in-port, a decoded
    part.
    """
    part_of = {vid: i for i, vids in parts for vid in vids}
    feeds_parts_only = {}
    for s, t in decoder.edges:
        if s.vertex_id not in part_of:
            feeds_parts_only[s.vertex_id] = feeds_parts_only.get(s.vertex_id, True) and t.vertex_id in part_of
    keep = [
        vid
        for vid, op in decoder.vertices.items()
        if vid not in part_of and not (op.op_name == "no_op" and feeds_parts_only.get(vid))
    ]
    feeds = sorted(
        (cut_label(t), part_of[s.vertex_id])
        for s, t in decoder.edges
        if s.vertex_id in part_of and t.vertex_id not in part_of
    )
    return _Tail(check_valid(induced_subcircuit(decoder, keep)), tuple(feeds))


class _ComposedCodec(CodecEntry):
    """Shared plumbing: the inner schemes, each under its label prefix, and the one checked-decode rule.

    ``inners`` holds ``(entry, iparams, decoder)`` per inner scheme, resolved
    once: the params remember the decoder, so checking a part keys nothing.
    A subclass wires its decoder in ``_wire(b, embed)``, where ``embed(i)``
    embeds inner decoder ``i`` and notes the vertices it took; the rest is
    the decoder's *tail* (:func:`_tail_of`), built with it and kept on it.

    ``_parts`` checks and decodes every part.  The verifier is ``_parts``
    and then the recipe's ``_relation``.  A checked decode is the form
    check, ``_parts``, the recipe's ``_guard`` (what of its relation the
    tail does not enforce by failing) and ``_finish``, the tail on the
    decoded parts; if the tail fails, the relation decides between a
    rejection and the decoder's own error.
    """

    def __init__(self, recipe, prefixes, hints=None):
        super().__init__(recipe.scheme_id, params=hints)
        if not prefixes or len(recipe.inner) != len(prefixes):
            raise NotEncodable(f"{recipe.kind} cannot compose {len(recipe.inner)} inner schemes")
        self.recipe = recipe
        self.prefixes = prefixes
        self.inners = []
        for sid, iparams in recipe.inner:
            entry = codec(sid)
            iparams = _resolved(entry, iparams)
            try:
                decoder = entry.decoder(iparams)
            except ColcircError as e:
                raise NotEncodable(f"inner scheme {sid}: {e}") from e
            if list(decoder.signature.outputs) != ["out:col"]:
                raise NotEncodable(f"{sid} does not decode to a single column")
            self.inners.append((entry, iparams, decoder))
        types = {str(decoder.signature.outputs["out:col"]) for _, _, decoder in self.inners}
        if len(types) != 1:
            raise NotEncodable(f"{recipe.kind} needs inner schemes of one decoded type, not {sorted(types)}")
        self.data_type = types.pop()

    def build_decoder(self, params):
        b = CircuitBuilder()
        parts = []

        def embed(i):
            placed = len(b._vertices)
            out = self._embed(b, i)
            parts.append((i, list(islice(b._vertices, placed, None))))
            return out

        self._wire(b, embed)
        decoder = b.build()
        _set(decoder, "_tail", _tail_of(decoder, parts))  # before any other thread can see the decoder
        return decoder

    def _embed(self, b, i):
        """Inner decoder ``i`` embedded in ``b``, fed from its prefixed labels: its decoded column."""
        decoder = self.inners[i][2]
        feeds = {label: b.input(self.prefixes[i] + label) for label in decoder.signature.inputs}
        return b.embed(decoder, feeds)["out:col"]

    def _parts(self, columns):
        """Each part, unprefixed and decoded by its inner scheme; None if one rejects its part or fails to decode it."""
        return _decoded(zip(self.inners, [_strip(prefix, columns) for prefix in self.prefixes]))

    def _guard(self, columns, parts) -> bool:
        return True

    def host_verify(self, params, columns):
        parts = self._parts(columns)
        return parts is not None and self._relation(columns, parts)

    def decode_verified(self, params, columns):
        if not self.check_form(params, columns):
            return None
        parts = self._parts(columns)
        if parts is None or not self._guard(columns, parts):
            return None
        try:
            return self._finish(params, columns, parts)
        except EvaluationError:
            if not self._relation(columns, parts):
                return None
            raise

    def _finish(self, params, columns, parts):
        tail, feeds = self.decoder(params)._tail
        inputs = dict(columns)
        for label, i in feeds:
            inputs[label] = parts[i]
        return evaluate_circuit(tail, inputs)

    def _encoded(self, i, family):
        """Inner scheme ``i``'s encoding of ``family``, under its prefix."""
        entry, iparams, _ = self.inners[i]
        return {self.prefixes[i] + label: c for label, c in entry.encode(iparams, family).items()}


# -- patching -------------------------------------------------------------------------


class _PatchedCodec(_ComposedCodec):
    def __init__(self, recipe):
        super().__init__(recipe, ["base:"])

    def _wire(self, b, embed):
        b.result("col", b.scatter(self.data_type, embed(0), b.input("patch_pos"), b.input("patch_data")))

    def _relation(self, columns, parts):
        pos = columns["patch_pos"].values
        return len(pos) == len(columns["patch_data"]) and _positions(pos, len(parts[0]))

    def encode(self, params, family):
        col = family["col"]
        entry, iparams, _ = self.inners[0]
        try:
            base_family, patches = entry.fit(iparams, {"col": col})
        except NotEncodable:
            base_family, patches = {"col": col}, []
        out = self._encoded(0, base_family)
        out["patch_pos"] = Column(INT, [p for p, _ in patches])
        out["patch_data"] = Column(parse_type(self.data_type), [v for _, v in patches])
        return out


# -- elementwise addition ----------------------------------------------------------------


class _ElementwiseAddCodec(_ComposedCodec):
    def __init__(self, recipe):
        super().__init__(recipe, ["a:", "b:"])

    def _wire(self, b, embed):
        t = self.data_type
        wide = _WIDE if parse_type(t).is_integer else t
        lhs = b.cast(t, wide, embed(0))
        rhs = b.cast(t, wide, embed(1))
        b.result("col", b.cast(wide, t, b.add_cols(wide, lhs, rhs)))

    def _relation(self, columns, parts):
        a, b = parts
        return len(a) == len(b) and _sums_fit(parse_type(self.data_type), a, b)

    def encode(self, params, family):
        col = family["col"]
        entry, iparams, _ = self.inners[0]
        base = entry.fit_additive(iparams, col)
        residual = Column(col.element_type, list(map(sub, col.values, base.values)))
        out = self._encoded(0, {"col": base})
        out.update(self._encoded(1, {"col": residual}))
        return out


def _sums_fit(t, a, b) -> bool:
    """True if every ``x + y`` of columns ``a`` and ``b`` survives the decoder's add (in ``i64``
    for integers) and cast back to ``t``.  Recorded ranges (``_range_of``) spare a scan."""
    xs, ys = a.values, b.values
    if not xs:
        return True
    if t.kind is Kind.FLOAT:
        return t.width_bits == 64 or all(t.contains(x + y) for x, y in zip(xs, ys))
    lo, hi = _wide_bounds(t)

    def fit(ra, rb):  # non-negative values only need the upper bound
        return ra[1] + rb[1] <= hi and (t.kind is Kind.UNSIGNED or lo <= ra[0] + rb[0])

    ra, rb = _range_of(a), _range_of(b)
    if (ra and rb and fit(ra, rb)) or fit((min(xs), max(xs)), (min(ys), max(ys))):
        return True
    return all(lo <= x + y <= hi for x, y in zip(xs, ys))


# -- differentiation / integration ---------------------------------------------------------


class _DifferentiateCodec(_ComposedCodec):
    def __init__(self, recipe):
        super().__init__(recipe, ["diff:"])
        self.diff_type, self.data_type = self.data_type, recipe.options["type"]
        if not (parse_type(self.diff_type).is_integer and parse_type(self.data_type).is_integer):
            raise NotEncodable(f"differentiate needs integer types, not {self.diff_type} and {self.data_type}")

    def _wire(self, b, embed):
        t = self.data_type
        diffs = b.cast(self.diff_type, _WIDE, embed(0))
        first = b.cast(t, _WIDE, b.input("first"))
        ps = b.prefix(_WIDE, "add", diffs)
        n1 = b.length(ps, _WIDE)
        shifted = b.add_cols(_WIDE, b.replicate(_WIDE, first, n1), ps)
        full = b.concat(_WIDE, first, shifted)
        b.result("col", b.cast(_WIDE, t, full))

    def _guard(self, columns, parts):
        # the tail's casts, prefix sum and add fail exactly when a running sum leaves ``i64``
        # or the data type
        return len(columns["first"]) == 1

    def _relation(self, columns, parts):
        first = columns["first"].values
        return len(first) == 1 and _running_sums_fit(parse_type(self.data_type), first[0], parts[0])

    def encode(self, params, family):
        col = family["col"]
        if len(col) == 0:
            raise NotEncodable("differentiation needs at least one element")
        diffs = Column(parse_type(self.diff_type), map(sub, col.values[1:], col.values))
        out = self._encoded(0, {"col": diffs})
        out["first"] = scalar_column(parse_type(self.data_type), col.values[0])
        return out


def _running_sums_fit(t, first, diffs) -> bool:
    """True if the decoder's prefix sums of the column ``diffs`` and ``first`` plus each stay
    in ``i64`` and cast back to ``t``.  A recorded range (``_range_of``) may spare the scan."""
    lo, hi = _wide_bounds(t)
    if not lo <= first <= hi:
        return False

    def fit(low, high):  # ``low`` and ``high`` bound the sums
        return _WIDE_LO <= low and high <= _WIDE_HI and lo <= first + low and first + high <= hi

    values = diffs.values
    if not values:
        return True
    rng = _range_of(diffs)
    # the k-th sum of values in [a, b] lies in [k*a, k*b], for k in 1..n
    if rng is not None and fit(min(0, len(values) * rng[0]), max(0, len(values) * rng[1])):
        return True
    # only a u64 difference can exceed i64, and then so does its (non-negative) prefix sum
    sums = list(accumulate(values))
    return fit(min(sums), max(sums))


# -- small-dictionary fitting ------------------------------------------------------------


class _SmallDictFitCodec(_ComposedCodec):
    """``subdict`` whose ``residual_data`` column the inner scheme encodes."""

    def __init__(self, recipe):
        super().__init__(recipe, ["residual:"])
        self.subdict = codec("subdict")
        self.subdict_params = {"type": self.data_type, "bits": recipe.options.get("bits", 8)}

    def _wire(self, b, embed):
        residual = embed(0)
        feeds = {"dictionary": b.input("dictionary"), "indices": b.input("indices"), "residual_data": residual}
        b.result("col", b.embed(self.subdict.decoder(self.subdict_params), feeds)["out:col"])

    def _guard(self, columns, parts):
        # with no values, the tail's gather and scatter have nothing to fail on
        return len(columns["dictionary"]) > 0

    def _relation(self, columns, parts):
        subdict = {"dictionary": columns["dictionary"], "indices": columns["indices"], "residual_data": parts[0]}
        return self.subdict.host_verify(self.subdict_params, subdict)

    def encode(self, params, family):
        encoded = self.subdict.encode(self.subdict_params, family)
        out = self._encoded(0, {"col": encoded.pop("residual_data")})
        out.update(encoded)
        return out


# -- alternation ---------------------------------------------------------------------------


class _AlternatingCodec(_ComposedCodec):
    def __init__(self, recipe):
        super().__init__(recipe, [f"s{i}:" for i in range(len(recipe.inner))], {"partition": PARTITION})

    def _wire(self, b, embed):
        t = self.data_type
        part = b.input("partition")
        out = b.replicate(t, b.scalar(t, parse_type(t).zero()), b.length(part, _INT))
        for i in range(len(self.inners)):
            match = b.ew("const_compare", {"type": _INT, "cmp": "eq", "value": i}, arguments=part)
            pos = b.add("select_indices", {}, characteristic=match)
            out = b.scatter(t, out, pos, embed(i))
        b.result("col", out)

    def _guard(self, columns, parts):
        # a part number past the parts matches no part, so the tail's scatters never see it
        return _col_below(columns["partition"], len(parts))

    def _relation(self, columns, parts):
        counts = columns["partition"].values.count
        return self._guard(columns, parts) and all(len(p) == counts(i) for i, p in enumerate(parts))

    def encode(self, params, family):
        col = family["col"]
        k = len(self.inners)
        partition = _partition_hint(params, len(col), k)
        out = {"partition": Column(INT, partition)}
        for i in range(k):
            piece = Column(col.element_type, [v for v, p in zip(col.values, partition) if p == i])
            out.update(self._encoded(i, {"col": piece}))
        return out


# -- segmentization --------------------------------------------------------------------------


def _position_wise(entry, iparams, decoder, sizes) -> bool:
    """True if ``entry`` decodes each position on its own, so decoding commutes with segmentation.

    Every vertex of its decoder is ``elementwise`` or ``no_op``, its length
    rule gives ``n`` for every encoded label (at each probed length in
    ``sizes``), and its verifier is the form check alone.  A complete
    verifier of that kind means the decoder cannot fail on well-typed
    columns, which is what lets the lifted verifier decode nothing.
    """
    if not entry.verifies_form_only():
        return False
    if any(op.op_name not in ("elementwise", "no_op") for op in decoder.vertices.values()):
        return False
    return all(entry.encoded_lengths(iparams, n) == dict.fromkeys(decoder.signature.inputs, n) for n in sizes)


def _require_equal(b, x, y):
    """Vertices that fail unless the ``u64`` columns ``x`` and ``y`` hold one equal value:
    an unsigned difference either way overflows otherwise, and a length other than 1 is
    an elementwise length mismatch."""
    b.sub_cols(_INT, x, y)
    b.sub_cols(_INT, y, x)


class _SegmentizedCodec(_ComposedCodec):
    """Apply an inner scheme separately to consecutive segments.

    Per-segment encoded lengths come from the inner scheme's static length
    rule.  The encoded form is declared (``spec``), since the ``segmentized``
    operator's signature is built from it.

    Whether the inner scheme is *position-wise* (see :func:`_position_wise`)
    is decided once, here.  If it is, ``lifted`` holds: the decoder embeds
    the inner decoder once over the ``seg:`` columns and checks that each
    holds ``total_length`` (uniform) or the sum of ``segment_lengths``
    (variable) values, ``_parts`` checks those lengths in Python and
    decodes nothing (a form check that decides membership leaves the inner
    decoder nothing to fail on), and a checked decode runs the decoder.
    Otherwise the decoder lifts the ``segmentized`` operator, which runs
    the inner decoder per segment, ``_parts`` checks and decodes every
    segment, and a checked decode concatenates them.
    """

    def __init__(self, recipe, uniform):
        super().__init__(recipe, ["seg:"], None if uniform else {"segments": SEGMENTS})
        self.uniform = uniform
        entry, iparams, decoder = self.inners[0]
        self.lengths = partial(entry.encoded_lengths, iparams)  # of one segment's encoded form, by label
        if self.lengths(1) is None:
            raise NotEncodable(f"incompatible inner scheme {entry.scheme_id}: encoded lengths are data-dependent")
        if uniform:
            self.ell = recipe.options["segment_length"]
        extra = {"segment_length": INT, "total_length": INT} if uniform else {"segment_lengths": INT}
        self.seg_labels = [f"seg:{label}" for label in decoder.signature.inputs]
        self.spec = {**extra, **dict(zip(self.seg_labels, decoder.signature.inputs.values()))}
        self.lifted = _position_wise(entry, iparams, decoder, {0, 1, 2, 3, self.ell if uniform else 4})

    def form_spec(self, params):
        return self.spec

    def _segments(self, columns):
        if not self.uniform:
            return list(columns["segment_lengths"].values)
        # ``total_length`` implies each label's encoded length: a mismatch is
        # rejected before its segments (maybe 2**40 of them) are listed
        n = columns["total_length"].scalar()
        rest = self.lengths(n % self.ell) if n % self.ell else {}
        for label, count in self.lengths(self.ell).items():
            if n // self.ell * count + rest.get(label, 0) != len(columns[f"seg:{label}"]):
                raise OperatorError("length-mismatch", f"total_length {n} does not fit segmented label {label}")
        return _segment_lengths(n, self.ell)

    def _split(self, columns, segments):
        cursors = dict.fromkeys(self.inners[0][2].signature.inputs, 0)
        pieces = []
        for seg_len in segments:
            piece = {}
            for label, count in self.lengths(seg_len).items():
                col = columns[f"seg:{label}"]
                at = cursors[label]
                # a slice of a column holds values of its type
                piece[label] = Column._trusted(col.element_type, col.values[at : at + count])
                cursors[label] = at + count
            pieces.append(piece)
        for label, at in cursors.items():
            if at != len(columns[f"seg:{label}"]):
                raise OperatorError("length-mismatch", f"unconsumed data in segmented label {label}")
        return pieces

    def decode_segments(self, columns) -> Column:
        """Run the inner decoder on each segment and concatenate the results."""
        decoder = self.inners[0][2]
        segments = self._segments(columns)
        out = []
        for seg_len, piece in zip(segments, self._split(columns, segments)):
            decoded = _inner_decode(decoder, piece)
            if len(decoded) != seg_len:
                raise OperatorError(
                    "length-mismatch", f"segment decoded to {len(decoded)} elements, wanted {seg_len}"
                )
            out.append(decoded)
        return self._concatenated(out)

    def _concatenated(self, decoded) -> Column:
        """The decoded segments ``decoded``, end to end."""
        # the inner decoder's outputs hold values of ``data_type``
        return Column._trusted(parse_type(self.data_type), list(chain.from_iterable(c.values for c in decoded)))

    def build_decoder(self, params):
        b = CircuitBuilder()  # no tail: see ``_finish``
        if not self.lifted:
            wired = {label: b.input(label) for label in self.spec}
            b.result("col", b.add("segmentized", {"scheme": self.scheme_id}, **wired))
            return b.build()
        if self.uniform:
            b.sink(b.input("segment_length"), _INT)
            total = b.input("total_length")
        else:
            total = b.total(_INT, b.input("segment_lengths"))
        col = self._embed(b, 0)
        measured = {}
        if isinstance(col, Input):  # a pass-through decoder hands its input back: relay it out, measure the relay
            measured[col.label] = col = b.noop(col, self.data_type)
        for label, t in self.inners[0][2].signature.inputs.items():
            label = f"seg:{label}"
            _require_equal(b, total, b.length(measured.get(label) or b.input(label), str(t)))
        b.result("col", col)
        return b.build()

    def _parts(self, columns):
        if self.uniform and (not _holds(columns, "segment_length", self.ell) or len(columns["total_length"]) != 1):
            return None
        if self.lifted:
            n = columns["total_length"].values[0] if self.uniform else sum(columns["segment_lengths"].values)
            return [] if all(len(columns[label].values) == n for label in self.seg_labels) else None
        try:
            segments = self._segments(columns)
            pieces = self._split(columns, segments)
        except ColcircError:  # segment lengths that do not fit the columns
            return None
        parts = _decoded(zip(repeat(self.inners[0]), pieces))
        return parts if parts is not None and list(map(len, parts)) == segments else None

    def _relation(self, columns, parts):
        return True

    def _finish(self, params, columns, parts):
        if self.lifted:
            return evaluate_circuit(self.decoder(params), columns)
        return {"out:col": self._concatenated(parts)}

    def encode(self, params, family):
        col = family["col"]
        if self.uniform:
            segments = _segment_lengths(len(col), self.ell)
        else:
            segments = _segments_hint(params, len(col))
        entry, iparams, decoder = self.inners[0]
        spec = decoder.signature.inputs
        gathered = {label: [] for label in spec}
        at = 0
        for seg_len in segments:
            # a slice of a column holds values of its type
            enc = entry.encode(iparams, {"col": Column._trusted(col.element_type, col.values[at : at + seg_len])})
            for label in spec:
                gathered[label].extend(enc[label].values)
            at += seg_len
        # the inner encoder built each piece as a column of its label's type
        out = {f"seg:{label}": Column._trusted(spec[label], vals) for label, vals in gathered.items()}
        if self.uniform:
            out["segment_length"] = scalar_column(INT, self.ell)
            out["total_length"] = scalar_column(INT, len(col))
        else:
            out["segment_lengths"] = Column(INT, segments)
        return out


# -- the segmentized operator: one catalog entry serving every segmentized scheme ----------


def _segmentized_sig(params):
    entry = codec(params["scheme"])  # kept as the instance's ``inner``
    if not isinstance(entry, _SegmentizedCodec):
        raise OperatorError("bad-params", f"{entry.scheme_id} is not a segmentized scheme")
    return dict(entry.spec), {"result": parse_type(entry.data_type)}, entry


def _segmentized_apply(inst, cols):
    return {"result": inst.inner.decode_segments(cols)}


register_operator("segmentized", _segmentized_sig, _segmentized_apply, {"scheme": NAME})


# each kind's codec, and the recipe options it declares
_KINDS = {
    "patch": (_PatchedCodec, {}),
    "elementwise-add": (_ElementwiseAddCodec, {}),
    "differentiate": (_DifferentiateCodec, {"type": TYPE}),
    "small-dict-fit": (_SmallDictFitCodec, {"bits": WIDTH.optional()}),
    "alternate": (_AlternatingCodec, {}),
    "segmentize-uniform": (lambda r: _SegmentizedCodec(r, uniform=True), {"segment_length": POSITIVE}),
    "segmentize-variable": (lambda r: _SegmentizedCodec(r, uniform=False), {}),
}
