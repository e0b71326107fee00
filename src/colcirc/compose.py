"""Generic codec composition patterns.

Each recipe manufactures a new :class:`CodecEntry` out of registered inner
schemes.  Except for the segmentize kinds, composed decoders are assembled
from the inner decoder circuits with ``circuit_union`` and ``assign_input``;
segmentization instead lifts the catalog's ``segmentized`` operator, which
runs the inner decoder per segment (the number of segments is
data-dependent, so it cannot be unrolled into a fixed circuit).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .builder import CircuitBuilder
from .circuit import ColumnarCircuit, evaluate_circuit
from .codec import CodecEntry, _without_out_prefix, codec, register_codec
from .column import Column, scalar_column
from .errors import NotEncodable, OperatorError
from .ops import OperatorInstance, Signature, register_operator
from .transform import assign_input, circuit_union, drop_output, rename_labels
from .types import INT, parse_type

_INT = str(INT)
_WIDE = "i64"


@dataclass(frozen=True)
class CompositionRecipe:
    kind: str  # segmentize-uniform | segmentize-variable | patch | alternate
    #           | elementwise-add | differentiate | small-dict-fit
    scheme_id: str
    inner: tuple  # of (scheme_id, params) pairs
    options: dict = field(default_factory=dict)


def compose(recipe: CompositionRecipe) -> CodecEntry:
    builder = _KINDS.get(recipe.kind)
    if builder is None:
        raise NotEncodable(f"unknown composition kind {recipe.kind!r}")
    entry = builder(recipe)
    return register_codec(entry)


def _single_output_decoder(entry, params) -> ColumnarCircuit:
    labels = entry.decoded_labels(params)
    if labels != ["col"]:
        raise NotEncodable(f"{entry.scheme_id} does not decode to a single column")
    return entry.decoder(params)


def _prefixed(prefix, spec):
    return {f"{prefix}{label}": t for label, t in spec.items()}


def _strip(prefix, columns):
    return {label[len(prefix) :]: col for label, col in columns.items() if label.startswith(prefix)}


def _inner_decode(entry, params, columns):
    return _without_out_prefix(evaluate_circuit(entry.decoder(params), columns))


class _ComposedCodec(CodecEntry):
    """Shared plumbing: prefixed inner labels plus recipe-specific columns."""

    def __init__(self, recipe, prefixes):
        super().__init__(recipe.scheme_id)
        self.recipe = recipe
        self.prefixes = prefixes
        self.inners = [(codec(sid), dict(p)) for sid, p in recipe.inner]
        self._form_spec = None

    def extra_spec(self):
        return {}

    def form_spec(self, params):
        # declared, not derived from the decoder: the segmentized decoder is
        # built from this spec.  It depends on the recipe alone, so it is
        # built once; a label clash is not kept, and raises on every call
        spec = self._form_spec
        if spec is not None:
            return spec
        spec = dict(self.extra_spec())
        for (entry, iparams), prefix in zip(self.inners, self.prefixes):
            inner_spec = _prefixed(prefix, entry.form_spec(iparams))
            clash = set(spec) & set(inner_spec)
            if clash:
                raise NotEncodable(f"incompatible inner scheme labels: {sorted(clash)}")
            spec.update(inner_spec)
        self._form_spec = spec
        return spec

    def normalize_params(self, params):
        return {k: v for k, v in params.items() if k not in ("partition", "segments")}


def _compose_base_plus(entry, params, prefix, tail):
    """The inner decoder's output feeds the correction stage ``tail``.

    The inner decoder's encoded-form labels take ``prefix``.  The tail
    circuit must expose a ``__base`` input of the decoded type and an
    ``out:col`` output.
    """
    renamed = rename_labels(_single_output_decoder(entry, params), {"out:col": "__inner"})
    renamed = rename_labels(renamed, {label: f"{prefix}{label}" for label in entry.form_spec(params)})
    u = circuit_union(renamed, tail)
    u = assign_input(u, "__base", u.interface["__inner"])
    return drop_output(u, "__inner")


# -- patching -------------------------------------------------------------------------


class _PatchedCodec(_ComposedCodec):
    def __init__(self, recipe):
        super().__init__(recipe, ["base:"])
        self.data_type = str(self.inners[0][1]["type"])

    def extra_spec(self):
        t = parse_type(self.data_type)
        return {"patch_pos": INT, "patch_data": t}

    def build_decoder(self, params):
        t = self.data_type
        b = CircuitBuilder()
        b.result("col", b.scatter(t, b.input("__base"), b.input("patch_pos"), b.input("patch_data")))
        return _compose_base_plus(*self.inners[0], "base:", b.build())

    def host_verify(self, params, columns):
        entry, iparams = self.inners[0]
        base = _strip("base:", columns)
        if not entry.verify_columns(iparams, base):
            return False
        decoded = _inner_decode(entry, iparams, base)["col"]
        pos = columns["patch_pos"].values
        if len(pos) != len(columns["patch_data"]) or len(set(pos)) != len(pos):
            return False
        return all(p < len(decoded) for p in pos)

    def encode(self, params, family):
        col = family["col"]
        entry, iparams = self.inners[0]
        t = parse_type(self.data_type)
        try:
            base_family, patches = entry.fit(iparams, {"col": col})
        except NotEncodable:
            base_family, patches = {"col": col}, []
        base_cols = entry.encode(iparams, base_family)
        out = {f"base:{label}": c for label, c in base_cols.items()}
        out["patch_pos"] = Column(INT, [p for p, _ in patches])
        out["patch_data"] = Column(t, [v for _, v in patches])
        return out


# -- elementwise addition ----------------------------------------------------------------


class _ElementwiseAddCodec(_ComposedCodec):
    def __init__(self, recipe):
        super().__init__(recipe, ["a:", "b:"])
        self.data_type = str(self.inners[0][1]["type"])
        for entry, iparams in self.inners:
            if entry.decoded_labels(iparams) != ["col"]:
                raise NotEncodable("elementwise-add needs single-column inner schemes")

    def build_decoder(self, params):
        t = self.data_type
        d1 = rename_labels(
            _single_output_decoder(*self.inners[0]), {"out:col": "__lhs"}
        )
        d1 = rename_labels(d1, {lb: f"a:{lb}" for lb in self.inners[0][0].form_spec(self.inners[0][1])})
        d2 = rename_labels(
            _single_output_decoder(*self.inners[1]), {"out:col": "__rhs"}
        )
        d2 = rename_labels(d2, {lb: f"b:{lb}" for lb in self.inners[1][0].form_spec(self.inners[1][1])})
        b = CircuitBuilder()
        wide = _WIDE if parse_type(t).is_integer else t
        lhs = b.cast(t, wide, b.input("__l"))
        rhs = b.cast(t, wide, b.input("__r"))
        b.result("col", b.cast(wide, t, b.add_cols(wide, lhs, rhs)))
        adder = b.build()
        u = circuit_union(circuit_union(d1, d2), adder)
        u = assign_input(u, "__l", u.interface["__lhs"])
        u = assign_input(u, "__r", u.interface["__rhs"])
        return drop_output(drop_output(u, "__lhs"), "__rhs")

    def host_verify(self, params, columns):
        for (entry, iparams), prefix in zip(self.inners, self.prefixes):
            part = _strip(prefix, columns)
            if not entry.verify_columns(iparams, part):
                return False
        a = _inner_decode(self.inners[0][0], self.inners[0][1], _strip("a:", columns))["col"]
        b = _inner_decode(self.inners[1][0], self.inners[1][1], _strip("b:", columns))["col"]
        return len(a) == len(b)

    def encode(self, params, family):
        col = family["col"]
        entry1, p1 = self.inners[0]
        entry2, p2 = self.inners[1]
        base = entry1.fit_additive(p1, col)
        residual = Column(col.element_type, [v - m for v, m in zip(col.values, base.values)])
        cols1 = entry1.encode(p1, {"col": base})
        cols2 = entry2.encode(p2, {"col": residual})
        out = {f"a:{lb}": c for lb, c in cols1.items()}
        out.update({f"b:{lb}": c for lb, c in cols2.items()})
        return out


# -- differentiation / integration ---------------------------------------------------------


class _DifferentiateCodec(_ComposedCodec):
    def __init__(self, recipe):
        super().__init__(recipe, ["diff:"])
        self.data_type = str(recipe.options["type"])
        self.diff_type = str(self.inners[0][1]["type"])

    def extra_spec(self):
        return {"first": parse_type(self.data_type)}

    def build_decoder(self, params):
        t = self.data_type
        b = CircuitBuilder()
        diffs = b.cast(self.diff_type, _WIDE, b.input("__base"))
        first = b.cast(t, _WIDE, b.input("first"))
        ps = b.prefix(_WIDE, "add", diffs)
        n1 = b.length(ps, _WIDE)
        shifted = b.add_cols(_WIDE, b.replicate(_WIDE, first, n1), ps)
        full = b.concat(_WIDE, first, shifted)
        b.result("col", b.cast(_WIDE, t, full))
        return _compose_base_plus(*self.inners[0], "diff:", b.build())

    def host_verify(self, params, columns):
        if len(columns["first"]) != 1:
            return False
        entry, iparams = self.inners[0]
        return entry.verify_columns(iparams, _strip("diff:", columns))

    def encode(self, params, family):
        col = family["col"]
        if len(col) == 0:
            raise NotEncodable("differentiation needs at least one element")
        entry, iparams = self.inners[0]
        diff_et = parse_type(self.diff_type)
        diffs = []
        for i in range(len(col) - 1):
            d = col.values[i + 1] - col.values[i]
            lo, hi = diff_et.bounds()
            if not lo <= d <= hi:
                raise NotEncodable(f"difference {d} at index {i} does not fit {diff_et}")
            diffs.append(d)
        inner_cols = entry.encode(iparams, {"col": Column(diff_et, diffs)})
        out = {f"diff:{lb}": c for lb, c in inner_cols.items()}
        out["first"] = scalar_column(parse_type(self.data_type), col.values[0])
        return out


# -- small-dictionary fitting ------------------------------------------------------------


class _SmallDictFitCodec(_ComposedCodec):
    def __init__(self, recipe):
        super().__init__(recipe, ["residual:"])
        self.data_type = str(self.inners[0][1]["type"])
        self.bits = int(recipe.options.get("bits", 8))

    def extra_spec(self):
        t = parse_type(self.data_type)
        from .types import ElementType

        return {"dictionary": t, "indices": ElementType.unsigned(self.bits)}

    def build_decoder(self, params):
        t = self.data_type
        it = str(parse_type(f"u{self.bits}"))
        b = CircuitBuilder()
        idx = b.cast(it, _INT, b.input("indices"))
        zero_mask = b.ew("const_compare", {"type": _INT, "cmp": "eq", "value": 0}, arguments=idx)
        pos_z = b.add("select_indices", {}, characteristic=zero_mask)
        base = b.gather(t, idx, b.input("dictionary"))
        b.result("col", b.scatter(t, base, pos_z, b.input("__base")))
        return _compose_base_plus(*self.inners[0], "residual:", b.build())

    def host_verify(self, params, columns):
        entry, iparams = self.inners[0]
        residual_cols = _strip("residual:", columns)
        if not entry.verify_columns(iparams, residual_cols):
            return False
        d = len(columns["dictionary"])
        vals = columns["indices"].values
        if d < 1 or any(v >= d for v in vals):
            return False
        residual = _inner_decode(entry, iparams, residual_cols)["col"]
        return len(residual) == sum(1 for v in vals if v == 0)

    def encode(self, params, family):
        from collections import Counter

        col = family["col"]
        entry, iparams = self.inners[0]
        t = parse_type(self.data_type)
        room = (1 << self.bits) - 1
        freq = Counter(col.values)
        ranked = [v for v, _ in sorted(freq.items(), key=lambda kv: (-kv[1], repr(kv[0])))][:room]
        code = {v: j + 1 for j, v in enumerate(ranked)}
        residual = Column(t, [v for v in col.values if v not in code])
        inner_cols = entry.encode(iparams, {"col": residual})
        out = {f"residual:{lb}": c for lb, c in inner_cols.items()}
        out["dictionary"] = Column(t, [t.zero()] + ranked)
        out["indices"] = Column(parse_type(f"u{self.bits}"), [code.get(v, 0) for v in col.values])
        return out


# -- alternation ---------------------------------------------------------------------------


class _AlternatingCodec(_ComposedCodec):
    def __init__(self, recipe):
        super().__init__(recipe, [f"s{i}:" for i in range(len(recipe.inner))])
        self.data_type = str(self.inners[0][1]["type"])

    def extra_spec(self):
        return {"partition": INT}

    def build_decoder(self, params):
        t = self.data_type
        k = len(self.inners)
        pieces = []
        for i, (entry, iparams) in enumerate(self.inners):
            d = rename_labels(_single_output_decoder(entry, iparams), {"out:col": f"__part{i}"})
            d = rename_labels(d, {lb: f"s{i}:{lb}" for lb in entry.form_spec(iparams)})
            pieces.append(d)
        b = CircuitBuilder()
        part = b.input("partition")
        et = parse_type(t)
        out = b.replicate(t, b.scalar(t, et.zero()), b.length(part, _INT))
        for i in range(k):
            match = b.ew("const_compare", {"type": _INT, "cmp": "eq", "value": i}, arguments=part)
            pos = b.add("select_indices", {}, characteristic=match)
            out = b.scatter(t, out, pos, b.input(f"__data{i}"))
        b.result("col", out)
        tail = b.build()
        u = tail
        for piece in pieces:
            u = circuit_union(u, piece)
        for i in range(k):
            u = assign_input(u, f"__data{i}", u.interface[f"__part{i}"])
            u = drop_output(u, f"__part{i}")
        return u

    def host_verify(self, params, columns):
        part = columns["partition"].values
        k = len(self.inners)
        if any(v >= k for v in part):
            return False
        for i, (entry, iparams) in enumerate(self.inners):
            cols = _strip(f"s{i}:", columns)
            if not entry.verify_columns(iparams, cols):
                return False
            decoded = _inner_decode(entry, iparams, cols)["col"]
            if len(decoded) != sum(1 for v in part if v == i):
                return False
        return True

    def encode(self, params, family):
        col = family["col"]
        partition = params.get("partition") or [0] * len(col)
        k = len(self.inners)
        if len(partition) != len(col) or any(v >= k for v in partition):
            raise NotEncodable("partition assignment does not match the column")
        out = {"partition": Column(INT, partition)}
        for i, (entry, iparams) in enumerate(self.inners):
            piece = Column(col.element_type, [v for v, p in zip(col.values, partition) if p == i])
            for lb, c in entry.encode(iparams, {"col": piece}).items():
                out[f"s{i}:{lb}"] = c
        return out


# -- segmentization --------------------------------------------------------------------------


def _segment_lengths_uniform(ell, n):
    out = []
    at = 0
    while at < n:
        out.append(min(ell, n - at))
        at += ell
    return out


class _SegmentizedCodec(_ComposedCodec):
    """Apply an inner scheme separately to consecutive segments.

    The composed decoder is the lifting of a segmentized composite operator
    that runs the inner decoder circuit per segment; per-segment encoded
    lengths come from the inner scheme's static length rule.
    """

    def __init__(self, recipe, uniform):
        super().__init__(recipe, ["seg:"])
        self.uniform = uniform
        self.data_type = str(self.inners[0][1]["type"])
        entry, iparams = self.inners[0]
        if entry.encoded_lengths(iparams, 1) is None:
            raise NotEncodable(
                f"incompatible inner scheme {entry.scheme_id}: encoded lengths are data-dependent"
            )
        if uniform:
            self.ell = int(recipe.options["segment_length"])

    def extra_spec(self):
        if self.uniform:
            return {"segment_length": INT, "total_length": INT}
        return {"segment_lengths": INT}

    def _segments(self, columns):
        if self.uniform:
            return _segment_lengths_uniform(self.ell, columns["total_length"].scalar())
        return list(columns["segment_lengths"].values)

    def _split(self, columns, segments):
        entry, iparams = self.inners[0]
        cursors = {lb: 0 for lb in entry.form_spec(iparams)}
        pieces = []
        for seg_len in segments:
            need = entry.encoded_lengths(iparams, seg_len)
            piece = {}
            for lb, count in need.items():
                col = columns[f"seg:{lb}"]
                at = cursors[lb]
                piece[lb] = Column(col.element_type, col.values[at : at + count])
                cursors[lb] = at + count
            pieces.append(piece)
        for lb, at in cursors.items():
            if at != len(columns[f"seg:{lb}"]):
                raise OperatorError("length-mismatch", f"unconsumed data in segmented label {lb}")
        return pieces

    def decode_segments(self, columns) -> Column:
        """Run the inner decoder on each segment and concatenate the results."""
        entry, iparams = self.inners[0]
        segments = self._segments(columns)
        out = []
        for seg_len, piece in zip(segments, self._split(columns, segments)):
            decoded = _inner_decode(entry, iparams, piece)["col"]
            if len(decoded) != seg_len:
                raise OperatorError(
                    "length-mismatch", f"segment decoded to {len(decoded)} elements, wanted {seg_len}"
                )
            out.extend(decoded.values)
        return Column(parse_type(self.data_type), out)

    def build_decoder(self, params):
        b = CircuitBuilder()
        wired = {lb: b.input(lb) for lb in self.form_spec({})}
        out = b.add("segmentized", {"scheme": self.scheme_id}, **wired)
        b.result("col", out)
        return b.build()

    def host_verify(self, params, columns):
        entry, iparams = self.inners[0]
        if self.uniform:
            if len(columns["segment_length"]) != 1 or columns["segment_length"][0] != self.ell:
                return False
            if len(columns["total_length"]) != 1:
                return False
        try:
            segments = self._segments(columns)
            pieces = self._split(columns, segments)
        except OperatorError:
            return False
        for seg_len, piece in zip(segments, pieces):
            if not entry.verify_columns(iparams, piece):
                return False
            if len(_inner_decode(entry, iparams, piece)["col"]) != seg_len:
                return False
        return True

    def encode(self, params, family):
        col = family["col"]
        entry, iparams = self.inners[0]
        if self.uniform:
            segments = _segment_lengths_uniform(self.ell, len(col))
        else:
            segments = params.get("segments")
            if segments is None:
                segments = [len(col)] if len(col) else []
            if sum(segments) != len(col) or any(s < 1 for s in segments):
                raise NotEncodable("segment lengths must be positive and cover the column")
        spec = entry.form_spec(iparams)
        gathered = {lb: [] for lb in spec}
        at = 0
        for seg_len in segments:
            piece = Column(col.element_type, col.values[at : at + seg_len])
            enc = entry.encode(iparams, {"col": piece})
            for lb in spec:
                gathered[lb].extend(enc[lb].values)
            at += seg_len
        out = {f"seg:{lb}": Column(spec[lb], vals) for lb, vals in gathered.items()}
        if self.uniform:
            out["segment_length"] = scalar_column(INT, self.ell)
            out["total_length"] = scalar_column(INT, len(col))
        else:
            out["segment_lengths"] = Column(INT, segments)
        return out


# -- the segmentized operator: one catalog entry serving every segmentized scheme ----------


def _segmentized_codec(params):
    if "scheme" not in params:
        raise OperatorError("bad-params", "missing 'scheme' parameter")
    entry = codec(params["scheme"])
    if not isinstance(entry, _SegmentizedCodec):
        raise OperatorError("bad-params", f"{entry.scheme_id} is not a segmentized scheme")
    return entry


def _segmentized_instantiate(params):
    entry = _segmentized_codec(params)
    outs = {"result": parse_type(entry.data_type)}
    return OperatorInstance("segmentized", dict(params), Signature(dict(entry.form_spec({})), outs))


def _segmentized_apply(inst, cols):
    return {"result": _segmentized_codec(inst.params).decode_segments(cols)}


register_operator("segmentized", _segmentized_instantiate, _segmentized_apply)


_KINDS = {
    "patch": _PatchedCodec,
    "elementwise-add": _ElementwiseAddCodec,
    "differentiate": _DifferentiateCodec,
    "small-dict-fit": _SmallDictFitCodec,
    "alternate": _AlternatingCodec,
    "segmentize-uniform": lambda r: _SegmentizedCodec(r, uniform=True),
    "segmentize-variable": lambda r: _SegmentizedCodec(r, uniform=False),
}
