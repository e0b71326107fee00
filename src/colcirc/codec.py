"""The decoder/encoder/verifier triple abstraction and the codec registry.

A scheme's decoder is always a genuine circuit over catalog operators.
Verifiers may be host decision procedures (registered behind the same
interface as a lifted decision circuit) where a pure-circuit verifier would
need operators outside the catalog.  Encoders are host procedures except
where the source material gives an encoder circuit (run-position encoding).

Encoders are deterministic: among multiple valid encoded forms they emit
the canonical one.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction

from .circuit import ColumnarCircuit, evaluate_circuit
from .column import Column, representation_size_bytes, scalar_column
from .errors import NotEncodable, RegistryError, TypeDomainError, VerificationFailed
from .ops import REGISTRY_LOCK, register_operator
from .params import NAME, OBJECT, check
from .types import BIT


@dataclass(frozen=True)
class SchemeInstance:
    """An encoded form: scheme identifier, params, and constituent columns."""

    scheme_id: str
    params: dict
    columns: dict  # label -> Column

    def with_columns(self, **replacements) -> "SchemeInstance":
        cols = dict(self.columns)
        cols.update(replacements)
        return SchemeInstance(self.scheme_id, self.params, cols)


def params_key(params: dict) -> str:
    # equal keys mean equal params; a third of the cost of a sorted
    # ``json.dumps``, which ``encode`` and ``decode`` would each pay per call
    return repr(sorted(params.items()))


class _ResolvedParams(dict):
    """Params that remember their entry's decoder once it is looked up.

    ``normalize_params`` returns them, so a caller that asks for the form
    and then the decoder (``decode`` checking first, for one) keys the
    params once; ``verify``, ``encode`` and ``equivalent`` look it up once
    and take the plain dict (``_normalized``).  They live as long as that
    caller holds them: an instance keeps a plain dict.  A composed codec
    keeps one per inner scheme, made once from its recipe, so checking or
    decoding a part keys nothing.  Nothing changes the params after the
    lookup.
    """

    __slots__ = ("_entry", "_decoder")


def _resolved(entry, params) -> _ResolvedParams:
    """``params`` as ``_ResolvedParams`` of ``entry``, with no decoder yet.

    A function, not an ``__init__``: that would cost twice as much, once
    per ``normalize_params``.
    """
    out = _ResolvedParams(params)
    out._entry = entry
    out._decoder = None
    return out


DECODED_PREFIX = "out:"

# decoders one entry keeps; past that, new params build their decoder per call
_DECODER_CACHE_KEYS = 256


def _without_out_prefix(outputs: dict) -> dict:
    """A decoder's outputs (columns or types) keyed without the ``out:`` namespace."""
    n = len(DECODED_PREFIX)
    return {label[n:] if label.startswith(DECODED_PREFIX) else label: v for label, v in outputs.items()}


def _decoded_spec(decoder: ColumnarCircuit) -> dict:
    """The decoded family's ``{label: ElementType}``: the decoder's output types without ``out:``.

    Cached on the decoder circuit, so it lives as long as the circuit; do not
    mutate it.
    """
    spec = decoder._decoded
    if spec is None:
        spec = _without_out_prefix(decoder.signature.outputs)
        object.__setattr__(decoder, "_decoded", spec)
    return spec


class CodecEntry:
    """Registry record binding a scheme id to its params and codec callables.

    Builtin schemes pass callables; composed codecs override the methods.

    ``params`` declares the scheme's params, a ``{name: ParamKind}`` table
    (see :mod:`colcirc.params`).  :meth:`decoder` checks params against it
    before it builds their decoder, once per ``params_key``: a malformed
    param is :class:`NotEncodable`, a missing one a :class:`ColcircError`,
    and the callables read checked params as given.  Encoder hints are no
    part of an instance's params: ``normalize_params`` drops them, and
    :func:`encode` checks them on each call.

    A scheme's interface is its decoder circuit's: ``form_spec(params)`` is
    the decoder's input signature, the ordered ``{label: ElementType}`` of
    the encoded form, and ``decoded_labels(params)`` lists the decoder's
    outputs without their ``out:`` namespace.  Neither is declared apart.

    - ``build_decoder(params)``: the decoder circuit.
    - ``host_verify(params, columns)``: total decision procedure, run
      after the form check.  A builtin that passes ``host_verify=None``
      declares that the form check alone decides (see
      ``verifies_form_only``).
    - ``encode(params, family)``: canonical encoded columns, or raises
      :class:`NotEncodable`.  It builds them with the checked ``Column``,
      the one check that a value lies in its column's type; :func:`encode`
      turns that check's :class:`TypeDomainError` into ``NotEncodable``.
    - ``equivalent(params, a, b)``: the scheme's ``~`` relation over decoded
      families (defaults to exact equality).
    - ``normalize_params``: a rewrite of params into the form an instance
      keeps, run after the hints are dropped and before the check, so it
      leaves a malformed value for the check to report.
    - ``encoded_lengths``, ``fit`` and ``fit_additive``: see the methods of
      the same names.
    """

    # callables left out stay at these class defaults, so a subclass's
    # instances carry none of them in their own ``__dict__``
    _host_verify = _equivalent = _normalize = _encoded_lengths = _fit = _fit_additive = None

    def __init__(
        self,
        scheme_id,
        params=None,
        build_decoder=None,
        encode=None,
        host_verify=None,
        equivalent=None,
        normalize_params=None,
        encoded_lengths=None,
        fit=None,
        fit_additive=None,
    ):
        self.scheme_id = scheme_id
        self.declared = params or {}
        self.hints = {name: kind for name, kind in self.declared.items() if kind.hint}
        self._decoder_cache = {}
        callables = {
            "_build_decoder": build_decoder,
            "_encode": encode,
            "_host_verify": host_verify,
            "_equivalent": equivalent,
            "_normalize": normalize_params,
            "_encoded_lengths": encoded_lengths,
            "_fit": fit,
            "_fit_additive": fit_additive,
        }
        for attr, fn in callables.items():
            if fn is not None:
                setattr(self, attr, fn)

    def build_decoder(self, params) -> ColumnarCircuit:
        return self._build_decoder(params)

    def encode(self, params, family: dict) -> dict:
        return self._encode(params, family)

    def host_verify(self, params, columns: dict) -> bool:
        if self._host_verify is None:  # the form check decides
            return True
        return self._host_verify(params, columns)

    def verifies_form_only(self) -> bool:
        """True if ``check_form`` alone decides membership: a builtin without ``host_verify``."""
        return self._host_verify is None and type(self).host_verify is CodecEntry.host_verify

    def equivalent(self, params, a: dict, b: dict) -> bool:
        if self._equivalent is None:
            return a == b
        return self._equivalent(params, a, b)

    def normalize_params(self, params: dict) -> _ResolvedParams:
        """``params`` without the declared hints, in the form an instance keeps.

        The result remembers this entry's decoder once it is looked up.
        """
        return _resolved(self, self._normalized(params))

    def _normalized(self, params: dict) -> dict:
        """``normalize_params`` as a plain dict, for a caller that looks the decoder up once:
        remembering it would not repay the copy."""
        if self.hints:
            params = {name: v for name, v in params.items() if name not in self.hints}
        return params if self._normalize is None else self._normalize(params)

    def encoded_lengths(self, params, n: int) -> dict | None:
        """Per-label encoded lengths when they depend only on ``n``.

        Schemes with data-dependent encoded lengths return None; such
        schemes only admit variable-length segmentization.
        """
        if self._encoded_lengths is None:
            return None
        return self._encoded_lengths(params, n)

    def fit(self, params, family: dict):
        """Best effort ``(encodable_family, patches)`` decomposition.

        ``patches`` is a list of (index, original value) pairs covering the
        positions where the returned family differs from the input.  Used by
        the patching composition; schemes without a natural notion of a
        nearest encodable column simply do not implement it.
        """
        if self._fit is None:
            raise NotEncodable(f"{self.scheme_id} offers no outlier-removal fit")
        return self._fit(params, family)

    def fit_additive(self, params, col):
        """Best-effort modeled column whose residual another scheme absorbs.

        Used by the elementwise-add composition.  The returned column must
        be exactly encodable by this scheme, with length equal to the input.
        """
        if self._fit_additive is None:
            raise NotEncodable(f"{self.scheme_id} offers no additive fit")
        return self._fit_additive(params, col)

    # -- shared behavior -------------------------------------------------------

    def decoder(self, params) -> ColumnarCircuit:
        remember = type(params) is _ResolvedParams and params._entry is self
        c = params._decoder if remember else None
        if c is not None:
            return c
        key = params_key(params)
        cache = self._decoder_cache
        c = cache.get(key)
        if c is None:
            check(self.declared, params)
            c = self.build_decoder(params)
            if len(cache) < _DECODER_CACHE_KEYS:
                cache[key] = c
        if remember:
            params._decoder = c
        return c

    def form_spec(self, params) -> dict:
        """The encoded form: the decoder's input signature (do not mutate it)."""
        return self.decoder(params).signature.inputs

    def decoded_labels(self, params) -> list:
        return list(_decoded_spec(self.decoder(params)))

    def check_form(self, params, columns: dict) -> bool:
        spec = self.form_spec(params)
        if spec.keys() != columns.keys():
            return False
        for label, t in spec.items():
            found = columns[label].element_type
            if found is not t and found != t:
                return False
        return True

    def verify_columns(self, params, columns: dict) -> bool:
        """The form check, then ``host_verify``."""
        if not self.check_form(params, columns):
            return False
        return bool(self.host_verify(params, columns))

    def decode_verified(self, params, columns: dict):
        """The decoder's outputs on ``columns`` if they pass ``verify_columns``, else None.

        A composed codec decodes each of its parts once, for the check and the decode
        alike (see ``compose._ComposedCodec``).
        """
        if not self.verify_columns(params, columns):
            return None
        return evaluate_circuit(self.decoder(params), columns)

    def verifier_circuit(self, params) -> ColumnarCircuit:
        """The verifier as a complete decision circuit.

        The host decision procedure is lifted through the catalog's single
        ``host_verify`` operator, so the circuit's input signature equals
        the decoder's input signature.
        """
        from .builder import CircuitBuilder

        b = CircuitBuilder()
        wired = {label: b.input(label) for label in self.form_spec(params)}
        b.output("accept", b.add("host_verify", {"scheme": self.scheme_id, "params": dict(params)}, **wired))
        return b.build()


_REGISTRY: dict[str, CodecEntry] = {}


def register_codec(entry: CodecEntry) -> CodecEntry:
    if not entry.scheme_id:
        raise RegistryError("codec entries need a scheme_id")
    with REGISTRY_LOCK:
        if entry.scheme_id in _REGISTRY:
            raise RegistryError(f"scheme {entry.scheme_id!r} already registered")
        _REGISTRY[entry.scheme_id] = entry
    return entry


def register_scheme(scheme_id, params: dict, **callables) -> CodecEntry:
    """Register a builtin scheme: its declared ``params``, and its callables as :class:`CodecEntry` takes them."""
    return register_codec(CodecEntry(scheme_id, params, **callables))


def codec(scheme_id: str) -> CodecEntry:
    _ensure_builtins()
    entry = _REGISTRY.get(scheme_id)
    if entry is None:
        raise RegistryError(f"unknown scheme {scheme_id!r}")
    return entry


def registered_schemes() -> list:
    _ensure_builtins()
    return sorted(_REGISTRY)


_builtins_loaded = False


def _ensure_builtins():
    global _builtins_loaded
    if _builtins_loaded:
        return
    # the flag is set only once both modules have registered everything, so
    # no thread can look up a half-filled registry; the lock is reentrant
    # because the imports call ``register_codec``
    with REGISTRY_LOCK:
        if not _builtins_loaded:
            from . import comp_schemes, rep_schemes  # noqa: F401  (registration side effect)

            _builtins_loaded = True


def _segments_hint(params, n: int) -> list:
    """The ``segments`` hint (a checked ``SEGMENTS``), which must cover ``n`` values.

    Absent, it is one segment of ``n`` (none when ``n`` is 0).
    """
    segments = params.get("segments")
    if segments is None:
        return [n] if n else []
    if sum(segments) != n:
        raise NotEncodable(f"hint 'segments' must cover {n} values, not {segments!r}")
    return list(segments)


def _partition_hint(params, n: int, k: int) -> list:
    """The ``partition`` hint (a checked ``PARTITION``): a part below ``k`` for each of ``n`` values.

    Absent, every value is in part 0.
    """
    partition = params.get("partition")
    if partition is None:
        return [0] * n
    if len(partition) != n or max(partition, default=0) >= k:
        raise NotEncodable("partition assignment does not match the column")
    return list(partition)


# -- uniform entry points --------------------------------------------------------


def verify(inst: SchemeInstance) -> bool:
    entry = codec(inst.scheme_id)
    return entry.verify_columns(entry._normalized(inst.params), inst.columns)


def decode(inst: SchemeInstance, check: bool = True) -> dict:
    entry = codec(inst.scheme_id)
    params = entry.normalize_params(inst.params)
    if not check:
        return _without_out_prefix(evaluate_circuit(entry.decoder(params), inst.columns))
    decoded = entry.decode_verified(params, inst.columns)
    if decoded is None:
        raise VerificationFailed(f"{inst.scheme_id} instance failed verification")
    return _without_out_prefix(decoded)


def encode(scheme_id: str, params: dict, family) -> SchemeInstance:
    entry = codec(scheme_id)
    raw = dict(params)
    normalized = entry._normalized(raw)
    # the decoder lookup keys the params once; the decoded family's spec is
    # memoized on the decoder circuit (``_decoded_spec``)
    decoded = _decoded_spec(entry.decoder(normalized))
    if isinstance(family, Column) and len(decoded) == 1:
        family = dict.fromkeys(decoded, family)
    # the family is checked before the encoder sees it, so an ill-typed one
    # is NotEncodable whatever its values
    if not (type(family) is dict or isinstance(family, Mapping)) or family.keys() != decoded.keys():
        raise NotEncodable(f"{scheme_id} expects the labeled family {list(decoded)}")
    for label, t in decoded.items():
        col = family[label]
        if not isinstance(col, Column):
            raise NotEncodable(f"{scheme_id} family member {label!r} is not a column")
        found = col.element_type
        if found is not t and found != t:
            raise NotEncodable(f"{scheme_id} decodes {label!r} as {t}, but the family gives {found}")
    hinted = normalized  # the encoder sees the decoder's params and the hints
    if entry.hints:  # no part of the decoder's key, so checked on each call
        check(entry.hints, raw, what="hint")
        hinted = dict(normalized, **{name: raw[name] for name in entry.hints if name in raw})
    try:
        encoded = entry.encode(hinted, dict(family))
    except TypeDomainError as exc:  # an encoded value outside its column's type
        raise NotEncodable(f"{scheme_id}: {exc}") from exc
    return SchemeInstance(scheme_id, normalized, encoded)  # a dict of its own: ``raw`` is a copy


def equivalent(scheme_id: str, params: dict, a: dict, b: dict) -> bool:
    entry = codec(scheme_id)
    params = entry._normalized(params)
    entry.decoder(params)  # checks the params, once per key
    return entry.equivalent(params, a, b)


def compression_ratio(inst: SchemeInstance) -> Fraction:
    """Decoded bytes over encoded bytes; 1 for an empty family encoded in 0 bytes."""
    decoded = representation_size_bytes(decode(inst))  # verifies first
    encoded = representation_size_bytes(inst.columns)
    return Fraction(decoded, encoded) if encoded or decoded else Fraction(1)


# -- the lifted host verifier --------------------------------------------------------


def _host_verify_sig(params):
    entry = codec(params["scheme"])  # kept as the instance's ``inner``
    return dict(entry.form_spec(params["params"])), {"accept": BIT}, entry


def _host_verify_apply(inst, cols):
    accepted = inst.inner.host_verify(inst.params["params"], cols)
    return {"accept": scalar_column(BIT, 1 if accepted else 0)}


register_operator("host_verify", _host_verify_sig, _host_verify_apply, {"scheme": NAME, "params": OBJECT})
