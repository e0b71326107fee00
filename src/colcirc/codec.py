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

import json
from dataclasses import dataclass
from fractions import Fraction

from .circuit import ColumnarCircuit, evaluate_circuit
from .column import Column, representation_size_bytes
from .errors import ColcircError, NotEncodable, RegistryError, VerificationFailed


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
    return json.dumps(params, sort_keys=True)


class CodecEntry:
    """Registry record binding a scheme id to its codec constructors.

    Subclasses (or instances configured with callables) provide:

    - ``form_spec(params)``: ordered ``{label: ElementType}`` of the encoded
      form, used for well-typedness checks and bundle file ordering.
    - ``decoded_labels(params)``: output labels of the decoder.
    - ``build_decoder(params)``: the decoder circuit.
    - ``host_verify(params, columns)``: total decision procedure, or
      ``build_verifier(params)`` returning a decision circuit.
    - ``encode(params, family)``: canonical encoded columns, or raises
      :class:`NotEncodable`.
    - ``equivalent(params, a, b)``: the scheme's ``~`` relation over decoded
      families (defaults to exact equality).
    """

    scheme_id: str = ""

    def __init__(self, scheme_id=None):
        if scheme_id is not None:
            self.scheme_id = scheme_id
        self._decoder_cache = {}

    # -- mandatory surface ---------------------------------------------------

    def form_spec(self, params) -> dict:
        raise NotImplementedError

    def decoded_labels(self, params) -> list:
        raise NotImplementedError

    def build_decoder(self, params) -> ColumnarCircuit:
        raise NotImplementedError

    def encode(self, params, family: dict) -> dict:
        raise NotImplementedError

    # -- optional hooks --------------------------------------------------------

    def host_verify(self, params, columns: dict) -> bool:
        raise NotImplementedError

    def build_verifier(self, params) -> ColumnarCircuit:
        raise NotImplementedError

    def equivalent(self, params, a: dict, b: dict) -> bool:
        return a == b

    def normalize_params(self, params: dict) -> dict:
        return dict(params)

    def encoded_lengths(self, params, n: int) -> dict | None:
        """Per-label encoded lengths when they depend only on ``n``.

        Schemes with data-dependent encoded lengths return None; such
        schemes only admit variable-length segmentization.
        """
        return None

    def fit(self, params, family: dict):
        """Best effort ``(encodable_family, patches)`` decomposition.

        ``patches`` is a list of (index, original value) pairs covering the
        positions where the returned family differs from the input.  Used by
        the patching composition; schemes without a natural notion of a
        nearest encodable column simply do not implement it.
        """
        raise NotEncodable(f"{self.scheme_id} offers no outlier-removal fit")

    def fit_additive(self, params, col):
        """Best-effort modeled column whose residual another scheme absorbs.

        Used by the elementwise-add composition.  The returned column must
        be exactly encodable by this scheme, with length equal to the input.
        """
        raise NotEncodable(f"{self.scheme_id} offers no additive fit")

    # -- shared behavior -------------------------------------------------------

    def decoder(self, params) -> ColumnarCircuit:
        key = params_key(params)
        c = self._decoder_cache.get(key)
        if c is None:
            c = self.build_decoder(params)
            self._decoder_cache[key] = c
        return c

    def check_form(self, params, columns: dict) -> bool:
        spec = self.form_spec(params)
        if set(spec) != set(columns):
            return False
        return all(columns[label].element_type == t for label, t in spec.items())

    def verify_columns(self, params, columns: dict) -> bool:
        if not self.check_form(params, columns):
            return False
        try:
            return bool(self.host_verify(params, columns))
        except NotImplementedError:
            pass
        from .circuit import evaluate_decision_circuit

        return evaluate_decision_circuit(self.build_verifier(params), columns)

    def verifier_circuit(self, params) -> "ColumnarCircuit":
        """The verifier as a complete decision circuit.

        Host decision procedures are registered as single catalog operators
        and lifted; either way the circuit's input signature equals the
        decoder's input signature.
        """
        try:
            return self.build_verifier(params)
        except NotImplementedError:
            pass
        from . import ops
        from .builder import CircuitBuilder
        from .column import Column, scalar_column
        from .ops import OperatorInstance, Signature
        from .types import BIT

        key = params_key(params)
        op_name = f"verify:{self.scheme_id}:{key}"
        if not ops.is_registered(op_name):
            spec = self.form_spec(params)
            entry = self

            def inst_fn(op_params):
                return OperatorInstance(op_name, dict(op_params), Signature(dict(spec), {"accept": BIT}))

            def run_fn(inst, cols):
                ok = entry.host_verify(params, cols)
                return {"accept": scalar_column(BIT, 1 if ok else 0)}

            ops.register_operator(op_name, inst_fn, run_fn)
        b = CircuitBuilder()
        wired = {label: b.input(label) for label in self.form_spec(params)}
        b.output("accept", b.add(op_name, {}, **wired))
        return b.build()


_REGISTRY: dict[str, CodecEntry] = {}


def register_codec(entry: CodecEntry) -> CodecEntry:
    if not entry.scheme_id:
        raise RegistryError("codec entries need a scheme_id")
    if entry.scheme_id in _REGISTRY:
        raise RegistryError(f"scheme {entry.scheme_id!r} already registered")
    _REGISTRY[entry.scheme_id] = entry
    return entry


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
    if not _builtins_loaded:
        _builtins_loaded = True
        from . import comp_schemes, rep_schemes  # noqa: F401  (registration side effect)


# -- uniform entry points --------------------------------------------------------


def verify(inst: SchemeInstance) -> bool:
    entry = codec(inst.scheme_id)
    params = entry.normalize_params(inst.params)
    return entry.verify_columns(params, inst.columns)


DECODED_PREFIX = "out:"


def decode(inst: SchemeInstance, check: bool = True) -> dict:
    entry = codec(inst.scheme_id)
    params = entry.normalize_params(inst.params)
    if check and not entry.verify_columns(params, inst.columns):
        raise VerificationFailed(f"{inst.scheme_id} instance failed verification")
    raw = evaluate_circuit(entry.decoder(params), inst.columns)
    out = {}
    for label, col in raw.items():
        if label.startswith(DECODED_PREFIX):
            label = label[len(DECODED_PREFIX) :]
        out[label] = col
    return out


def encode(scheme_id: str, params: dict, family) -> SchemeInstance:
    entry = codec(scheme_id)
    raw = dict(params)
    normalized = entry.normalize_params(raw)  # encoder-only hints are dropped here
    if isinstance(family, Column):
        labels = entry.decoded_labels(normalized)
        if len(labels) != 1:
            raise NotEncodable(f"{scheme_id} expects the labeled family {labels}")
        family = {labels[0]: family}
    columns = entry.encode(raw, dict(family))
    return SchemeInstance(scheme_id, normalized, columns)


def equivalent(scheme_id: str, params: dict, a: dict, b: dict) -> bool:
    entry = codec(scheme_id)
    return entry.equivalent(entry.normalize_params(params), a, b)


def compression_ratio(inst: SchemeInstance) -> Fraction:
    decoded = decode(inst)  # verifies first
    return Fraction(representation_size_bytes(decoded), representation_size_bytes(inst.columns))


# -- simple declarative entry construction ----------------------------------------


class _SchemeParams(dict):
    """Params as a scheme's callables see them: a missing one is a ColcircError."""

    __slots__ = ()

    def __missing__(self, key):
        raise ColcircError(f"missing scheme param {key!r}")


def _scheme_params(params) -> _SchemeParams:
    return params if type(params) is _SchemeParams else _SchemeParams(params)


class SimpleCodec(CodecEntry):
    """CodecEntry assembled from callables; used for most builtin schemes."""

    def __init__(
        self,
        scheme_id,
        form_spec,
        decoded_labels,
        build_decoder,
        encode,
        host_verify=None,
        build_verifier=None,
        equivalent=None,
        normalize_params=None,
        encoded_lengths=None,
        fit=None,
        fit_additive=None,
    ):
        super().__init__(scheme_id)
        self._form_spec = form_spec
        self._decoded_labels = decoded_labels
        self._build_decoder = build_decoder
        self._encode = encode
        self._host_verify = host_verify
        self._build_verifier = build_verifier
        self._equivalent = equivalent
        self._normalize = normalize_params
        self._encoded_lengths = encoded_lengths
        self._fit = fit
        self._fit_additive = fit_additive

    def form_spec(self, params):
        return self._form_spec(_scheme_params(params))

    def decoded_labels(self, params):
        return self._decoded_labels(_scheme_params(params))

    def build_decoder(self, params):
        return self._build_decoder(_scheme_params(params))

    def encode(self, params, family):
        return self._encode(_scheme_params(params), family)

    def host_verify(self, params, columns):
        if self._host_verify is None:
            raise NotImplementedError
        return self._host_verify(_scheme_params(params), columns)

    def build_verifier(self, params):
        if self._build_verifier is None:
            raise NotImplementedError
        return self._build_verifier(_scheme_params(params))

    def equivalent(self, params, a, b):
        if self._equivalent is None:
            return a == b
        return self._equivalent(_scheme_params(params), a, b)

    def normalize_params(self, params):
        if self._normalize is None:
            return _SchemeParams(params)
        return _SchemeParams(self._normalize(_scheme_params(params)))

    def encoded_lengths(self, params, n):
        if self._encoded_lengths is None:
            return None
        return self._encoded_lengths(_scheme_params(params), n)

    def fit(self, params, family):
        if self._fit is None:
            return super().fit(params, family)
        return self._fit(_scheme_params(params), family)

    def fit_additive(self, params, col):
        if self._fit_additive is None:
            return super().fit_additive(params, col)
        return self._fit_additive(_scheme_params(params), col)
