"""Columnar circuits: port digraphs with operator vertices, and their evaluation.

A circuit's layout graph connects vertex out-ports to vertex in-ports, is
acyclic, feeds every in-port at most once, and only joins ports with the
same element type.  Interface input labels biject onto the disengaged
in-ports; output labels point at out-ports.  Evaluation cascades input
columns through the vertices and is deterministic regardless of execution
order.
"""

from __future__ import annotations

import copy
import json
from collections.abc import Mapping
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

from .errors import (
    ColcircError,
    EvaluationError,
    InvalidCircuitError,
    MissingInputError,
    OperatorError,
)
from .ops import Signature, _set, instantiate
from .types import parse_type

RESERVED_LABEL_PREFIX = "cut:"

IN = "in"
OUT = "out"


class PortRef(NamedTuple):
    """A vertex port.  A named tuple, so it hashes and compares at C speed and
    equals the plain tuple ``(vertex_id, port_label, direction)``."""

    vertex_id: str
    port_label: str
    direction: str  # IN or OUT

    def __str__(self):
        return f"{self.vertex_id}.{self.port_label}"


# ``PortRef(...)`` runs the named tuple's ``__new__``, a Python function; this
# makes the same port from a plain tuple at C speed, for the hot paths
_port = partial(tuple.__new__, PortRef)


def in_port(vertex_id, label) -> PortRef:
    return PortRef(vertex_id, label, IN)


def out_port(vertex_id, label) -> PortRef:
    return PortRef(vertex_id, label, OUT)


@dataclass(frozen=True)
class Violation:
    kind: str
    detail: str

    def describe(self):
        return f"{self.kind}: {self.detail}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple

    @property
    def ok(self):
        return not self.violations


_NO_VIOLATIONS = ValidationReport(())


@dataclass(frozen=True, init=False)
class ColumnarCircuit:
    vertices: dict  # vertex_id -> OperatorInstance
    edges: frozenset  # of (PortRef out, PortRef in)
    interface: dict  # circuit label -> PortRef
    signature: Signature

    # Lazy caches, on circuits and across the package, keep one rule, so
    # that threads share what holds them without a lock: the value is built
    # from immutable inputs and never changed after, it is published with
    # one attribute store and never cleared, and a reader reads the
    # attribute once and uses what it read.  Threads that race to fill a
    # cache each build an equal value, and either may stay.  It covers
    # ``_plan``, ``_decoded`` and ``_proven`` here, ``OperatorInstance._constant``,
    # ``CodecEntry._decoder_cache``, ``_ResolvedParams._decoder``,
    # ``Column._hash`` and ``Column._range``, ``PortValues._index`` and
    # ``cli._parser``.  None is a field, so equality, repr and JSON ignore them.
    _plan = None  # the evaluation plan, compiled on the first evaluation
    _decoded = None  # a codec's decoded-family spec, when the circuit is a decoder (``codec._decoded_spec``)
    _tail = None  # a composed decoder's tail, set before the decoder is published (``compose._tail_of``)
    # True once the circuit is proven valid: ``CircuitBuilder.build`` proved
    # it, ``validate_circuit`` passed it, or an algebra operation made it
    # from proven operands (``_proven_if``); no check looks at it again
    _proven = False

    def __init__(self, vertices: dict, edges, interface: dict, signature: Signature):
        _set(self, "vertices", vertices)
        _set(self, "edges", frozenset(edges))
        _set(self, "interface", interface)
        _set(self, "signature", signature)

    # -- structural helpers -------------------------------------------------

    def port_type(self, port: PortRef):
        """The element type of ``port``, a ``PortRef`` or a plain tuple; None if the circuit has no such port."""
        op = self.vertices.get(port[0])
        if op is None:
            return None
        side = op.signature.inputs if port[2] == IN else op.signature.outputs
        return side.get(port[1])

    def in_ports(self):
        for vid, op in self.vertices.items():
            for label in op.signature.inputs:
                yield _port((vid, label, IN))

    def out_ports(self):
        for vid, op in self.vertices.items():
            for label in op.signature.outputs:
                yield _port((vid, label, OUT))

    def engaged_in_ports(self):
        return {dst for _, dst in self.edges}

    def disengaged_in_ports(self):
        return set(self.in_ports()) - self.engaged_in_ports()


def circuit(vertices, edges, interface) -> ColumnarCircuit:
    """Build a circuit, deriving its signature from the interface mapping."""
    vertices = dict(vertices)
    interface = dict(interface)
    ins, outs = {}, {}
    for label, port in interface.items():
        vid, port_label, direction = port
        op = vertices.get(vid)
        if op is None:
            raise ColcircError(f"interface label {label!r} points at unknown vertex {vid!r}")
        if direction == IN:
            t = op.signature.inputs.get(port_label)
            if t is None:
                raise ColcircError(f"interface label {label!r} points at unknown in-port {port}")
            ins[label] = t
        else:
            t = op.signature.outputs.get(port_label)
            if t is None:
                raise ColcircError(f"interface label {label!r} points at unknown out-port {port}")
            outs[label] = t
    return ColumnarCircuit(vertices, edges, interface, Signature(ins, outs))


def _proven_if(c: ColumnarCircuit, proof) -> ColumnarCircuit:
    """``c``, marked proven valid when ``proof`` holds."""
    if proof:
        _set(c, "_proven", True)
    return c


def _structure(c: ColumnarCircuit, proven: bool):
    """One walk over the circuit's edges, for validation and plan compilation.

    Returns ``(sources, violations, order)``: the source of every engaged
    in-port, the edge violations, and the vertex ids in topological order
    (``None`` when the layout graph has a cycle).  ``proven`` is the
    caller's one read of ``c._proven``: a proven circuit has no violations
    to find, so its walk checks no edge and finds only the sources and the
    order.  Nothing is cached on the circuit.
    """
    sources, violations = {}, []
    pending = dict.fromkeys(c.vertices, 0)  # vertex -> edges from vertices not yet ordered
    consumers = {}
    if proven:
        for src, dst in c.edges:
            sources[dst] = src
            pending[dst[0]] += 1
            consumers.setdefault(src[0], []).append(dst[0])
    else:
        fed_again = {}
        port_type = c.port_type
        for src, dst in c.edges:
            if src[0] in pending and dst[0] in pending:
                pending[dst[0]] += 1
                consumers.setdefault(src[0], []).append(dst[0])
            t_src = port_type(src) if src[2] == OUT else None
            if t_src is None:
                violations.append(Violation("bad-edge-source", f"{src} is not a vertex out-port"))
                continue
            t_dst = port_type(dst) if dst[2] == IN else None
            if t_dst is None:
                violations.append(Violation("bad-edge-target", f"{dst} is not a vertex in-port"))
                continue
            if dst in sources:
                fed_again[dst] = fed_again.get(dst, 1) + 1
            else:
                sources[dst] = src
            if t_src is not t_dst and t_src != t_dst:
                violations.append(Violation("type-mismatch", f"edge {src} ({t_src}) -> {dst} ({t_dst})"))
        for dst, n in fed_again.items():
            violations.append(Violation("multi-fed-port", f"{dst} is the target of {n} edges"))
    order = []
    ready = sorted(v for v, n in pending.items() if not n)
    while ready:
        v = ready.pop()
        order.append(v)
        after = consumers.get(v)
        if after:  # sorted: the order, and so the vertex an evaluation fails at, depends on no hash order
            for u in sorted(after) if len(after) > 1 else after:
                pending[u] -= 1
                if not pending[u]:
                    ready.append(u)
    return sources, violations, order if len(order) == len(pending) else None


def validate_circuit(c: ColumnarCircuit) -> ValidationReport:
    """Full structural check; violations are data, not failures.

    A proven circuit reports nothing without a look; one that passes is
    marked proven.
    """
    if c._proven:
        return _NO_VIOLATIONS
    sources, violations, order = _structure(c, False)
    if order is None:
        violations.append(Violation("cycle", "layout graph contains a directed cycle"))

    # interface: inputs biject onto disengaged in-ports, outputs hit out-ports
    seen_ports = {}
    for label, t in c.signature.inputs.items():
        port = c.interface.get(label)
        if port is None:
            violations.append(Violation("dangling-interface", f"input label {label!r} is unmapped"))
            continue
        t_port = c.port_type(port) if port[2] == IN else None
        if t_port is None:
            violations.append(Violation("dangling-interface", f"input label {label!r} -> missing port {port}"))
            continue
        if port in sources:
            violations.append(Violation("engaged-input", f"input label {label!r} -> engaged port {port}"))
        if port in seen_ports:
            violations.append(
                Violation("input-not-injective", f"labels {seen_ports[port]!r} and {label!r} share {port}")
            )
        seen_ports[port] = label
        if t_port is not t and t_port != t:
            violations.append(Violation("type-mismatch", f"input label {label!r} type differs from {port}"))
    unmapped = (p for p in c.in_ports() if p not in sources and p not in seen_ports)
    for port in sorted(unmapped, key=str):
        violations.append(Violation("unmapped-disengaged-input", f"{port} has no circuit input label"))
    for label, t in c.signature.outputs.items():
        port = c.interface.get(label)
        t_port = c.port_type(port) if port is not None and port[2] == OUT else None
        if t_port is None:
            violations.append(Violation("dangling-interface", f"output label {label!r} -> {port}"))
        elif t_port is not t and t_port != t:
            violations.append(Violation("type-mismatch", f"output label {label!r} type differs from {port}"))

    if violations:
        return ValidationReport(tuple(violations))
    _proven_if(c, True)
    return _NO_VIOLATIONS


def check_valid(c: ColumnarCircuit) -> ColumnarCircuit:
    report = validate_circuit(c)
    if not report.ok:
        raise InvalidCircuitError(report)
    return c


# -- evaluation ----------------------------------------------------------------


def _invalid(kind, detail):
    return InvalidCircuitError(ValidationReport((Violation(kind, detail),)))


def _toposort(c: ColumnarCircuit):
    """``(order, sources)``: the vertex ids in topological order and the source of every engaged in-port."""
    # ``circuit()`` does not check edges, so an edge may name no port, and an
    # in-port fed twice would take whichever edge the hash order puts last; a
    # type mismatch is left to ``OperatorInstance.apply``, which then checks
    # every output of the operator against its declared type
    sources, violations, order = _structure(c, c._proven)
    broken = tuple(v for v in violations if v.kind != "type-mismatch")
    if broken:
        raise InvalidCircuitError(ValidationReport(broken))
    if order is None:
        raise _invalid("cycle", "cannot order vertices")
    return order, sources


class _Plan:
    """A circuit compiled for evaluation: every port is an index into a slot list.

    ``inputs`` holds ``(label, element type, slot)`` in signature order,
    ``steps`` holds ``(vertex id, operator, ((in label, slot), ...),
    ((out label, slot), ...))`` in topological order, and ``outputs`` holds
    ``(label, slot)``.  An engaged in-port shares the slot of its source
    out-port.
    """

    __slots__ = ("inputs", "steps", "outputs", "n_slots")

    def __init__(self, inputs, steps, outputs, n_slots):
        self.inputs = inputs
        self.steps = steps
        self.outputs = outputs
        self.n_slots = n_slots


def _compile(c: ColumnarCircuit) -> _Plan:
    order, sources = _toposort(c)
    slot_of = {}  # port -> slot: an input's in-port, every out-port
    inputs = []
    for label, t in c.signature.inputs.items():
        slot_of[c.interface[label]] = len(inputs)
        inputs.append((label, t, len(inputs)))
    n_slots = len(inputs)
    steps = []
    for vid in order:
        op = c.vertices[vid]
        ins = []
        for label in op.signature.inputs:
            port = (vid, label, IN)
            # an engaged port reads its source, an out-port of a vertex ordered before this one
            slot = slot_of.get(sources.get(port, port))
            if slot is None:
                raise _invalid("unmapped-disengaged-input", f"{vid}.{label} has no circuit input label")
            ins.append((label, slot))
        outs = []
        for label in op.signature.outputs:
            slot_of[vid, label, OUT] = n_slots
            outs.append((label, n_slots))
            n_slots += 1
        steps.append((vid, op, tuple(ins), tuple(outs)))
    outputs = tuple((label, slot_of[c.interface[label]]) for label in c.signature.outputs)
    return _Plan(tuple(inputs), tuple(steps), outputs, n_slots)


class PortValues(Mapping):
    """The column observed at every port of one evaluation, read-only.

    Keys are the out-ports, the fed in-ports and the input in-ports; values
    are read from the evaluation's slot list.  The ``PortRef`` index is
    built on the first lookup by port.
    """

    __slots__ = ("_plan", "_slots", "_index")

    def __init__(self, plan, slots):
        self._plan = plan
        self._slots = slots
        self._index = None

    def _ports(self):
        index = self._index
        if index is None:
            index = {}
            for vid, _, ins, outs in self._plan.steps:
                for label, slot in ins:
                    index[PortRef(vid, label, IN)] = slot
                for label, slot in outs:
                    index[PortRef(vid, label, OUT)] = slot
            self._index = index
        return index

    def __getitem__(self, port):
        return self._slots[self._ports()[port]]

    def __iter__(self):
        return iter(self._ports())

    def __len__(self):
        return len(self._ports())


def evaluate_ports(c: ColumnarCircuit, inputs: dict, parallel: bool = False) -> PortValues:
    """Evaluate the circuit and return the column observed at every port.

    The circuit is compiled into a slot plan on its first evaluation and the
    plan is cached on it, so a circuit must not be mutated after
    construction.  Each out-port is computed exactly once per run; fan-out
    shares the same immutable column.  Vertices run one at a time in a
    fixed topological order.  Every catalog kernel returns exactly its
    declared output labels, each a column of its declared type, so each
    result goes straight into its slot.  ``parallel`` is accepted for
    compatibility and ignored: under the GIL a thread pool only added
    hand-off latency.
    """
    plan = c._plan
    if plan is None:  # no lock: the lazy-cache rule on ``ColumnarCircuit``
        plan = _compile(c)
        object.__setattr__(c, "_plan", plan)
    slots = [None] * plan.n_slots
    for label, t, slot in plan.inputs:
        if label not in inputs:
            raise MissingInputError(f"no column supplied for input {label!r}")
        col = inputs[label]
        et = col.element_type
        if et is not t and et != t:
            raise MissingInputError(f"input {label!r} expects element type {t}, got {et}")
        slots[slot] = col
    for vid, op, ins, outs in plan.steps:
        args = {}
        for label, slot in ins:
            args[label] = slots[slot]
        try:
            result = op.apply(args)
        except EvaluationError:  # from a nested evaluation, which named its own vertex
            raise
        except ColcircError as exc:
            raise EvaluationError(vid, exc) from exc
        except RecursionError:  # fused vertices nested past the recursion limit
            raise EvaluationError(vid, ColcircError("circuits are nested too deeply")) from None
        for label, slot in outs:
            slots[slot] = result[label]
    return PortValues(plan, slots)


def evaluate_circuit(c: ColumnarCircuit, inputs: dict, parallel: bool = False) -> dict:
    """The circuit-computed function: labeled inputs to labeled outputs."""
    ports = evaluate_ports(c, inputs, parallel=parallel)
    slots = ports._slots
    return {label: slots[slot] for label, slot in ports._plan.outputs}


def evaluate_decision_circuit(c: ColumnarCircuit, inputs: dict, parallel: bool = False) -> bool:
    """Run a verifier-style circuit: single boolean output of length 1."""
    from .types import BIT

    outs = [t for t in c.signature.outputs.values()]
    if len(outs) != 1 or outs[0] != BIT:
        raise OperatorError("non-scalar-output", "decision circuits have a single bit output")
    (value,) = evaluate_circuit(c, inputs, parallel=parallel).values()
    if len(value) != 1:
        raise OperatorError("non-scalar-output", f"decision output has length {len(value)}")
    return bool(value[0])


# -- JSON serialization ----------------------------------------------------------


def _port_to_str(port: PortRef) -> str:
    return f"{port.vertex_id}.{port.port_label}"


def _port_from_str(s: str, c_vertices, direction_hint=None):
    vid, sep, label = s.rpartition(".")
    if not sep:
        raise ColcircError(f"bad port reference {s!r}")
    op = c_vertices.get(vid)
    if op is None:
        raise ColcircError(f"port reference {s!r} names unknown vertex {vid!r}")
    if label in op.signature.inputs and (direction_hint in (None, IN)):
        return PortRef(vid, label, IN)
    if label in op.signature.outputs and (direction_hint in (None, OUT)):
        return PortRef(vid, label, OUT)
    raise ColcircError(f"vertex {vid!r} has no {direction_hint or 'any'}-port {label!r}")


def circuit_to_json(c: ColumnarCircuit) -> dict:
    """The circuit's JSON document.  Each vertex's params are a deep copy, so
    no edit of the document reaches the circuit's operators."""
    try:
        vertices = [
            {"id": vid, "op": op.op_name, "params": copy.deepcopy(op.params)}
            for vid, op in sorted(c.vertices.items())
        ]
    except RecursionError:  # fused vertices nested past the recursion limit
        raise ColcircError("circuit JSON is nested too deeply") from None
    return {
        "signature": {
            "inputs": {k: str(t) for k, t in c.signature.inputs.items()},
            "outputs": {k: str(t) for k, t in c.signature.outputs.items()},
        },
        "vertices": vertices,
        "edges": [
            {"from": f, "to": t}
            for f, t in sorted((_port_to_str(src), _port_to_str(dst)) for src, dst in c.edges)
        ],
        "interface": {label: _port_to_str(p) for label, p in sorted(c.interface.items())},
    }


_JSON_KINDS = {dict: "an object", list: "a list", str: "a string"}


def _json_check(value, kind, what):
    if not isinstance(value, kind):
        raise ColcircError(f"circuit JSON: {what} is not {_JSON_KINDS[kind]}")
    return value


def _json_get(obj, key, kind, what, default=None):
    if key not in obj:
        if default is None:
            raise ColcircError(f"circuit JSON: {what} lacks {key!r}")
        return default
    return _json_check(obj[key], kind, f"{key!r} of {what}")


def circuit_from_json(doc: dict) -> ColumnarCircuit:
    _json_check(doc, dict, "the document")
    vertices = {}
    for v in _json_get(doc, "vertices", list, "the document"):
        _json_check(v, dict, "a vertex")
        vid = _json_get(v, "id", str, "a vertex")
        if "." in vid:
            raise ColcircError(f"vertex id {vid!r} may not contain '.'")
        if vid in vertices:
            raise ColcircError(f"duplicate vertex id {vid!r}")
        what = f"vertex {vid!r}"
        vertices[vid] = instantiate(_json_get(v, "op", str, what), _json_get(v, "params", dict, what, {}))
    edges = set()
    for e in _json_get(doc, "edges", list, "the document", []):
        _json_check(e, dict, "an edge")
        src = _port_from_str(_json_get(e, "from", str, "an edge"), vertices, OUT)
        dst = _port_from_str(_json_get(e, "to", str, "an edge"), vertices, IN)
        edges.add((src, dst))
    interface = {}
    signature = _json_get(doc, "signature", dict, "the document", {})
    sig_ins = _json_get(signature, "inputs", dict, "the signature", {})
    sig_outs = _json_get(signature, "outputs", dict, "the signature", {})
    for label, pstr in _json_get(doc, "interface", dict, "the document", {}).items():
        hint = IN if label in sig_ins else None
        interface[label] = _port_from_str(_json_check(pstr, str, f"interface label {label!r}"), vertices, hint)
    c = circuit(vertices, edges, interface)
    for label, tname in sig_ins.items():
        declared = parse_type(_json_check(tname, str, f"the type of input {label!r}"))
        actual = c.signature.inputs.get(label)
        if actual != declared:
            raise ColcircError(f"declared input {label!r}: {tname} but ports imply {actual}")
    for label, tname in sig_outs.items():
        declared = parse_type(_json_check(tname, str, f"the type of output {label!r}"))
        actual = c.signature.outputs.get(label)
        if actual != declared:
            raise ColcircError(f"declared output {label!r}: {tname} but ports imply {actual}")
    return c


def dump_circuit(c: ColumnarCircuit) -> str:
    try:
        return json.dumps(circuit_to_json(c), indent=2, sort_keys=True)
    except RecursionError:  # fused vertices nested past the recursion limit
        raise ColcircError("circuit JSON is nested too deeply") from None


def json_document(text, what: str):
    """``json.loads(text)`` of a ``str`` or of bytes; malformed JSON, bytes that are no text and
    nesting past the recursion limit are a ``ColcircError``."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ColcircError(f"{what} is nested too deeply") from None
    except ValueError as exc:  # ``JSONDecodeError`` and ``UnicodeDecodeError``
        raise ColcircError(f"{what} is not JSON: {exc}") from None


def load_circuit(text: str) -> ColumnarCircuit:
    return circuit_from_json(json_document(text, "circuit JSON"))
