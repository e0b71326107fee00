"""Columnar circuits: port digraphs with operator vertices, and their evaluation.

A circuit's layout graph connects vertex out-ports to vertex in-ports, is
acyclic, feeds every in-port at most once, and only joins ports with the
same element type.  Interface input labels biject onto the disengaged
in-ports; output labels point at out-ports.  Evaluation cascades input
columns through the vertices and is deterministic regardless of execution
order.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass

from .column import Column
from .errors import (
    ColcircError,
    EvaluationError,
    InvalidCircuitError,
    MissingInputError,
    OperatorError,
)
from .ops import Signature, instantiate
from .types import parse_type

RESERVED_LABEL_PREFIX = "cut:"

IN = "in"
OUT = "out"


@dataclass(frozen=True)
class PortRef:
    vertex_id: str
    port_label: str
    direction: str  # IN or OUT

    def __str__(self):
        return f"{self.vertex_id}.{self.port_label}"


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


@dataclass(frozen=True)
class ColumnarCircuit:
    vertices: dict  # vertex_id -> OperatorInstance
    edges: frozenset  # of (PortRef out, PortRef in)
    interface: dict  # circuit label -> PortRef
    signature: Signature

    # the evaluation plan, compiled on first evaluation; not a field, so
    # equality, repr and JSON ignore it
    _plan = None

    def __post_init__(self):
        object.__setattr__(self, "edges", frozenset(self.edges))

    # -- structural helpers -------------------------------------------------

    def port_type(self, port: PortRef):
        op = self.vertices.get(port.vertex_id)
        if op is None:
            return None
        side = op.signature.inputs if port.direction == IN else op.signature.outputs
        return side.get(port.port_label)

    def in_ports(self):
        for vid, op in self.vertices.items():
            for label in op.signature.inputs:
                yield PortRef(vid, label, IN)

    def out_ports(self):
        for vid, op in self.vertices.items():
            for label in op.signature.outputs:
                yield PortRef(vid, label, OUT)

    def engaged_in_ports(self):
        return {dst for _, dst in self.edges}

    def disengaged_in_ports(self):
        return set(self.in_ports()) - self.engaged_in_ports()

    def input_labels(self):
        return list(self.signature.inputs)

    def output_labels(self):
        return list(self.signature.outputs)


def circuit(vertices, edges, interface) -> ColumnarCircuit:
    """Build a circuit, deriving its signature from the interface mapping."""
    vertices = dict(vertices)
    edges = frozenset(edges)
    interface = dict(interface)
    ins, outs = {}, {}
    for label, port in interface.items():
        op = vertices.get(port.vertex_id)
        if op is None:
            raise ColcircError(f"interface label {label!r} points at unknown vertex {port.vertex_id!r}")
        if port.direction == IN:
            t = op.signature.inputs.get(port.port_label)
            if t is None:
                raise ColcircError(f"interface label {label!r} points at unknown in-port {port}")
            ins[label] = t
        else:
            t = op.signature.outputs.get(port.port_label)
            if t is None:
                raise ColcircError(f"interface label {label!r} points at unknown out-port {port}")
            outs[label] = t
    return ColumnarCircuit(vertices, edges, interface, Signature(ins, outs))


def validate_circuit(c: ColumnarCircuit) -> ValidationReport:
    """Full structural check; violations are data, not failures."""
    violations = []

    known_in = set(c.in_ports())
    known_out = set(c.out_ports())

    # ports named by edges must exist and obey the in/out orientation
    fed = {}
    for src, dst in c.edges:
        if src.direction != OUT or src not in known_out:
            violations.append(Violation("bad-edge-source", f"{src} is not a vertex out-port"))
            continue
        if dst.direction != IN or dst not in known_in:
            violations.append(Violation("bad-edge-target", f"{dst} is not a vertex in-port"))
            continue
        fed.setdefault(dst, []).append(src)
        t_src, t_dst = c.port_type(src), c.port_type(dst)
        if t_src != t_dst:
            violations.append(
                Violation("type-mismatch", f"edge {src} ({t_src}) -> {dst} ({t_dst})")
            )
    for dst, srcs in fed.items():
        if len(srcs) > 1:
            violations.append(Violation("multi-fed-port", f"{dst} is the target of {len(srcs)} edges"))

    # acyclicity of the vertex-level dependency graph
    deps = {vid: set() for vid in c.vertices}
    for src, dst in c.edges:
        if src.vertex_id in deps and dst.vertex_id in deps:
            deps[dst.vertex_id].add(src.vertex_id)
    state = {}

    def has_cycle(v):
        state[v] = 1
        for u in deps[v]:
            s = state.get(u)
            if s == 1 or (s is None and has_cycle(u)):
                return True
        state[v] = 2
        return False

    if any(state.get(v) is None and has_cycle(v) for v in deps):
        violations.append(Violation("cycle", "layout graph contains a directed cycle"))

    # interface: inputs biject onto disengaged in-ports, outputs hit out-ports
    disengaged = known_in - set(fed)
    seen_ports = {}
    for label in c.signature.inputs:
        port = c.interface.get(label)
        if port is None:
            violations.append(Violation("dangling-interface", f"input label {label!r} is unmapped"))
            continue
        if port not in known_in:
            violations.append(Violation("dangling-interface", f"input label {label!r} -> missing port {port}"))
            continue
        if port not in disengaged:
            violations.append(Violation("engaged-input", f"input label {label!r} -> engaged port {port}"))
        if port in seen_ports:
            violations.append(
                Violation("input-not-injective", f"labels {seen_ports[port]!r} and {label!r} share {port}")
            )
        seen_ports[port] = label
        if c.port_type(port) != c.signature.inputs[label]:
            violations.append(Violation("type-mismatch", f"input label {label!r} type differs from {port}"))
    unmapped = disengaged - set(seen_ports)
    for port in sorted(unmapped, key=str):
        violations.append(Violation("unmapped-disengaged-input", f"{port} has no circuit input label"))
    for label in c.signature.outputs:
        port = c.interface.get(label)
        if port is None or port not in known_out:
            violations.append(Violation("dangling-interface", f"output label {label!r} -> {port}"))
        elif c.port_type(port) != c.signature.outputs[label]:
            violations.append(Violation("type-mismatch", f"output label {label!r} type differs from {port}"))

    return ValidationReport(tuple(violations))


def check_valid(c: ColumnarCircuit) -> ColumnarCircuit:
    report = validate_circuit(c)
    if not report.ok:
        raise InvalidCircuitError(report)
    return c


# -- evaluation ----------------------------------------------------------------


def _invalid(kind, detail):
    return InvalidCircuitError(ValidationReport((Violation(kind, detail),)))


def _toposort(c: ColumnarCircuit):
    deps = {vid: set() for vid in c.vertices}
    consumers = {vid: set() for vid in c.vertices}
    fed = set()
    for src, dst in c.edges:
        # ``circuit()`` does not check edges, so an edge may name no port, and
        # an in-port fed twice would take whichever edge the hash order puts last
        if src.direction != OUT or c.port_type(src) is None:
            raise _invalid("bad-edge-source", f"{src} is not a vertex out-port")
        if dst.direction != IN or c.port_type(dst) is None:
            raise _invalid("bad-edge-target", f"{dst} is not a vertex in-port")
        if dst in fed:
            raise _invalid("multi-fed-port", f"{dst} is the target of more than one edge")
        fed.add(dst)
        deps[dst.vertex_id].add(src.vertex_id)
        consumers[src.vertex_id].add(dst.vertex_id)
    order = []
    ready = sorted(v for v, d in deps.items() if not d)
    pending = {v: len(d) for v, d in deps.items()}
    while ready:
        v = ready.pop()
        order.append(v)
        for u in sorted(consumers[v]):
            pending[u] -= 1
            if pending[u] == 0:
                ready.append(u)
    if len(order) != len(c.vertices):
        raise _invalid("cycle", "cannot order vertices")
    return order


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
    order = _toposort(c)
    source = {(dst.vertex_id, dst.port_label): src for src, dst in c.edges}
    in_slot, out_slot = {}, {}
    inputs = []
    for label, t in c.signature.inputs.items():
        port = c.interface[label]
        in_slot[port.vertex_id, port.port_label] = len(inputs)
        inputs.append((label, t, len(inputs)))
    n_slots = len(inputs)
    steps = []
    for vid in order:
        op = c.vertices[vid]
        ins = []
        for label in op.signature.inputs:
            src = source.get((vid, label))
            if src is not None:  # an out-port of a vertex ordered before this one
                slot = out_slot[src.vertex_id, src.port_label]
            else:
                slot = in_slot.get((vid, label))
                if slot is None:
                    raise _invalid("unmapped-disengaged-input", f"{vid}.{label} has no circuit input label")
            ins.append((label, slot))
        outs = []
        for label in op.signature.outputs:
            out_slot[vid, label] = n_slots
            outs.append((label, n_slots))
            n_slots += 1
        steps.append((vid, op, tuple(ins), tuple(outs)))
    outputs = []
    for label in c.signature.outputs:
        port = c.interface[label]
        outputs.append((label, out_slot[port.vertex_id, port.port_label]))
    return _Plan(tuple(inputs), tuple(steps), tuple(outputs), n_slots)


def _check_outputs(vid, op, outs):
    for label, col in outs.items():
        if not isinstance(col, Column):
            raise EvaluationError(vid, OperatorError("bad-output", f"{label} is not a column"))
    for label in op.signature.outputs:
        if label not in outs:
            raise EvaluationError(vid, OperatorError("bad-output", f"missing output {label}"))


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
        if self._index is None:
            index = {}
            for vid, _, ins, outs in self._plan.steps:
                for label, slot in ins:
                    index[PortRef(vid, label, IN)] = slot
                for label, slot in outs:
                    index[PortRef(vid, label, OUT)] = slot
            self._index = index
        return self._index

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
    fixed topological order.  ``parallel`` is accepted for compatibility
    and ignored: under the GIL a thread pool only added hand-off latency.
    """
    plan = c._plan
    if plan is None:
        # no lock: threads racing here compile equal plans, and either may stay
        plan = _compile(c)
        object.__setattr__(c, "_plan", plan)
    slots = [None] * plan.n_slots
    for label, t, slot in plan.inputs:
        if label not in inputs:
            raise MissingInputError(f"no column supplied for input {label!r}")
        col = inputs[label]
        if col.element_type != t:
            raise MissingInputError(f"input {label!r} expects element type {t}, got {col.element_type}")
        slots[slot] = col
    for vid, op, ins, outs in plan.steps:
        args = {}
        for label, slot in ins:
            args[label] = slots[slot]
        try:
            result = op.apply(args)
        except OperatorError as exc:
            raise EvaluationError(vid, exc) from exc
        if len(result) != len(outs):
            _check_outputs(vid, op, result)
        for label, slot in outs:
            col = result.get(label)
            if not isinstance(col, Column):
                _check_outputs(vid, op, result)
            slots[slot] = col
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
    return {
        "signature": {
            "inputs": {k: str(t) for k, t in c.signature.inputs.items()},
            "outputs": {k: str(t) for k, t in c.signature.outputs.items()},
        },
        "vertices": [
            {"id": vid, "op": op.op_name, "params": op.params}
            for vid, op in sorted(c.vertices.items())
        ],
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
    return json.dumps(circuit_to_json(c), indent=2, sort_keys=True)


def load_circuit(text: str) -> ColumnarCircuit:
    return circuit_from_json(json.loads(text))
