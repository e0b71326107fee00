"""A small fluent helper for wiring up circuits vertex by vertex.

Decoder and verifier circuits throughout the scheme modules are assembled
with this; it only produces plain :class:`ColumnarCircuit` values.  Circuit
input labels biject onto in-ports, so the builder owns input relays: an
input wired into one in-port maps onto that port, and an input wired into
several gets exactly one ``no_op`` relay that fans it out.  ``embed`` copies
a whole circuit in as a subcircuit, so composed decoders are builder
programs too.
"""

from __future__ import annotations

from .circuit import IN, OUT, ColumnarCircuit, PortRef, ValidationReport, Violation, circuit, validate_circuit
from .circuit import _port, _proven_if
from .errors import ColcircError, InvalidCircuitError
from .ops import instantiate
from .types import INT


class Wire:
    """Handle for a vertex out-port during construction."""

    __slots__ = ("builder", "port")

    def __init__(self, builder, port):
        self.builder = builder
        self.port = port


class Input:
    """Handle for a not-yet-connected circuit input."""

    __slots__ = ("label",)

    def __init__(self, label):
        self.label = label


class CircuitBuilder:
    def __init__(self):
        self._vertices = {}
        self._edges = set()
        self._inputs = {}  # label -> [PortRef (in), ...] it feeds
        self._outputs = {}  # label -> PortRef (out)
        # ``add`` feeds each in-port once, from earlier vertices; a failed feed check or ``embed`` voids that
        self._proven = True
        self._flaws = []  # what validation cannot see: wires of another builder

    def input(self, label: str) -> Input:
        return Input(label)

    def add(self, op_name: str, params: dict | None = None, **wired):
        """Add a vertex; ``wired`` connects its in-ports to wires or inputs.

        Returns a single :class:`Wire` when the operator has one output,
        else a dict of them.
        """
        inst = instantiate(op_name, params)
        inputs, outputs = inst.signature.inputs, inst.signature.outputs
        if wired.keys() != inputs.keys():
            raise ColcircError(f"{op_name} wires ports {sorted(wired)}, not its inputs {sorted(inputs)}")
        vid = self._place(inst)
        for label, src in wired.items():
            self._feed(src, _port((vid, label, IN)))
        if len(outputs) == 1:
            (label,) = outputs
            return Wire(self, _port((vid, label, OUT)))
        return {label: Wire(self, _port((vid, label, OUT))) for label in outputs}

    def _place(self, inst) -> str:
        vid = f"v{len(self._vertices) + 1}_{inst.op_name}"
        self._vertices[vid] = inst
        return vid

    def _feed(self, src, tgt: PortRef) -> None:
        if isinstance(src, Wire):
            if src.builder is not self:
                self._proven = False
                self._flaws.append(Violation("bad-edge-source", f"{src.port} is an out-port of another builder"))
            else:
                t_src = self._vertices[src.port[0]].signature.outputs[src.port[1]]
                t_dst = self._vertices[tgt[0]].signature.inputs[tgt[1]]
                self._proven &= t_src is t_dst or t_src == t_dst
            self._edges.add((src.port, tgt))
        elif isinstance(src, Input):
            self._inputs.setdefault(src.label, []).append(tgt)
        else:
            self._proven = False  # ``add`` placed the vertex, which stays unfed
            raise ColcircError(f"cannot wire {src!r} into {tgt}")

    def embed(self, c: ColumnarCircuit, inputs: dict) -> dict:
        """Copy circuit ``c`` in under fresh vertex ids; returns its outputs by label.

        ``inputs`` feeds every input label of ``c`` from a wire or an input.
        A relay of ``c`` (a ``no_op`` on an input) is not copied unless it is
        a sink: the ports it fed take the feed, so an output that only passes
        an input through is the feed itself, and :meth:`build` places any
        relay the feed then needs.
        """
        if inputs.keys() != c.signature.inputs.keys():
            raise ColcircError(f"embedding feeds {sorted(inputs)}, not the inputs {sorted(c.signature.inputs)}")
        used = {src for src, _ in c.edges} | {c.interface[label] for label in c.signature.outputs}
        through = {}  # out-port of a relay left out -> its feed
        self._proven = False  # ``c`` may hold flaws ``add`` rules out: a cycle, a port fed twice
        for label, src in inputs.items():
            if isinstance(src, Wire) and src.builder is self:
                vid, port_label, _ = src.port
                if self._vertices[vid].signature.outputs[port_label] != c.signature.inputs[label]:
                    raise ColcircError(f"embedded input {label!r} takes {c.signature.inputs[label]}")
            relay = PortRef(c.interface[label].vertex_id, "result", OUT)
            if c.vertices[relay.vertex_id].op_name == "no_op" and relay in used:
                through[relay] = src
        dropped = {port.vertex_id for port in through}
        ids = {vid: self._place(op) for vid, op in c.vertices.items() if vid not in dropped}

        def copied(port):
            return through.get(port) or Wire(self, PortRef(ids[port.vertex_id], port.port_label, OUT))

        for src, dst in c.edges:
            self._feed(copied(src), PortRef(ids[dst.vertex_id], dst.port_label, IN))
        for label, src in inputs.items():
            vid, port_label, _ = c.interface[label]
            if vid not in dropped:
                self._feed(src, PortRef(ids[vid], port_label, IN))
        return {label: copied(c.interface[label]) for label in c.signature.outputs}

    # convenience micro-helpers used all over the scheme decoders

    def scalar(self, type_name: str, value) -> Wire:
        return self.add("scalar", {"type": type_name, "value": value})

    def ew(self, fn: str, params: dict | None = None, **wired) -> Wire:
        return self.add("elementwise", dict(params or {}, fn=fn), **wired)

    def length(self, col: Wire | Input, type_name: str) -> Wire:
        return self.add("length", {"type": type_name}, col=col)

    def noop(self, src: Wire | Input, type_name: str) -> Wire:
        return self.add("no_op", {"type": type_name}, arguments=src)

    def sink(self, src: Wire | Input, type_name: str) -> None:
        """Relay an otherwise-unused input into a dangling NoOp."""
        self.noop(src, type_name)

    def concat(self, type_name: str, *parts) -> Wire:
        wired = {f"col_{i + 1}": p for i, p in enumerate(parts)}
        return self.add("concatenate", {"type": type_name, "k": len(parts)}, **wired)

    def replicate(self, type_name: str, value, factor) -> Wire:
        return self.add("replicate", {"type": type_name}, value=value, factor=factor)

    def iota(self, n, type_name: str = str(INT)) -> Wire:
        return self.add("iota", {"type": type_name}, n=n)

    def spread(self, type_name: str, values, n, segment_length: int) -> Wire:
        """Value ``j`` of ``values`` at each position below ``n`` of segment ``j``, segments ``segment_length`` long."""
        return self.add("spread", {"type": type_name, "segment_length": segment_length}, values=values, n=n)

    def multiples(self, count, step: int) -> Wire:
        """``0, step, 2 * step, ...``, ``count`` of them: one per segment, its start when ``step`` is its length."""
        return self.ew("scale", {"type": str(INT), "k": step}, arguments=self.iota(count))

    def segment_multiples(self, n, segment_length: int, step: int) -> Wire:
        """``multiples`` for the segments of ``n`` positions, and one more when ``segment_length`` divides ``n``.

        There are ``n // segment_length + 1`` of them, so a ``spread`` over
        the ``n`` positions never runs short (it ignores the extra one), and
        with ``step = segment_length`` none lies past ``n``.
        """
        int_t = str(INT)
        last = self.ew("clip_by", {"type": int_t, "k": segment_length}, arguments=n)
        return self.multiples(self.add_cols(int_t, last, self.scalar(int_t, 1)), step)

    def gather(self, type_name: str, pos, data) -> Wire:
        return self.add("gather", {"type": type_name}, pos=pos, data=data)

    def scatter(self, type_name: str, col, pos, data) -> Wire:
        return self.add("scatter", {"type": type_name}, col=col, pos=pos, data=data)

    def prefix(self, type_name: str, op: str, data, mode: str = "inclusive") -> Wire:
        return self.add("prefix_aggregate", {"type": type_name, "op": op, "mode": mode}, data=data)

    def add_cols(self, type_name: str, lhs, rhs) -> Wire:
        return self.ew("add", {"type": type_name}, lhs=lhs, rhs=rhs)

    def sub_cols(self, type_name: str, lhs, rhs) -> Wire:
        return self.ew("sub", {"type": type_name}, lhs=lhs, rhs=rhs)

    def cast(self, src: str, dst: str, arguments) -> Wire | Input:
        if src == dst:
            return arguments
        return self.ew("cast", {"from": src, "to": dst}, arguments=arguments)

    def last_element(self, type_name: str, col: Wire, length: Wire | None = None) -> Wire:
        """Scalar holding the final element; requires a non-empty column."""
        n = length or self.length(col, type_name)
        one = self.scalar(str(INT), 1)
        idx = self.sub_cols(str(INT), n, one)
        return self.gather(type_name, idx, col)

    def total(self, type_name: str, col: Wire) -> Wire:
        """Sum as prefix aggregate plus last-element extraction.

        Empty inputs are handled by prepending a zero before reducing.
        """
        padded = self.concat(type_name, self.scalar(type_name, 0), col)
        return self.last_element(type_name, self.prefix(type_name, "add", padded))

    def output(self, label: str, wire: Wire) -> None:
        if not isinstance(wire, Wire) or wire.builder is not self:
            raise ColcircError(f"output {label!r} needs a vertex out-port of this builder, not {wire!r}")
        if label in self._outputs:
            raise ColcircError(f"output {label!r} already defined")
        self._outputs[label] = wire.port

    def result(self, label: str, wire: Wire) -> None:
        """Decoder-circuit output: labels are namespaced ``out:<label>`` so a
        scheme may decode to the same label names its encoded form uses."""
        self.output(f"out:{label}", wire)

    def build(self) -> ColumnarCircuit:
        """The circuit wired so far, marked proven: ``add`` proved it as it wired, else validation did."""
        vertices, edges, interface = dict(self._vertices), set(self._edges), {}
        for label, targets in self._inputs.items():
            if len(targets) == 1:
                interface[label] = targets[0]
                continue
            types = {vertices[p.vertex_id].signature.inputs[p.port_label] for p in targets}
            if len(types) > 1:
                names = ", ".join(sorted(map(str, types)))
                raise ColcircError(f"input {label!r} feeds ports of different types ({names})")
            vid = f"v{len(vertices) + 1}_no_op"
            vertices[vid] = instantiate("no_op", {"type": str(types.pop())})
            edges.update((PortRef(vid, "result", OUT), p) for p in targets)
            interface[label] = PortRef(vid, "arguments", IN)
        for label, port in self._outputs.items():
            if label in interface:
                raise ColcircError(f"label {label!r} used for both an input and an output")
            interface[label] = port
        c = circuit(vertices, edges, interface)
        if not self._proven:
            violations = (*self._flaws, *validate_circuit(c).violations)
            if violations:
                raise InvalidCircuitError(ValidationReport(violations))
        return _proven_if(c, True)


def run_index_wires(b: CircuitBuilder, starts: Wire, total: Wire, int_t: str = str(INT)) -> Wire:
    """Per-output-position run index for strictly increasing starts.

    Scatters a one at every run start over a zero column of length
    ``total``, takes an inclusive prefix sum, and subtracts one: the classic
    position-to-run resolution used by run-position decoders.
    """
    zeros = b.replicate(int_t, b.scalar(int_t, 0), total)
    m = b.length(starts, int_t)
    ones = b.replicate(int_t, b.scalar(int_t, 1), m)
    indicator = b.scatter(int_t, zeros, starts, ones)
    summed = b.prefix(int_t, "add", indicator)
    rep1 = b.replicate(int_t, b.scalar(int_t, 1), total)
    return b.sub_cols(int_t, summed, rep1)


def expand_ranges(
    b: CircuitBuilder,
    data_type: str,
    src_starts: Wire,
    lengths: Wire,
    data: Wire | Input,
) -> tuple[Wire, Wire]:
    """Expand per-element ``[src_start, src_start+length)`` ranges of ``data``.

    Returns ``(out_starts, out_data)``: the canonical start positions
    (prefix sums of ``lengths``) and the concatenated element data.
    Zero-length elements are legal and contribute nothing.
    """
    int_t = str(INT)
    out_starts = b.prefix(int_t, "add", lengths, mode="exclusive")
    total = b.total(int_t, lengths)
    nonzero = b.ew("const_compare", {"type": int_t, "cmp": "ne", "value": 0}, arguments=lengths)
    nz_idx = b.add("select_indices", {}, characteristic=nonzero)
    nz_out_starts = b.gather(int_t, nz_idx, out_starts)
    run_of = run_index_wires(b, nz_out_starts, total)
    elem_of = b.gather(int_t, run_of, nz_idx)
    out_pos_base = b.gather(int_t, elem_of, out_starts)
    offsets = b.sub_cols(int_t, b.iota(total), out_pos_base)
    src_base = b.gather(int_t, elem_of, src_starts)
    src = b.add_cols(int_t, src_base, offsets)
    out_data = b.gather(data_type, src, data)
    return out_starts, out_data
