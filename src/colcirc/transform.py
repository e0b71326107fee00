"""Structural algebra over circuits.

Union, input assignment, induced subcircuits, subcircuit replacement,
operator lifting, fusion into one ``fused`` vertex, and duplicate-vertex
elimination.  All transformations are pure: they return a new circuit,
which may share its operands' vertex maps, since no circuit is mutated.
"""

from __future__ import annotations

import itertools
import json

from .circuit import (
    IN,
    OUT,
    RESERVED_LABEL_PREFIX,
    ColumnarCircuit,
    PortRef,
    _port,
    _proven_if,
    _toposort,
    check_valid,
    circuit,
    circuit_from_json,
    circuit_to_json,
    evaluate_circuit,
    validate_circuit,
)
from .errors import ColcircError, InvalidCircuitError, OperatorError
from .ops import OperatorInstance, Signature, instantiate, register_operator
from .params import VALUE


# The operations below keep validity by their own checks: each result of a
# proven operand (two, for a union) is proven too.


def _retagged(c: ColumnarCircuit, tag: str) -> ColumnarCircuit:
    """``c`` with every vertex id prefixed by ``tag``; labels and signature stay."""
    vertices = {tag + vid: op for vid, op in c.vertices.items()}
    edges = frozenset([(_port((tag + s[0], s[1], OUT)), _port((tag + t[0], t[1], IN))) for s, t in c.edges])
    interface = {label: _port((tag + p[0], p[1], p[2])) for label, p in c.interface.items()}
    return _proven_if(ColumnarCircuit(vertices, edges, interface, c.signature), c._proven)


def _renamed(c: ColumnarCircuit, name) -> ColumnarCircuit:
    """``c`` with every interface label ``label`` renamed ``name(label)``, in place; ``name`` is injective."""
    sides = (c.signature.inputs, c.signature.outputs, c.interface)
    ins, outs, interface = ({name(label): v for label, v in side.items()} for side in sides)
    return _proven_if(ColumnarCircuit(c.vertices, c.edges, interface, Signature(ins, outs)), c._proven)


def circuit_union(c1: ColumnarCircuit, c2: ColumnarCircuit) -> ColumnarCircuit:
    """Disjoint union: ``c1`` keeps its vertex ids, and on a clash ``c2``'s take the first tag ``n:``
    (n >= 2) that makes them disjoint.  On a label clash all labels are tagged ``1:`` or ``2:``."""
    if not c1.vertices.keys().isdisjoint(c2.vertices):
        n = next(k for k in itertools.count(2) if not any(f"{k}:{vid}" in c1.vertices for vid in c2.vertices))
        c2 = _retagged(c2, f"{n}:")
    if not c1.interface.keys().isdisjoint(c2.interface):
        c1, c2 = _renamed(c1, "1:".__add__), _renamed(c2, "2:".__add__)
    s1, s2 = c1.signature, c2.signature
    signature = Signature({**s1.inputs, **s2.inputs}, {**s1.outputs, **s2.outputs})
    interface = {**c1.interface, **c2.interface}
    union = ColumnarCircuit({**c1.vertices, **c2.vertices}, c1.edges | c2.edges, interface, signature)
    return _proven_if(union, c1._proven and c2._proven)


def _reaches(c: ColumnarCircuit, start_vertex: str, goal_vertex: str) -> bool:
    """Whether a path of edges leads from ``start_vertex`` to ``goal_vertex``.

    The walk goes back from the goal: a spliced decoder's output has few
    ancestors, the plan input it feeds many descendants.
    """
    feeders = {}  # vertex -> the source vertex of each edge into it; a list, not a set per edge
    for s, t in c.edges:
        if t[0] in feeders:
            feeders[t[0]].append(s[0])
        else:
            feeders[t[0]] = [s[0]]
    seen, stack = {goal_vertex}, [goal_vertex]
    while stack:
        v = stack.pop()
        if v == start_vertex:
            return True
        for u in feeders.get(v, ()):
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return False


def assign_input(c: ColumnarCircuit, input_label: str, source: PortRef) -> ColumnarCircuit:
    """Engage the in-port behind ``input_label`` with an existing out-port."""
    inputs = c.signature.inputs
    if input_label not in inputs:
        raise ColcircError(f"{input_label!r} is not a circuit input label")
    target = c.interface[input_label]
    src_type = c.port_type(source)
    if source.direction != OUT or src_type is None:
        raise ColcircError(f"{source} is not a vertex out-port of this circuit")
    if src_type != inputs[input_label]:
        raise OperatorError("type-mismatch", f"{source} has type {src_type}, input expects {inputs[input_label]}")
    if _reaches(c, target.vertex_id, source.vertex_id):
        raise OperatorError("would-create-cycle", f"{source} depends on {target}")
    interface, inputs = dict(c.interface), dict(inputs)
    del interface[input_label], inputs[input_label]
    signature = Signature(inputs, c.signature.outputs)
    return _proven_if(ColumnarCircuit(c.vertices, c.edges | {(source, target)}, interface, signature), c._proven)


def cut_label(port: PortRef) -> str:
    return f"{RESERVED_LABEL_PREFIX}{port.vertex_id}:{port.port_label}"


def induced_subcircuit(c: ColumnarCircuit, vertex_set) -> ColumnarCircuit:
    """Restrict to ``vertex_set``; severed connections become fresh labels.

    A cut port keeps its identity: the new interface label is
    ``cut:<vertex>:<port>`` for the port on the retained side.
    """
    keep = set(vertex_set)
    unknown = keep - set(c.vertices)
    if unknown:
        raise ColcircError(f"unknown vertices {sorted(unknown)}")
    vertices = {vid: op for vid, op in c.vertices.items() if vid in keep}
    edges = {
        (s, t) for s, t in c.edges if s.vertex_id in keep and t.vertex_id in keep
    }
    interface = {}
    for label, port in c.interface.items():
        if port.vertex_id in keep:
            interface[label] = port
    # ports severed by the restriction
    for s, t in c.edges:
        if t.vertex_id in keep and s.vertex_id not in keep:
            interface[cut_label(t)] = t
        if s.vertex_id in keep and t.vertex_id not in keep:
            interface.setdefault(cut_label(s), s)
    return circuit(vertices, edges, interface)


def lift_operator(op: OperatorInstance, vertex_id: str = "v") -> ColumnarCircuit:
    """The one-vertex circuit whose interface is the operator's signature."""
    interface = {}
    for label in op.signature.inputs:
        interface[label] = PortRef(vertex_id, label, IN)
    for label in op.signature.outputs:
        interface[label] = PortRef(vertex_id, label, OUT)
    return circuit({vertex_id: op}, set(), interface)


def replace_subcircuit(
    c: ColumnarCircuit,
    vertex_set,
    replacement: ColumnarCircuit,
    rho: dict,
) -> ColumnarCircuit:
    """Swap the subcircuit induced by ``vertex_set`` for ``replacement``.

    ``rho`` maps each replacement interface port onto the original cut port
    it stands in for (a bijection, type-compatible port for port).  Interface
    labels of the original circuit that pointed into the replaced region are
    re-routed through the inverse of ``rho``.
    """
    keep = set(vertex_set)
    removed = induced_subcircuit(c, keep)
    survivors = {vid: op for vid, op in c.vertices.items() if vid not in keep}

    if not replacement.vertices.keys().isdisjoint(survivors):
        tags = itertools.chain(["r:"], (f"r{k}:" for k in itertools.count(2)))
        tag = next(t for t in tags if not any(t + vid in survivors for vid in replacement.vertices))
        replacement = _retagged(replacement, tag)
        rho = {PortRef(tag + p.vertex_id, p.port_label, p.direction): q for p, q in rho.items()}

    # the cut ports of the removed region, and ports the outer circuit expects
    cut_ports = {port for label, port in removed.interface.items() if label.startswith(RESERVED_LABEL_PREFIX)}
    outer_ports = {
        port
        for label, port in c.interface.items()
        if port.vertex_id in keep
    }
    needed = cut_ports | outer_ports

    inv = {}
    for rport, oport in rho.items():
        if oport in inv.values():
            raise OperatorError("bijection-incomplete", f"two replacement ports map onto {oport}")
        if oport not in needed:
            raise OperatorError("bijection-incomplete", f"{oport} is not a cut or interface port of the region")
        r_type = replacement.port_type(rport)
        o_type = removed.port_type(oport) or c.port_type(oport)
        if r_type is None:
            raise OperatorError("bijection-incomplete", f"{rport} is not a port of the replacement")
        if r_type != o_type:
            raise OperatorError("type-mismatch", f"{rport} ({r_type}) cannot stand in for {oport} ({o_type})")
        if rport.direction != oport.direction:
            raise OperatorError("type-mismatch", f"{rport} and {oport} differ in direction")
        inv[oport] = rport
    missing = needed - set(inv)
    if missing:
        raise OperatorError("bijection-incomplete", f"no replacement port for {sorted(map(str, missing))}")

    vertices = {**survivors, **replacement.vertices}
    edges = set()
    for s, t in c.edges:
        s_in = s.vertex_id in keep
        t_in = t.vertex_id in keep
        if not s_in and not t_in:
            edges.add((s, t))
        elif s_in and not t_in:
            edges.add((inv[s], t))
        elif not s_in and t_in:
            edges.add((s, inv[t]))
        # edges interior to the region vanish with it
    edges |= set(replacement.edges)

    interface = {}
    for label, port in c.interface.items():
        interface[label] = inv[port] if port.vertex_id in keep else port
    result = circuit(vertices, edges, interface)
    return check_valid(result)


def fuse_subcircuit(c: ColumnarCircuit, vertex_set, fused_name: str | None = None) -> ColumnarCircuit:
    """Replace ``vertex_set`` by one ``fused`` vertex that carries the induced subcircuit.

    ``fused_name`` (default ``fused``, with dots replaced) names the vertex;
    the interior is evaluated without exposing its edges.
    """
    keep = set(vertex_set)
    if not keep:
        raise ColcircError("cannot fuse an empty vertex set")
    inner = induced_subcircuit(c, keep)
    op = instantiate("fused", {"circuit": circuit_to_json(inner)})
    vid = (fused_name or "fused").replace(".", "_")
    lifted = lift_operator(op, vertex_id=vid)
    rho = {}
    for label, port in inner.interface.items():
        rho[PortRef(vid, label, port.direction)] = port
    return replace_subcircuit(c, keep, lifted, rho)


def _fused_sig(params):
    inner = check_valid(circuit_from_json(params["circuit"]))
    return inner.signature.inputs, inner.signature.outputs, inner


def _fused_apply(inst, cols):
    return evaluate_circuit(inst.inner, cols)


register_operator("fused", _fused_sig, _fused_apply, {"circuit": VALUE})


def rename_labels(c: ColumnarCircuit, mapping: dict) -> ColumnarCircuit:
    """Rename interface labels as if one ``old: new`` pair at a time, in one pass.

    Each renamed label keeps its place in the interface.
    """
    original = {label: label for label in c.interface}  # current name -> label in ``c``
    for old, new in mapping.items():
        if old not in original:
            raise ColcircError(f"no interface label {old!r}")
        if new in original:
            raise ColcircError(f"label {new!r} already in use")
        original[new] = original.pop(old)
    final = {label: name for name, label in original.items()}
    return _renamed(c, final.__getitem__)


def drop_output(c: ColumnarCircuit, label: str) -> ColumnarCircuit:
    """Remove an output label from the interface (the vertex stays)."""
    if label not in c.signature.outputs:
        raise ColcircError(f"{label!r} is not an output label")
    outputs, interface = dict(c.signature.outputs), dict(c.interface)
    del outputs[label]
    interface.pop(label, None)
    dropped = ColumnarCircuit(c.vertices, c.edges, interface, Signature(c.signature.inputs, outputs))
    return _proven_if(dropped, c._proven)


def _params_key(params: dict) -> str:
    try:
        return json.dumps(params, sort_keys=True)
    except TypeError:
        return repr(id(params))  # unserializable params never compare equal
    except RecursionError:  # fused vertices nested past the recursion limit
        raise ColcircError("operator params are nested too deeply") from None


def eliminate_duplicate_vertices(c: ColumnarCircuit) -> ColumnarCircuit:
    """Merge vertices with identical operator, params, and input sources.

    Value numbering (Cocke & Schwartz, 1970) in one topological pass: a
    vertex's key is its operator, its params and, per in-port, the class
    and out-port of its source, so it joins the class of an earlier vertex
    with the same key.  A vertex fed by a circuit input is a class of its
    own.  Each class keeps its least vertex id, and the evaluated function
    is unchanged.  Two ``fused`` vertices merge when their subcircuits'
    JSON documents are equal.  A cyclic or broken circuit raises
    ``InvalidCircuitError``.
    """
    order, sources = _toposort(c)
    classes, number, least = {}, {}, {}  # key -> class; vertex id -> class; class -> least vertex id
    for vid in order:
        op = c.vertices[vid]
        key = (op.op_name, _params_key(op.params))
        for label in op.signature.inputs:
            src = sources.get((vid, label, IN))
            key += ((label, number[src[0]], src[1]) if src else (label, vid),)
        n = number[vid] = classes.setdefault(key, len(classes))
        if n not in least or vid < least[n]:
            least[n] = vid
    merge = {vid: least[n] for vid, n in number.items() if least[n] != vid}
    if not merge:
        return c

    def moved(port: PortRef) -> PortRef:
        new_vid = merge.get(port.vertex_id)
        return PortRef(new_vid, port.port_label, port.direction) if new_vid else port

    vertices = {vid: op for vid, op in c.vertices.items() if vid not in merge}
    # a duplicate's inputs disappear with it
    edges = {(moved(s), t) for s, t in c.edges if t.vertex_id not in merge}
    return circuit(vertices, edges, {label: moved(port) for label, port in c.interface.items()})


__all__ = [
    "circuit_union",
    "assign_input",
    "induced_subcircuit",
    "replace_subcircuit",
    "lift_operator",
    "fuse_subcircuit",
    "eliminate_duplicate_vertices",
    "cut_label",
    "validate_circuit",
    "InvalidCircuitError",
]
