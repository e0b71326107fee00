"""Every execution path of the engine, and the one battery they must agree on.

Each optimisation is a second way to compute the same function: outputs a
kernel trusts instead of re-checking, value ranges that spare a scan, a
segmentized decoder lifted to one flat circuit.  ``PATHS`` names each way,
and ``tests/test_paths.py`` runs the battery below through every one of them
against ``plain``, comparing outputs (element types, values and exact value
shapes) or errors (type, message, cause and failing vertex), verdicts, and
the column at every port: differential testing in McKeeman's sense
(*Differential Testing for Software*, Digital Technical Journal 10(1), 1998).

Adding a path: write a context manager that turns the path on for its block,
restores everything in a ``finally``, and yields ``rebuild(columns) ->
columns``, which hands the input columns over the way the path wants them (as
they are, re-checked, stripped of their ranges).  Add it to ``PATHS`` as a
``Path``.  One that evaluates other circuits than ``plain`` (so an error may
come from another vertex) takes ``same_circuits=False``: its errors are
compared by type and its ports not at all.  One that can change only some
schemes says which with ``touches``, and is skipped for the rest and for
operator calls and circuits.  One that runs each case from several threads
at once says how many with ``threads``; each thread must see what ``plain``
sees.  One too slow for the whole battery runs one case in ``every``.  Every
test of ``test_paths.py`` loops over ``PATHS``; no path is the default.
"""

import copy
import functools
import importlib
import itertools
import math
import random
import sys
import threading
from collections import namedtuple
from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import hypothesis.strategies as st

from colcirc import (
    Column, ColumnarCircuit, CompositionRecipe, SchemeInstance, circuit_to_json, codec, compose, decode, encode,
    instantiate, make_column, scalar_column, verify,
)
from colcirc import column as column_mod
from colcirc import ops as ops_mod
from colcirc.circuit import IN, OUT, PortRef
from colcirc.errors import ColcircError
from colcirc.gallery import double_plus_three, q6_circuit
from colcirc.transform import assign_input, circuit_union, drop_output, rename_labels
from colcirc.types import BIT, F32, F64, I8, I16, I32, I64, INT, U8, U16, U32, U64, ElementType, Kind
from scheme_cases import corrupt_extend, corrupt_set, corrupt_truncate

# the package exports functions named after these modules
circuit_mod = importlib.import_module("colcirc.circuit")
codec_mod = importlib.import_module("colcirc.codec")
compose_mod = importlib.import_module("colcirc.compose")

# -- the paths -------------------------------------------------------------------------------


@contextmanager
def _patched(*changes):
    """Set ``(owner, name, value)`` for the block; put the old values back after it."""
    saved = [(owner, name, vars(owner)[name]) for owner, name, _ in changes]
    try:
        for owner, name, value in changes:
            setattr(owner, name, value)
        yield
    finally:
        for owner, name, value in reversed(saved):
            setattr(owner, name, value)


@functools.cache
def _twin(t):
    """An element type equal to ``t``, but not the interned one."""
    return copy.deepcopy(t)


def _copied(columns):
    """Re-checked by ``Column(...)`` over copied, so not interned, element types."""
    return {label: Column(_twin(c.element_type), c.values) for label, c in columns.items()}


def _recorded(columns):
    """Re-checked by ``Column(...)``, which records each integer column's range."""
    return {label: Column(c.element_type, c.values) for label, c in columns.items()}


def _stripped(columns):
    """Built by ``Column._trusted``: no recorded range."""
    return {label: Column._trusted(c.element_type, c.values) for label, c in columns.items()}


@contextmanager
def plain():
    """The engine as it ships: the reference."""
    yield dict


@contextmanager
def checked():
    """Every shortcut off: each output through ``Column(...)``, each integer result scanned."""
    with _patched(
        (ops_mod, "_well_typed", lambda inst, cols: False),
        (ops_mod, "_interval", lambda col: None),
        (Column, "_trusted", classmethod(lambda cls, t, values: Column(t, values))),
    ):
        yield _copied


@contextmanager
def ranges_everywhere():
    """Columns of every length record, derive and inherit ranges; inputs carry theirs."""
    with _patched((column_mod, "_RANGED", 0), (ops_mod, "_RANGED", 0)):
        yield _recorded


@contextmanager
def stripped():
    """Ranges everywhere, but the inputs carry none."""
    with ranges_everywhere():
        yield _stripped


@contextmanager
def ranges_off():
    """Ranges everywhere, inputs stripped, and every range check scans: no operator reads a range."""
    with ranges_everywhere(), _patched((ops_mod, "_interval", lambda col: None), (ops_mod, "_known", lambda col, n: None)):
        yield _stripped


@contextmanager
def host_loop():
    """Every lifted segmentized codec back on the ``segmentized`` operator and the per-segment verifier."""
    lifted = [e for e in codec_mod._REGISTRY.values() if isinstance(e, compose_mod._SegmentizedCodec) and e.lifted]
    caches = [e._decoder_cache for e in lifted]
    try:
        for entry in lifted:
            entry.lifted, entry._decoder_cache = False, {}
        yield dict
    finally:
        for entry, cache in zip(lifted, caches):
            entry.lifted, entry._decoder_cache = True, cache


class _Unfilled:
    """A lazy cache attribute that reads as unfilled on every object until it is filled again.

    Put over a class's cache attribute for a block, it hides what any object
    cached before the block, so each object is as fresh as a new copy of it
    for that cache.  It keeps each object it is filled on, so no object made
    in the block inherits the value of a dead one with the same ``id``.
    """

    def __init__(self, unfilled):
        self.unfilled = unfilled
        self.filled = {}  # id(obj) -> (obj, value)

    def __get__(self, obj, owner=None):
        return self.filled.get(id(obj), (obj, self.unfilled))[1]

    def __set__(self, obj, value):
        self.filled[id(obj)] = (obj, value)


_threaded_cases = itertools.count()


@contextmanager
def threaded():
    """``plain`` from 4 threads at once (``Path.threads``), on fresh lazy caches.

    Every circuit's plan and decoded spec, every ``scalar`` constant and every
    codec entry's decoder cache start empty, and the input columns are new
    and carry no range, so the threads race to fill every cache the battery
    reaches.  A thread that compiles a plan validates its circuit first, as
    ``colcirc eval`` does.  Every other case also forgets each circuit's
    proven mark, so circuits run as their unproven copies
    (``ColumnarCircuit(c.vertices, c.edges, c.interface, c.signature)``) and
    the threads race to prove them; the rest run proven, as built.
    """
    compile_plan = circuit_mod._compile

    def validated(c):
        circuit_mod.validate_circuit(c)
        return compile_plan(c)

    patches = [
        (circuit_mod, "_compile", validated),
        (ColumnarCircuit, "_plan", _Unfilled(None)),
        (ColumnarCircuit, "_decoded", _Unfilled(None)),
        (ops_mod.OperatorInstance, "_constant", _Unfilled(None)),
    ]
    if next(_threaded_cases) % 2:
        patches.append((ColumnarCircuit, "_proven", _Unfilled(False)))
    entries = list(codec_mod._REGISTRY.values())
    decoders = [e._decoder_cache for e in entries]
    try:
        for entry in entries:
            entry._decoder_cache = {}
        with _patched(*patches):
            yield _stripped
    finally:
        for entry, cache in zip(entries, decoders):
            entry._decoder_cache = cache


def _over_lifted(sid):
    """True if scheme ``sid`` is, or composes, a lifted segmentized codec."""
    entry = sid and codec(sid)
    return getattr(entry, "lifted", False) or any(_over_lifted(e.scheme_id) for e, _, _ in getattr(entry, "inners", ()))


@dataclass(frozen=True)
class Path:
    enter: Callable  # () -> context manager yielding ``rebuild``
    same_circuits: bool = True  # evaluates the circuits ``plain`` evaluates
    touches: Callable = lambda sid: True  # can change the outcomes of scheme ``sid`` (None: a call or circuit)
    threads: int = 1  # threads that run each case at once, on the same rebuilt columns
    every: int = 1  # runs one case in ``every``


PATHS = {
    "plain": Path(plain),
    "checked": Path(checked),
    "ranges_everywhere": Path(ranges_everywhere),
    "stripped": Path(stripped),
    "ranges_off": Path(ranges_off),
    "host_loop": Path(host_loop, same_circuits=False, touches=_over_lifted),
    "threaded": Path(threaded, threads=4, every=30),
}

_cases = itertools.count()


def on_every_path(run, columns, sid=None):
    """``{path name: run(columns as the path rebuilds them)}`` inside each path that touches scheme ``sid``
    and takes this case.  A threaded path's threads must all see the same: that is what it returns."""
    seen = {}
    case = next(_cases)
    for name, path in PATHS.items():
        if path.touches(sid) and case % path.every == 0:
            with path.enter() as rebuild:
                if path.threads == 1:
                    seen[name] = run(rebuild(columns))
                    continue
                cols = rebuild(columns)
                outcomes = in_threads(lambda i: run(cols), path.threads)
                for got in outcomes:
                    if isinstance(got, BaseException):
                        raise got
                    assert same(got, outcomes[0]), (name, got, outcomes[0])
                seen[name] = outcomes[0]
    return seen


def in_threads(fn, n):
    """``fn(i)`` from threads ``i = 0 .. n-1`` released together, the interpreter switching between them
    every microsecond: what each returned or raised, in thread order."""
    barrier = threading.Barrier(n)
    results = [None] * n

    def run(i):
        barrier.wait()
        try:
            results[i] = fn(i)
        except BaseException as exc:  # returned, so the caller's assertion shows it
            results[i] = exc

    threads = [threading.Thread(target=run, args=(i,)) for i in range(n)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch often, inside the builds the threads race
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return results


# -- the count guards' probe ---------------------------------------------------------------------


def count_checked_columns(monkeypatch):
    """The element types of the checked ``Column(...)`` calls made from here on."""
    built = []
    init = Column.__init__

    def counting(self, t, values):
        built.append(t)
        init(self, t, values)

    monkeypatch.setattr(Column, "__init__", counting)
    return built


# -- what a caller observes ----------------------------------------------------------------------


Failure = namedtuple("Failure", "error message cause cause_message vertex")  # what a raised ColcircError shows


def shape(v):
    """A value's exact type, component by component."""
    return tuple(map(shape, v)) if type(v) is tuple else type(v)


def _observed(v):
    if isinstance(v, Column):
        t = v.element_type
        return t, v.values, tuple(map(shape if t.kind is Kind.PRODUCT else type, v.values))
    if isinstance(v, Mapping):  # labeled outputs, and the ``PortValues`` of an evaluation
        out, by_id = {}, {}  # a column at many ports is observed once
        for k, x in v.items():
            seen = by_id.get(id(x))
            out[k] = by_id[id(x)] = _observed(x) if seen is None else seen
        return out
    return v


def outcome(fn):
    """What ``fn()`` shows a caller: its columns' types, values and value shapes, or its error."""
    try:
        return _observed(fn())
    except ColcircError as exc:
        cause = getattr(exc, "cause", None)
        return Failure(type(exc), str(exc), type(cause), str(cause), getattr(exc, "vertex_id", None))


def same(a, b, exact=True):
    """Equal outcomes, NaNs at the same places counted equal; unless ``exact``, failures of one type."""
    if a == b:
        return True
    if isinstance(a, Failure) and isinstance(b, Failure):
        return not exact and a.error is b.error
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k], exact) for k in a)
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(same(x, y, exact) for x, y in zip(a, b))
    return isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b)


# -- edge values ----------------------------------------------------------------------------------

F32_MAX = 3.4028234663852886e38
F32_TINY = 1.401298464324817e-45  # the least positive f32 (subnormal)


def edges(t):
    """Boundary values of ``t``: its bounds and their neighbours, 0 to 3 and just past the
    middle; for floats the extremes, the tiniest and the infinities."""
    if t is F32:
        return [0.0, -0.0, F32_MAX, -F32_MAX, F32_TINY, math.inf, -math.inf]
    if t is F64:
        return [0.0, sys.float_info.max, -sys.float_info.max, 5e-324, math.inf, -math.inf]
    lo, hi = t.bounds()
    return sorted(v for v in {lo, lo + 1, 0, 1, 2, 3, hi // 2 + 1, hi - 1, hi} if lo <= v <= hi)


def far_edges(t):
    """``edges(t)`` and the integers at sign, byte and 64-bit word boundaries inside ``t``."""
    lo, hi = t.bounds()
    picks = {-1, hi // 2, lo // 2, 255, -128, 2**63 - 1, 2**63, 2**63 + 1}
    return sorted({*edges(t), *(v for v in picks if lo <= v <= hi)})


def at_bounds(rng, inst):
    """Copies of ``inst`` with one integer of one column moved to its type's bound, or by 300."""
    out = []
    for label, col in sorted(inst.columns.items()):
        t = col.element_type
        if not t.is_integer or not col.values:
            continue
        lo, hi = t.bounds()
        i = rng.randrange(len(col))
        for v in (lo, hi, col.values[i] + 300, col.values[i] - 300):
            vals = list(col.values)
            vals[i] = min(max(v, lo), hi)
            out.append(inst.with_columns(**{label: Column(t, vals)}))
    return out


def mutants(rng, inst):
    """Well-typed edits of one column each: a value set to an edge of its type, a length changed."""
    for label, col in sorted(inst.columns.items()):
        t, vals = col.element_type, list(col.values)
        picks = edges(t)
        for i in {0, len(vals) - 1, rng.randrange(len(vals))} if vals else ():
            for v in picks:
                if v != vals[i]:
                    yield inst.with_columns(**{label: Column(t, vals[:i] + [v] + vals[i + 1 :])})
        yield inst.with_columns(**{label: Column(t, [])})
        if vals:
            yield inst.with_columns(**{label: Column(t, vals[:-1])})
            yield inst.with_columns(**{label: Column(t, vals[1:])})
            yield inst.with_columns(**{label: Column(t, vals + vals[-1:])})
        for v in rng.sample(picks, 2):
            yield inst.with_columns(**{label: Column(t, vals + [v])})


# -- operator calls ------------------------------------------------------------------------------


def call(op, params, **inputs):
    """``instantiate(op, params).apply(inputs)``, held to the kernel contract that evaluation relies
    on: exactly the declared output labels, each a column of its declared type."""
    inst = instantiate(op, params)
    out = inst.apply(inputs)
    declared = inst.signature.outputs
    assert out.keys() == declared.keys(), (op, params, list(out))
    for label, col in out.items():
        assert isinstance(col, Column) and col.element_type == declared[label], (op, params, label)
    return out


# -- operator calls at the boundary values of every numeric type ---------------------------------

def _int(*values):
    return make_column(INT, values)


NUMERIC = [BIT, U8, U16, U32, U64, I8, I16, I32, I64, ElementType.unsigned(24), ElementType.signed(33), F32, F64]


def boundary_calls():
    """``(id, op, params, inputs)`` over the edge values of every numeric type."""
    out = []

    def add(*case):  # case id, op, params, inputs
        out.append(case)

    for t in NUMERIC:
        vals = edges(t)
        n = len(vals)
        c, z, rev = make_column(t, vals), make_column(t, [t.zero()] * n), make_column(t, vals[::-1])
        name = str(t)
        if t is not BIT:
            for fn in ("add", "sub", "mul"):
                add(f"{fn}-{name}-zero", "elementwise", {"fn": fn, "type": name}, {"lhs": c, "rhs": z})
                add(f"{fn}-{name}-self", "elementwise", {"fn": fn, "type": name}, {"lhs": c, "rhs": rev})
            add(f"scale-{name}", "elementwise", {"fn": "scale", "type": name, "k": 2}, {"arguments": c})
            add(f"scale-neg-{name}", "elementwise", {"fn": "scale", "type": name, "k": -1}, {"arguments": c})
            add(f"clip_by-{name}", "elementwise", {"fn": "clip_by", "type": name, "k": 3}, {"arguments": c})
        for fn in ("eq", "lt", "le"):
            add(f"{fn}-{name}", "elementwise", {"fn": fn, "type": name}, {"lhs": c, "rhs": rev})
        lo, hi = vals[0], vals[-1]
        add(f"in_range-{name}", "elementwise", {"fn": "in_range", "type": name, "lo": lo, "hi": hi}, {"arguments": c})
        params = {"fn": "const_compare", "type": name, "cmp": "ge", "value": vals[n // 2]}
        add(f"const_compare-{name}", "elementwise", params, {"arguments": c})
        add(f"identity-{name}", "elementwise", {"fn": "identity", "type": name}, {"arguments": c})
        zeros8 = make_column(U8, [0] * n)
        add(f"tuple_make-{name}", "elementwise", {"fn": "tuple_make", "types": [name, "u8"]}, {"component_1": c, "component_2": zeros8})
        add(f"gather-{name}", "gather", {"type": name}, {"pos": _int(*range(n - 1, -1, -1)), "data": c})
        add(f"select-{name}", "select", {"type": name}, {"data": c, "selection": make_column(BIT, [i % 2 for i in range(n)])})
        add(f"replicate-{name}", "replicate", {"type": name}, {"value": make_column(t, [hi]), "factor": _int(3)})
        add(f"concatenate-{name}", "concatenate", {"type": name, "k": 2}, {"col_1": c, "col_2": rev})
        add(f"scatter-{name}", "scatter", {"type": name}, {"col": z, "pos": _int(0, n - 1), "data": make_column(t, [hi, lo])})
        add(f"permute-{name}", "permute", {"type": name}, {"permutation": _int(*range(n - 1, -1, -1)), "data": c})
        add(f"transpose-{name}", "transpose", {"type": name}, {"segment_length": _int(1), "col": c})
        add(f"split_first-{name}", "split_first", {"type": name}, {"col": c})
        add(f"zip-{name}", "zip", {"types": [name, name]}, {"component_1": c, "component_2": rev})
        k = min(n, 8)  # a product of at most 512 bits
        params, inputs = {"type": name, "k": k}, {"segment_length": _int(1), "components": make_column(t, vals[:k])}
        add(f"compose_segments-{name}", "compose_segments", params, inputs)
        add(f"assemble-{name}", "assemble", {"type": name, "k": 1}, {"segment_length": _int(1), "components": c})
        for op in ("replicate_segments", "replicate_within_segments"):
            add(f"{op}-{name}", op, {"type": name}, {"col": c, "segment_length": _int(1), "factor": _int(2)})
        add(f"spread-{name}", "spread", {"type": name, "segment_length": 2}, {"values": c, "n": _int(2 * n - 1)})
        add(f"derivative-{name}", "derivative", {"type": name}, {"col": c})
        add(f"is_same_as_previous-{name}", "is_same_as_previous", {"type": name}, {"col": make_column(t, [hi, hi, lo])})
        add(f"length-{name}", "length", {"type": name}, {"col": c})
        add(f"no_op-{name}", "no_op", {"type": name}, {"arguments": c})
        add(f"scalar-{name}", "scalar", {"type": name, "value": hi}, {})
        for op in ("add", "max", "min"):
            add(f"prefix-{op}-{name}", "prefix_aggregate", {"op": op, "type": name}, {"data": c})
        if t.is_integer:
            add(f"iota-{name}", "iota", {"type": name}, {"n": _int(min(hi, 5) + 1)})
        if t.kind is Kind.UNSIGNED and t.width_bits > 1:
            add(f"carve-{name}", "carve", {"w": t.width_bits, "p": t.width_bits // 2}, {"arguments": c})
        for dst in NUMERIC:
            add(f"cast-{name}-{dst}", "elementwise", {"fn": "cast", "from": name, "to": str(dst)}, {"arguments": c})
    bits = make_column(BIT, [0, 1, 1, 0])
    for fn in ("and", "or"):
        add(f"{fn}-bit", "elementwise", {"fn": fn}, {"lhs": bits, "rhs": make_column(BIT, [0, 0, 1, 1])})
    add("not-bit", "elementwise", {"fn": "not"}, {"arguments": bits})
    for op in ("and", "or"):
        add(f"prefix-{op}-bit", "prefix_aggregate", {"op": op}, {"data": bits})
    add("select_indices", "select_indices", {}, {"characteristic": bits})
    return out


# -- random operator calls: one Hypothesis case builder per operator --------------------------------
#
# Each takes Hypothesis' ``draw`` and returns (op name, params, inputs).

int_types = st.one_of(
    st.builds(ElementType.unsigned, st.integers(1, 64)), st.builds(ElementType.signed, st.integers(1, 64)), st.just(BIT)
)
simple_types = st.one_of(int_types, st.sampled_from([F32, F64]))
any_types = st.one_of(simple_types, st.lists(simple_types, min_size=1, max_size=3).map(lambda cs: ElementType.product(*cs)))


def in_domain(et):
    """Values of ``et``, edges included (u64 values above 2**63 among them)."""
    k = et.kind
    if k in (Kind.UNSIGNED, Kind.SIGNED, Kind.BIT):
        lo, hi = et.bounds()
        return st.one_of(st.integers(lo, hi), st.sampled_from([lo, hi, 0] + ([2**63] if hi >= 2**63 else [])))
    if k is Kind.FLOAT:  # small whole floats too, which integer casts and out_types accept
        return st.one_of(st.floats(width=et.width_bits), st.integers(-3, 3).map(float))
    return st.tuples(*(in_domain(c) for c in et.components))


def _column(draw, et, min_size=0, max_size=10, size=None):
    if size is not None:
        min_size = max_size = size
    return make_column(et, draw(st.lists(in_domain(et), min_size=min_size, max_size=max_size)))


def _gather(draw):
    t = draw(any_types)
    data = _column(draw, t, min_size=1)
    pos = draw(st.lists(st.integers(0, len(data) - 1), max_size=12))
    return "gather", {"type": str(t)}, {"pos": _int(*pos), "data": data}


def _select(draw):
    t = draw(any_types)
    data = _column(draw, t)
    return "select", {"type": str(t)}, {"data": data, "selection": _column(draw, BIT, size=len(data))}


def _replicate(draw):
    t = draw(any_types)
    return "replicate", {"type": str(t)}, {"value": _column(draw, t, size=1), "factor": _int(draw(st.integers(0, 5)))}


def _concatenate(draw):
    t = draw(any_types)
    k = draw(st.integers(1, 3))
    return "concatenate", {"type": str(t), "k": k}, {f"col_{i + 1}": _column(draw, t) for i in range(k)}


def _scatter(draw):
    t = draw(any_types)
    base = _column(draw, t)
    pos = draw(st.permutations(range(len(base))))[: draw(st.integers(0, len(base)))]
    return "scatter", {"type": str(t)}, {"col": base, "pos": _int(*pos), "data": _column(draw, t, size=len(pos))}


def _permute(draw):
    t = draw(any_types)
    data = _column(draw, t)
    perm = draw(st.permutations(range(len(data))))
    return "permute", {"type": str(t)}, {"permutation": _int(*perm), "data": data}


def _segmented(draw):
    t = draw(any_types)
    ell = draw(st.integers(1, 4))
    return t, ell, _column(draw, t, size=ell * draw(st.integers(0, 3)))


def _transpose(draw):
    t, ell, col = _segmented(draw)
    return "transpose", {"type": str(t)}, {"segment_length": _int(ell), "col": col}


def _replicate_segments(draw):
    t, ell, col = _segmented(draw)
    inputs = {"col": col, "segment_length": _int(ell), "factor": _int(draw(st.integers(0, 3)))}
    return draw(st.sampled_from(["replicate_segments", "replicate_within_segments"])), {"type": str(t)}, inputs


def _spread(draw):
    t = draw(any_types)
    ell = draw(st.integers(1, 4))
    values = _column(draw, t, max_size=4)
    n = draw(st.integers(0, ell * len(values) + 2))  # past the values' segments too
    return "spread", {"type": str(t), "segment_length": ell}, {"values": values, "n": _int(n)}


def _split_first(draw):
    t = draw(any_types)
    return "split_first", {"type": str(t)}, {"col": _column(draw, t, min_size=1)}


def _zip(draw):
    types = draw(st.lists(simple_types, min_size=1, max_size=3))
    n = draw(st.integers(0, 6))
    cols = {f"component_{i + 1}": _column(draw, t, size=n) for i, t in enumerate(types)}
    names = [str(t) for t in types]
    if draw(st.booleans()):
        return "zip", {"types": names}, cols
    return "elementwise", {"fn": "tuple_make", "types": names}, cols


def _compose(draw):
    t = draw(simple_types)
    k = draw(st.integers(1, 3))
    if draw(st.booleans()):
        ell = draw(st.integers(0, 3))
        cols = {"segment_length": _int(ell), "components": _column(draw, t, size=ell * k)}
        return "compose_segments", {"type": str(t), "k": k}, cols
    cols = {"segment_length": _int(k), "components": _column(draw, t, size=k * draw(st.integers(0, 3)))}
    return "assemble", {"type": str(t), "k": k}, cols


def _comparison(draw):
    t = draw(simple_types)
    n = draw(st.integers(0, 8))
    fn = draw(st.sampled_from(["eq", "lt", "le"]))
    return "elementwise", {"fn": fn, "type": str(t)}, {"lhs": _column(draw, t, size=n), "rhs": _column(draw, t, size=n)}


def _unary_bit(draw):
    t = draw(simple_types)
    col = _column(draw, t)
    v = draw(in_domain(t))
    fn = draw(st.sampled_from(["in_range", "const_compare", "is_same_as_previous"]))
    if fn == "is_same_as_previous":
        return fn, {"type": str(t)}, {"col": col}
    if fn == "in_range":
        return "elementwise", {"fn": fn, "type": str(t), "lo": v, "hi": draw(in_domain(t))}, {"arguments": col}
    cmp = draw(st.sampled_from(["eq", "ne", "lt", "le", "gt", "ge"]))
    return "elementwise", {"fn": fn, "type": str(t), "cmp": cmp, "value": v}, {"arguments": col}


def _boolean(draw):
    n = draw(st.integers(0, 8))
    fn = draw(st.sampled_from(["and", "or", "not"]))
    if fn == "not":
        return "elementwise", {"fn": fn}, {"arguments": _column(draw, BIT, size=n)}
    return "elementwise", {"fn": fn}, {"lhs": _column(draw, BIT, size=n), "rhs": _column(draw, BIT, size=n)}


def _arith(draw):
    t = draw(simple_types)
    n = draw(st.integers(0, 6))
    fn = draw(st.sampled_from(["add", "sub", "mul"]))
    return "elementwise", {"fn": fn, "type": str(t)}, {"lhs": _column(draw, t, size=n), "rhs": _column(draw, t, size=n)}


def _scale_clip(draw):
    t = draw(simple_types)
    k = draw(st.one_of(st.integers(1, 5), st.sampled_from([-3, 0, 2.5])))
    fn = draw(st.sampled_from(["scale", "clip_by"]))
    return "elementwise", {"fn": fn, "type": str(t), "k": k}, {"arguments": _column(draw, t)}


def _cast(draw):
    src, dst = draw(simple_types), draw(simple_types)
    return "elementwise", {"fn": "cast", "from": str(src), "to": str(dst)}, {"arguments": _column(draw, src)}


def _carve(draw):
    w = draw(st.integers(2, 64))
    p = draw(st.integers(1, w - 1))
    return "carve", {"w": w, "p": p}, {"arguments": _column(draw, ElementType.unsigned(w))}


def _derivative(draw):
    t = draw(simple_types)
    params = {"type": str(t)}
    if draw(st.booleans()):
        params["out_type"] = str(draw(simple_types))
    return "derivative", params, {"col": _column(draw, t, min_size=1)}


def _prefix(draw):
    op = draw(st.sampled_from(["add", "max", "min", "and", "or"]))
    t = BIT if op in ("and", "or") else draw(simple_types)
    params = {"op": op, "type": str(t), "mode": draw(st.sampled_from(["inclusive", "exclusive"]))}
    return "prefix_aggregate", params, {"data": _column(draw, t)}


def _iota(draw):
    t = draw(int_types)
    return "iota", {"type": str(t)}, {"n": _int(draw(st.integers(0, 9)))}


def _indices(draw):
    t = draw(any_types)
    if draw(st.booleans()):
        return "length", {"type": str(t)}, {"col": _column(draw, t)}
    return "select_indices", {}, {"characteristic": _column(draw, BIT)}


RANDOM_CALLS = {
    f.__name__.lstrip("_"): f
    for f in [
        _gather, _select, _replicate, _concatenate, _scatter, _permute, _transpose, _replicate_segments,
        _spread, _split_first, _zip, _compose, _comparison, _unary_bit, _boolean, _arith, _scale_clip, _cast, _carve,
        _derivative, _prefix, _iota, _indices,
    ]
}


# -- scheme instances --------------------------------------------------------------------------------


def scheme_battery(sid, case, rng):
    """Three valid instances of a ``scheme_cases`` case, each edited at its bounds, and the corruptions of the first."""
    out = []
    for round in range(3):
        params, family = case.gen(rng)
        inst = encode(sid, params, family)
        out += [inst, *at_bounds(rng, inst)]
        if round == 0:
            out += [bad for bad in (fn(rng, inst) for fn in case.corruptions) if bad is not None]
    return out


# -- composed recipes --------------------------------------------------------------------------------

_ids = itertools.count()
CONSTANT_U8 = ("constant", {"type": "u8"})
NULLSUP_U32 = ("nullsup", {"type": "u32", "narrow_type": "u8"})


def _runs(rng, n, lo=0, hi=6):
    values = []
    while len(values) < n:
        values.extend([rng.randint(lo, hi)] * rng.randint(1, 4))
    return values[:n]


def _linear(rng, n):
    a, b = rng.randint(0, 40), rng.randint(0, 5)
    return [a + b * i for i in range(n)]


def _outliers(rng, n):
    base = rng.randint(0, 255)
    return [rng.randint(0, 255) if rng.random() < 0.2 else base for _ in range(n)]


def _few(rng, n, k):
    support = rng.sample(range(256), k)
    return [rng.choice(support) for _ in range(n)]


def _walk(rng, n, lo, hi):
    at, out = rng.randint(1000, 2000), []
    for _ in range(n):
        out.append(at)
        at += rng.randint(lo, hi)
    return out


def _alternating(constant_parts):
    """An ``alternate`` family: a random partition, and one value throughout each part marked constant."""

    def family(rng, n):
        partition = [rng.randrange(len(constant_parts)) for _ in range(n)]
        value = rng.randint(0, 255)
        return {"partition": partition}, [value if constant_parts[p] else rng.randint(0, 255) for p in partition]

    return family


# (kind, inner schemes, options, decoded type, family(rng, n) -> (hints, values))
RECIPES = [
    ("patch", (CONSTANT_U8,), {}, U8, lambda rng, n: ({}, _outliers(rng, n))),
    ("patch", (("run.rle", {"type": "u8"}),), {}, U8, lambda rng, n: ({}, _runs(rng, n))),
    ("patch", (("generated.poly", {"type": "u32", "degree": 1}),), {}, U32, lambda rng, n: ({}, _linear(rng, n))),
    ("patch", (NULLSUP_U32,), {}, U32, lambda rng, n: ({}, _few(rng, n, 9))),
    ("elementwise-add", (("generated.poly", {"type": "u32", "degree": 1}), NULLSUP_U32), {}, U32,
     lambda rng, n: ({}, [v + rng.randint(0, 255) for v in _linear(rng, n)])),
    ("elementwise-add", (CONSTANT_U8, ("run.rle", {"type": "u8"})), {}, U8, lambda rng, n: ({}, _runs(rng, n))),
    ("elementwise-add", (("constant", {"type": "i16"}), ("nullsup", {"type": "i16", "narrow_type": "i8"})), {}, I16,
     lambda rng, n: ({}, [rng.randint(-60, 60) for _ in range(n)])),
    ("differentiate", (("nullsup", {"type": "i16", "narrow_type": "i8"}),), {"type": "u32"}, U32,
     lambda rng, n: ({}, _walk(rng, n, -128, 127))),
    ("differentiate", (("run.rle", {"type": "i8"}),), {"type": "u16"}, U16, lambda rng, n: ({}, _walk(rng, n, -1, 1))),
    ("differentiate", (("constant", {"type": "i8"}),), {"type": "u16"}, U16, lambda rng, n: ({}, _walk(rng, n, 3, 3))),
    ("differentiate", (("generated.poly", {"type": "u32", "degree": 0}),), {"type": "u32"}, U32,
     lambda rng, n: ({}, _walk(rng, n, 7, 7))),
    ("small-dict-fit", (NULLSUP_U32,), {"bits": 2}, U32, lambda rng, n: ({}, _few(rng, n, 5))),
    ("small-dict-fit", (CONSTANT_U8,), {"bits": 2}, U8, lambda rng, n: ({}, _few(rng, n, 3) + [7] * (n // 3))),
    ("small-dict-fit", (("run.rle", {"type": "u8"}),), {"bits": 1}, U8, lambda rng, n: ({}, _runs(rng, n, 0, 2))),
    ("small-dict-fit", (("generated.poly", {"type": "u8", "degree": 1}),), {"bits": 3}, U8, lambda rng, n: ({}, _few(rng, n, 6))),
    ("alternate", (CONSTANT_U8, ("nullsup", {"type": "u8", "narrow_type": "u8"})), {}, U8, _alternating([True, False])),
    ("alternate", (("run.rle", {"type": "u8"}), ("generated.poly", {"type": "u8", "degree": 0})), {}, U8,
     _alternating([False, True])),
]


def composed_battery(kind, inner, options, t, family):
    """``(instance, valid)`` of a new composed codec of the recipe: four valid ones and all their mutants."""
    entry = compose(CompositionRecipe(kind, f"testonly.paths.{kind}.{next(_ids)}", inner, options))
    rng = random.Random(f"oracle-{kind}-{inner}")
    for n in (1, 2, 5, 9):
        hints, values = family(rng, n)
        inst = encode(entry.scheme_id, hints, Column(t, values))
        yield inst, True
        for bad in mutants(rng, inst):
            yield bad, False


def composed_rule(kind, inner, inst):
    """Every part passes its inner verifier, and the recipe's own encoded-set rule holds
    (``small-dict-fit``: a non-empty dictionary; ``alternate``: partition ids below the
    number of inner schemes)."""
    for (sid, params), prefix in zip(inner, codec(inst.scheme_id).prefixes):
        part = {label[len(prefix) :]: c for label, c in inst.columns.items() if label.startswith(prefix)}
        if not verify(SchemeInstance(sid, params, part)):
            return False
    cols = inst.columns
    if kind == "small-dict-fit":
        return len(cols["dictionary"]) > 0
    if kind == "alternate":
        return all(v < len(inner) for v in cols["partition"].values)
    return True


# -- segmentized codecs lifted to one flat circuit ------------------------------------------------------

# (tag, entry, inner params, decoded type) of each inner scheme, a u32 over u8 narrowing, a relay and a
# signed widening, under each segment shape
LIFTED = [
    (f"{iparams['type']}-{iparams['narrow_type']}-{kind[11:]}-{options}",
     compose(CompositionRecipe(kind, f"testonly.lifting.{kind}.{next(_ids)}", (("nullsup", iparams),), options)), iparams, t)
    for (iparams, t), (kind, options) in itertools.product(
        [({"type": "u32", "narrow_type": "u8"}, U32), ({"type": "u8", "narrow_type": "u8"}, U8),
         ({"type": "i16", "narrow_type": "i8"}, I16)],
        [("segmentize-uniform", {"segment_length": ell}) for ell in (1, 4, 256)] + [("segmentize-variable", {})],
    )
]


def _segments(rng, n):
    cuts = sorted(rng.sample(range(1, n), rng.randrange(0, min(n, 4)))) if n > 1 else []
    return [b - a for a, b in zip([0, *cuts], [*cuts, n])] if n else []


def lifted_family(entry, rng, t, n):
    """The hints and column of ``n`` random values ``entry`` encodes."""
    lo, hi = (-128, 127) if t is I16 else (0, 255)
    values = [rng.randint(lo, hi) for _ in range(n)]
    return ({} if entry.uniform else {"segments": _segments(rng, n)}), Column(t, values)


def _mismatches(entry, inst):
    """Hand-made length faults: well-typed instances whose lengths disagree."""
    narrow = inst.columns["seg:narrow"]
    n = len(narrow)
    if entry.uniform:
        yield inst.with_columns(total_length=scalar_column(INT, 2**40))
        yield inst.with_columns(total_length=scalar_column(INT, n + 1))
        yield inst.with_columns(total_length=Column(INT, [n, n]))
        yield inst.with_columns(total_length=Column(INT, []))
        yield inst.with_columns(segment_length=Column(INT, [entry.ell, entry.ell]))
        yield inst.with_columns(segment_length=scalar_column(INT, entry.ell + 1))
    else:
        lengths = list(inst.columns["segment_lengths"].values)
        yield inst.with_columns(segment_lengths=Column(INT, [*lengths, 2**40]))
        yield inst.with_columns(segment_lengths=Column(INT, [*lengths, 1]))
        yield inst.with_columns(segment_lengths=Column(INT, [2**64 - 1, 2]))
        yield inst.with_columns(segment_lengths=Column(INT, [n + 1]))
        yield inst.with_columns(segment_lengths=Column(INT, lengths[1:]))
    yield inst.with_columns(**{"seg:narrow": Column(narrow.element_type, narrow.values + narrow.values[:1])})


def _corruptions(entry, rng, inst):
    """The ``tests/scheme_cases.py`` corruption battery."""
    fns = [corrupt_truncate("seg:narrow"), corrupt_extend("seg:narrow"), corrupt_extend("seg:narrow", 3, 7)]
    if entry.uniform:
        fns += [corrupt_set("segment_length", 0, 999), corrupt_set("total_length", 0, 0)]
    else:
        fns += [corrupt_set("segment_lengths", 0, 0), corrupt_truncate("segment_lengths")]
    for fn in fns:
        bad = fn(rng, inst)
        if bad is not None:
            yield bad


def lifted_battery(entry, t):
    """``(instance, (hints, column) or None)``: valid instances at ten lengths, their corruptions and length faults."""
    rng = random.Random(f"lift-{entry.scheme_id}")
    for n in [0, 1, 2, 3, 4, 5, 9, 17, 257, 520]:
        params, col = lifted_family(entry, rng, t, n)
        inst = encode(entry.scheme_id, params, col)
        yield inst, (params, col)
        for bad in [*_corruptions(entry, rng, inst), *_mismatches(entry, inst)]:
            yield bad, None


# -- segmentized codecs on the host loop: inner schemes that are not position-wise ----------------------


def _quadratic(rng, n):
    a, b, c = rng.randint(0, 40), rng.randint(0, 5), rng.randint(0, 2)
    return [a + b * i + c * i * i for i in range(n)]


# (inner scheme, family(rng, n)): values every segment of which the inner scheme encodes
HOST_LOOP_INNER = [
    (("generated", {"type": "u32", "basis": [0, 1]}), _linear),
    (("generated.poly", {"type": "u32", "degree": 2}), _quadratic),
    (("noisy.generated", {"type": "u32", "basis": [0, 1], "noise_type": "i8"}),
     lambda rng, n: [v + rng.randint(0, 9) for v in _linear(rng, n)]),
    (("for", {"type": "u32", "offset_type": "u8", "segment_length": 2}),
     lambda rng, n: [rng.randint(1000, 1200) for _ in range(n)]),
    (("delta.naive", {"type": "u32", "delta_type": "i8"}), lambda rng, n: _walk(rng, n, -60, 60)),
    (("delta", {"type": "u32", "delta_type": "i8", "segment_length": 2}), lambda rng, n: _walk(rng, n, -60, 60)),
    (("spline.equiknotted", {"type": "u32", "basis": [0, 1], "interval_length": 2}), _linear),
    (("indexed", {"type": "u16"}), lambda rng, n: [rng.randint(0, 50) for _ in range(n)]),
]

# (tag, entry, inner scheme, family) under each segment shape
HOST_LOOP = [
    (f"{inner[0]}-{kind[11:]}", compose(CompositionRecipe(kind, f"testonly.hostloop.{kind}.{next(_ids)}", (inner,), options)),
     inner, family)
    for (inner, family), (kind, options) in itertools.product(
        HOST_LOOP_INNER, [("segmentize-uniform", {"segment_length": 3}), ("segmentize-variable", {})]
    )
]


def host_loop_battery(entry, family):
    """Valid instances of 0, 1 and 7 values, and every mutant of the last."""
    rng = random.Random(f"host-{entry.scheme_id}")
    t = entry.decoder({}).signature.outputs["out:col"]
    for n in (0, 1, 7):
        inst = encode(entry.scheme_id, {} if entry.uniform else {"segments": _segments(rng, n)}, Column(t, family(rng, n)))
        yield inst
    yield from mutants(rng, inst)


def segments_rule(entry, inner, inst):
    """The host loop's verdict, read off the encoded form: the segment lengths cover the ``seg:``
    columns exactly, and every segment passes its inner verifier and decodes to its length."""
    sid, iparams = inner
    lengths = functools.partial(codec(sid).encoded_lengths, iparams)
    cols = inst.columns
    if entry.uniform:
        if cols["segment_length"].values != (entry.ell,) or len(cols["total_length"]) != 1:
            return False
        full, rest = divmod(cols["total_length"].values[0], entry.ell)
        runs = [(entry.ell, full), (rest, 1 if rest else 0)]  # (segment length, how many)
    else:
        runs = [(seg_len, 1) for seg_len in cols["segment_lengths"].values]
    need = {label[4:]: 0 for label in cols if label.startswith("seg:")}
    for seg_len, times in runs:  # counted before a segment is cut: ``times`` may be huge
        for label, count in lengths(seg_len).items():
            need[label] += count * times
    if any(len(cols["seg:" + label]) != count for label, count in need.items()):
        return False
    at = dict.fromkeys(need, 0)
    for seg_len, times in runs:
        for _ in range(times):
            piece = {}
            for label, count in lengths(seg_len).items():
                col = cols["seg:" + label]
                piece[label] = Column(col.element_type, col.values[at[label] : at[label] + count])
                at[label] += count
            part = SchemeInstance(sid, iparams, piece)
            if not verify(part):
                return False
            try:
                if len(decode(part, check=False)["col"]) != seg_len:
                    return False
            except ColcircError:
                return False
    return True


# -- direct calls of the operators that lift a circuit or a codec -----------------------------------------


def lifting_calls():
    """``(id, op, params, inputs)`` of ``fused``, ``segmentized`` and ``host_verify``: valid inputs and
    faulty ones (an overflow inside the subcircuit, mutated encoded forms)."""
    out = []
    doc = circuit_to_json(double_plus_three("u8"))
    for vals in ([], [0, 1, 126], [127, 255]):  # 2 * 127 + 3 leaves u8
        out.append((f"fused-{len(vals)}", "fused", {"circuit": doc}, {"col": make_column(U8, vals)}))
    for tag, entry, (sid, iparams), family in HOST_LOOP:
        rng = random.Random(f"call-{tag}")
        t = entry.decoder({}).signature.outputs["out:col"]
        hints = {} if entry.uniform else {"segments": [3, 2, 2]}
        inst = encode(entry.scheme_id, hints, Column(t, family(rng, 7)))
        for i, bad in enumerate([None, *itertools.islice(mutants(rng, inst), 0, None, 37)]):
            cols = (bad or inst).columns
            out.append((f"segmentized-{tag}-{i}", "segmentized", {"scheme": entry.scheme_id}, cols))
            out.append((f"host_verify-{tag}-{i}", "host_verify", {"scheme": entry.scheme_id, "params": {}}, cols))
        if entry.uniform:  # the inner scheme's own verifier, once per inner scheme
            part = encode(sid, iparams, Column(t, family(rng, 5)))
            for i, bad in enumerate([None, *itertools.islice(mutants(rng, part), 0, None, 11)]):
                cols = (bad or part).columns
                out.append((f"host_verify-{sid}-{i}", "host_verify", {"scheme": sid, "params": iparams}, cols))
    return out


# -- a circuit's function by its inductive definition: the reference ``plain`` is checked against ----


def inductive_port_value(c, port, inputs, memo):
    """The column at ``port`` by the inductive definition of a circuit's function, by naive recursion."""
    if port in memo:
        return memo[port]
    if port.direction == IN:
        for label, p in c.interface.items():
            if p == port and label in c.signature.inputs:
                return inputs[label]
        for src, dst in c.edges:
            if dst == port:
                return inductive_port_value(c, src, inputs, memo)
        raise AssertionError(f"unfed port {port}")
    op = c.vertices[port.vertex_id]
    args = {label: inductive_port_value(c, PortRef(port.vertex_id, label, IN), inputs, memo) for label in op.signature.inputs}
    for label, col in op.apply(args).items():
        memo[PortRef(port.vertex_id, label, OUT)] = col
    return memo[port]


# -- query plans: each lineitem column's decoder spliced in front of a Q6 input --------------------------

def lineitem(segment_length):
    """Each lineitem column's scheme; ``shipdate`` is a frame of reference over segments of ``segment_length``."""
    return {
        "shipdate": ("for", {"type": "u64", "offset_type": "u16", "segment_length": segment_length}),
        "discount": ("dict", {"type": "u64"}),
        "quantity": ("nullsup", {"type": "u64", "narrow_type": "u8"}),
        "extended_price": ("nullsup", {"type": "u64", "narrow_type": "u32"}),
    }


LINEITEM = lineitem(128)  # the benchmark's


def decoders(schemes=LINEITEM):
    """Each lineitem column's decoder, its labels renamed to ``<column>:<label>`` and ``dec:<column>``."""
    out = {}
    for name, (sid, params) in schemes.items():
        entry = codec(sid)
        p = entry.normalize_params(params)
        mapping = {"out:col": f"dec:{name}", **{label: f"{name}:{label}" for label in entry.form_spec(p)}}
        out[name] = rename_labels(entry.decoder(p), mapping)
    return out


def splice_q6(constants, schemes=LINEITEM):
    """Q6 with each decoder in front of its input, spliced as the benchmark splices it."""
    plan = q6_circuit(**constants)
    for name, dec in decoders(schemes).items():
        plan = circuit_union(plan, dec)
        plan = assign_input(plan, name, plan.interface[f"dec:{name}"])
        plan = drop_output(plan, f"dec:{name}")
    return plan


def encoded(table, schemes=LINEITEM):
    """The plan's inputs: each column of ``table`` encoded by its scheme."""
    inputs = {}
    for name, (sid, params) in schemes.items():
        inst = encode(sid, params, make_column(U64, table[name]))
        inputs.update({f"{name}:{label}": col for label, col in inst.columns.items()})
    return inputs


def random_query(rng, least=0):
    """A lineitem table of ``least`` to 20 rows, and Q6 constants."""
    n = rng.randrange(least, 21)
    quantity = [rng.randrange(1, 51) for _ in range(n)]
    table = {
        "shipdate": [rng.randrange(8036, 10562) for _ in range(n)],
        "discount": [rng.randrange(0, 11) for _ in range(n)],
        "quantity": quantity,
        "extended_price": [q * rng.randrange(90000, 200001) for q in quantity],
    }
    date_lo, discount_lo = rng.randrange(8036, 10561), rng.randrange(0, 10)
    constants = {
        "date_lo": date_lo,
        "date_hi": date_lo + rng.randrange(0, 730),
        "discount_lo": discount_lo,
        "discount_hi": discount_lo + rng.randrange(0, 3),
        "quantity_cap": rng.randrange(2, 51),
    }
    return table, constants
