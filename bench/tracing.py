"""Per-layer tracing, installed from outside the program.

``install`` wraps the public functions of every ``colcirc`` module, plus the
few methods where a layer does its work (``Column.__init__``,
``OperatorInstance.apply``, ``CodecEntry.decoder`` and ``verify_columns``,
the ``CircuitBuilder`` methods, and each codec's encoder and host verifier),
and replaces every module-level reference to them.  Nothing under ``src/``
changes, and an untraced run installs nothing.

A span is recorded only inside a benchmark operation (``Tracer.root``), so
input preparation and checks stay out of the numbers.  Spans are aggregated
as they close, keyed by ``(parent span, span)``: calls, total time and self
time (the span minus its children).  Counts are taken at the same points.
"""

from __future__ import annotations

import contextlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

# Per-layer metrics measured on every workload; printed by ``--trace 1``.
# The traced JSON report also holds the layers only some workloads touch.
PRINTED = (
    "column.construct_ns_per_value",
    "column.values_constructed",
    "circuit.dispatch_ns_per_vertex",
    "circuit.useful_vertex_ratio",
    "circuit.vertices_run",
    "circuit.validate_s",
    "codec.decoder_cache_hit_ratio",
    "codec.decoder_build_s",
    "codec.verifications_per_decode",
    "builder.build_s",
    "transform.plan_build_s",
    "comp_schemes.encode_ns_per_elem",
    "comp_schemes.host_verify_ns_per_elem",
    "rep_schemes.encode_ns_per_elem",
    "rep_schemes.host_verify_ns_per_elem",
    "compose.inner_decodes_per_segment",
    "ops.elementwise.add.ns_per_elem",
    "ops.elementwise.in_range.ns_per_elem",
    "ops.gather.ns_per_elem",
    "ops.scatter.ns_per_elem",
    "ops.select.ns_per_elem",
    "ops.prefix_aggregate.ns_per_elem",
    "ops.replicate.ns_per_elem",
    "ops.no_op.calls",
    "trace.overhead_ratio",
)

# Spans whose outermost occurrences are counted per benchmark operation.
_OUTERMOST = ("codec.verify_columns", "compose._inner_decode")


def _total_len(cols):
    return sum(len(c) for c in cols.values())


class Tracer:
    def __init__(self):
        self.stack = []  # open spans: [name, child seconds]
        self.open = Counter()  # name -> open spans of that name
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # (parent, name) -> calls, total s, self s
        self.elems = Counter()  # name -> elements (or bytes) processed
        self.roots = Counter()  # operation kind -> operations traced
        self.outer = Counter()  # (kind, segmented, name) -> outermost spans
        self.segments = 0  # segments decoded by segmentized decode operations
        self.cache = Counter()  # decoder cache "hit" / "miss"
        self.build_s = 0.0  # outermost decoder builds
        self._root = None

    @contextlib.contextmanager
    def root(self, kind, tag, segments):
        """One benchmark operation: the root of every span it causes."""
        self.roots[kind] += 1
        if kind == "decode":
            self.segments += segments
        self._root = (kind, bool(segments))
        try:
            with self.span(f"bench.{kind}"):
                yield
        finally:
            self._root = None

    @contextlib.contextmanager
    def span(self, name):
        opened = self.enter(name)
        try:
            yield
        finally:
            self.exit(opened)

    def enter(self, name):
        stack = self.stack
        entry = [name, 0.0]
        parent = stack[-1][0] if stack else None
        stack.append(entry)
        return entry, parent, perf_counter()

    def exit(self, opened):
        entry, parent, t0 = opened
        dt = perf_counter() - t0
        stack = self.stack
        stack.pop()
        if stack:
            stack[-1][1] += dt
        rec = self.spans[(parent, entry[0])]
        rec[0] += 1
        rec[1] += dt
        rec[2] += dt - entry[1]

    def wrap(self, fn, name, elems=None):
        """``fn`` recorded as span ``name``; ``elems(args, result)`` counts its work."""
        tracer = self
        stack = self.stack
        count_outer = name in _OUTERMOST

        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            if count_outer:
                if not tracer.open[name]:
                    tracer.outer[tracer._root + (name,)] += 1
                tracer.open[name] += 1
            opened = tracer.enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.exit(opened)
                if count_outer:
                    tracer.open[name] -= 1
            if elems is not None:
                tracer.elems[name] += elems(args, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- derived metrics ----------------------------------------------------------------

    def _by_name(self):
        calls, total, self_s = Counter(), Counter(), Counter()
        for (_, name), (n, t, s) in self.spans.items():
            calls[name] += n
            total[name] += t
            self_s[name] += s
        return calls, total, self_s

    def metrics(self, rounds):
        """Per-layer metrics; times and counts are per round."""
        calls, _, self_s = self._by_name()
        out = {}

        def put(key, value, unit):
            out[key] = {"value": value, "unit": unit}

        def ns_per(names, elem_name=None):
            work = sum(self.elems[n] for n in ([elem_name] if elem_name else names))
            return 1e9 * sum(self_s[n] for n in names) / work if work else 0.0

        def layer_self(prefix):
            return sum(s for name, s in self_s.items() if name.startswith(prefix + "."))

        put("column.construct_ns_per_value", ns_per(["column.construct"]), "ns")
        put("column.values_constructed", self.elems["column.construct"] / rounds, "count")
        put("column.read_ns_per_byte", ns_per(["column.read_col_file", "column.read_col_bytes"], "column.read_col_bytes"), "ns")
        put("column.write_ns_per_byte", ns_per(["column.write_col_file", "column.write_col_bytes"], "column.write_col_bytes"), "ns")

        run_by_eval = {name: rec for (parent, name), rec in self.spans.items() if parent == "circuit.evaluate_ports"}
        vertices = sum(rec[0] for rec in run_by_eval.values())
        relays = run_by_eval.get("ops.no_op", [0])[0]
        put("circuit.dispatch_ns_per_vertex", 1e9 * self_s["circuit.evaluate_ports"] / vertices if vertices else 0.0, "ns")
        put("circuit.useful_vertex_ratio", (vertices - relays) / vertices if vertices else 0.0, "ratio")
        put("circuit.vertices_run", vertices / rounds, "count")
        put("circuit.validate_s", (self_s["circuit.validate_circuit"] + self_s["circuit.check_valid"]) / rounds, "s")

        looked_up = self.cache["hit"] + self.cache["miss"]
        put("codec.decoder_cache_hit_ratio", self.cache["hit"] / looked_up if looked_up else 0.0, "ratio")
        put("codec.decoder_build_s", self.build_s / rounds, "s")
        verifies = sum(n for (kind, _, name), n in self.outer.items() if kind == "decode" and name == "codec.verify_columns")
        put("codec.verifications_per_decode", verifies / self.roots["decode"] if self.roots["decode"] else 0.0, "count")

        put("builder.build_s", layer_self("builder") / rounds, "s")
        put("transform.plan_build_s", layer_self("transform") / rounds, "s")
        for layer in ("comp_schemes", "rep_schemes"):
            put(f"{layer}.encode_ns_per_elem", ns_per([f"{layer}.encode"]), "ns")
            put(f"{layer}.host_verify_ns_per_elem", ns_per([f"{layer}.host_verify"]), "ns")
        inner = self.outer[("decode", True, "compose._inner_decode")]
        put("compose.inner_decodes_per_segment", inner / self.segments if self.segments else 0.0, "count")

        put("bundle.read_s", self_s["bundle.read_bundle"] / rounds, "s")
        put("bundle.write_s", self_s["bundle.write_bundle"] / rounds, "s")
        put("cli.self_s", layer_self("cli") / rounds, "s")

        for name in sorted(n for n in calls if n.startswith("ops.") and not n.startswith("ops.helper.")):
            put(f"{name}.ns_per_elem", ns_per([name]), "ns")
            put(f"{name}.calls", calls[name] / rounds, "count")
        return out

    def span_table(self, rounds):
        """The aggregated call graph, per round: parent, span, calls, total and self seconds."""
        return [
            {"parent": parent, "span": name, "calls": n / rounds, "total_s": t / rounds, "self_s": s / rounds}
            for (parent, name), (n, t, s) in sorted(self.spans.items(), key=lambda kv: -kv[1][2])
        ]


def _op_name(inst):
    name = "ops." + inst.op_name.replace(":", "_")
    if inst.op_name == "elementwise":
        name += "." + inst.params["fn"]
    return name


def install(tracer):
    """Wrap the program for ``tracer``; returns a function that undoes it."""
    # sys.modules, since the package re-exports names such as ``codec`` over its submodules
    builder_mod, codec_mod, column_mod, ops_mod = (
        sys.modules[f"colcirc.{name}"] for name in ("builder", "codec", "column", "ops")
    )
    params_key = codec_mod.params_key
    modules = {name: m for name, m in sys.modules.items() if name.startswith("colcirc.") and m is not None}
    undo = []

    def patch(owner, attr, value):
        undo.append((owner, attr, owner.__dict__.get(attr, _ABSENT)))
        setattr(owner, attr, value)

    # public module-level functions, replaced wherever a module holds them;
    # the ops module's direct-call helpers are named apart from the operators
    replaced = {}
    for modname, mod in modules.items():
        layer = modname.split(".")[-1]
        prefix = "ops.helper" if layer == "ops" else layer
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj.__module__ == modname and not attr.startswith("_"):
                name = f"{prefix}.{attr}"
                replaced[id(obj)] = (obj, tracer.wrap(obj, name, _ELEMS.get(name)))
    inner = modules["colcirc.compose"]._inner_decode
    replaced[id(inner)] = (inner, tracer.wrap(inner, "compose._inner_decode"))
    for mod in [*modules.values(), sys.modules["colcirc"]]:
        for attr, obj in list(vars(mod).items()):
            hit = replaced.get(id(obj))
            if hit is not None and hit[0] is obj:
                patch(mod, attr, hit[1])

    # methods where a layer does its work
    init = column_mod.Column.__init__
    patch(column_mod.Column, "__init__", tracer.wrap(init, "column.construct", lambda a, _: len(a[0].values)))

    apply = ops_mod.OperatorInstance.apply

    def traced_apply(self, inputs):
        if not tracer.stack:
            return apply(self, inputs)
        name = _op_name(self)
        opened = tracer.enter(name)
        try:
            out = apply(self, inputs)
        finally:
            tracer.exit(opened)
        tracer.elems[name] += max(max(map(len, inputs.values()), default=1), max(map(len, out.values()), default=1))
        return out

    patch(ops_mod.OperatorInstance, "apply", traced_apply)

    decoder = codec_mod.CodecEntry.decoder
    depth = [0]

    def traced_decoder(self, params):
        if not tracer.stack:
            return decoder(self, params)
        if params_key(params) in self._decoder_cache:
            tracer.cache["hit"] += 1
            return decoder(self, params)
        tracer.cache["miss"] += 1
        depth[0] += 1
        t0 = perf_counter()
        try:
            with tracer.span("codec.decoder_build"):
                return decoder(self, params)
        finally:
            depth[0] -= 1
            if not depth[0]:
                tracer.build_s += perf_counter() - t0

    patch(codec_mod.CodecEntry, "decoder", traced_decoder)
    verify_columns = codec_mod.CodecEntry.verify_columns
    patch(codec_mod.CodecEntry, "verify_columns", tracer.wrap(verify_columns, "codec.verify_columns"))

    for attr, obj in list(vars(builder_mod.CircuitBuilder).items()):
        if inspect.isfunction(obj) and not attr.startswith("_"):
            patch(builder_mod.CircuitBuilder, attr, tracer.wrap(obj, f"builder.{attr}"))

    # each codec's encoder and host verifier, under the layer that defines it
    for entry in codec_mod._REGISTRY.values():
        for attr in ("encode", "host_verify"):
            private = "_" + attr
            fn = entry.__dict__.get(private)
            if fn is not None:  # SimpleCodec: callables from comp_schemes or rep_schemes
                layer = fn.__module__.split(".")[-1]
                patch(entry, private, tracer.wrap(fn, f"{layer}.{attr}", _scheme_elems))
            elif private not in entry.__dict__ and type(entry).__module__ == "colcirc.compose":
                patch(entry, attr, tracer.wrap(getattr(entry, attr), f"compose.{attr}", _scheme_elems))

    def uninstall():
        for owner, attr, value in reversed(undo):
            if value is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)

    return uninstall


_ABSENT = object()


def _scheme_elems(args, _):
    # encoder: (params, family); host verifier: (params, columns)
    return _total_len(args[1])


_ELEMS = {
    "column.read_col_bytes": lambda a, _: len(a[0]),
    "column.write_col_bytes": lambda a, out: len(out),
}
