"""The benchmark workloads: ``bulk``, ``small`` and ``cli``.

Each workload is built from a seed into its inputs (the constructor), then
runs whole rounds of the same operations (``run_round``).  Every operation
is timed alone and its output is checked against a computation made apart
from the program: decoded families against the generated input, verify
verdicts against the known validity of the instance, Q6 revenue against a
row loop over the uncompressed rows, and CLI `.col` outputs against bytes
written by the benchmark's own packer (``colfile``).

The program is reached through module attributes at call time
(``cc.decode``, ``cc_cli.main``...), never through names bound at import,
so the self-check can substitute a faulty function and the tracer can wrap
the program's own functions.

This module imports ``colcirc``; ``run.py`` imports it only after timing
the program's set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
from time import perf_counter

import colcirc as cc
import colcirc.cli as cc_cli
import colcirc.gallery as cc_gallery
import colcirc.transform as cc_transform
from colcirc.types import parse_type

import cases
import colfile

# Sizes at scale 1.  ``bulk`` columns are large enough that per-element
# work dominates, and small enough that a round takes about 3 s, so that a
# run repeats every operation about ten times; ``small`` instances stay at
# about 20 elements or fewer; ``cli`` files are medium.
BULK_N = 8000
SMALL_PER_SCHEME = 24
SMALL_CORRUPTIONS_PER_SCHEME = 6
SMALL_QUERIES = 120
CLI_N = 8000

# Composed codecs registered during set-up (see run.py RECIPES).
SEG256 = "bench.seg256"
EWADD = "bench.ewadd"

# Q6 over a lineitem-like table: one scheme per column, all decoding to u64.
LINEITEM_SCHEMES = {
    "shipdate": ("for", {"type": "u64", "offset_type": "u16", "segment_length": 128}),
    "discount": ("dict", {"type": "u64"}),
    "quantity": ("nullsup", {"type": "u64", "narrow_type": "u8"}),
    "extended_price": ("nullsup", {"type": "u64", "narrow_type": "u32"}),
}
# TPC-H Q6 constants (discount 5..7 %, quantity < 24) for one shipping year,
# as day numbers: 1993, 1994 (the TPC-H default), 1995 and 1996.
Q6_YEARS = tuple(
    {"date_lo": lo, "date_hi": hi, "discount_lo": 5, "discount_hi": 7, "quantity_cap": 24}
    for lo, hi in ((8401, 8765), (8766, 9130), (9131, 9495), (9496, 9861))
)
SHIPDATE_RANGE = (8036, 10561)  # 1992-01-02 .. 1998-12-01


# -- operation bookkeeping ---------------------------------------------------------


class Tally:
    """Operations of one round, in order: ``(kind, elements, scaled s, raw s)``.

    ``speed()`` gives the factor that scales a raw time to the host's quiet
    speed (run.HostSpeed); the times are None for a failed operation.
    """

    def __init__(self, tracer=None, speed=None):
        self.tracer = tracer
        self.speed = speed
        self.ops = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.encoded_bytes = 0
        self.errors = []

    def run(self, kind, elems, fn, check, tag=None, segments=0):
        """Time ``fn()``, check its output; return it, or None when the operation failed.

        ``kind`` is encode, verify, decode or query, or probe for the CLI
        fault probes, which are in no rate.  Failed operations (raised, or
        output that fails ``check``) count in ``failed`` and stay out of the
        rates.
        """
        self.attempted += 1
        tracer = self.tracer
        factor = self.speed() if self.speed is not None else 1.0
        t0 = perf_counter()
        try:
            if tracer is None:
                out = fn()
            else:
                with tracer.root(kind, tag, segments):
                    out = fn()
        except Exception as exc:  # a failing operation is counted, the run goes on
            self._fail(kind, tag, f"{type(exc).__name__}: {exc}")
            return None
        dt = perf_counter() - t0
        if self.speed is not None and dt > self.speed.REFRESH_S:
            factor = (factor + self.speed(fresh=True)) / 2
        try:
            ok = check(out)
        except Exception:  # e.g. a CLI output file that is missing or malformed
            ok = False
        if not ok:
            self.wrong += 1
            self._fail(kind, tag, "wrong output")
            return None
        self.ops.append((kind, elems, dt * factor, dt))
        return out

    def skip(self, kinds, tag):
        """Operations that could not run because the one they depend on failed."""
        for kind in kinds:
            self.attempted += 1
            self._fail(kind, tag, "skipped: the operation it depends on failed")

    def _fail(self, kind, tag, what):
        self.failed += 1
        self.ops.append((kind, 0, None, None))
        if len(self.errors) < 20:
            self.errors.append(f"{kind} {tag or ''}: {what}")


def _run_cli(argv):
    """``colcirc.cli.main`` in process, its console output discarded."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cc_cli.main(argv)


# -- independent checks --------------------------------------------------------------


def _view(family):
    return {label: (str(col.element_type), tuple(col.values)) for label, col in family.items()}


def _elements(view):
    start, length, data = view["start_position"][1], view["length"][1], view["data"][1]
    return [tuple(data[s : s + n]) for s, n in zip(start, length)]


def _strip_zeros(elements):
    out = []
    for e in elements:
        i = len(e)
        while i and e[i - 1] == 0:
            i -= 1
        out.append(e[:i])
    return out


def _same_types(a, b):
    return {k: t for k, (t, _) in a.items()} == {k: t for k, (t, _) in b.items()}


def _relation(scheme_id):
    """The decoded-family relation a scheme documents, when weaker than equality."""
    if scheme_id.startswith(("indexset.", "idx.")):
        return "indexset"
    if scheme_id.startswith("subcolumn."):
        return "subcolumn"
    if scheme_id == "partition":
        return "partition"
    if scheme_id == "pvw":
        return "padded-varwidth"
    if scheme_id.startswith(("varwidth.", "vwdict")):
        return "varwidth"
    return "exact"


def family_matches(relation, got, want):
    """``got`` and ``want`` are ``{label: (type name, values)}`` views."""
    if not _same_types(got, want):
        return False
    if relation == "exact":
        return got == want
    if relation == "indexset":
        return got["full_length"] == want["full_length"] and sorted(got["elements"][1]) == sorted(want["elements"][1])
    if relation == "subcolumn":
        return sorted(zip(got["pos"][1], got["data"][1])) == sorted(zip(want["pos"][1], want["data"][1]))
    if relation == "partition":
        return all(sorted(got[k][1]) == sorted(want[k][1]) for k in want if k.startswith("pos_"))
    if relation == "varwidth":
        return _elements(got) == _elements(want)
    if relation == "padded-varwidth":
        return _strip_zeros(_elements(got)) == _strip_zeros(_elements(want))
    raise ValueError(relation)


def q6_rows(table, c):
    """Revenue by a plain row loop over the uncompressed table."""
    total = 0
    for d, disc, q, p in zip(table["shipdate"], table["discount"], table["quantity"], table["extended_price"]):
        if c["date_lo"] <= d <= c["date_hi"] and c["discount_lo"] <= disc <= c["discount_hi"] and q < c["quantity_cap"]:
            total += p * disc
    return total


# -- input generators (frozen copies of the `colcirc gen` distributions) -------------


def gen_runs(rng, n):
    values = []
    while len(values) < n:
        v = rng.randrange(0, 50)
        values.extend([v] * min(rng.randrange(1, 12), n - len(values)))
    return values


def gen_zipf(rng, n):
    support = [rng.randrange(0, 1 << 30) for _ in range(32)]
    weights = [1.0 / (k + 1) ** 1.5 for k in range(32)]
    return rng.choices(support, weights=weights, k=n)


def gen_noisy_linear(rng, n):
    base = rng.randrange(1000, 5000)
    slope = rng.randrange(1, 9)
    return [base + slope * i + rng.randrange(0, 16) for i in range(n)]


def gen_geometric_widths(rng, n):
    elements = []
    for _ in range(n):
        width = 1
        while rng.random() > 0.25 and width < 32:
            width += 1
        elements.append(tuple(rng.randrange(0, 256) for _ in range(width)))
    return elements


def varwidth_lists(elements):
    starts, lengths, data = [], [], []
    for e in elements:
        starts.append(len(data))
        lengths.append(len(e))
        data.extend(e)
    return {"start_position": starts, "length": lengths, "data": data}


def gen_lineitem(rng, n):
    lo, hi = SHIPDATE_RANGE
    quantity = [rng.randrange(1, 51) for _ in range(n)]
    return {
        "shipdate": [rng.randrange(lo, hi + 1) for _ in range(n)],
        "discount": [rng.randrange(0, 11) for _ in range(n)],
        "quantity": quantity,
        "extended_price": [q * rng.randrange(90000, 200001) for q in quantity],
    }


def gen_q6_constants(rng):
    lo = rng.randrange(SHIPDATE_RANGE[0], SHIPDATE_RANGE[1])
    d_lo = rng.randrange(0, 10)
    return {
        "date_lo": lo,
        "date_hi": lo + rng.randrange(0, 730),
        "discount_lo": d_lo,
        "discount_hi": d_lo + rng.randrange(0, 3),
        "quantity_cap": rng.randrange(2, 51),
    }


# -- in-memory operations --------------------------------------------------------------


class ApiCase:
    """One family to encode, verify and decode through the library API."""

    __slots__ = ("sid", "params", "family", "want", "relation", "elems", "segments")

    def __init__(self, sid, params, family, segments=0):
        self.sid = sid
        self.params = params
        self.family = family
        self.want = _view(family)
        self.relation = _relation(sid)
        self.elems = sum(len(c) for c in family.values())
        self.segments = segments


def column_case(sid, params, type_name, values, segments=0):
    return ApiCase(sid, params, {"col": cc.make_column(parse_type(type_name), values)}, segments)


def api_roundtrip(tally, case):
    inst = tally.run(
        "encode",
        case.elems,
        lambda: cc.encode(case.sid, case.params, case.family),
        lambda i: i.scheme_id == case.sid,
        case.sid,
    )
    if inst is None:
        tally.skip(("verify", "decode"), case.sid)
        return
    tally.encoded_bytes += sum(c.size_bytes() for c in inst.columns.values())
    tally.run("verify", case.elems, lambda: cc.verify(inst), lambda ok: ok is True, case.sid)
    tally.run(
        "decode",
        case.elems,
        lambda: cc.decode(inst),
        lambda out: family_matches(case.relation, _view(out), case.want),
        case.sid,
        case.segments,
    )


def splice_q6(constants):
    """Q6 plan with each lineitem column's decoder spliced in front of its input."""
    plan = cc_gallery.q6_circuit(**constants)
    for name, (sid, params) in LINEITEM_SCHEMES.items():
        entry = cc.codec(sid)
        p = entry.normalize_params(params)
        mapping = {"out:col": f"dec:{name}"}
        mapping.update({label: f"{name}:{label}" for label in entry.form_spec(p)})
        dec = cc_transform.rename_labels(entry.decoder(p), mapping)
        plan = cc_transform.circuit_union(plan, dec)
        plan = cc_transform.assign_input(plan, name, plan.interface[f"dec:{name}"])
        plan = cc_transform.drop_output(plan, f"dec:{name}")
    return plan


def encode_lineitem(columns):
    """The encoded columns of a lineitem-like table, labeled as the spliced plan's inputs."""
    inputs = {}
    for name, (sid, params) in LINEITEM_SCHEMES.items():
        inst = cc.encode(sid, params, cc.make_column(parse_type(params["type"]), columns[name]))
        inputs.update({f"{name}:{label}": col for label, col in inst.columns.items()})
    return inputs


class Query:
    """Q6 with its own constants over an encoded table, and the expected revenue."""

    __slots__ = ("rows", "inputs", "constants", "revenue")

    def __init__(self, columns, inputs, constants):
        self.rows = len(columns["shipdate"])
        self.inputs = inputs
        self.constants = constants
        self.revenue = q6_rows(columns, constants)


def q6_query(tally, query):
    def run():
        plan = splice_q6(query.constants)
        if not cc.validate_circuit(plan).ok:
            raise ValueError("spliced Q6 plan is not a valid circuit")
        return cc.evaluate_circuit(plan, query.inputs)

    tally.run("query", query.rows, run, lambda out: tuple(out["revenue"].values) == (query.revenue,), "q6")


# -- workloads ----------------------------------------------------------------------------


class Bulk:
    """A few large columns: per-element work dominates."""

    def __init__(self, seed, scale=1.0):
        rng = random.Random(seed)
        n = max(16, int(BULK_N * scale))
        runs = gen_runs(rng, n)
        zipf = gen_zipf(rng, n)
        noisy = gen_noisy_linear(rng, n)
        varwidth = varwidth_lists(gen_geometric_widths(rng, n // 4))
        lineitem = gen_lineitem(rng, n // 2)
        segments = -(-n // 256)
        self.cases = [
            column_case("run.rle", {"type": "u32"}, "u32", runs),
            column_case("run.rpe", {"type": "u32"}, "u32", runs),
            column_case("nullsup", {"type": "u32", "narrow_type": "u8"}, "u32", runs),
            column_case(SEG256, {}, "u32", runs, segments),
            column_case("dict", {"type": "u32"}, "u32", zipf),
            column_case("delta", {"type": "u32", "delta_type": "i8", "segment_length": 128}, "u32", noisy),
            column_case("for", {"type": "u32", "offset_type": "u16", "segment_length": 64}, "u32", noisy),
            column_case(EWADD, {}, "u32", noisy),
        ]
        vw_family = {
            "start_position": cc.make_column(cc.types.INT, varwidth["start_position"]),
            "length": cc.make_column(cc.types.INT, varwidth["length"]),
            "data": cc.make_column(cc.types.U8, varwidth["data"]),
        }
        self.cases += [ApiCase(sid, {"type": "u8"}, vw_family) for sid in ("varwidth.std", "vwdict")]
        self.cases += [
            column_case(sid, params, params["type"], lineitem[name]) for name, (sid, params) in LINEITEM_SCHEMES.items()
        ]
        # eight queries of n/2 rows rather than fewer, longer ones: each
        # query's time is noisy, and their sum less so
        inputs = encode_lineitem(lineitem)
        constants = [*Q6_YEARS, *(dict(c, discount_lo=2, discount_hi=4) for c in Q6_YEARS)]
        self.queries = [Query(lineitem, inputs, c) for c in constants]

    def run_round(self, tally):
        for case in self.cases:
            api_roundtrip(tally, case)
        for query in self.queries:
            q6_query(tally, query)


class Small:
    """Thousands of tiny instances of every scheme: per-call cost dominates."""

    def __init__(self, seed, scale=1.0):
        rng = random.Random(seed)
        per_scheme = max(1, int(SMALL_PER_SCHEME * scale))
        per_corruption = max(1, int(SMALL_CORRUPTIONS_PER_SCHEME * scale))
        self.cases = []
        self.corrupted = []  # (scheme id, decoded element count, invalid instance)
        for sid, case in {**cases.CASES, **cases.COMPOSED}.items():
            for _ in range(per_scheme):
                params, family = case.gen(rng)
                self.cases.append(ApiCase(sid, params, family, cases.segment_count(sid, params, family)))
            made = attempts = 0
            while case.corruptions and made < per_corruption:
                attempts += 1
                if attempts > 60 * per_corruption:
                    raise RuntimeError(f"{sid}: could not produce {per_corruption} corruptions")
                params, family = case.gen(rng)
                fn = case.corruptions[attempts % len(case.corruptions)]
                bad = fn(rng, cc.encode(sid, params, family))
                if bad is not None:
                    self.corrupted.append((sid, sum(len(c) for c in family.values()), bad))
                    made += 1
        self.queries = []
        for _ in range(max(1, int(SMALL_QUERIES * scale))):
            lineitem = gen_lineitem(rng, rng.randrange(1, 21))
            self.queries.append(Query(lineitem, encode_lineitem(lineitem), gen_q6_constants(rng)))

    def run_round(self, tally):
        for case in self.cases:
            api_roundtrip(tally, case)
        for sid, elems, bad in self.corrupted:
            tally.run("verify", elems, lambda: cc.verify(bad), lambda ok: ok is False, sid)
        for query in self.queries:
            q6_query(tally, query)


class Cli:
    """Medium `.col` files and bundles run file to file through ``colcirc.cli.main``."""

    def __init__(self, seed, scale, workdir):
        rng = random.Random(seed)
        n = max(16, int(CLI_N * scale))
        self.dir = workdir
        if os.path.isdir(workdir):
            shutil.rmtree(workdir)
        os.makedirs(workdir)
        inputs = {
            "runs": ("u32", gen_runs(rng, n)),
            "zipf": ("u32", gen_zipf(rng, n)),
            "noisy": ("u32", gen_noisy_linear(rng, n)),
        }
        vw = varwidth_lists(gen_geometric_widths(rng, n // 4))
        for label, type_name in (("start_position", "u64"), ("length", "u64"), ("data", "u8")):
            inputs[f"vw_{label}"] = (type_name, vw[label])
        lineitem = gen_lineitem(rng, n)
        for name in LINEITEM_SCHEMES:
            inputs[name] = ("u64", lineitem[name])
        self.files = {}
        for name, (type_name, values) in inputs.items():
            path = os.path.join(workdir, f"{name}.col")
            data = colfile.pack(type_name, values)
            with open(path, "wb") as f:
                f.write(data)
            self.files[name] = (path, data, len(values))
        # (case name, scheme, params or None, [(decoded label, input name)])
        self.cases = [
            ("rle", "run.rle", None, [("col", "runs")]),
            ("seg", SEG256, None, [("col", "runs")]),
            ("dict", "dict", None, [("col", "zipf")]),
            ("for", "for", {"offset_type": "u16", "segment_length": 64}, [("col", "noisy")]),
            ("ewadd", EWADD, None, [("col", "noisy")]),
            (
                "vw",
                "varwidth.std",
                {"type": "u8"},
                [(lb, f"vw_{lb}") for lb in ("start_position", "length", "data")],
            ),
        ]
        self.cases += [(name, sid, params, [("col", name)]) for name, (sid, params) in LINEITEM_SCHEMES.items()]
        self.plans = []  # (circuit JSON path, expected revenue) for 1994 and 1995
        for constants in Q6_YEARS[1:3]:
            path = os.path.join(workdir, f"q6_{constants['date_lo']}.json")
            with open(path, "w") as f:
                json.dump(cc.circuit_to_json(splice_q6(constants)), f)
            self.plans.append((path, q6_rows(lineitem, constants)))
        self._write_fault_inputs()

    def _write_fault_inputs(self):
        # Inputs of the two known CLI faults; they do not depend on the seed.
        self.fault_col = os.path.join(self.dir, "fault_for.col")
        with open(self.fault_col, "wb") as f:
            f.write(colfile.pack("u32", [5, 6, 7, 300]))
        self.fault_bundle = os.path.join(self.dir, "fault_bundle")
        os.makedirs(self.fault_bundle)
        manifest = {"scheme": "run.rle", "params": {"type": "u32"}, "columns": {"length": "length.col", "value": "value.col"}}
        with open(os.path.join(self.fault_bundle, "manifest.json"), "w") as f:
            json.dump(manifest, f)
        for label in ("length", "value"):
            with open(os.path.join(self.fault_bundle, f"{label}.col"), "wb") as f:
                f.write(b"CCOL1")

    def _decoded_ok(self, out_dir, pairs):
        for label, name in pairs:
            with open(os.path.join(out_dir, label.replace(":", "_") + ".col"), "rb") as f:
                if f.read() != self.files[name][1]:
                    return False
        return True

    def _bundle_bytes(self, bundle):
        return sum(e.stat().st_size for e in os.scandir(bundle) if e.name.endswith(".col"))

    def _revenue_ok(self, code, out_dir, revenue):
        if code != 0:
            return False
        with open(os.path.join(out_dir, "revenue.col"), "rb") as f:
            return colfile.unpack(f.read()) == ("u64", [revenue])

    def run_round(self, tally):
        ok = lambda code: code == 0  # noqa: E731
        bundles = {}
        for name, sid, params, pairs in self.cases:
            bundle = os.path.join(self.dir, f"bundle_{name}")
            out_dir = os.path.join(self.dir, f"out_{name}")
            elems = sum(self.files[src][2] for _, src in pairs)
            argv = ["encode", "--scheme", sid]
            if params is not None:
                argv += ["--params", json.dumps(params)]
            argv += [self.files[src][0] for _, src in pairs] + [bundle]
            if tally.run("encode", elems, lambda: _run_cli(argv), ok, sid) is None:
                tally.skip(("verify", "decode"), sid)
                continue
            tally.encoded_bytes += self._bundle_bytes(bundle)
            bundles[name] = bundle
            tally.run("verify", elems, lambda: _run_cli(["verify", bundle]), ok, sid)
            tally.run(
                "decode",
                elems,
                lambda: _run_cli(["decode", bundle, out_dir]),
                lambda code: code == 0 and self._decoded_ok(out_dir, pairs),
                sid,
                -(-elems // 256) if sid == SEG256 else 0,
            )
        self._query(tally, bundles)
        # the two known faults: both should exit 1 with no exception escaping main
        fault_out = os.path.join(self.dir, "fault_out")
        encode_for = ["encode", "--scheme", "for", self.fault_col, fault_out]
        tally.run("probe", 0, lambda: _run_cli(encode_for), lambda code: code == 1, "encode-for-without-params")
        verify_cut = ["verify", self.fault_bundle]
        tally.run("probe", 0, lambda: _run_cli(verify_cut), lambda code: code == 1, "verify-truncated-col")

    def _query(self, tally, bundles):
        if any(name not in bundles for name in LINEITEM_SCHEMES):
            tally.skip(("query",) * len(self.plans), "q6")
            return
        inputs = []
        for name in LINEITEM_SCHEMES:
            with open(os.path.join(bundles[name], "manifest.json")) as f:
                manifest = json.load(f)
            for label, fname in manifest["columns"].items():
                inputs += ["--input", f"{name}:{label}={os.path.join(bundles[name], fname)}"]
        out_dir = os.path.join(self.dir, "out_q6")
        rows = self.files["shipdate"][2]
        for path, revenue in self.plans:
            argv = ["eval", path, *inputs, "-o", out_dir]
            tally.run("query", rows, lambda: _run_cli(argv), lambda code: self._revenue_ok(code, out_dir, revenue), "q6")

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)
