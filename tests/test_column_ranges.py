"""Column ranges are sound, and spare the scans they prove.

An integer column may carry a private proven ``(lo, hi)`` around its values
(``Column._range``).  The checked constructor records the ``min``/``max`` of
its domain check, operators derive one from their inputs' ranges or hand a
data range on, and a checked kernel whose derived interval lies inside its
result type skips its ``min``/``max`` scan.  Columns shorter than
``_RANGED`` values take no part in it; the tests here set that threshold to
0, so short columns exercise every rule.

* The soundness test applies every operator that records or derives a
  range to random columns with random sound input ranges, and requires
  every recorded range, on outputs and inputs alike, to hold its values.
* That ranges change nothing a caller can observe is ``test_paths.py``'s
  ``ranges_everywhere``, ``stripped`` and ``ranges_off`` paths: scheme
  cases, their corruptions and bound edits, and spliced Q6 plans decoded
  and verified with input ranges, with them stripped, and with every range
  check replaced by a scan.
* The count guard pins that 8000-element ``for``, composed
  ``elementwise-add``, ``run.rle`` and ``run.rpe`` decodes read no
  full-length column with ``min`` or ``max`` once their inputs are built:
  a run-position decoder's run index is a prefix sum of non-negative
  values, whose range its ends give.
"""

import builtins
import itertools
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import colcirc.ops as ops_mod
import colcirc.types as types_mod
from colcirc import Column, CompositionRecipe, codec, compose, encode, evaluate_circuit, instantiate
from colcirc.column import _range_of, _set_range
from colcirc.errors import ColcircError, OperatorError
from colcirc.types import BIT, INT, ElementType
from paths import call, count_checked_columns, far_edges, ranges_everywhere


def sound(col):
    """True if ``col`` records no range, or one that holds all its values."""
    rng = _range_of(col)
    return rng is None or all(rng[0] <= v <= rng[1] for v in col.values)


# -- soundness -------------------------------------------------------------------------------

INT_TYPES = [BIT] + [ElementType.unsigned(w) for w in range(1, 65)] + [ElementType.signed(w) for w in range(1, 65)]


@st.composite
def columns(draw, t, min_size=0, max_size=12):
    """A column of ``t``, with no range, its exact range or a looser sound one."""
    lo, hi = t.bounds()
    value = st.one_of(st.sampled_from(far_edges(t)), st.integers(lo, hi))
    values = draw(st.lists(value, min_size=min_size, max_size=max_size))
    col = Column._trusted(t, values)
    how = draw(st.sampled_from(["none", "exact", "loose"]))
    if values and how != "none":
        vmin, vmax = min(values), max(values)
        if how == "loose":
            vmin, vmax = draw(st.integers(lo, vmin)), draw(st.integers(vmax, hi))
        _set_range(col, (vmin, vmax))
    return col


def positions(draw, n, size):
    """A u64 position column of ``size`` values, in range when ``n``, with a sound range."""
    if n:
        return draw(columns_of(INT, st.integers(0, n - 1), size))
    return draw(columns(INT, min_size=size, max_size=size))


@st.composite
def columns_of(draw, t, values, size):
    col = Column._trusted(t, draw(st.lists(values, min_size=size, max_size=size)))
    if col.values and draw(st.booleans()):
        _set_range(col, (min(col.values), max(col.values)))
    return col


def _ew(fn, **params):
    return "elementwise", dict(params, fn=fn)


def _cases(draw):
    """One operator call: (op, params, inputs)."""
    t = draw(st.sampled_from(INT_TYPES))
    name = str(t)
    kind = draw(
        st.sampled_from(
            ["add", "sub", "mul", "scale", "clip_by", "cast", "derivative", "prefix", "gather", "select",
             "concatenate", "scatter", "replicate", "no_op", "iota", "length", "select_indices", "checked"]
        )
    )
    n = draw(st.integers(0, 12))
    if kind in ("add", "sub", "mul"):
        return (*_ew(kind, type=name), {"lhs": draw(columns(t, n, n)), "rhs": draw(columns(t, n, n))})
    if kind == "scale":
        return (*_ew("scale", type=name, k=draw(st.integers(-300, 300))), {"arguments": draw(columns(t, n, n))})
    if kind == "clip_by":
        return (*_ew("clip_by", type=name, k=draw(st.integers(1, 2**64))), {"arguments": draw(columns(t, n, n))})
    if kind == "cast":
        dst = draw(st.sampled_from(INT_TYPES))
        return (*_ew("cast", **{"from": name, "to": str(dst)}), {"arguments": draw(columns(t, n, n))})
    if kind == "derivative":
        params = {"type": name}
        if draw(st.booleans()):
            params["out_type"] = str(draw(st.sampled_from(INT_TYPES)))
        return "derivative", params, {"col": draw(columns(t, n, n))}
    if kind == "prefix":
        params = {"op": "add", "type": name, "mode": draw(st.sampled_from(["inclusive", "exclusive"]))}
        return "prefix_aggregate", params, {"data": draw(columns(t, n, n))}
    if kind == "gather":
        data = draw(columns(t, 0, 12))
        return "gather", {"type": name}, {"pos": positions(draw, len(data), n), "data": data}
    if kind == "select":
        flags = draw(columns_of(BIT, st.integers(0, 1), n))
        return "select", {"type": name}, {"data": draw(columns(t, n, n)), "selection": flags}
    if kind == "concatenate":
        k = draw(st.integers(1, 3))
        return "concatenate", {"type": name, "k": k}, {f"col_{i + 1}": draw(columns(t)) for i in range(k)}
    if kind == "scatter":
        base = draw(columns(t, 0, 12))
        m = draw(st.integers(0, len(base)))
        pos = Column._trusted(INT, draw(st.permutations(range(len(base))))[:m])
        return "scatter", {"type": name}, {"col": base, "pos": pos, "data": draw(columns(t, m, m))}
    if kind == "replicate":
        value = draw(columns(t, 1, 1))
        return "replicate", {"type": name}, {"value": value, "factor": Column(INT, [n])}
    if kind == "no_op":
        return "no_op", {"type": name}, {"arguments": draw(columns(t, n, n))}
    if kind == "iota":
        return "iota", {"type": name}, {"n": Column(INT, [n])}
    if kind == "length":
        return "length", {"type": name}, {"col": draw(columns(t, n, n))}
    if kind == "select_indices":
        return "select_indices", {}, {"characteristic": draw(columns_of(BIT, st.integers(0, 1), n))}
    return "checked", {"type": name}, {"values": draw(columns(t, n, n)).values}


@settings(max_examples=1500, deadline=None)
@given(data=st.data())
def test_every_recorded_range_holds_its_values(data):
    op, params, inputs = _cases(data.draw)
    with ranges_everywhere():
        if op == "checked":
            col = Column(types_mod.parse_type(params["type"]), inputs["values"])
            assert sound(col)
            if col.values:
                assert _range_of(col) == (min(col.values), max(col.values))
            return
        try:
            out = instantiate(op, params).apply(inputs)
        except ColcircError:
            out = {}
    for label, col in [*inputs.items(), *out.items()]:
        assert sound(col), (op, params, label, col.values, _range_of(col))


def test_u64_prefix_sums_of_lengths_are_proved_without_a_scan(monkeypatch):
    # sums of non-negative values never decrease, so the output's two ends are its exact range
    lengths = Column(INT, [2**40 + i for i in range(64)])
    reads = count_full_reads(monkeypatch, len(lengths) + 1)
    sums = call("prefix_aggregate", {"op": "add", "type": str(INT)}, data=lengths)["aggregates"]
    assert reads == []
    assert _range_of(sums) == (2**40, 64 * 2**40 + 2016)


def test_exclusive_prefix_sums_take_the_range_of_their_own_ends(monkeypatch):
    lengths = Column(INT, [2**40 + i for i in range(64)])
    reads = count_full_reads(monkeypatch, len(lengths))
    params = {"op": "add", "type": str(INT), "mode": "exclusive"}
    starts = call("prefix_aggregate", params, data=lengths)["aggregates"]
    assert reads == []
    assert starts.values[0] == 0 and _range_of(starts) == (0, 63 * 2**40 + 1953) == (starts.values[0], starts.values[-1])


def test_prefix_sums_of_data_reaching_below_zero_keep_the_k_times_rule():
    data = Column(ElementType.signed(64), [(-3, 5, 0, 1)[i % 4] for i in range(64)])
    assert _range_of(data) == (-3, 5)
    for mode in ("inclusive", "exclusive"):
        sums = call("prefix_aggregate", {"op": "add", "type": "i64", "mode": mode}, data=data)["aggregates"]
        assert _range_of(sums) == (64 * -3, 64 * 5) and sound(sums)


@pytest.mark.parametrize("mode", ["inclusive", "exclusive"])
def test_an_overflowing_total_names_the_first_sum_past_the_type(mode):
    # 4 * 2**62 is the first sum past u64; exclusive mode drops the total, but it still overflows
    data = Column(INT, [2**62] * 64)
    with pytest.raises(OperatorError) as exc:
        call("prefix_aggregate", {"op": "add", "type": str(INT), "mode": mode}, data=data)
    assert str(exc.value) == f"overflow: prefix aggregate {2**64} outside u64 range [0, {2**64 - 1}]"


def test_an_unsigned_sub_of_correlated_positions_still_scans(monkeypatch):
    sums = {"op": "add", "type": str(INT)}
    starts = call("prefix_aggregate", {**sums, "mode": "exclusive"}, data=Column(INT, [3] * 64))["aggregates"]
    ends = call("prefix_aggregate", sums, data=Column(INT, [3] * 64))["aggregates"]
    reads = count_full_reads(monkeypatch, 64)
    diffs = call("elementwise", {"fn": "sub", "type": str(INT)}, lhs=ends, rhs=starts)["result"]
    assert reads == [64, 64]
    assert diffs.values == (3,) * 64 and _range_of(diffs) == (3, 3)


# -- count guard ---------------------------------------------------------------------------------


def count_full_reads(monkeypatch, n):
    """Lengths of the sequences of ``n`` or more values that ``min``/``max`` read from here on,
    in the operators and in the checked constructor."""
    reads = []

    def counted(fn):
        def wrapped(*args, **kwargs):
            if len(args) == 1 and hasattr(args[0], "__len__") and len(args[0]) >= n:
                reads.append(len(args[0]))
            return fn(*args, **kwargs)

        return wrapped

    for mod in (ops_mod, types_mod):
        monkeypatch.setattr(mod, "min", counted(builtins.min), raising=False)
        monkeypatch.setattr(mod, "max", counted(builtins.max), raising=False)
    return reads


def noisy_linear(n):
    rng = random.Random(8000)
    base, slope = rng.randrange(1000, 5000), rng.randrange(1, 9)
    return [base + slope * i + rng.randrange(0, 16) for i in range(n)]


_ids = itertools.count()


def ewadd():
    sid = f"testonly.ranges.ewadd.{next(_ids)}"
    inner = (("generated.poly", {"type": "u32", "degree": 1}), ("nullsup", {"type": "u32", "narrow_type": "u8"}))
    compose(CompositionRecipe("elementwise-add", sid, inner))
    return sid, {}


@pytest.mark.parametrize(
    "scheme",
    [
        lambda: ("for", {"type": "u32", "offset_type": "u16", "segment_length": 64}),
        ewadd,
        lambda: ("run.rle", {"type": "u32"}),
        lambda: ("run.rpe", {"type": "u32"}),
    ],
    ids=["for", "elementwise-add", "run.rle", "run.rpe"],
)
def test_long_decodes_read_no_full_column(scheme, monkeypatch):
    sid, params = scheme()
    values = noisy_linear(8000)
    inst = encode(sid, params, Column(ElementType.unsigned(32), values))
    entry = codec(sid)
    decoder = entry.decoder(entry.normalize_params(inst.params))
    evaluate_circuit(decoder, inst.columns)  # scalar constants are built on a first evaluation
    reads = count_full_reads(monkeypatch, 8000)
    built = count_checked_columns(monkeypatch)
    out = evaluate_circuit(decoder, inst.columns)["out:col"]
    assert out.values == tuple(values)
    assert reads == [] and built == []
