"""Composed verifiers against an oracle, on mutated instances.

A composed instance is in the encoded set exactly when every part passes its
inner scheme's verifier, the composed decoder runs without failing, and the
recipe's own encoded-set rule holds (``small-dict-fit``: a non-empty
dictionary; ``alternate``: partition ids below the number of inner schemes).
``verify`` must give that verdict, and never raise, on well-typed instances
whose values and lengths have been edited.
"""

import itertools
import random

import pytest

from colcirc import (
    Column,
    CompositionRecipe,
    SchemeInstance,
    compose,
    decode,
    encode,
    scalar_column,
    verify,
    write_bundle,
)
from colcirc.cli import main
from colcirc.errors import ColcircError, EvaluationError, VerificationFailed
from colcirc.types import I16, INT, U8, U16, U32

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
    (
        "elementwise-add",
        (("generated.poly", {"type": "u32", "degree": 1}), NULLSUP_U32),
        {},
        U32,
        lambda rng, n: ({}, [v + rng.randint(0, 255) for v in _linear(rng, n)]),
    ),
    ("elementwise-add", (CONSTANT_U8, ("run.rle", {"type": "u8"})), {}, U8, lambda rng, n: ({}, _runs(rng, n))),
    (
        "elementwise-add",
        (("constant", {"type": "i16"}), ("nullsup", {"type": "i16", "narrow_type": "i8"})),
        {},
        I16,
        lambda rng, n: ({}, [rng.randint(-60, 60) for _ in range(n)]),
    ),
    (
        "differentiate",
        (("nullsup", {"type": "i16", "narrow_type": "i8"}),),
        {"type": "u32"},
        U32,
        lambda rng, n: ({}, _walk(rng, n, -128, 127)),
    ),
    ("differentiate", (("run.rle", {"type": "i8"}),), {"type": "u16"}, U16, lambda rng, n: ({}, _walk(rng, n, -1, 1))),
    ("differentiate", (("constant", {"type": "i8"}),), {"type": "u16"}, U16, lambda rng, n: ({}, _walk(rng, n, 3, 3))),
    (
        "differentiate",
        (("generated.poly", {"type": "u32", "degree": 0}),),
        {"type": "u32"},
        U32,
        lambda rng, n: ({}, _walk(rng, n, 7, 7)),
    ),
    ("small-dict-fit", (NULLSUP_U32,), {"bits": 2}, U32, lambda rng, n: ({}, _few(rng, n, 5))),
    ("small-dict-fit", (CONSTANT_U8,), {"bits": 2}, U8, lambda rng, n: ({}, _few(rng, n, 3) + [7] * (n // 3))),
    ("small-dict-fit", (("run.rle", {"type": "u8"}),), {"bits": 1}, U8, lambda rng, n: ({}, _runs(rng, n, 0, 2))),
    (
        "small-dict-fit",
        (("generated.poly", {"type": "u8", "degree": 1}),),
        {"bits": 3},
        U8,
        lambda rng, n: ({}, _few(rng, n, 6)),
    ),
    ("alternate", (CONSTANT_U8, ("nullsup", {"type": "u8", "narrow_type": "u8"})), {}, U8, _alternating([True, False])),
    (
        "alternate",
        (("run.rle", {"type": "u8"}), ("generated.poly", {"type": "u8", "degree": 0})),
        {},
        U8,
        _alternating([False, True]),
    ),
]


def _prefixes(kind, k):
    return {
        "patch": ["base:"],
        "elementwise-add": ["a:", "b:"],
        "differentiate": ["diff:"],
        "small-dict-fit": ["residual:"],
        "alternate": [f"s{i}:" for i in range(k)],
    }[kind]


def _recipe_rule(kind, inst, k):
    cols = inst.columns
    if kind == "small-dict-fit":
        return len(cols["dictionary"]) > 0
    if kind == "alternate":
        return all(v < k for v in cols["partition"].values)
    return True


def _oracle(kind, inner, inst):
    """Every part passes its inner verifier, the composed decoder runs, and the recipe's rule holds."""
    for (sid, params), prefix in zip(inner, _prefixes(kind, len(inner))):
        part = {label[len(prefix) :]: c for label, c in inst.columns.items() if label.startswith(prefix)}
        if not verify(SchemeInstance(sid, params, part)):
            return False
    try:
        decode(inst, check=False)
    except ColcircError:
        return False
    return _recipe_rule(kind, inst, len(inner))


def _edge_values(t):
    lo, hi = t.bounds()
    return sorted(v for v in {lo, lo + 1, 0, 1, 2, 3, hi // 2 + 1, hi - 1, hi} if lo <= v <= hi)


def _mutants(rng, inst):
    """Well-typed edits of one column each: a value set to an edge of its type, a length changed."""
    for label, col in sorted(inst.columns.items()):
        t, vals = col.element_type, list(col.values)
        edges = _edge_values(t)
        for i in {0, len(vals) - 1, rng.randrange(len(vals))} if vals else ():
            for v in edges:
                if v != vals[i]:
                    yield inst.with_columns(**{label: Column(t, vals[:i] + [v] + vals[i + 1 :])})
        yield inst.with_columns(**{label: Column(t, [])})
        if vals:
            yield inst.with_columns(**{label: Column(t, vals[:-1])})
            yield inst.with_columns(**{label: Column(t, vals[1:])})
            yield inst.with_columns(**{label: Column(t, vals + vals[-1:])})
        for v in rng.sample(edges, 2):
            yield inst.with_columns(**{label: Column(t, vals + [v])})


def _cases():
    for kind, inner, options, t, family in RECIPES:
        names = "+".join(f"{sid}:{params['type']}" for sid, params in inner)
        yield pytest.param(kind, inner, options, t, family, id=f"{kind}-{names}")


@pytest.mark.parametrize("kind, inner, options, t, family", list(_cases()))
def test_composed_verifier_matches_the_oracle(kind, inner, options, t, family):
    entry = compose(CompositionRecipe(kind, f"testonly.oracle.{kind}.{next(_ids)}", inner, options))
    rng = random.Random(f"oracle-{kind}-{inner}")
    checked = rejected = 0
    for n in (1, 2, 5, 9):
        hints, values = family(rng, n)
        inst = encode(entry.scheme_id, hints, Column(t, values))
        assert verify(inst) and _oracle(kind, inner, inst)
        for bad in _mutants(rng, inst):
            want = _oracle(kind, inner, bad)
            assert verify(bad) == want, bad.columns
            checked += 1
            rejected += not want
    assert 0 < rejected < checked


@pytest.fixture
def huge_base():
    """``patch`` over ``constant u8`` whose base length is past any allocation."""
    entry = compose(CompositionRecipe("patch", f"testonly.oracle.huge.{next(_ids)}", (CONSTANT_U8,)))
    inst = encode(entry.scheme_id, {}, Column(U8, [4, 4, 9]))
    return inst.with_columns(**{"base:length": scalar_column(INT, 2**64 - 1)})


def test_a_part_that_fails_to_decode_is_a_rejection(huge_base):
    assert verify(huge_base) is False
    with pytest.raises(VerificationFailed):
        decode(huge_base)
    with pytest.raises(EvaluationError, match="too-long"):
        decode(huge_base, check=False)


def test_cli_rejects_a_part_that_fails_to_decode(huge_base, tmp_path):
    bundle = str(tmp_path / "b")
    write_bundle(huge_base, bundle)
    assert main(["verify", bundle]) == 3
    assert main(["decode", bundle, str(tmp_path / "d")]) == 3
    assert main(["stats", bundle, "-o", str(tmp_path / "s.json")]) == 3
