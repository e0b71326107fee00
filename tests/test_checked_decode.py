"""A checked decode of a composed codec does each piece of work once.

A composed codec checks and decodes every part once (every segment, on the
host loop), tests its recipe's guard, and hands the parts to the decoder's
tail: the vertices outside the embedded inner decoders, under the
decoder's own vertex ids.  The whole relation runs only when the tail
fails.  The count guard pins that for every recipe of ``paths.RECIPES`` and
for the host loop, and the guard contract pins that the tail fails on every
instance the guard lets through and the relation rejects; that verdicts and
decoded columns stay as they were is ``test_paths.py``'s.
"""

import importlib
import itertools
import random
from collections import Counter

import pytest

from colcirc import Column, CompositionRecipe, codec, compose, decode, encode, verify
from colcirc.codec import CodecEntry
from colcirc.errors import EvaluationError, NotEncodable, VerificationFailed
from colcirc.types import U8, U32
from paths import HOST_LOOP, RECIPES, composed_battery, in_threads, mutants

circuit_mod = importlib.import_module("colcirc.circuit")
ops_mod = importlib.import_module("colcirc.ops")

_ids = itertools.count()


def recipe_instance(kind, inner, options, t, family, n=9):
    """A new codec of the recipe, and an instance of ``n`` values from the first family draw it can encode."""
    entry = compose(CompositionRecipe(kind, f"testonly.checked.{kind}.{next(_ids)}", inner, options))
    rng = random.Random(f"checked-{kind}-{inner}")
    while True:
        hints, values = family(rng, n)
        try:
            return entry, encode(entry.scheme_id, hints, Column(t, values))
        except NotEncodable:  # e.g. a residual below zero
            continue


def host_loop_instance(entry, family, n=7):
    t = entry.decoder({}).signature.outputs["out:col"]
    hints = {} if entry.uniform else {"segments": [3, 2, 2]}
    return encode(entry.scheme_id, hints, Column(t, family(random.Random(f"checked-{entry.scheme_id}"), n)))


def count_work(monkeypatch):
    """``(evaluated, verified, applied)``: the circuits evaluated, the entries whose
    ``verify_columns`` ran, and the operator instances applied, from here on."""
    evaluated, verified, applied = [], [], []
    evaluate_ports, verify_columns, apply = circuit_mod.evaluate_ports, CodecEntry.verify_columns, ops_mod.OperatorInstance.apply

    def counting_evaluate(c, inputs, parallel=False):
        evaluated.append(c)
        return evaluate_ports(c, inputs, parallel)

    def counting_verify(self, params, columns):
        verified.append(self)
        return verify_columns(self, params, columns)

    def counting_apply(self, inputs):
        applied.append(self)
        return apply(self, inputs)

    monkeypatch.setattr(circuit_mod, "evaluate_ports", counting_evaluate)
    monkeypatch.setattr(CodecEntry, "verify_columns", counting_verify)
    monkeypatch.setattr(ops_mod.OperatorInstance, "apply", counting_apply)
    return evaluated, verified, applied


def assert_each_part_decoded_once(monkeypatch, entry, inst, parts):
    """A checked decode of ``inst`` verifies and evaluates each inner decoder ``parts`` times, the
    tail once, and neither the whole decoder nor the recipe's relation."""
    decoder = entry.decoder({})
    want = decode(inst, check=False)
    evaluated, verified, applied = count_work(monkeypatch)
    relations = []
    relation = entry._relation
    monkeypatch.setattr(entry, "_relation", lambda columns, parts: relations.append(1) or relation(columns, parts))
    assert decode(inst) == want
    assert relations == []
    inner = [decoder for _, _, decoder in entry.inners]
    assert Counter(verified) == Counter(e for e, _, _ in entry.inners * parts)
    assert all(c is not decoder for c in evaluated)
    for c in inner:
        assert sum(e is c for e in evaluated) == parts
    rest = [c for c in evaluated if all(c is not i for i in inner)]
    if decoder._tail is None:  # the host loop: the segments are concatenated, nothing else runs
        assert rest == []
        assert len(applied) == parts * sum(len(c.vertices) for c in inner)
    else:
        assert rest == [decoder._tail.circuit]
        assert len(applied) == len(decoder._tail.circuit.vertices) + sum(len(c.vertices) for c in inner)


@pytest.mark.parametrize(
    "kind, inner, options, t, family",
    [pytest.param(*r, id=f"{r[0]}-" + "+".join(f"{sid}:{p['type']}" for sid, p in r[1])) for r in RECIPES],
)
def test_a_checked_composed_decode_decodes_each_part_once(monkeypatch, kind, inner, options, t, family):
    entry, inst = recipe_instance(kind, inner, options, t, family)
    assert_each_part_decoded_once(monkeypatch, entry, inst, 1)


@pytest.mark.parametrize("entry, family", [pytest.param(e, f, id=tag) for tag, e, _, f in HOST_LOOP[:4]])
def test_a_checked_host_loop_decode_decodes_each_segment_once(monkeypatch, entry, family):
    inst = host_loop_instance(entry, family)
    segments = 3  # seven values, in segments of three, or of the hint's [3, 2, 2]
    assert_each_part_decoded_once(monkeypatch, entry, inst, segments)


def test_the_tail_keeps_the_decoders_vertex_ids():
    for kind, inner, options, t, family in RECIPES:
        entry, _ = recipe_instance(kind, inner, options, t, family)
        decoder = entry.decoder({})
        tail, feeds = decoder._tail
        assert all(decoder.vertices[vid] is op for vid, op in tail.vertices.items())
        assert len(tail.vertices) < len(decoder.vertices)
        assert tail.signature.outputs == decoder.signature.outputs
        assert {i for _, i in feeds} <= set(range(len(entry.inners)))


def part_mutants(inst, rng):
    """Mutants of ``inst`` that change one column of a part (a prefixed label)."""
    for bad in mutants(rng, inst):
        changed = [label for label, col in bad.columns.items() if col != inst.columns[label]]
        if changed and ":" in changed[0]:
            yield bad


@pytest.mark.parametrize(
    "kind, inner, options, t, family",
    [pytest.param(*r, id=f"{r[0]}-" + "+".join(f"{sid}:{p['type']}" for sid, p in r[1])) for r in RECIPES],
)
def test_a_rejected_part_fails_verification(kind, inner, options, t, family):
    entry, inst = recipe_instance(kind, inner, options, t, family)
    rejected = 0
    for bad in part_mutants(inst, random.Random(5)):
        if verify(bad):
            assert decode(bad) == decode(bad, check=False)
            continue
        rejected += 1
        with pytest.raises(VerificationFailed):
            decode(bad)
    # a part whose verifier is its form check rejects nothing well-typed
    assert rejected or all(e.verifies_form_only() for e, _, _ in entry.inners)


def test_an_empty_dictionary_is_rejected_with_nothing_to_look_up():
    # with no values, the decoder's tail has nothing to fail on: the relation alone rejects it
    inner = (("nullsup", {"type": "u32", "narrow_type": "u8"}),)
    entry = compose(CompositionRecipe("small-dict-fit", f"testonly.checked.sdf.{next(_ids)}", inner, {"bits": 2}))
    bad = encode(entry.scheme_id, {}, Column(U32, [])).with_columns(dictionary=Column(U32, []))
    assert verify(bad) is False
    with pytest.raises(VerificationFailed):
        decode(bad)
    assert decode(bad, check=False) == {"col": Column(U32, [])}


def guarded_differentiate():
    """A ``differentiate`` codec to ``u8`` and an instance of ``[10, 20, 5, 40, 0]``: its running
    sums ``0, 10, -5, 30, -10`` fit ``u8`` for ``first`` in ``[10, 225]`` only."""
    inner = (("nullsup", {"type": "i16", "narrow_type": "i8"}),)
    entry = compose(CompositionRecipe("differentiate", f"testonly.checked.diff.{next(_ids)}", inner, {"type": "u8"}))
    return entry, encode(entry.scheme_id, {}, Column(U8, [10, 20, 5, 40, 0]))


def test_differentiate_leaves_its_running_sums_to_the_tail_with_the_same_verdict():
    # a checked ``differentiate`` decode tests only its guard, one ``first`` value, and its tail
    # fails exactly when the running sums leave the data type
    entry, inst = guarded_differentiate()
    assert entry._guard(inst.columns, []) and not entry._guard(inst.with_columns(first=Column(U8, [])).columns, [])
    for first in (0, 9, 10, 225, 226, 255):
        bad = inst.with_columns(first=Column(U8, [first]))
        assert verify(bad) is (10 <= first <= 225)
        if verify(bad):
            assert decode(bad) == decode(bad, check=False)
        else:
            with pytest.raises(VerificationFailed):
                decode(bad)
    for first in ([], [10, 10]):
        with pytest.raises(VerificationFailed):
            decode(inst.with_columns(first=Column(U8, first)))


@pytest.mark.parametrize("kind", sorted({r[0] for r in RECIPES}))
def test_the_tail_fails_wherever_the_guard_lets_a_rejection_through(kind):
    # the guard contract: on every battery instance and mutant whose parts decode, a guard that
    # holds where the relation does not leaves the rejection to the tail, which must fail
    left_to_tail = 0
    for recipe in (r for r in RECIPES if r[0] == kind):
        for inst, _ in composed_battery(*recipe):
            entry = codec(inst.scheme_id)
            params = entry.normalize_params(inst.params)
            columns = inst.columns
            if not entry.check_form(params, columns):
                continue
            parts = entry._parts(columns)
            if parts is None or not entry._guard(columns, parts) or entry._relation(columns, parts):
                continue
            left_to_tail += 1
            with pytest.raises(EvaluationError):
                entry._finish(params, columns, parts)
            assert verify(inst) is False
    assert left_to_tail


def test_a_tail_failure_that_the_relation_allows_is_the_decoders_error(monkeypatch):
    # when the guarded tail fails, the whole relation decides: if it holds, the failure is
    # the decoder's own and is raised as it is
    entry, inst = guarded_differentiate()
    bad = inst.with_columns(first=Column(U8, [0]))
    monkeypatch.setattr(entry, "_relation", lambda columns, parts: True)
    with pytest.raises(EvaluationError):
        decode(bad)


@pytest.mark.parametrize(
    "kind, inner, options",
    [
        ("elementwise-add", (("generated.poly", {"type": "u32", "degree": 1}), ("nullsup", {"type": "u32", "narrow_type": "u8"})), {}),
        ("alternate", (("constant", {"type": "u32"}), ("run.rle", {"type": "u32"})), {}),
        ("segmentize-uniform", (("generated.poly", {"type": "u32", "degree": 1}),), {"segment_length": 3}),
    ],
    ids=["elementwise-add", "alternate", "host-loop"],
)
@pytest.mark.parametrize("built", [False, True], ids=["nothing-built", "decoder-built"])
def test_threads_decode_checked_on_a_fresh_codec(kind, inner, options, built):
    # the threads race to build the decoder and its tail, or share a decoder no decode has run;
    # the tail is built with the decoder, and the decoder published with one store
    values = [5 + 3 * i for i in range(40)]
    hints = {"partition": [i % 2 for i in range(40)]} if kind == "alternate" else {}
    if kind == "alternate":
        values = [7 if i % 2 == 0 else v for i, v in enumerate(values)]
    sid = f"testonly.checked.threads.{kind}.{next(_ids)}"
    # encode through a twin codec, so the fresh one builds nothing before the threads start
    twin = compose(CompositionRecipe(kind, sid + ".twin", inner, options))
    inst = encode(twin.scheme_id, hints, Column(twin.decoder({}).signature.outputs["out:col"], values))
    entry = compose(CompositionRecipe(kind, sid, inner, options))
    assert not entry._decoder_cache
    if built:
        entry.decoder({})
    fresh = type(inst)(entry.scheme_id, inst.params, inst.columns)
    results = in_threads(lambda _: decode(fresh), 8)
    assert results == [{"col": Column(twin.decoder({}).signature.outputs["out:col"], values)}] * 8
