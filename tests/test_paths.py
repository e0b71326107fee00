"""The battery of ``paths.py`` through every path of ``PATHS``, against ``plain``.

Beside that: every output ``plain`` returns is in its type's domain, its
port values follow a circuit's inductive definition, a composed verifier
accepts exactly what its oracle accepts, and an instance ``verify`` accepts
decodes unchecked, except in the schemes of ``KNOWN_GAPS``.
"""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from colcirc import Column, SchemeInstance, catalog_names, codec, decode, evaluate_ports, instantiate, verify
from colcirc.circuit import OUT
from colcirc.codec import DECODED_PREFIX
from colcirc.errors import EvaluationError, OperatorError, VerificationFailed
from paths import (
    HOST_LOOP, LIFTED, PATHS, RANDOM_CALLS, RECIPES, Failure, boundary_calls, call, composed_battery, composed_rule,
    encoded, host_loop_battery, inductive_port_value, lifted_battery, lifting_calls, on_every_path, outcome,
    random_query, same, scheme_battery, segments_rule, splice_q6,
)

from circuit_gen import random_circuit, random_inputs
from scheme_cases import CASES

# ROADMAP item 5: schemes whose verifier accepts instances their decoder then
# fails on.  A scheme leaves the list once its verifier is complete; none joins it.
KNOWN_GAPS = frozenset(
    "noisy.generated generated.poly generated delta.naive delta.patched segmentation.uniform spline.generalized "
    "spline.knotted run.rle constant segmentation indexset.sparse run.rpe subcolumn.overlay delta "
    "nullable.complementing subcolumn.segmented for run.full spline.equiknotted".split()
)


def assert_agree(seen, what):
    """Each path's outcomes equal ``plain``'s; a path over other circuits keeps its ports to itself."""
    ref = seen["plain"]
    for name, got in seen.items():
        exact = PATHS[name].same_circuits
        for key in ref:
            if exact or key != "ports":
                assert same(got[key], ref[key], exact), (name, key, what, got[key], ref[key])


def evaluation(c, columns):
    """The outputs of one evaluation of ``c`` and the column it saw at every port, or its error twice."""
    ports = outcome(lambda: evaluate_ports(c, columns))
    outputs = ports if isinstance(ports, Failure) else {label: ports[c.interface[label]] for label in c.signature.outputs}
    return {"outputs": outputs, "ports": ports}


def check_call(op, params, inputs):
    """The call on every path against ``plain``.  A call that succeeds returns exactly its declared
    output labels, each a column of its declared type whose values lie in that type's domain:
    evaluation stores a kernel's outputs without checking them."""
    seen = on_every_path(lambda cols: {"outputs": outcome(lambda: instantiate(op, params).apply(cols))}, inputs)
    assert_agree(seen, (op, params))
    if isinstance(seen["plain"]["outputs"], Failure):
        return
    for col in call(op, params, **inputs).values():
        assert col.element_type.check_values(col.values) is col.values  # trusted or not, in its domain


def check_instance(inst):
    """The instance's verdict and unchecked decode on every path, and ``plain``'s checked decode
    against its unchecked one; ``plain``'s outcomes.  (A checked decode is a verify followed by
    the unchecked decode, so on the other paths it is compared piece by piece.)"""
    entry = codec(inst.scheme_id)
    params = entry.normalize_params(inst.params)

    def run(columns):
        seen = evaluation(entry.decoder(params), columns)
        seen["verdict"] = outcome(lambda: verify(SchemeInstance(inst.scheme_id, inst.params, columns)))
        return seen

    seen = on_every_path(run, inst.columns, inst.scheme_id)
    assert_agree(seen, inst.columns)
    ref = seen["plain"]
    checked = outcome(lambda: decode(inst))
    if ref["verdict"] is not True:
        assert isinstance(checked, Failure) and checked.error is VerificationFailed, inst.columns
    elif isinstance(ref["outputs"], Failure):
        assert same(checked, ref["outputs"]), inst.columns
        assert inst.scheme_id in KNOWN_GAPS, ("accepted, but fails to decode", inst.columns, ref["outputs"])
    else:
        assert same(checked, {label[len(DECODED_PREFIX) :]: col for label, col in ref["outputs"].items()}), inst.columns
    return ref


@pytest.mark.parametrize("op, params, inputs", [pytest.param(*case, id=case_id) for case_id, *case in boundary_calls()])
def test_boundary_calls(op, params, inputs):
    check_call(op, params, inputs)


@pytest.mark.parametrize("op, params, inputs", [pytest.param(*case, id=case_id) for case_id, *case in lifting_calls()])
def test_lifting_calls(op, params, inputs):
    check_call(op, params, inputs)


def test_every_catalog_operator_has_a_direct_call():
    called = {op for _, op, _, _ in [*boundary_calls(), *lifting_calls()]}
    assert {name for name in catalog_names() if not name.startswith("testonly.")} <= called


@pytest.mark.parametrize("case", sorted(RANDOM_CALLS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_random_calls(case, data):
    op, params, inputs = RANDOM_CALLS[case](data.draw)
    try:
        instantiate(op, params)
    except OperatorError:  # e.g. a cast or derivative the signature rules out
        return
    check_call(op, params, inputs)


def test_generated_circuits():
    rng = random.Random(21)
    for _ in range(40):
        c = random_circuit(rng, n_inputs=2, n_steps=6)
        inputs = random_inputs(rng, c)
        assert_agree(on_every_path(lambda cols: evaluation(c, cols), inputs), inputs)
        try:
            ports = evaluate_ports(c, inputs)
        except EvaluationError:
            continue
        memo = {}
        for port, col in ports.items():
            if port.direction == OUT:
                assert inductive_port_value(c, port, inputs, memo) == col


def test_spliced_q6_plans():
    rng = random.Random(16)
    for _ in range(200):
        table, constants = random_query(rng)
        inputs = encoded(table)
        if inputs and rng.random() < 0.3:  # now and then a code past the dictionary, or a huge price
            label = rng.choice(["discount:indices", "extended_price:narrow"])
            col = inputs[label]
            if col.values:
                inputs[label] = Column(col.element_type, [*col.values[:-1], col.element_type.bounds()[1]])
        plan = splice_q6(constants)
        assert_agree(on_every_path(lambda cols: evaluation(plan, cols), inputs), inputs)


@pytest.mark.parametrize("sid", sorted(CASES))
def test_scheme_cases(sid):
    rng = random.Random(sid)
    for inst in scheme_battery(sid, CASES[sid], rng):
        check_instance(inst)


def test_the_known_gaps_only_shrink():
    assert len(KNOWN_GAPS) <= 20 and KNOWN_GAPS <= set(CASES)


@pytest.mark.parametrize(
    "kind, inner, options, t, family",
    [pytest.param(*r, id=f"{r[0]}-" + "+".join(f"{sid}:{p['type']}" for sid, p in r[1])) for r in RECIPES],
)
def test_composed_recipes(kind, inner, options, t, family):
    """The composed verifier against its oracle: every part passes its inner verifier, the
    composed decoder runs, and the recipe's own rule holds."""
    checked = rejected = 0
    for inst, valid in composed_battery(kind, inner, options, t, family):
        ref = check_instance(inst)
        want = not isinstance(ref["outputs"], Failure) and composed_rule(kind, inner, inst)
        assert ref["verdict"] is want and (want or not valid), inst.columns
        checked += 1
        rejected += not want
    assert 0 < rejected < checked


@pytest.mark.parametrize("entry, inner, family", [pytest.param(e, i, f, id=tag) for tag, e, i, f in HOST_LOOP])
def test_host_loop_segmentations(entry, inner, family):
    """Segmentized over an inner scheme that is not position-wise, on the ``segmentized`` host loop:
    accept exactly when every segment passes its inner verifier and decodes to its length."""
    assert not entry.lifted
    verdicts = []
    for inst in host_loop_battery(entry, family):
        ref = check_instance(inst)
        assert ref["verdict"] is segments_rule(entry, inner, inst), inst.columns
        verdicts.append(ref["verdict"])
    assert all(verdicts[:3]) and not all(verdicts)


@pytest.mark.parametrize("entry, t", [pytest.param(entry, t, id=tag) for tag, entry, _, t in LIFTED])
def test_lifted_segmentations(entry, t):
    assert entry.lifted
    for inst, _ in lifted_battery(entry, t):
        check_instance(inst)
