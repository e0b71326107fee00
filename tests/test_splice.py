"""Spliced query plans: each lineitem column's decoder composed in front of a Q6 input.

The plan is built exactly as the benchmark's ``splice_q6`` builds it, with
``rename_labels``, ``circuit_union``, ``assign_input`` and ``drop_output``
(``paths.splice_q6``).  Over random tables and constants it must compute the
row loop's revenue, hold exactly the vertices of the query and its decoders,
and report a corrupted input at the decoder operator that rejects it.
"""

import json
import random
from collections import Counter

import pytest

from colcirc import evaluate_circuit, make_column, validate_circuit
from colcirc.errors import EvaluationError
from colcirc.gallery import q6_circuit, q6_reference
from paths import LINEITEM, decoders, encoded, random_query, splice_q6

def vertex_multiset(circuits):
    return Counter(
        (op.op_name, json.dumps(op.params, sort_keys=True)) for c in circuits for op in c.vertices.values()
    )


def test_spliced_plans_match_the_row_loop():
    rng = random.Random(2026)
    parts = decoders().values()
    for _ in range(200):
        table, constants = random_query(rng)
        plan = splice_q6(constants)
        assert validate_circuit(plan).ok
        assert set(plan.signature.inputs) == set(encoded(table)) and list(plan.signature.outputs) == ["revenue"]
        # union, assignment and dropping neither add nor remove a vertex
        assert vertex_multiset([plan]) == vertex_multiset([q6_circuit(**constants), *parts])
        want = q6_reference(*(table[k] for k in LINEITEM), **constants)
        assert evaluate_circuit(plan, encoded(table))["revenue"].values == (want,)


@pytest.mark.parametrize("seed", range(5))
def test_an_out_of_range_dictionary_code_fails_at_the_decoders_gather(seed):
    table, constants = random_query(random.Random(seed), least=1)
    inputs = encoded(table)
    codes = inputs["discount:indices"]
    inputs["discount:indices"] = make_column(codes.element_type, [*codes.values[:-1], 10**6])
    dec = decoders()["discount"]
    alone = {label: inputs[label] for label in dec.signature.inputs}
    with pytest.raises(EvaluationError) as standalone:
        evaluate_circuit(dec, alone)
    plan = splice_q6(constants)
    with pytest.raises(EvaluationError) as spliced:
        evaluate_circuit(plan, inputs)
    failed, expected = plan.vertices[spliced.value.vertex_id], dec.vertices[standalone.value.vertex_id]
    assert failed.op_name == expected.op_name == "gather"
    assert failed.params == expected.params
    assert spliced.value.vertex_id.endswith(standalone.value.vertex_id)
    assert str(spliced.value.cause) == str(standalone.value.cause)
