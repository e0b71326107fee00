"""Spliced query plans: each lineitem column's decoder composed in front of a Q6 input.

The plan is built exactly as the benchmark's ``splice_q6`` builds it, with
``rename_labels``, ``circuit_union``, ``assign_input`` and ``drop_output``.
Over random tables and constants it must compute the row loop's revenue,
hold exactly the vertices of the query and its decoders, and report a
corrupted input at the decoder operator that rejects it.
"""

import json
import random
from collections import Counter

import pytest

from colcirc import codec, encode, evaluate_circuit, make_column, validate_circuit
from colcirc.errors import EvaluationError
from colcirc.gallery import q6_circuit, q6_reference
from colcirc.transform import assign_input, circuit_union, drop_output, rename_labels
from colcirc.types import U64

LINEITEM = {
    "shipdate": ("for", {"type": "u64", "offset_type": "u16", "segment_length": 128}),
    "discount": ("dict", {"type": "u64"}),
    "quantity": ("nullsup", {"type": "u64", "narrow_type": "u8"}),
    "extended_price": ("nullsup", {"type": "u64", "narrow_type": "u32"}),
}
COLUMNS = tuple(LINEITEM)


def decoders():
    out = {}
    for name, (sid, params) in LINEITEM.items():
        entry = codec(sid)
        p = entry.normalize_params(params)
        mapping = {"out:col": f"dec:{name}", **{label: f"{name}:{label}" for label in entry.form_spec(p)}}
        out[name] = rename_labels(entry.decoder(p), mapping)
    return out


def splice_q6(constants):
    plan = q6_circuit(**constants)
    for name, dec in decoders().items():
        plan = circuit_union(plan, dec)
        plan = assign_input(plan, name, plan.interface[f"dec:{name}"])
        plan = drop_output(plan, f"dec:{name}")
    return plan


def encoded(table):
    inputs = {}
    for name, (sid, params) in LINEITEM.items():
        inst = encode(sid, params, make_column(U64, table[name]))
        inputs.update({f"{name}:{label}": col for label, col in inst.columns.items()})
    return inputs


def random_query(rng, least=0):
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
        want = q6_reference(*(table[k] for k in COLUMNS), **constants)
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
