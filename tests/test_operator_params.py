"""Operator params, drawn from the catalog's own declarations.

Every operator and every elementwise ``fn`` declares its params as
``colcirc.params`` kinds.  Params drawn from those kinds instantiate, or
are refused as ``OperatorError("bad-params")`` for a relation no kind
states (``carve``'s ``p < w``, a numeric ``cast``, the product cap).  One
entry replaced by a value of another kind is ``bad-params``, and nothing
but a ``ColcircError`` ever escapes.  Lengths and ``k`` stay small, so no
case allocates much.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colcirc import ColcircError, CompositionRecipe, OperatorError, catalog_names, circuit_to_json, compose
from colcirc import params as kinds
from colcirc.cli import main
from colcirc.gallery import double_plus_three
from colcirc.ops import _CATALOG, _ELEMENTWISE_FNS, _EW_PARAMS, instantiate

_TYPE_NAMES = ["u8", "u32", "u64", "i8", "i64", "f32", "f64", "bit", "unit", "prod(u8,i16)"]
_TYPE = st.sampled_from(_TYPE_NAMES)
_NUMBER = st.integers(-9, 9) | st.floats(-9, 9)

# a valid value of each kind, keyed by the kind's test (``optional()`` keeps it)
_VALID = {
    kinds.TYPE.ok: _TYPE,
    kinds.TYPES.ok: st.lists(_TYPE, min_size=1, max_size=3),
    kinds.INTEGER.ok: st.integers(-1, 66),
    kinds.PARTS.ok: st.integers(1, 8),
    kinds.NUMBER.ok: _NUMBER,
    kinds.BOOL.ok: st.booleans(),
    kinds.VALUE.ok: _NUMBER | st.sampled_from(["x", [], {}]),
}

# params whose valid values no kind can say: a registered scheme and its params, a circuit document
_SEGMENTED = "testonly.operator_params.seg"
compose(
    CompositionRecipe(
        "segmentize-uniform", _SEGMENTED, (("nullsup", {"type": "u32", "narrow_type": "u8"}),), {"segment_length": 2}
    )
)
_EXAMPLES = {
    "host_verify": {"scheme": "nullsup", "params": {"type": "u32", "narrow_type": "u8"}},
    "segmentized": {"scheme": _SEGMENTED},
    "fused": {"circuit": circuit_to_json(double_plus_three("u8"))},
}

_BAD = ["x", None, 2.5, -1, 0, [], {}, True, 10**30]

_OPS = [name for name in catalog_names() if not name.startswith("testonly.")]
# each case: the operator, the params every draw keeps, and the declaration the rest is drawn from
_CASES = {name: (name, {}, _CATALOG[name].params) for name in _OPS if name not in _EXAMPLES and name != "elementwise"}
for _fn in _ELEMENTWISE_FNS:
    _CASES[f"elementwise.{_fn}"] = ("elementwise", {"fn": _fn}, _EW_PARAMS[_fn])


def _strategy(kind):
    if kind.ok in _VALID:
        return _VALID[kind.ok]
    return st.sampled_from(kind.what.removeprefix("one of ").split(", "))  # the names of a table


def _valid_params(case, every=False):
    """A params dict drawn from ``case``'s declaration; ``every`` draws the optional params too."""
    _, kept, declared = _CASES[case]
    drawn = {name: _strategy(kind) for name, kind in declared.items() if name not in kept}
    required = {name: st.just(value) for name, value in kept.items()}
    required.update({name: drawn[name] for name in drawn if declared[name].required or every})
    optional = {name: drawn[name] for name in drawn if name not in required}
    return st.fixed_dictionaries(required, optional=optional)


def _instantiate(op, params):
    """The instance, or the error ``instantiate`` raised; anything but a ColcircError fails the test."""
    try:
        return instantiate(op, params)
    except ColcircError as exc:
        return exc


def test_every_operator_and_fn_has_a_declaration_the_draws_cover():
    assert {op for op, _, _ in _CASES.values()} | set(_EXAMPLES) == set(_OPS)
    for case, (_, _, declared) in _CASES.items():
        for name, kind in declared.items():
            assert isinstance(kind, kinds.ParamKind), (case, name)
            assert kind.ok in _VALID or kind.what.startswith("one of "), (case, name, kind.what)
    for op, params in _EXAMPLES.items():
        assert set(params) == set(_CATALOG[op].params)
        assert instantiate(op, params).params == params


@pytest.mark.parametrize("case", sorted(_CASES))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_declared_params_instantiate_or_are_bad_params(case, data):
    params = data.draw(_valid_params(case))
    got = _instantiate(_CASES[case][0], params)
    if isinstance(got, ColcircError):
        assert isinstance(got, OperatorError) and got.code == "bad-params", got
    else:
        assert params.items() <= got.params.items()


@pytest.mark.parametrize("case", sorted(case for case in _CASES if _CASES[case][2]) + sorted(_EXAMPLES))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_one_entry_of_another_kind_is_refused(case, data):
    if case in _EXAMPLES:
        op, params, declared = case, _EXAMPLES[case], _CATALOG[case].params
    else:
        op, _, declared = _CASES[case]
        params = data.draw(_valid_params(case, every=True))
    name = data.draw(st.sampled_from(sorted(declared)))
    bad = data.draw(st.sampled_from(_BAD))
    got = _instantiate(op, dict(params, **{name: bad}))
    if bad is None or not declared[name].ok(bad):
        assert isinstance(got, OperatorError) and got.code == "bad-params", (name, bad, got)
        assert repr(name) in str(got)


@pytest.mark.parametrize(
    "op, params",
    [
        ("concatenate", {"type": "u8", "k": 10**30}),
        ("compose_segments", {"type": "unit", "k": 10**30}),
        ("assemble", {"type": "unit", "k": 10**30}),
    ],
)
def test_eval_of_an_over_ceiling_k_exits_1(tmp_path, capsys, op, params):
    doc = {"vertices": [{"id": "a", "op": op, "params": params}], "edges": [], "interface": {}}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    assert main(["eval", str(path), "-o", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "bad-params" in err and "at most 4096" in err
