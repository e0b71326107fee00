"""The params surface: scheme, recipe and operator params are checked against declared kinds.

A malformed scheme param is ``NotEncodable`` from ``verify``, ``decode`` and
``encode``; a missing one is a plain ``ColcircError``; a malformed operator
param is ``OperatorError("bad-params")``.  Nothing else escapes, and no
value is converted: ``2.5`` is refused wherever an integer is declared.
"""

from __future__ import annotations

import importlib
import json
import random

import pytest

from colcirc import (
    ColcircError,
    CompositionRecipe,
    NotEncodable,
    OperatorError,
    SchemeInstance,
    circuit_to_json,
    codec,
    compose,
    decode,
    encode,
    instantiate,
    make_column,
    scalar_column,
    verify,
    write_col_file,
)
from colcirc.builder import CircuitBuilder
from colcirc.cli import main
from colcirc.types import F64, INT, U32, parse_type

from scheme_cases import CASES

codec_mod = importlib.import_module("colcirc.codec")

INT_BAD = ["x", None, 2.5, -1, 0, [], 10**30]
TYPE_BAD = ["x", None, 7, [], {}]
TYPE_KEYS = ("type", "types", "bits", "partition", "narrow_type", "noise_type", "offset_type", "delta_type")


def _first(sid):
    """A valid ``(params, family, instance)`` of ``sid``'s case (seed 1)."""
    params, family = CASES[sid].gen(random.Random(1))
    return params, family, encode(sid, params, family)


def _calls(sid, params, family, inst):
    yield lambda: verify(SchemeInstance(sid, params, inst.columns))
    yield lambda: decode(SchemeInstance(sid, params, inst.columns), check=False)
    yield lambda: encode(sid, params, family)


def _probe(sid, keys_of, bads):
    """The calls with one param set to each bad value that escape with anything but a ColcircError."""
    params, family, inst = _first(sid)
    escaped = []
    for key in keys_of(params):
        for bad in bads:
            for call in _calls(sid, dict(params, **{key: bad}), family, inst):
                try:
                    call()
                except ColcircError:
                    pass
                except Exception as exc:  # noqa: BLE001 - the escape is what is counted
                    escaped.append((key, bad, type(exc).__name__))
    return escaped


def _declared_ints(sid, params):
    """The params given as an ``int`` whose declared kind refuses ``2.5``."""
    declared = codec(sid).declared
    return [k for k, v in params.items() if type(v) is int and k in declared and not declared[k].ok(2.5)]


INT_SCHEMES = sorted(sid for sid in CASES if _declared_ints(sid, _first(sid)[0]))


@pytest.mark.parametrize("sid", sorted(CASES))
def test_bad_integer_params_raise_only_colcirc_errors(sid):
    assert _probe(sid, lambda p: [k for k, v in p.items() if type(v) is int], INT_BAD) == []


@pytest.mark.parametrize("sid", sorted(CASES))
def test_bad_type_like_params_raise_only_colcirc_errors(sid):
    assert _probe(sid, lambda p: [k for k in TYPE_KEYS if k in p], TYPE_BAD) == []


@pytest.mark.parametrize("sid", INT_SCHEMES)
def test_encode_refuses_a_float_where_an_int_is_declared(sid):
    params, family, _ = _first(sid)
    for key in _declared_ints(sid, params):
        with pytest.raises(NotEncodable, match=f"'{key}' must be"):
            encode(sid, dict(params, **{key: 2.5}), family)


@pytest.mark.parametrize("sid", ["delta", "cascade", "value.indicators"])
def test_an_accepted_dict_is_kept_as_given(sid):
    params, family, inst = _first(sid)
    assert inst.params == params and verify(inst)


def test_missing_and_malformed_params_are_told_apart():
    col = make_column(U32, [1, 2, 3])
    with pytest.raises(ColcircError, match="missing scheme param 'offset_type'") as missing:
        encode("for", {"type": "u32"}, col)
    assert not isinstance(missing.value, NotEncodable)
    with pytest.raises(NotEncodable, match="'offset_type' must be an element type name, not 8"):
        encode("for", {"type": "u32", "offset_type": 8, "segment_length": 2}, col)


def test_hints_are_checked_on_every_encode_and_kept_out_of_the_instance():
    col = make_column(U32, [1, 2, 3, 4])
    params = {"type": "u32", "basis": [0, 1]}
    assert encode("spline.generalized", dict(params, segments=[2, 2]), col).params == params
    with pytest.raises(NotEncodable, match="hint 'segments' must be a list of positive integer lengths"):
        encode("spline.generalized", dict(params, segments=[2.0, 2.0]), col)


def test_the_check_runs_once_per_params_key(monkeypatch):
    checks = []
    check = codec_mod.check
    monkeypatch.setattr(codec_mod, "check", lambda *a, **k: checks.append(a[0]) or check(*a, **k))
    params = {"type": "u32", "delta_type": "i8", "segment_length": 97}  # a key no other test builds
    inst = encode("delta", params, make_column(U32, [5, 6, 8, 9]))
    for _ in range(3):
        decode(inst)
        verify(inst)
        encode("delta", params, make_column(U32, [5, 6]))
    assert checks == [codec_mod.codec("delta").declared]  # with the decoder the first encode built


def test_compose_refuses_a_float_segment_length():
    inner = (("nullsup", {"type": "u32", "narrow_type": "u8"}),)
    recipe = CompositionRecipe("segmentize-uniform", "testonly.params.seg", inner, {"segment_length": 2.5})
    with pytest.raises(NotEncodable, match="option 'segment_length' must be a positive integer, not 2.5"):
        compose(recipe)


# -- the polynomial decoders' i64 powers ----------------------------------------------------------


@pytest.mark.parametrize(
    "sid, params",
    [
        ("noisy.generated", {"type": "u32", "noise_type": "i64", "basis": [0, 30]}),
        ("generated", {"type": "u32", "basis": [0, 30]}),
        ("generated.poly", {"type": "u32", "basis": [0, 30]}),
    ],
)
def test_powers_past_i64_are_refused_and_rejected(sid, params):
    values = [i % 7 for i in range(100)] if sid == "noisy.generated" else [0] * 100
    with pytest.raises(NotEncodable, match="leaves i64"):
        encode(sid, params, make_column(U32, values))
    fits = encode(sid, params, make_column(U32, values[:4]))  # 3**30 is inside i64
    assert decode(fits)["col"].values == tuple(values[:4])
    if sid == "noisy.generated":
        too_long = fits.with_columns(noise=make_column(fits.columns["noise"].element_type, [0] * 100))
    else:
        too_long = fits.with_columns(length=scalar_column(INT, 100))
    assert verify(too_long) is False


def test_float_powers_are_not_bounded_by_i64():
    col = make_column(F64, [0.0] * 100)
    assert verify(encode("generated", {"type": "f64", "basis": [0, 30]}, col))


# -- operator params ------------------------------------------------------------------------------


@pytest.mark.parametrize(
    "op, params, message",
    [
        ("scalar", {"type": "u8"}, "missing parameter 'value'"),
        ("iota", {"type": 7}, "'type' must be an element type name"),
        ("concatenate", {"type": "u8", "k": "x"}, "'k' must be a positive integer"),
        ("concatenate", {"type": "u8", "k": 2.5}, "'k' must be a positive integer"),
        ("carve", {"w": "x", "p": 2}, "'w' must be an integer"),
        ("derivative", {"type": "u8", "out_type": 5}, "'out_type' must be an element type name"),
        ("compose_segments", {"type": "u8", "k": 65}, "512-bit cap"),
        ("host_verify", {"scheme": ["dict"], "params": {}}, "'scheme' must be a name"),
    ],
)
def test_bad_operator_params(op, params, message):
    with pytest.raises(OperatorError, match=message) as raised:
        instantiate(op, params)
    assert raised.value.code == "bad-params"


def test_a_float_scale_stays_valid():
    inst = instantiate("elementwise", {"fn": "scale", "type": "f64", "k": 0.5})
    assert inst.apply({"arguments": make_column(F64, [2.0, 3.0])})["result"].values == (1.0, 1.5)


@pytest.mark.parametrize("edit", ["drop-value", "iota-type"])
def test_eval_of_a_circuit_with_bad_params_exits_1(tmp_path, capsys, edit):
    b = CircuitBuilder()
    b.output("n", b.iota(b.scalar("u64", 3)))
    doc = circuit_to_json(b.build())
    for v in doc["vertices"]:
        if edit == "drop-value" and v["op"] == "scalar":
            del v["params"]["value"]
        if edit == "iota-type" and v["op"] == "iota":
            v["params"]["type"] = 7
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    assert main(["eval", str(path), "-o", str(tmp_path / "out")]) == 1
    assert "bad-params" in capsys.readouterr().err


# -- operator params that name a table entry or a constant ----------------------------------------


@pytest.mark.parametrize(
    "params, message",
    [
        ({"fn": ["add"], "type": "u64"}, "'fn' must be one of add, and,"),
        ({"type": "u64"}, "missing parameter 'fn'"),
        ({"fn": "const_compare", "type": "u64", "cmp": "zz", "value": 1}, "'cmp' must be one of eq, ge, gt, le, lt, ne"),
        ({"fn": "const_compare", "type": "u64", "cmp": ["eq"], "value": 1}, "'cmp' must be one of"),
        ({"fn": "const_compare", "type": "u64", "value": "1"}, "'value' must be a number, not '1'"),
        ({"fn": "const_compare", "type": "u64", "value": True}, "'value' must be a number, not True"),
        ({"fn": "const_compare", "type": "u64"}, "missing parameter 'value'"),
        ({"fn": "in_range", "type": "u64", "lo": "1", "hi": 2}, "'lo' must be a number"),
        ({"fn": "in_range", "type": "u64", "lo": 1, "hi": [2]}, "'hi' must be a number"),
        ({"fn": "in_range", "type": "u64", "hi": 2}, "missing parameter 'lo'"),
        ({"fn": "scale", "type": "u64", "k": "2"}, "'k' must be a number"),
        ({"fn": "clip_by", "type": "u64", "k": None}, "missing parameter 'k'"),
        ({"fn": "clip_by", "type": "u64", "k": False}, "'k' must be a number"),
    ],
)
def test_bad_elementwise_params_are_refused_at_instantiation(params, message):
    with pytest.raises(OperatorError, match=message) as raised:
        instantiate("elementwise", params)
    assert raised.value.code == "bad-params"


@pytest.mark.parametrize(
    "params, message",
    [
        ({"op": ["add"], "type": "u64"}, "'op' must be one of add, and, max, min, or"),
        ({"op": "avg", "type": "u64"}, "'op' must be one of"),
        ({"mode": "zz", "type": "u64"}, "'mode' must be one of exclusive, inclusive, not 'zz'"),
        ({"mode": ["inclusive"], "type": "u64"}, "'mode' must be one of"),
    ],
)
def test_bad_prefix_aggregate_params_are_refused_at_instantiation(params, message):
    with pytest.raises(OperatorError, match=message) as raised:
        instantiate("prefix_aggregate", params)
    assert raised.value.code == "bad-params"


@pytest.mark.parametrize(
    "params, values, want",
    [
        ({"fn": "const_compare", "type": "f64", "cmp": "ge", "value": 1}, [0.5, 1.0, 2.0], (0, 1, 1)),
        ({"fn": "const_compare", "type": "u64", "value": 2.5}, [2, 3], (0, 0)),  # cmp defaults to eq
        ({"fn": "in_range", "type": "f64", "lo": -1, "hi": 1.5}, [-2.0, 0.0, 1.5], (0, 1, 1)),
        ({"fn": "scale", "type": "f64", "k": 2}, [1.5], (3.0,)),
        ({"fn": "clip_by", "type": "u64", "k": 2}, [5, 6], (2, 3)),
    ],
)
def test_numbers_of_either_kind_stay_valid(params, values, want):
    inst = instantiate("elementwise", params)
    assert inst.apply({"arguments": make_column(parse_type(params["type"]), values)})["result"].values == want


def test_clip_by_a_nonpositive_k_is_refused_on_apply():
    inst = instantiate("elementwise", {"fn": "clip_by", "type": "u64", "k": 0})
    with pytest.raises(OperatorError, match="clip_by needs a positive k"):
        inst.apply({"arguments": make_column(INT, [1])})


@pytest.mark.parametrize("edit", [("cmp", "zz"), ("value", "7")], ids=["cmp", "value"])
def test_eval_of_a_circuit_with_a_bad_const_compare_exits_1(tmp_path, capsys, edit):
    b = CircuitBuilder()
    small = b.ew("const_compare", {"type": "u64", "cmp": "lt", "value": 2}, arguments=b.iota(b.scalar("u64", 3)))
    b.output("small", small)
    doc = circuit_to_json(b.build())
    (vertex,) = [v for v in doc["vertices"] if v["params"].get("fn") == "const_compare"]
    vertex["params"][edit[0]] = edit[1]
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    assert main(["eval", str(path), "-o", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "bad-params" in err and f"'{edit[0]}'" in err


# -- ceilings on params that size a decoder --------------------------------------------------------


@pytest.mark.parametrize(
    "sid, params, family",
    [
        ("value.indicators", {"domain_size": 10**30}, {"col": make_column(INT, [0, 1])}),
        ("value.indicators", {"domain_size": 4097}, {"col": make_column(INT, [0, 1])}),
        ("partition", {"k": 10**30}, {"pos_1": make_column(INT, [0]), "data_1": make_column(INT, [0])}),
        ("partition.k", {"type": "u32", "k": 4097}, {"col": make_column(U32, [5])}),
    ],
)
def test_a_param_past_its_ceiling_is_refused_before_a_decoder_is_built(monkeypatch, sid, params, family):
    entry = codec(sid)
    built = []
    build = entry.build_decoder
    monkeypatch.setattr(entry, "build_decoder", lambda p: built.append(p) or build(p))
    inst = SchemeInstance(sid, params, {})
    for call in (lambda: encode(sid, params, family), lambda: verify(inst), lambda: decode(inst)):
        with pytest.raises(NotEncodable, match="at most 4096"):
            call()
    assert built == []


@pytest.mark.parametrize("sid, name", [("value.indicators", "domain_size"), ("partition", "k"), ("partition.k", "k")])
def test_the_ceiling_itself_is_accepted(sid, name):
    kind = codec(sid).declared[name]
    assert kind.ok(4096) and not kind.ok(4097)


def test_a_domain_size_past_its_ceiling_exits_2(tmp_path):
    src = str(tmp_path / "c.col")
    write_col_file(src, make_column(INT, [0, 1]))
    argv = ["encode", "--scheme", "value.indicators", "--params", '{"domain_size": 5000}', src, str(tmp_path / "b")]
    assert main(argv) == 2


@pytest.mark.parametrize(
    "sid, name",
    [("pvw", "period"), ("segdict", "dict_size"), ("segdict.two_level", "dict_size"), ("varwidth.capped", "max_length")],
)
def test_a_padding_length_past_its_ceiling_is_refused_before_the_encoder_runs(monkeypatch, sid, name):
    # ``pvw`` with ``period=2 * 10**6`` once wrote an 8,000,000-value data column
    params, family = CASES[sid].gen(random.Random(1))
    entry = codec(sid)
    encoded = []
    monkeypatch.setattr(entry, "_encode", lambda p, f, enc=entry._encode: encoded.append(p) or enc(p, f))
    for value in (4097, 2 * 10**6):
        with pytest.raises(NotEncodable, match="at most 4096"):
            encode(sid, dict(params, **{name: value}), family)
    assert encoded == []
    assert entry.declared[name].ok(4096)
    encode(sid, params, family)
    assert len(encoded) == 1


# -- type params are element type names ------------------------------------------------------------


@pytest.mark.parametrize(
    "op, params", [("no_op", {"type": U32}), ("zip", {"types": ["u8", U32]}), ("derivative", {"type": "u8", "out_type": U32})]
)
def test_an_element_type_object_is_a_bad_operator_param(op, params):
    with pytest.raises(OperatorError, match="bad-params.*element type name"):
        instantiate(op, params)


@pytest.mark.parametrize("sid, params", [("constant", {"type": U32}), ("components", {"types": [U32, "u32"]})])
def test_an_element_type_object_is_a_bad_scheme_param(sid, params):
    inst = SchemeInstance(sid, params, {})
    one = make_column(U32, [1])
    family = make_column(U32, [1, 1]) if sid == "constant" else {"component_1": one, "component_2": one}
    for call in (lambda: encode(sid, params, family), lambda: verify(inst), lambda: decode(inst)):
        with pytest.raises(NotEncodable, match="element type name"):
            call()


def test_an_element_type_object_is_a_bad_recipe_option_or_inner_param():
    nullsup = ("nullsup", {"type": "i16", "narrow_type": "i8"})
    with pytest.raises(NotEncodable, match="element type name"):
        compose(CompositionRecipe("differentiate", "testonly.params.typed-option", (nullsup,), {"type": U32}))
    with pytest.raises(NotEncodable, match="element type name"):
        compose(CompositionRecipe("patch", "testonly.params.typed-inner", (("constant", {"type": U32}),)))
