"""Operator edge cases: failure context, constant comparisons, f64 results, deep fusion."""

import itertools
import math
import sys

import pytest

from colcirc import Column, CompositionRecipe, SchemeInstance, codec, compose, decode, instantiate, make_column
from colcirc.circuit import circuit_from_json, circuit_to_json, dump_circuit, evaluate_circuit
from colcirc.cli import main
from colcirc.column import write_col_file
from colcirc.errors import ColcircError, EvaluationError, TypeDomainError
from colcirc.gallery import double_plus_three
from colcirc.transform import _params_key, eliminate_duplicate_vertices, fuse_subcircuit
from colcirc.types import F32, F64, I8, I64, INT, U8, U32, U64
from paths import F32_MAX, count_checked_columns, same

_ids = itertools.count()


# -- failure context -----------------------------------------------------------------------------


def f32_sum_instance():
    sid = f"testonly.edges.ewadd.f32.{next(_ids)}"
    inner = ("constant", {"type": "f32"})
    compose(CompositionRecipe("elementwise-add", sid, (inner, inner)))
    cols = {label: make_column(F32, [F32_MAX]) for label in ("a:value", "b:value")}
    cols.update({label: make_column(INT, [2]) for label in ("a:length", "b:length")})
    return SchemeInstance(sid, {}, cols)


def test_an_f32_sum_beyond_f32_names_its_vertex():
    inst = f32_sum_instance()
    with pytest.raises(EvaluationError) as exc:
        decode(inst, check=False)
    decoder = codec(inst.scheme_id).decoder({})
    vertex = decoder.vertices[exc.value.vertex_id]
    assert (vertex.op_name, vertex.params["fn"], vertex.params["type"]) == ("elementwise", "add", "f32")
    assert type(exc.value.cause) is TypeDomainError
    assert str(exc.value) == f"operator failure at vertex {exc.value.vertex_id!r}: {exc.value.cause}"


def test_the_cli_exits_5_for_an_f32_sum_beyond_f32(tmp_path, capsys):
    inst = f32_sum_instance()
    path = tmp_path / "decoder.json"
    path.write_text(dump_circuit(codec(inst.scheme_id).decoder({})))
    argv = ["eval", str(path), "-o", str(tmp_path / "out")]
    for label, col in inst.columns.items():
        col_path = tmp_path / (label.replace(":", "_") + ".col")
        write_col_file(col_path, col)
        argv += ["--input", f"{label}={col_path}"]
    assert main(argv) == 5
    assert "operator failure at vertex" in capsys.readouterr().err


def test_a_nested_failure_keeps_its_inner_vertex():
    c = double_plus_three("u8")
    fused = fuse_subcircuit(c, list(c.vertices), fused_name="outer")
    with pytest.raises(EvaluationError) as inner:
        evaluate_circuit(c, {"col": make_column(U8, [200])})
    with pytest.raises(EvaluationError) as outer:
        evaluate_circuit(fused, {"col": make_column(U8, [200])})
    assert outer.value.vertex_id == inner.value.vertex_id != "outer"
    assert str(outer.value) == str(inner.value)


# -- const_compare ---------------------------------------------------------------------------------

REFERENCE = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
}


@pytest.mark.parametrize("cmp", sorted(REFERENCE))
@pytest.mark.parametrize(
    "t, values, refs",
    [
        (U64, [0, 1, 2**63 - 1, 2**63, 2**64 - 1], [0, 2**63, 2**64 - 1, -1, 2**64]),
        (I64, [-(2**63), -1, 0, 1, 2**63 - 1], [-(2**63), 0, 2**63 - 1, 0.5]),
        (I8, [-128, 0, 127], [-128, 127, -129]),
        (F64, [-math.inf, -0.0, 0.0, 1.5, math.nan, math.inf], [0.0, -0.0, 1.5, math.nan, math.inf, 1]),
    ],
)
def test_const_compare_matches_the_comparison(cmp, t, values, refs):
    col = make_column(t, values)
    for ref in refs:
        inst = instantiate("elementwise", {"fn": "const_compare", "type": str(t), "cmp": cmp, "value": ref})
        out = inst.apply({"arguments": col})["result"].values
        assert out == tuple(1 if REFERENCE[cmp](v, ref) else 0 for v in values), (cmp, ref)
        assert set(map(type, out)) <= {int}


# -- f64 results -----------------------------------------------------------------------------------

EXTREMES = [0.0, -0.0, sys.float_info.max, -sys.float_info.max, 5e-324, math.inf, -math.inf, math.nan, 1.5]


@pytest.mark.parametrize("fn", ["add", "sub", "mul"])
def test_f64_arithmetic_is_trusted_and_equals_the_checked_column(fn, monkeypatch):
    pairs = list(itertools.product(EXTREMES, repeat=2))
    lhs = make_column(F64, [a for a, _ in pairs])
    rhs = make_column(F64, [b for _, b in pairs])
    built = count_checked_columns(monkeypatch)
    out = instantiate("elementwise", {"fn": fn, "type": "f64"}).apply({"lhs": lhs, "rhs": rhs})["result"]
    assert built == []
    monkeypatch.undo()
    assert same(out.values, Column(F64, out.values).values)
    assert set(map(type, out.values)) == {float}


@pytest.mark.parametrize("k", [2, -3, 0.5, math.inf, math.nan])
def test_f64_scale_is_trusted_and_equals_the_checked_column(k):
    inst = instantiate("elementwise", {"fn": "scale", "type": "f64", "k": k})
    out = inst.apply({"arguments": make_column(F64, EXTREMES)})["result"]
    assert same(out.values, Column(F64, [v * k for v in EXTREMES]).values)
    assert set(map(type, out.values)) == {float}


def test_an_f32_result_stays_checked():
    inst = instantiate("elementwise", {"fn": "add", "type": "f32"})
    with pytest.raises(TypeDomainError):
        inst.apply({"lhs": make_column(F32, [F32_MAX]), "rhs": make_column(F32, [F32_MAX])})
    with pytest.raises(TypeDomainError):  # a mistyped f64 column never takes the f64 shortcut
        inst.apply({"lhs": make_column(F64, [1e300]), "rhs": make_column(F64, [0.0])})


# -- deep fusion -------------------------------------------------------------------------------------


def nested_fusion(depth):
    """``double_plus_three`` inside ``depth`` nested ``fused`` vertices."""
    doc = circuit_to_json(double_plus_three())
    sig = doc["signature"]
    ports = {label: f"f.{label}" for label in [*sig["inputs"], *sig["outputs"]]}
    for _ in range(depth):
        vertex = {"id": "f", "op": "fused", "params": {"circuit": doc}}
        doc = {"signature": sig, "vertices": [vertex], "edges": [], "interface": ports}
    return circuit_from_json(doc)


def test_deeply_nested_fusion_fails_as_a_colcirc_error():
    c = nested_fusion(248)
    with pytest.raises(ColcircError, match="nested too deeply"):
        dump_circuit(c)
    with pytest.raises(ColcircError, match="nested too deeply"):
        _params_key(c.vertices["f"].params)
    with pytest.raises(ColcircError, match="nested too deeply"):
        eliminate_duplicate_vertices(c)


def test_evaluating_deep_fusion_from_a_deep_caller_fails_as_an_evaluation_error():
    c = nested_fusion(120)
    col = make_column(U32, [1])

    def from_depth(n):
        return from_depth(n - 1) if n else evaluate_circuit(c, {"col": col})

    assert from_depth(0)["result"].values == (5,)
    with pytest.raises(EvaluationError, match="nested too deeply"):
        from_depth(sys.getrecursionlimit() - 400)  # 600 frames down under the default limit


def test_shallow_fusion_still_dumps():
    c = nested_fusion(3)
    assert evaluate_circuit(c, {"col": make_column(U32, [1])})["result"].values == (5,)
    assert circuit_from_json(circuit_to_json(c)) == c
    assert "fused" in dump_circuit(c)
    assert _params_key(c.vertices["f"].params).startswith("{")
