"""What a kernel may trust, and where that ends.

Catalog operators build an output with ``Column._trusted`` only where their
own logic proves every value in the output type's domain, given inputs of
the declared types; ``OperatorInstance.apply`` rebuilds every output with
the checked constructor when an input has another type.  That a trusted
output is the one the checked constructor would build is ``test_paths.py``'s
``checked`` path, over random calls of every operator.  These tests pin the
boundary: a type-mismatched input still raises ``TypeDomainError`` through
``apply``, and through an unvalidated circuit an ``EvaluationError`` naming
the vertex, with that as its cause; an output handed through unchanged gets
its declared type.
"""

import pytest

from colcirc import circuit, evaluate_circuit, in_port, instantiate, make_column, out_port
from colcirc.errors import EvaluationError, OperatorError, TypeDomainError
from colcirc.types import BIT, F64, I64, INT, U8, U32
from paths import count_checked_columns


def idx(*values):
    return make_column(INT, values)


# -- the well-typed guard ------------------------------------------------------------

WIDE = make_column(U32, [7, 300, 70000])


def mismatched_cases():
    """Operators typed u8, given the u32 column WIDE where the u8 data goes."""
    return {
        "gather": ({"type": "u8"}, {"pos": idx(2, 0), "data": WIDE}),
        "select": ({"type": "u8"}, {"data": WIDE, "selection": make_column(BIT, [1, 1, 0])}),
        "concatenate": ({"type": "u8", "k": 2}, {"col_1": make_column(U8, [1]), "col_2": WIDE}),
        "scatter": ({"type": "u8"}, {"col": make_column(U8, [0, 0]), "pos": idx(1), "data": make_column(U32, [300])}),
        "replicate": ({"type": "u8"}, {"value": make_column(U32, [300]), "factor": idx(2)}),
        "no_op": ({"type": "u8"}, {"arguments": WIDE}),
        "split_first": ({"type": "u8"}, {"col": WIDE}),  # the head fits u8, the tail does not
    }


@pytest.mark.parametrize("op", sorted(mismatched_cases()))
def test_mismatched_input_still_raises_through_apply(op):
    params, inputs = mismatched_cases()[op]
    with pytest.raises(TypeDomainError):
        instantiate(op, params).apply(inputs)


@pytest.mark.parametrize("op", sorted(mismatched_cases()))
def test_mismatched_edge_still_raises_in_an_unvalidated_circuit(op):
    params, inputs = mismatched_cases()[op]
    inst = instantiate(op, params)
    # the u32 input reaches the operator through a u32 relay: a type-mismatched edge
    wide_label = next(label for label, col in inputs.items() if col.element_type == U32)
    vertices = {"relay": instantiate("no_op", {"type": "u32"}), "op": inst}
    edges = {(out_port("relay", "result"), in_port("op", wide_label))}
    interface = {"wide": in_port("relay", "arguments")}
    interface.update({label: in_port("op", label) for label in inputs if label != wide_label})
    interface.update({f"out:{label}": out_port("op", label) for label in inst.signature.outputs})
    c = circuit(vertices, edges, interface)
    feeds = {label: col for label, col in inputs.items() if label != wide_label}
    with pytest.raises(EvaluationError) as exc:
        evaluate_circuit(c, dict(feeds, wide=inputs[wide_label]))
    assert exc.value.vertex_id == "op" and type(exc.value.cause) is TypeDomainError


def test_matching_types_take_the_trusted_path(monkeypatch):
    gather = instantiate("gather", {"type": "u8"})
    split = instantiate("split_first", {"type": "u8"})
    relay = instantiate("no_op", {"type": "u8"})
    pos, narrow, wide = idx(1), make_column(U8, [4, 5]), make_column(U32, [4, 5])
    built = count_checked_columns(monkeypatch)
    assert gather.apply({"pos": pos, "data": narrow})["result"].values == (5,)
    assert split.apply({"col": narrow})["tail"].values == (5,)
    assert relay.apply({"arguments": narrow})["result"] is narrow
    assert built == []
    # in range, so accepted; but every output is built checked, with its declared type
    out = gather.apply({"pos": pos, "data": wide})
    assert built == [U8] and out["result"].element_type is U8 and out["result"].values == (5,)
    built.clear()
    out = split.apply({"col": wide})
    assert built == [U8, U8] and [c.element_type for c in out.values()] == [U8, U8]
    built.clear()
    out = relay.apply({"arguments": wide})
    assert built == [U8] and out["result"].element_type is U8 and out["result"].values == (4, 5)


@pytest.mark.parametrize("op, params", [("no_op", {"type": "u8"}), ("elementwise", {"fn": "identity", "type": "u8"})])
def test_an_output_handed_through_has_its_declared_type(op, params):
    inst = instantiate(op, params)
    assert inst.apply({"arguments": make_column(U32, [7])})["result"] == make_column(U8, [7])
    with pytest.raises(TypeDomainError):
        inst.apply({"arguments": make_column(U32, [300])})


def test_a_mismatched_relay_chain_fails_at_the_narrow_relay():
    vertices = {"wide": instantiate("no_op", {"type": "u32"}), "narrow": instantiate("no_op", {"type": "u8"})}
    edges = {(out_port("wide", "result"), in_port("narrow", "arguments"))}
    c = circuit(vertices, edges, {"x": in_port("wide", "arguments"), "y": out_port("narrow", "result")})
    assert evaluate_circuit(c, {"x": make_column(U32, [7])})["y"] == make_column(U8, [7])
    with pytest.raises(EvaluationError) as exc:
        evaluate_circuit(c, {"x": make_column(U32, [300])})
    assert exc.value.vertex_id == "narrow" and type(exc.value.cause) is TypeDomainError


@pytest.mark.parametrize(
    "inputs, message",
    [
        ({}, "elementwise input 'lhs' is missing"),
        ({"lhs": make_column(U8, [1])}, "elementwise input 'rhs' is missing"),
        ({"lhs": [1], "rhs": make_column(U8, [1])}, "elementwise input 'lhs' is not a column"),
        ([make_column(U8, [1]), make_column(U8, [1])], "elementwise inputs are not a mapping of labels to columns"),
        (None, "elementwise inputs are not a mapping of labels to columns"),
    ],
)
def test_a_missing_or_non_column_input_is_an_operator_error(inputs, message):
    with pytest.raises(OperatorError) as exc:
        instantiate("elementwise", {"fn": "add", "type": "u8"}).apply(inputs)
    assert exc.value.code == "bad-input" and str(exc.value) == f"bad-input: {message}"


def test_float_differences_stay_checked_under_an_integer_out_type():
    inst = instantiate("derivative", {"type": "f64", "out_type": "i8"})
    with pytest.raises(TypeDomainError):
        inst.apply({"col": make_column(F64, [1.0, 3.0])})


@pytest.mark.parametrize(
    "op, params, inputs, message",
    [
        ("elementwise", {"fn": "scale", "type": "u8", "k": 2.5}, {"arguments": make_column(U8, [1, 200])},
         "overflow: result 500.0 outside u8 range [0, 255]"),
        ("derivative", {"type": "f64", "out_type": "i8"}, {"col": make_column(F64, [0.0, 300.0])},
         "overflow: result 300.0 outside i8 range [-128, 127]"),
    ],
)
def test_a_float_result_outside_an_integer_type_is_range_checked_first(op, params, inputs, message):
    with pytest.raises(OperatorError) as exc:
        instantiate(op, params).apply(inputs)
    assert str(exc.value) == message


# -- gather ------------------------------------------------------------------------------


@pytest.mark.parametrize(
    "pos, bad",
    [
        (idx(0, 3, 4), 3),
        (idx(3), 3),
        (make_column(I64, [1, -1, 3]), -1),
        (make_column(I64, [-5]), -5),
        (make_column(I64, [0, 9, -1]), 9),
    ],
)
def test_gather_names_the_first_position_out_of_range(pos, bad):
    data = make_column(U8, [10, 11, 12])
    with pytest.raises(OperatorError) as exc:
        instantiate("gather", {"type": "u8"}).apply({"pos": pos, "data": data})
    assert exc.value.code == "out-of-range"
    assert str(exc.value) == f"out-of-range: gather position {bad} beyond length 3"


@pytest.mark.parametrize("pos, values", [((), ()), ((2,), (12,)), ((0, 0), (10, 10)), ((2, 1, 0), (12, 11, 10))])
def test_gather_of_few_positions(pos, values):
    data = make_column(U8, [10, 11, 12])
    out = instantiate("gather", {"type": "u8"}).apply({"pos": idx(*pos), "data": data})["result"]
    assert out == make_column(U8, values)
    assert type(out.values) is tuple


def test_gather_from_an_empty_column():
    inst = instantiate("gather", {"type": "u8"})
    assert inst.apply({"pos": idx(), "data": make_column(U8, [])})["result"].values == ()
    with pytest.raises(OperatorError, match="gather position 0 beyond length 0"):
        inst.apply({"pos": idx(0), "data": make_column(U8, [])})
