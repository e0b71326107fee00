"""Operator outputs that skip the domain re-check are the ones a check would accept.

Catalog operators build an output with ``Column._trusted`` only where their
own logic proves every value in the output type's domain, given inputs of
the declared types; ``OperatorInstance.apply`` rebuilds every output with
the checked constructor when an input has another type.  The differential
test runs each such operator twice, once as it is and once with
``Column._trusted`` replaced by the checked constructor, and requires the
same outcome.  The other tests pin that boundary: a type-mismatched input
still raises ``TypeDomainError`` through ``apply``, and through an
unvalidated circuit an ``EvaluationError`` naming the vertex, with that as
its cause; an output handed through unchanged gets its declared type.
"""

import contextlib
import math

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from colcirc import Column, circuit, evaluate_circuit, in_port, instantiate, make_column, out_port
from colcirc.errors import ColcircError, EvaluationError, OperatorError, TypeDomainError
from colcirc.types import BIT, F32, F64, I64, INT, U8, U32, ElementType, Kind

int_types = st.one_of(
    st.builds(ElementType.unsigned, st.integers(1, 64)),
    st.builds(ElementType.signed, st.integers(1, 64)),
    st.just(BIT),
)
simple_types = st.one_of(int_types, st.sampled_from([F32, F64]))
any_types = st.one_of(
    simple_types,
    st.lists(simple_types, min_size=1, max_size=3).map(lambda cs: ElementType.product(*cs)),
)


def in_domain(et):
    """Values of ``et``, edges included (u64 values above 2**63 among them)."""
    k = et.kind
    if k in (Kind.UNSIGNED, Kind.SIGNED, Kind.BIT):
        lo, hi = et.bounds()
        edges = [lo, hi, 0] + ([2**63] if hi >= 2**63 else [])
        return st.one_of(st.integers(lo, hi), st.sampled_from(edges))
    if k is Kind.FLOAT:  # small whole floats too, which integer casts and out_types accept
        return st.one_of(st.floats(width=et.width_bits), st.integers(-3, 3).map(float))
    return st.tuples(*(in_domain(c) for c in et.components))


def column(draw, et, min_size=0, max_size=10, size=None):
    if size is not None:
        min_size = max_size = size
    return make_column(et, draw(st.lists(in_domain(et), min_size=min_size, max_size=max_size)))


def idx(*values):
    return make_column(INT, values)


# -- one case builder per operator given the trusted path -------------------------
#
# Each takes hypothesis' ``draw`` and returns (op name, params, inputs).


def _gather(draw):
    t = draw(any_types)
    data = column(draw, t, min_size=1)
    pos = draw(st.lists(st.integers(0, len(data) - 1), max_size=12))
    return "gather", {"type": str(t)}, {"pos": idx(*pos), "data": data}


def _select(draw):
    t = draw(any_types)
    data = column(draw, t)
    return "select", {"type": str(t)}, {"data": data, "selection": column(draw, BIT, size=len(data))}


def _replicate(draw):
    t = draw(any_types)
    return "replicate", {"type": str(t)}, {"value": column(draw, t, size=1), "factor": idx(draw(st.integers(0, 5)))}


def _concatenate(draw):
    t = draw(any_types)
    k = draw(st.integers(1, 3))
    return "concatenate", {"type": str(t), "k": k}, {f"col_{i + 1}": column(draw, t) for i in range(k)}


def _scatter(draw):
    t = draw(any_types)
    base = column(draw, t)
    pos = draw(st.permutations(range(len(base))))[: draw(st.integers(0, len(base)))]
    return "scatter", {"type": str(t)}, {"col": base, "pos": idx(*pos), "data": column(draw, t, size=len(pos))}


def _permute(draw):
    t = draw(any_types)
    data = column(draw, t)
    perm = draw(st.permutations(range(len(data))))
    return "permute", {"type": str(t)}, {"permutation": idx(*perm), "data": data}


def _segmented(draw):
    t = draw(any_types)
    ell = draw(st.integers(1, 4))
    return t, ell, column(draw, t, size=ell * draw(st.integers(0, 3)))


def _transpose(draw):
    t, ell, col = _segmented(draw)
    return "transpose", {"type": str(t)}, {"segment_length": idx(ell), "col": col}


def _replicate_segments(draw):
    t, ell, col = _segmented(draw)
    inputs = {"col": col, "segment_length": idx(ell), "factor": idx(draw(st.integers(0, 3)))}
    return draw(st.sampled_from(["replicate_segments", "replicate_within_segments"])), {"type": str(t)}, inputs


def _split_first(draw):
    t = draw(any_types)
    return "split_first", {"type": str(t)}, {"col": column(draw, t, min_size=1)}


def _zip(draw):
    types = draw(st.lists(simple_types, min_size=1, max_size=3))
    n = draw(st.integers(0, 6))
    cols = {f"component_{i + 1}": column(draw, t, size=n) for i, t in enumerate(types)}
    names = [str(t) for t in types]
    if draw(st.booleans()):
        return "zip", {"types": names}, cols
    return "elementwise", {"fn": "tuple_make", "types": names}, cols


def _compose(draw):
    t = draw(simple_types)
    k = draw(st.integers(1, 3))
    if draw(st.booleans()):
        ell = draw(st.integers(0, 3))
        cols = {"segment_length": idx(ell), "components": column(draw, t, size=ell * k)}
        return "compose_segments", {"type": str(t), "k": k}, cols
    cols = {"segment_length": idx(k), "components": column(draw, t, size=k * draw(st.integers(0, 3)))}
    return "assemble", {"type": str(t), "k": k}, cols


def _comparison(draw):
    t = draw(simple_types)
    n = draw(st.integers(0, 8))
    fn = draw(st.sampled_from(["eq", "lt", "le"]))
    return "elementwise", {"fn": fn, "type": str(t)}, {"lhs": column(draw, t, size=n), "rhs": column(draw, t, size=n)}


def _unary_bit(draw):
    t = draw(simple_types)
    col = column(draw, t)
    v = draw(in_domain(t))
    fn = draw(st.sampled_from(["in_range", "const_compare", "is_same_as_previous"]))
    if fn == "is_same_as_previous":
        return fn, {"type": str(t)}, {"col": col}
    if fn == "in_range":
        return "elementwise", {"fn": fn, "type": str(t), "lo": v, "hi": draw(in_domain(t))}, {"arguments": col}
    cmp = draw(st.sampled_from(["eq", "ne", "lt", "le", "gt", "ge"]))
    return "elementwise", {"fn": fn, "type": str(t), "cmp": cmp, "value": v}, {"arguments": col}


def _boolean(draw):
    n = draw(st.integers(0, 8))
    fn = draw(st.sampled_from(["and", "or", "not"]))
    if fn == "not":
        return "elementwise", {"fn": fn}, {"arguments": column(draw, BIT, size=n)}
    return "elementwise", {"fn": fn}, {"lhs": column(draw, BIT, size=n), "rhs": column(draw, BIT, size=n)}


def _arith(draw):
    t = draw(simple_types)
    n = draw(st.integers(0, 6))
    fn = draw(st.sampled_from(["add", "sub", "mul"]))
    return "elementwise", {"fn": fn, "type": str(t)}, {"lhs": column(draw, t, size=n), "rhs": column(draw, t, size=n)}


def _scale_clip(draw):
    t = draw(simple_types)
    k = draw(st.one_of(st.integers(1, 5), st.sampled_from([-3, 0, 2.5])))
    fn = draw(st.sampled_from(["scale", "clip_by"]))
    return "elementwise", {"fn": fn, "type": str(t), "k": k}, {"arguments": column(draw, t)}


def _cast(draw):
    src, dst = draw(simple_types), draw(simple_types)
    return "elementwise", {"fn": "cast", "from": str(src), "to": str(dst)}, {"arguments": column(draw, src)}


def _carve(draw):
    w = draw(st.integers(2, 64))
    p = draw(st.integers(1, w - 1))
    return "carve", {"w": w, "p": p}, {"arguments": column(draw, ElementType.unsigned(w))}


def _derivative(draw):
    t = draw(simple_types)
    params = {"type": str(t)}
    if draw(st.booleans()):
        params["out_type"] = str(draw(simple_types))
    return "derivative", params, {"col": column(draw, t, min_size=1)}


def _prefix(draw):
    op = draw(st.sampled_from(["add", "max", "min", "and", "or"]))
    t = BIT if op in ("and", "or") else draw(simple_types)
    params = {"op": op, "type": str(t), "mode": draw(st.sampled_from(["inclusive", "exclusive"]))}
    return "prefix_aggregate", params, {"data": column(draw, t)}


def _iota(draw):
    t = draw(int_types)
    return "iota", {"type": str(t)}, {"n": idx(draw(st.integers(0, 9)))}


def _indices(draw):
    t = draw(any_types)
    if draw(st.booleans()):
        return "length", {"type": str(t)}, {"col": column(draw, t)}
    return "select_indices", {}, {"characteristic": column(draw, BIT)}


CASES = {
    f.__name__.lstrip("_"): f
    for f in [
        _gather,
        _select,
        _replicate,
        _concatenate,
        _scatter,
        _permute,
        _transpose,
        _replicate_segments,
        _split_first,
        _zip,
        _compose,
        _comparison,
        _unary_bit,
        _boolean,
        _arith,
        _scale_clip,
        _cast,
        _carve,
        _derivative,
        _prefix,
        _iota,
        _indices,
    ]
}


@contextlib.contextmanager
def checked_constructor():
    """Every ``Column._trusted`` call in the block builds a checked ``Column``."""
    trusted = Column.__dict__["_trusted"]
    Column._trusted = classmethod(lambda cls, t, values: Column(t, values))
    try:
        yield
    finally:
        Column._trusted = trusted


def shape(v):
    """A value's exact type, component by component."""
    return tuple(map(shape, v)) if type(v) is tuple else type(v)


def outcome(inst, inputs):
    try:
        out = inst.apply(inputs)
    except ColcircError as exc:
        return type(exc), str(exc)
    return {label: (col, tuple(map(shape, col.values))) for label, col in out.items()}


def same(a, b):
    """Equal outcomes, with NaNs at the same places counted equal."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, Column) and isinstance(b, Column):
        return a.element_type == b.element_type and same(a.values, b.values)
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a):
        return math.isnan(b)
    return a == b


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_trusted_output_equals_checked_output(case, data):
    op, params, inputs = CASES[case](data.draw)
    try:
        inst = instantiate(op, params)
    except OperatorError:  # e.g. a cast or derivative the signature rules out
        return
    fast = outcome(inst, inputs)
    with checked_constructor():
        checked = outcome(inst, inputs)
    assert same(fast, checked), (fast, checked)
    if isinstance(fast, dict):
        for col, _ in fast.values():
            vals = col.values
            assert col.element_type.check_values(vals) is vals


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
    built = []
    init = Column.__init__

    def counting(self, t, values):
        built.append(t)
        init(self, t, values)

    monkeypatch.setattr(Column, "__init__", counting)
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
