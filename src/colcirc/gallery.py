"""Ready-made circuits: the doubling-plus-three example and a Q6-shaped plan.

These exercise the catalog end to end and serve as CLI demo material.
"""

from __future__ import annotations

from .circuit import ColumnarCircuit, in_port, out_port, circuit
from .builder import CircuitBuilder
from .ops import instantiate
from .types import INT

_INT = str(INT)


def double_plus_three(type_name: str = "u32") -> ColumnarCircuit:
    """Scalar 2, Scalar 3, Length, two Replicates, multiply, add.

    Computes ``out[i] = 2*col[i] + 3`` without any scalar broadcast
    shortcuts: the scalars are stretched by Replicate to the input length.
    """
    t = type_name
    vertices = {
        "relay": instantiate("no_op", {"type": t}),
        "two": instantiate("scalar", {"type": t, "value": 2}),
        "three": instantiate("scalar", {"type": t, "value": 3}),
        "len": instantiate("length", {"type": t}),
        "rep_two": instantiate("replicate", {"type": t}),
        "rep_three": instantiate("replicate", {"type": t}),
        "mul": instantiate("elementwise", {"fn": "mul", "type": t}),
        "add": instantiate("elementwise", {"fn": "add", "type": t}),
    }
    edges = {
        (out_port("relay", "result"), in_port("len", "col")),
        (out_port("relay", "result"), in_port("mul", "lhs")),
        (out_port("two", "value"), in_port("rep_two", "value")),
        (out_port("len", "result"), in_port("rep_two", "factor")),
        (out_port("three", "value"), in_port("rep_three", "value")),
        (out_port("len", "result"), in_port("rep_three", "factor")),
        (out_port("rep_two", "replicated"), in_port("mul", "rhs")),
        (out_port("mul", "result"), in_port("add", "lhs")),
        (out_port("rep_three", "replicated"), in_port("add", "rhs")),
    }
    interface = {
        "col": in_port("relay", "arguments"),
        "result": out_port("add", "result"),
    }
    return circuit(vertices, edges, interface)


def q6_circuit(
    date_lo=8766,
    date_hi=9130,
    discount_lo=5,
    discount_hi=7,
    quantity_cap=24,
) -> ColumnarCircuit:
    """A revenue query: three range/threshold filters, select, multiply, sum.

    Inputs (all u64): shipdate (day numbers), discount (integer percent),
    quantity, extended_price (integer cents).  Output ``revenue`` is the
    scalar sum of price*discount over the qualifying rows.  The final
    reduction is an inclusive prefix sum followed by last-element
    extraction.
    """
    b = CircuitBuilder()
    shipdate = b.input("shipdate")
    discount = b.input("discount")
    quantity = b.input("quantity")
    price = b.input("extended_price")

    in_dates = b.ew("in_range", {"type": _INT, "lo": date_lo, "hi": date_hi}, arguments=shipdate)
    in_disc = b.ew("in_range", {"type": _INT, "lo": discount_lo, "hi": discount_hi}, arguments=discount)
    small_qty = b.ew("const_compare", {"type": _INT, "cmp": "lt", "value": quantity_cap}, arguments=quantity)
    both = b.ew("and", {}, lhs=in_dates, rhs=in_disc)
    mask = b.ew("and", {}, lhs=both, rhs=small_qty)

    sel_price = b.add("select", {"type": _INT}, data=price, selection=mask)
    sel_disc = b.add("select", {"type": _INT}, data=discount, selection=mask)
    product = b.ew("mul", {"type": _INT}, lhs=sel_price, rhs=sel_disc)
    b.output("revenue", b.total(_INT, product))
    return b.build()


def q6_reference(shipdate, discount, quantity, price, date_lo=8766, date_hi=9130, discount_lo=5, discount_hi=7, quantity_cap=24) -> int:
    """Brute-force row loop over the same predicate and product."""
    total = 0
    for d, disc, q, p in zip(shipdate, discount, quantity, price):
        if date_lo <= d <= date_hi and discount_lo <= disc <= discount_hi and q < quantity_cap:
            total += p * disc
    return total
