import itertools

import pytest
from hypothesis import given
import hypothesis.strategies as st

from colcirc import Column, make_column
from colcirc.column import _range_of
from colcirc.errors import OperatorError
from colcirc.types import BIT, I8, INT, U8, U16, ElementType
from paths import call

u8 = lambda vals: make_column(U8, vals)
u16 = lambda vals: make_column(U16, vals)
bits = lambda vals: make_column(BIT, vals)
idx = lambda vals: make_column(INT, vals)

small_u16 = st.lists(st.integers(0, 999), max_size=24).map(u16)


class TestElementwise:
    def test_and_or_not(self):
        out = call("elementwise", {"fn": "and"}, lhs=bits([1, 0, 1]), rhs=bits([1, 1, 0]))
        assert out["result"].values == (1, 0, 0)
        assert call("elementwise", {"fn": "or"}, lhs=bits([0, 0]), rhs=bits([0, 1]))["result"].values == (0, 1)
        assert call("elementwise", {"fn": "not"}, arguments=bits([1, 0]))["result"].values == (0, 1)

    def test_add(self):
        out = call("elementwise", {"fn": "add", "type": "u8"}, lhs=u8([1, 2]), rhs=u8([10, 20]))["result"]
        assert out.values == (11, 22)

    def test_in_range(self):
        out = call("elementwise", {"fn": "in_range", "type": "u8", "lo": 3, "hi": 8}, arguments=u8([5, 9, 2]))
        assert out["result"].values == (1, 0, 0)

    def test_length_contract(self):
        with pytest.raises(OperatorError, match="length-mismatch"):
            call("elementwise", {"fn": "add", "type": "u8"}, lhs=u8([1]), rhs=u8([1, 2]))

    def test_overflow_checked(self):
        with pytest.raises(OperatorError, match="overflow"):
            call("elementwise", {"fn": "add", "type": "u8"}, lhs=u8([255]), rhs=u8([1]))

    def test_cast_overflow(self):
        with pytest.raises(OperatorError, match="overflow"):
            call("elementwise", {"fn": "cast", "from": "u16", "to": "u8"}, arguments=u16([256]))

    def test_cast_sign_extension(self):
        out = call("elementwise", {"fn": "cast", "from": "i8", "to": "i16"}, arguments=make_column(I8, [-3]))
        assert out["result"].values == (-3,)

    def test_cast_float_truncates_toward_zero(self):
        f64 = ElementType.float_(64)
        out = call("elementwise", {"fn": "cast", "from": "f64", "to": "i64"}, arguments=Column(f64, [1.9, -1.9]))
        assert out["result"].values == (1, -1)

    def test_clip_scale(self):
        clipped = call("elementwise", {"fn": "clip_by", "type": "u64", "k": 3}, arguments=idx([0, 5, 7]))
        assert clipped["result"].values == (0, 1, 2)
        scaled = call("elementwise", {"fn": "scale", "type": "u64", "k": 3}, arguments=idx([0, 1, 2]))
        assert scaled["result"].values == (0, 3, 6)


class TestSimpleOps:
    def test_replicate(self):
        assert call("replicate", {"type": "u8"}, value=u8([7]), factor=idx([3]))["replicated"].values == (7, 7, 7)
        assert call("replicate", {"type": "u8"}, value=u8([9]), factor=idx([0]))["replicated"].values == ()
        assert call("replicate", {"type": "u8"}, value=u8([97]), factor=idx([1]))["replicated"].values == (97,)
        with pytest.raises(OperatorError, match="non-scalar"):
            call("replicate", {"type": "u8"}, value=u8([1, 2]), factor=idx([3]))

    def test_select(self):
        col = u8([10, 20, 30])
        assert call("select", {"type": "u8"}, data=col, selection=bits([1, 0, 1]))["selected"].values == (10, 30)
        assert call("select", {"type": "u8"}, data=col, selection=bits([0, 0, 0]))["selected"].values == ()
        assert call("select", {"type": "u8"}, data=col, selection=bits([1, 1, 1]))["selected"] == col

    def test_iota(self):
        assert call("iota", {}, n=idx([4]))["result"].values == (0, 1, 2, 3)
        assert call("iota", {}, n=idx([0]))["result"].values == ()
        assert call("iota", {}, n=idx([1]))["result"].values == (0,)

    def test_permute(self):
        out = call("permute", {"type": "u8"}, permutation=idx([1, 2, 0]), data=u8([5, 6, 7]))
        assert out["permuted"].values == (7, 5, 6)
        d = u8([4, 5, 6])
        identity = call("iota", {}, n=idx([3]))["result"]
        assert call("permute", {"type": "u8"}, permutation=identity, data=d)["permuted"] == d
        with pytest.raises(OperatorError, match="not-a-permutation"):
            call("permute", {"type": "u8"}, permutation=idx([0, 0, 1]), data=d)

    def test_length(self):
        assert call("length", {"type": "u8"}, col=u8([1, 2, 3]))["result"].scalar() == 3
        assert call("length", {"type": "u8"}, col=u8([]))["result"].scalar() == 0
        assert call("length", {"type": "u8"}, col=u8([9]))["result"].scalar() == 1

    def test_concatenate(self):
        assert call("concatenate", {"type": "u8"}, col_1=u8([1]), col_2=u8([2, 3]))["result"].values == (1, 2, 3)
        assert call("concatenate", {"type": "u8"}, col_1=u8([]), col_2=u8([9]))["result"].values == (9,)
        three = call("concatenate", {"type": "u8", "k": 3}, col_1=u8([1]), col_2=u8([2]), col_3=u8([3]))
        assert len(three["result"]) == 3

    def test_scatter(self):
        out = call("scatter", {"type": "u8"}, col=u8([0, 0, 0]), pos=idx([0, 2]), data=u8([7, 9]))
        assert out["result"].values == (7, 0, 9)
        col = u8([1, 2])
        assert call("scatter", {"type": "u8"}, col=col, pos=idx([]), data=u8([]))["result"] == col
        with pytest.raises(OperatorError, match="out-of-range"):
            call("scatter", {"type": "u8"}, col=u8([1, 2]), pos=idx([5]), data=u8([9]))
        with pytest.raises(OperatorError, match="duplicate-position"):
            call("scatter", {"type": "u8"}, col=u8([1, 2]), pos=idx([0, 0]), data=u8([9, 9]))

    def test_gather(self):
        data = u8([10, 20, 30])
        assert call("gather", {"type": "u8"}, pos=idx([2, 0]), data=data)["result"].values == (30, 10)
        identity = call("iota", {}, n=idx([3]))["result"]
        assert call("gather", {"type": "u8"}, pos=identity, data=data)["result"] == data
        assert call("gather", {"type": "u8"}, pos=idx([1, 1, 1]), data=u8([5, 6]))["result"].values == (6, 6, 6)

    def test_select_indices(self):
        assert call("select_indices", {}, characteristic=bits([1, 0, 1]))["indices"].values == (0, 2)
        assert call("select_indices", {}, characteristic=bits([0, 0]))["indices"].values == ()
        assert call("select_indices", {}, characteristic=bits([0, 1]))["indices"].values == (1,)


_allocating_calls = pytest.mark.parametrize(
    "allocate",
    [
        lambda n: call("replicate", {"type": "u8"}, value=u8([1]), factor=idx([n])),
        lambda n: call("iota", {}, n=idx([n])),
        lambda n: call("replicate_segments", {"type": "u8"}, col=u8([1, 2]), segment_length=idx([1]), factor=idx([n])),
        lambda n: call(
            "replicate_within_segments", {"type": "u8"}, col=u8([1, 2]), segment_length=idx([1]), factor=idx([n])
        ),
        lambda n: call("spread", {"type": "u8", "segment_length": 2**64}, values=u8([1]), n=idx([n])),
    ],
    ids=["replicate", "iota", "replicate_segments", "replicate_within_segments", "spread"],
)


class TestLengthBeyondAnIndex:
    @_allocating_calls
    def test_operator_error(self, allocate):
        with pytest.raises(OperatorError, match="too-long"):
            allocate(2**64 - 1)

    @_allocating_calls
    def test_a_length_the_interpreter_cannot_allocate(self, allocate):
        # 2**63 - 1 fits an index, but its allocation fails the interpreter's
        # size check (MemoryError) before any memory is taken
        with pytest.raises(OperatorError, match="too-long"):
            allocate(2**63 - 1)


class TestSegmentedOps:
    def test_transpose_derived(self):
        col = u8(range(6))
        # oracle: enumerate (i, j) positions of the nearly-matrix definition
        out = call("transpose", {"type": "u8"}, segment_length=idx([3]), col=col)
        expect = [col[j * 3 + i] for i in range(3) for j in range(2)]
        assert list(out["transposed"].values) == expect == [0, 3, 1, 4, 2, 5]
        assert out["transposed_segment_length"].scalar() == 2

    def test_transpose_row_view(self):
        col = u8([4, 5, 6])
        out = call("transpose", {"type": "u8"}, segment_length=idx([1]), col=col)
        assert out["transposed"] == col and out["transposed_segment_length"].scalar() == 3

    def test_transpose_slack_rejected(self):
        with pytest.raises(OperatorError, match="slack"):
            call("transpose", {"type": "u8"}, segment_length=idx([3]), col=u8(range(7)))

    def test_replicate_segments(self):
        out = call("replicate_segments", {"type": "u8"}, col=u8([1, 2, 3, 4]), segment_length=idx([2]), factor=idx([2]))
        assert out["replicated"].values == (1, 2, 1, 2, 3, 4, 3, 4) and out["out_segment_length"].scalar() == 2
        once = call("replicate_segments", {"type": "u8"}, col=u8([1, 2]), segment_length=idx([2]), factor=idx([1]))
        assert once["replicated"].values == (1, 2)
        never = call("replicate_segments", {"type": "u8"}, col=u8([1, 2]), segment_length=idx([2]), factor=idx([0]))
        assert never["replicated"].values == ()

    def test_replicate_within(self):
        params = {"type": "u8"}
        out = call("replicate_within_segments", params, col=u8([1, 2, 3, 4]), segment_length=idx([2]), factor=idx([2]))
        assert out["replicated"].values == (1, 1, 2, 2, 3, 3, 4, 4) and out["out_segment_length"].scalar() == 4
        once = call("replicate_within_segments", params, col=u8([1, 2]), segment_length=idx([2]), factor=idx([1]))
        assert once["replicated"].values == (1, 2)

    def test_zip_unzip(self):
        z = call("zip", {"types": ["u8", "u16"]}, component_1=u8([1, 2]), component_2=u16([300, 400]))["zipped"]
        assert z.values == ((1, 300), (2, 400))
        assert call("zip", {"types": ["u8"]}, component_1=u8([5]))["zipped"].values == ((5,),)
        # inverse: unpack the tuples directly
        assert [v[0] for v in z.values] == [1, 2]

    def test_compose_segments(self):
        two = call("compose_segments", {"type": "u8", "k": 2}, segment_length=idx([2]), components=u8([1, 2, 3, 4]))
        assert two["composed"].values == ((1, 3), (2, 4))
        one = call("compose_segments", {"type": "u8", "k": 1}, segment_length=idx([4]), components=u8([1, 2, 3, 4]))
        assert one["composed"].values == ((1,), (2,), (3,), (4,))
        with pytest.raises(OperatorError, match="length-mismatch"):
            call("compose_segments", {"type": "u8", "k": 2}, segment_length=idx([3]), components=u8([1, 2, 3, 4]))

    def test_assemble(self):
        pairs = call("assemble", {"type": "u8", "k": 2}, segment_length=idx([2]), components=u8([1, 2, 3, 4]))
        assert pairs["composed"].values == ((1, 2), (3, 4))
        singles = call("assemble", {"type": "u8", "k": 1}, segment_length=idx([1]), components=u8([7, 8]))
        assert singles["composed"].values == ((7,), (8,))

    @given(st.lists(st.integers(0, 200), min_size=0, max_size=24).map(u8), st.integers(1, 4))
    def test_assemble_equals_compose_after_transpose(self, col, k):
        if len(col) % k:
            col = u8(list(col.values)[: len(col) - len(col) % k])
        transposed = call("transpose", {"type": "u8"}, segment_length=idx([k]), col=col)["transposed"]
        params = {"type": "u8", "k": k}
        via = call("compose_segments", params, segment_length=idx([len(col) // k]), components=transposed)
        assert call("assemble", params, segment_length=idx([k]), components=col) == via


def spread(values, n, ell=3):
    return call("spread", {"type": str(values.element_type), "segment_length": ell}, values=values, n=idx([n]))["spread"]


class TestSpread:
    """``out[i] = values[i // ell]`` for ``i < n``."""

    def test_no_positions(self):
        assert spread(u8([]), 0).values == ()
        assert spread(u8([4, 5]), 0).values == ()

    def test_a_shorter_last_segment(self):
        assert spread(u8([1, 2, 3]), 7).values == (1, 1, 1, 2, 2, 2, 3)
        assert spread(u8([1, 2, 3]), 9).values == (1, 1, 1, 2, 2, 2, 3, 3, 3)

    def test_one_value_short_is_out_of_range(self):
        with pytest.raises(OperatorError, match="out-of-range"):
            spread(u8([1, 2]), 7)
        with pytest.raises(OperatorError, match="out-of-range"):
            spread(u8([]), 1)

    def test_extra_values_are_ignored(self):
        assert spread(u8([1, 2, 3, 4]), 4).values == (1, 1, 1, 2)

    def test_a_segment_longer_than_the_column(self):
        assert spread(u8([9, 8]), 2, ell=5).values == (9, 9)
        assert spread(u8([9]), 2, ell=2**70).values == (9, 9)

    def test_a_long_spread_hands_its_values_range_on(self):
        values = u16(range(100, 140))  # the checked constructor records (100, 139)
        out = spread(values, 2 * len(values) - 1, ell=2)
        assert out.values == tuple(v for v in range(100, 140) for _ in range(2))[:-1]
        assert _range_of(values) == _range_of(out) == (100, 139)
        short = u16([7, 3, 5])  # too short to record a range: read once, and kept
        assert _range_of(spread(short, 32, ell=11)) == _range_of(short) == (3, 7)
        assert _range_of(spread(short, 31, ell=11)) is None  # a short output keeps none

    def test_is_gather_at_position_segments(self):
        values = u16([5, 6, 7, 8])
        for ell, n in itertools.product((1, 2, 3, 4), range(13)):
            if -(-n // ell) <= len(values):
                pos = idx([i // ell for i in range(n)])
                assert spread(values, n, ell) == call("gather", {"type": "u16"}, pos=pos, data=values)["result"]


class TestAdjacencyOps:
    def test_derivative(self):
        out = call("derivative", {"type": "u8"}, col=u8([1, 4, 6]))["differences"]
        assert out.values == (3, 2) and str(out.element_type) == "i16"
        assert call("derivative", {"type": "u8"}, col=u8([5]))["differences"].values == ()
        with pytest.raises(OperatorError, match="empty"):
            call("derivative", {"type": "u8"}, col=u8([]))

    def test_prefix_examples(self):
        add = {"op": "add", "type": "u8"}
        assert call("prefix_aggregate", add, data=u8([1, 2, 3]))["aggregates"].values == (1, 3, 6)
        exclusive = call("prefix_aggregate", {**add, "mode": "exclusive"}, data=u8([1, 2, 3]))
        assert exclusive["aggregates"].values == (0, 1, 3)
        running_max = call("prefix_aggregate", {"op": "max", "type": "u8"}, data=u8([2, 1, 5]))
        assert running_max["aggregates"].values == (2, 2, 5)

    def test_prefix_overflow_checked(self):
        with pytest.raises(OperatorError, match="overflow"):
            call("prefix_aggregate", {"op": "add", "type": "u8"}, data=u8([200, 200]))

    def test_is_same_as_previous(self):
        same = lambda col: call("is_same_as_previous", {"type": "u8"}, col=col)["result"].values
        assert same(u8([7, 7, 8, 8, 8])) == (0, 1, 0, 1, 1)
        assert same(u8([])) == ()
        assert same(u8([3, 3, 3])) == (0, 1, 1)

    def test_split_first(self):
        out = call("split_first", {"type": "u8"}, col=u8([9, 1, 2]))
        assert out["head"].scalar() == 9 and out["tail"].values == (1, 2)
        out = call("split_first", {"type": "u8"}, col=u8([5]))
        assert out["head"].scalar() == 5 and out["tail"].values == ()
        with pytest.raises(OperatorError, match="empty"):
            call("split_first", {"type": "u8"}, col=u8([]))

    @given(small_u16)
    def test_integration_inverts_differentiation(self, col):
        if len(col) < 2:
            return
        diffs = call("derivative", {"type": "u16"}, col=col)["differences"]
        acc = col[0]
        restored = [col[0]]
        for d in diffs.values:
            acc += d
            restored.append(acc)
        assert restored == list(col.values)


class TestCarve:
    def test_bit_split(self):
        out = call("carve", {"w": 8, "p": 3}, arguments=u8([0b10110101, 0]))
        pre, suf = out["prefixes"], out["suffixes"]
        assert pre.values == (0b101, 0) and suf.values == (0b10101, 0)
        assert str(pre.element_type) == "u3" and str(suf.element_type) == "u5"

    @given(st.lists(st.integers(0, 65535), max_size=20))
    def test_recombination(self, values):
        out = call("carve", {"w": 16, "p": 5}, arguments=u16(values))
        back = [p * (1 << 11) + s for p, s in zip(out["prefixes"].values, out["suffixes"].values)]
        assert back == list(values)


class TestAlgebraicProperties:
    @given(st.data())
    def test_scatter_then_gather(self, data):
        base = data.draw(st.lists(st.integers(0, 99), min_size=1, max_size=16).map(u8))
        k = data.draw(st.integers(0, len(base)))
        pos = idx(data.draw(st.permutations(range(len(base)))).copy()[:k])
        vals = u8(data.draw(st.lists(st.integers(0, 99), min_size=k, max_size=k)))
        scattered = call("scatter", {"type": "u8"}, col=base, pos=pos, data=vals)["result"]
        assert call("gather", {"type": "u8"}, pos=pos, data=scattered)["result"] == vals

    @given(st.data())
    def test_select_is_gather_of_select_indices(self, data):
        n = data.draw(st.integers(0, 16))
        d = u8(data.draw(st.lists(st.integers(0, 99), min_size=n, max_size=n)))
        chi = bits(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
        indices = call("select_indices", {}, characteristic=chi)["indices"]
        selected = call("select", {"type": "u8"}, data=d, selection=chi)["selected"]
        assert selected == call("gather", {"type": "u8"}, pos=indices, data=d)["result"]

    @given(st.data())
    def test_select_split_is_permutation(self, data):
        n = data.draw(st.integers(0, 16))
        d = u8(data.draw(st.lists(st.integers(0, 99), min_size=n, max_size=n)))
        chi = bits(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
        neg = call("elementwise", {"fn": "not"}, arguments=chi)["result"]
        kept = call("select", {"type": "u8"}, data=d, selection=chi)["selected"]
        dropped = call("select", {"type": "u8"}, data=d, selection=neg)["selected"]
        both = call("concatenate", {"type": "u8"}, col_1=kept, col_2=dropped)["result"]
        assert sorted(both.values) == sorted(d.values) and len(both) == len(d)

    @given(st.data())
    def test_permute_inverse(self, data):
        n = data.draw(st.integers(0, 12))
        perm = list(data.draw(st.permutations(range(n)))) if n else []
        inv = [0] * n
        for i, p in enumerate(perm):
            inv[p] = i
        d = u8(data.draw(st.lists(st.integers(0, 99), min_size=n, max_size=n)))
        permuted = call("permute", {"type": "u8"}, permutation=idx(perm), data=d)["permuted"]
        assert call("permute", {"type": "u8"}, permutation=idx(inv), data=permuted)["permuted"] == d

    @given(small_u16)
    def test_prefix_of_derivative(self, col):
        if len(col) < 2:
            return
        diffs = call("derivative", {"type": "u16"}, col=col)["differences"]  # i32
        sums = call("prefix_aggregate", {"op": "add", "type": "i32"}, data=diffs)["aggregates"]
        head = [col[0]] * len(sums)
        restored = [h + s for h, s in zip(head, sums.values)]
        assert restored == list(col.values[1:])


class TestCastTypes:
    @pytest.mark.parametrize("src,dst,value", [("unit", "u8", ()), ("u8", "unit", 1)])
    def test_non_numeric_cast_is_bad_params(self, src, dst, value):
        from colcirc.types import parse_type

        with pytest.raises(OperatorError, match="bad-params"):
            call("elementwise", {"fn": "cast", "from": src, "to": dst}, arguments=make_column(parse_type(src), [value]))
