import pytest
from hypothesis import given
import hypothesis.strategies as st

from colcirc import Column, make_column
from colcirc import ops
from colcirc.errors import OperatorError
from colcirc.types import BIT, I8, INT, U8, U16, ElementType

u8 = lambda vals: make_column(U8, vals)
u16 = lambda vals: make_column(U16, vals)
bits = lambda vals: make_column(BIT, vals)
idx = lambda vals: make_column(INT, vals)

small_u16 = st.lists(st.integers(0, 999), max_size=24).map(u16)


class TestElementwise:
    def test_and_or_not(self):
        assert ops.elementwise("and", [bits([1, 0, 1]), bits([1, 1, 0])])[0].values == (1, 0, 0)
        assert ops.elementwise("or", [bits([0, 0]), bits([0, 1])])[0].values == (0, 1)
        assert ops.elementwise("not", [bits([1, 0])])[0].values == (0, 1)

    def test_add(self):
        assert ops.elementwise("add", [u8([1, 2]), u8([10, 20])])[0].values == (11, 22)

    def test_in_range(self):
        out = ops.elementwise("in_range", [u8([5, 9, 2])], lo=3, hi=8)[0]
        assert out.values == (1, 0, 0)

    def test_length_contract(self):
        with pytest.raises(OperatorError, match="length-mismatch"):
            ops.elementwise("add", [u8([1]), u8([1, 2])])

    def test_overflow_checked(self):
        with pytest.raises(OperatorError, match="overflow"):
            ops.elementwise("add", [u8([255]), u8([1])])

    def test_cast_overflow(self):
        with pytest.raises(OperatorError, match="overflow"):
            ops.elementwise("cast", [u16([256])], **{"from": "u16", "to": "u8"})

    def test_cast_sign_extension(self):
        out = ops.elementwise("cast", [make_column(I8, [-3])], **{"from": "i8", "to": "i16"})[0]
        assert out.values == (-3,)

    def test_cast_float_truncates_toward_zero(self):
        f64 = ElementType.float_(64)
        out = ops.elementwise("cast", [Column(f64, [1.9, -1.9])], **{"from": "f64", "to": "i64"})[0]
        assert out.values == (1, -1)

    def test_clip_scale(self):
        assert ops.elementwise("clip_by", [idx([0, 5, 7])], k=3)[0].values == (0, 1, 2)
        assert ops.elementwise("scale", [idx([0, 1, 2])], k=3)[0].values == (0, 3, 6)


class TestSimpleOps:
    def test_replicate(self):
        assert ops.replicate(u8([7]), 3).values == (7, 7, 7)
        assert ops.replicate(u8([9]), 0).values == ()
        assert ops.replicate(u8([97]), 1).values == (97,)
        with pytest.raises(OperatorError, match="non-scalar"):
            ops.replicate(u8([1, 2]), 3)

    def test_select(self):
        col = u8([10, 20, 30])
        assert ops.select(col, bits([1, 0, 1])).values == (10, 30)
        assert ops.select(col, bits([0, 0, 0])).values == ()
        assert ops.select(col, bits([1, 1, 1])) == col

    def test_iota(self):
        assert ops.iota(4).values == (0, 1, 2, 3)
        assert ops.iota(0).values == ()
        assert ops.iota(1).values == (0,)

    def test_permute(self):
        assert ops.permute(idx([1, 2, 0]), u8([5, 6, 7])).values == (7, 5, 6)
        d = u8([4, 5, 6])
        assert ops.permute(ops.iota(3), d) == d
        with pytest.raises(OperatorError, match="not-a-permutation"):
            ops.permute(idx([0, 0, 1]), d)

    def test_length(self):
        assert ops.length_of(u8([1, 2, 3])).scalar() == 3
        assert ops.length_of(u8([])).scalar() == 0
        assert ops.length_of(u8([9])).scalar() == 1

    def test_concatenate(self):
        assert ops.concatenate(u8([1]), u8([2, 3])).values == (1, 2, 3)
        assert ops.concatenate(u8([]), u8([9])).values == (9,)
        assert len(ops.concatenate(u8([1]), u8([2]), u8([3]))) == 3
        with pytest.raises(OperatorError, match="type-mismatch"):
            ops.concatenate(u8([1]), u16([2]))

    def test_scatter(self):
        assert ops.scatter(u8([0, 0, 0]), idx([0, 2]), u8([7, 9])).values == (7, 0, 9)
        col = u8([1, 2])
        assert ops.scatter(col, idx([]), u8([])) == col
        with pytest.raises(OperatorError, match="out-of-range"):
            ops.scatter(u8([1, 2]), idx([5]), u8([9]))
        with pytest.raises(OperatorError, match="duplicate-position"):
            ops.scatter(u8([1, 2]), idx([0, 0]), u8([9, 9]))

    def test_gather(self):
        data = u8([10, 20, 30])
        assert ops.gather(idx([2, 0]), data).values == (30, 10)
        assert ops.gather(ops.iota(3), data) == data
        assert ops.gather(idx([1, 1, 1]), u8([5, 6])).values == (6, 6, 6)

    def test_select_indices(self):
        assert ops.select_indices(bits([1, 0, 1])).values == (0, 2)
        assert ops.select_indices(bits([0, 0])).values == ()
        assert ops.select_indices(bits([0, 1])).values == (1,)


_allocating_calls = pytest.mark.parametrize(
    "call",
    [
        lambda n: ops.replicate(u8([1]), n),
        lambda n: ops.iota(n),
        lambda n: ops.replicate_segments(u8([1, 2]), 1, n),
        lambda n: ops.replicate_within_segments(u8([1, 2]), 1, n),
    ],
    ids=["replicate", "iota", "replicate_segments", "replicate_within_segments"],
)


class TestLengthBeyondAnIndex:
    @_allocating_calls
    def test_operator_error(self, call):
        with pytest.raises(OperatorError, match="too-long"):
            call(2**64 - 1)

    @_allocating_calls
    def test_a_length_the_interpreter_cannot_allocate(self, call):
        # 2**63 - 1 fits an index, but its allocation fails the interpreter's
        # size check (MemoryError) before any memory is taken
        with pytest.raises(OperatorError, match="too-long"):
            call(2**63 - 1)


class TestSegmentedOps:
    def test_transpose_derived(self):
        col = u8(range(6))
        # oracle: enumerate (i, j) positions of the nearly-matrix definition
        out, new_ell = ops.transpose(3, col)
        expect = [col[j * 3 + i] for i in range(3) for j in range(2)]
        assert list(out.values) == expect == [0, 3, 1, 4, 2, 5] and new_ell == 2

    def test_transpose_row_view(self):
        col = u8([4, 5, 6])
        out, new_ell = ops.transpose(1, col)
        assert out == col and new_ell == 3

    def test_transpose_slack_rejected(self):
        with pytest.raises(OperatorError, match="slack"):
            ops.transpose(3, u8(range(7)))

    def test_replicate_segments(self):
        out, ell = ops.replicate_segments(u8([1, 2, 3, 4]), 2, 2)
        assert out.values == (1, 2, 1, 2, 3, 4, 3, 4) and ell == 2
        assert ops.replicate_segments(u8([1, 2]), 2, 1)[0].values == (1, 2)
        assert ops.replicate_segments(u8([1, 2]), 2, 0)[0].values == ()

    def test_replicate_within(self):
        out, ell = ops.replicate_within_segments(u8([1, 2, 3, 4]), 2, 2)
        assert out.values == (1, 1, 2, 2, 3, 3, 4, 4) and ell == 4
        assert ops.replicate_within_segments(u8([1, 2]), 2, 1)[0].values == (1, 2)

    def test_zip_unzip(self):
        z = ops.zip_k(u8([1, 2]), u16([300, 400]))
        assert z.values == ((1, 300), (2, 400))
        assert ops.zip_k(u8([5])).values == ((5,),)
        # inverse: unpack the tuples directly
        assert [v[0] for v in z.values] == [1, 2]

    def test_compose_segments(self):
        assert ops.compose_segments(2, u8([1, 2, 3, 4])).values == ((1, 3), (2, 4))
        assert ops.compose_segments(4, u8([1, 2, 3, 4])).values == ((1,), (2,), (3,), (4,))
        with pytest.raises(OperatorError):
            ops.compose_segments(3, u8([1, 2, 3, 4]))

    def test_assemble(self):
        assert ops.assemble_k(2, u8([1, 2, 3, 4])).values == ((1, 2), (3, 4))
        assert ops.assemble_k(1, u8([7, 8])).values == ((7,), (8,))

    @given(st.lists(st.integers(0, 200), min_size=0, max_size=24).map(u8), st.integers(1, 4))
    def test_assemble_equals_compose_after_transpose(self, col, k):
        if len(col) % k:
            col = u8(list(col.values)[: len(col) - len(col) % k])
        transposed, new_ell = ops.transpose(k, col)
        via = ops.compose_segments(len(col) // k, transposed) if len(col) else ops.assemble_k(k, col)
        assert ops.assemble_k(k, col) == via


class TestAdjacencyOps:
    def test_derivative(self):
        out = ops.derivative(u8([1, 4, 6]))
        assert out.values == (3, 2) and str(out.element_type) == "i16"
        assert ops.derivative(u8([5])).values == ()
        with pytest.raises(OperatorError, match="empty"):
            ops.derivative(u8([]))

    def test_prefix_examples(self):
        assert ops.prefix_aggregate("add", u8([1, 2, 3])).values == (1, 3, 6)
        assert ops.prefix_aggregate("add", u8([1, 2, 3]), "exclusive").values == (0, 1, 3)
        assert ops.prefix_aggregate("max", u8([2, 1, 5])).values == (2, 2, 5)

    def test_prefix_overflow_checked(self):
        with pytest.raises(OperatorError, match="overflow"):
            ops.prefix_aggregate("add", u8([200, 200]))

    def test_is_same_as_previous(self):
        assert ops.is_same_as_previous(u8([7, 7, 8, 8, 8])).values == (0, 1, 0, 1, 1)
        assert ops.is_same_as_previous(u8([])).values == ()
        assert ops.is_same_as_previous(u8([3, 3, 3])).values == (0, 1, 1)

    def test_split_first(self):
        head, tail = ops.split_first(u8([9, 1, 2]))
        assert head == 9 and tail.values == (1, 2)
        head, tail = ops.split_first(u8([5]))
        assert head == 5 and tail.values == ()
        with pytest.raises(OperatorError, match="empty"):
            ops.split_first(u8([]))

    @given(small_u16)
    def test_integration_inverts_differentiation(self, col):
        if len(col) < 2:
            return
        diffs = ops.derivative(col)
        acc = col[0]
        restored = [col[0]]
        for d in diffs.values:
            acc += d
            restored.append(acc)
        assert restored == list(col.values)


class TestCarve:
    def test_bit_split(self):
        pre, suf = ops.carve(8, 3, u8([0b10110101, 0]))
        assert pre.values == (0b101, 0) and suf.values == (0b10101, 0)
        assert str(pre.element_type) == "u3" and str(suf.element_type) == "u5"

    @given(st.lists(st.integers(0, 65535), max_size=20))
    def test_recombination(self, values):
        col = u16(values)
        pre, suf = ops.carve(16, 5, col)
        back = [p * (1 << 11) + s for p, s in zip(pre.values, suf.values)]
        assert back == list(values)


class TestAlgebraicProperties:
    @given(st.data())
    def test_scatter_then_gather(self, data):
        base = data.draw(st.lists(st.integers(0, 99), min_size=1, max_size=16).map(u8))
        k = data.draw(st.integers(0, len(base)))
        pos = idx(data.draw(st.permutations(range(len(base)))).copy()[:k])
        vals = u8(data.draw(st.lists(st.integers(0, 99), min_size=k, max_size=k)))
        assert ops.gather(pos, ops.scatter(base, pos, vals)) == vals

    @given(st.data())
    def test_select_is_gather_of_select_indices(self, data):
        n = data.draw(st.integers(0, 16))
        d = u8(data.draw(st.lists(st.integers(0, 99), min_size=n, max_size=n)))
        chi = bits(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
        assert ops.select(d, chi) == ops.gather(ops.select_indices(chi), d)

    @given(st.data())
    def test_select_split_is_permutation(self, data):
        n = data.draw(st.integers(0, 16))
        d = u8(data.draw(st.lists(st.integers(0, 99), min_size=n, max_size=n)))
        chi = bits(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
        neg = ops.elementwise("not", [chi])[0]
        both = ops.concatenate(ops.select(d, chi), ops.select(d, neg))
        assert sorted(both.values) == sorted(d.values) and len(both) == len(d)

    @given(st.data())
    def test_permute_inverse(self, data):
        n = data.draw(st.integers(0, 12))
        perm = list(data.draw(st.permutations(range(n)))) if n else []
        inv = [0] * n
        for i, p in enumerate(perm):
            inv[p] = i
        d = u8(data.draw(st.lists(st.integers(0, 99), min_size=n, max_size=n)))
        assert ops.permute(idx(inv), ops.permute(idx(perm), d)) == d

    @given(small_u16)
    def test_prefix_of_derivative(self, col):
        if len(col) < 2:
            return
        diffs = ops.derivative(col)  # i32
        sums = ops.prefix_aggregate("add", diffs)
        head = [col[0]] * len(sums)
        restored = [h + s for h, s in zip(head, sums.values)]
        assert restored == list(col.values[1:])


class TestCastTypes:
    @pytest.mark.parametrize("src,dst,value", [("unit", "u8", ()), ("u8", "unit", 1)])
    def test_non_numeric_cast_is_bad_params(self, src, dst, value):
        from colcirc.types import parse_type

        with pytest.raises(OperatorError, match="bad-params"):
            ops.elementwise("cast", [make_column(parse_type(src), [value])], **{"from": src, "to": dst})
