from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlens import (
    ArityMismatch,
    DuplicateIndex,
    IndexOutOfRange,
    Lens,
    NotInLens,
    all_lenses,
    lens_empty,
    lens_id,
    lens_left,
    lens_pair,
    lens_right,
    lens_single,
)


class TestConstruction:
    def test_valid_injection(self):
        lens = Lens(3, (0, 2))
        assert lens.n == 3
        assert lens.m == 2
        assert lens.idx == (0, 2)

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateIndex):
            Lens(3, (0, 0))

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexOutOfRange):
            Lens(2, (2,))

    def test_negative_wire_rejected(self):
        with pytest.raises(IndexOutOfRange):
            Lens(3, (-1,))

    def test_negative_wire_count_rejected(self):
        with pytest.raises(IndexOutOfRange, match="negative wire count"):
            Lens(-1, ())

    def test_empty_codomain(self):
        assert Lens(0, ()).m == 0

    @pytest.mark.parametrize("n, idx", [(3, (0.9,)), (3, (1.0,)), (3, (True,)),
                                        (3, (0, False)), (3, ("1",)), (3.0, (0,)),
                                        (True, (0,)), ("3", ())])
    def test_non_integer_rejected(self, n, idx):
        # int() would read 0.9 as wire 0 and True as wire 1.
        with pytest.raises(IndexOutOfRange):
            Lens(n, idx)

    def test_numpy_integers_accepted_as_ints(self):
        lens = Lens(np.int64(3), (np.int32(2), np.uint8(0)))
        assert lens == Lens(3, (2, 0))
        assert type(lens.n) is int and all(type(i) is int for i in lens.idx)


class TestExtract:
    @pytest.mark.parametrize("t", list(product(range(2), repeat=3)))
    def test_leading_pair(self, t):
        assert Lens(3, (0, 1)).extract(t) == (t[0], t[1])

    def test_skipping_selection(self):
        assert Lens(3, (0, 2)).extract(("a", "b", "c")) == ("a", "c")

    def test_identity_lens(self):
        t = (4, 5, 6)
        assert lens_id(3).extract(t) == t

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            Lens(3, (0, 2)).extract((1, 1))


class TestComplement:
    def test_simple(self):
        assert Lens(3, (0, 2)).complement.idx == (1,)

    @pytest.mark.parametrize("m", range(4))
    def test_single_last_wire(self, m):
        # complement of [m+1] inside m+2 wires selects the leading block
        assert lens_single(m + 2, m + 1).complement.idx == tuple(range(m + 1))

    def test_empty_lens(self):
        assert lens_empty(4).complement.idx == (0, 1, 2, 3)

    def test_always_sorted(self):
        for n in range(5):
            for lens in all_lenses(n):
                assert lens.complement.is_sorted()

    def test_double_complement_of_sorted(self):
        for n in range(5):
            for lens in all_lenses(n):
                if lens.is_sorted():
                    assert lens.complement.complement.idx == lens.idx


class TestMerge:
    @pytest.mark.parametrize("i,j,k", list(product(range(2), repeat=3)))
    def test_pair_with_tail(self, i, j, k):
        assert Lens(3, (0, 1)).merge((i, i ^ j), (k,)) == (i, i ^ j, k)

    def test_get_put_roundtrip(self):
        lens = Lens(4, (3, 1))
        for t in product(range(2), repeat=4):
            v = lens.extract(t)
            c = lens.complement.extract(t)
            assert lens.merge(v, c) == t

    def test_positional_placement(self):
        assert Lens(2, (1,)).merge(("x",), ("y",)) == ("y", "x")

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            Lens(3, (0, 1)).merge((1,), (0,))


class TestCompose:
    def test_index_of_index(self):
        assert Lens(3, (0, 2)).compose(Lens(2, (1,))).idx == (2,)

    def test_identity_left(self):
        lens = Lens(4, (2, 0, 3))
        assert lens_id(4).compose(lens).idx == lens.idx

    def test_identity_right(self):
        lens = Lens(4, (2, 0, 3))
        assert lens.compose(lens_id(3)).idx == lens.idx

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            Lens(3, (0, 2)).compose(Lens(3, (1,)))

    def test_result_equals_a_validated_lens(self):
        got = Lens(5, (4, 0, 2, 1)).compose(Lens(4, (2, 0, 3)))
        assert got == Lens(5, (2, 4, 1))
        assert got.complement == Lens(5, (0, 3))

    def test_outside_indices_still_validated(self):
        # compose and complement skip validation; the constructor does not.
        with pytest.raises(DuplicateIndex):
            Lens(3, (0, 0))
        with pytest.raises(IndexOutOfRange):
            Lens(3, (3,))


class TestFactorize:
    def test_swapped_pair(self):
        basis, perm = Lens(3, (2, 0)).factorize()
        assert basis.idx == (0, 2)
        assert perm.idx == (1, 0)

    def test_sorted_is_fixed(self):
        lens = Lens(5, (1, 3, 4))
        basis, perm = lens.factorize()
        assert basis.idx == lens.idx
        assert perm.idx == (0, 1, 2)

    def test_three_cycle(self):
        # expected values confirmed by composing the factors back together
        lens = Lens(3, (1, 2, 0))
        basis, perm = lens.factorize()
        assert basis.idx == (0, 1, 2)
        assert perm.idx == (1, 2, 0)
        assert basis.compose(perm).idx == lens.idx


class TestMembership:
    def test_position(self):
        lens = Lens(3, (0, 2))
        assert lens.position(2) == 1
        assert lens.position(0) == 0

    def test_position_missing(self):
        with pytest.raises(NotInLens):
            Lens(3, (0, 2)).position(1)

    def test_contains(self):
        lens = Lens(3, (0, 2))
        assert lens.contains(2)
        assert not lens.contains(1)

    def test_contains_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            Lens(3, (0, 2)).contains(3)

    def test_complement_flips_membership(self):
        for n in range(5):
            for lens in all_lenses(n):
                comp = lens.complement
                for i in range(n):
                    assert comp.contains(i) == (not lens.contains(i))


class TestDisjoint:
    def test_far_apart(self):
        assert Lens(9, (0, 1)).disjoint(Lens(9, (3, 4)))

    def test_overlap(self):
        assert not Lens(3, (0, 2)).disjoint(Lens(3, (2,)))

    def test_complement_is_disjoint(self):
        for n in range(5):
            for lens in all_lenses(n):
                assert lens.disjoint(lens.complement)

    def test_codomain_mismatch(self):
        with pytest.raises(ArityMismatch):
            Lens(3, (0,)).disjoint(Lens(4, (1,)))


class TestSpecialLenses:
    @pytest.mark.parametrize("m", range(3))
    def test_adjacent_pair(self, m):
        assert lens_pair(m + 2, m, m + 1).idx == (m, m + 1)

    def test_left_right_split(self):
        assert lens_left(2, 3).idx == (0, 1)
        assert lens_left(2, 3).n == 5
        assert lens_right(2, 3).idx == (2, 3, 4)
        assert lens_right(2, 3).n == 5

    def test_equal_pair_rejected(self):
        # A pair is a lens: a repeated wire is refused as in any lens.
        with pytest.raises(DuplicateIndex):
            lens_pair(3, 1, 1)

    def test_pair_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            lens_pair(2, 0, 2)

    def test_empty_and_id(self):
        assert lens_empty(3).idx == ()
        assert lens_id(3).idx == (0, 1, 2)

    def test_single(self):
        assert lens_single(4, 2).idx == (2,)


@st.composite
def lens_and_tuple(draw):
    n = draw(st.integers(min_value=0, max_value=6))
    q = draw(st.integers(min_value=1, max_value=3))
    order = draw(st.permutations(list(range(n))))
    m = draw(st.integers(min_value=0, max_value=n))
    lens = Lens(n, tuple(order[:m]))
    t = tuple(draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n)))
    return lens, t


@settings(max_examples=200, deadline=None)
@given(lens_and_tuple())
def test_get_put_property(case):
    lens, t = case
    v = lens.extract(t)
    c = lens.complement.extract(t)
    assert lens.merge(v, c) == t
    assert lens.extract(lens.merge(v, c)) == v
    assert lens.complement.extract(lens.merge(v, c)) == c
