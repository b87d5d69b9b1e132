import dataclasses
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from qlens import (
    Gate,
    Lens,
    ShapeMismatch,
    SizeGuardExceeded,
    all_basis_tuples,
    build_full_matrix,
    cnot,
    combine,
    combine_all,
    compose_actions,
    error_focused,
    focus_apply,
    focused,
    ghz_circuit,
    hadamard,
    identity,
    identity_focused,
    ket,
    lens_left,
    lens_pair,
    lens_right,
    lens_single,
    parallel_gate,
    random_state,
    reversal_circuit,
    shor_components,
    swap,
)
import qlens.focus as focus_module
from _helpers import dense_product, max_entry, random_gate, reference_run

SEED = 90125


def disjoint_pairs(q, rng):
    """Seeded (a, b) on disjoint supports, both orders, their lenses drawn
    unsorted: unions over every wire and over some, and the unit on either
    side."""
    n = 6 if q == 2 else 4
    pairs = []
    for used in (n, n, n - 1, n - 2, 2):
        wires = [int(w) for w in rng.permutation(n)[:used]]
        p = int(rng.integers(1, used))
        a, b = (focused(Lens(n, part), random_gate(len(part), q, rng))
                for part in (wires[:p], wires[p:]))
        pairs += [(a, b), (b, a)]
    unit, fg = identity_focused(n, q), pairs[0][0]
    return n, pairs + [(unit, fg), (fg, unit)]


def disjoint_families(q, rng):
    """Seeded families of 2-6 focused gates on disjoint supports of 0-3
    wires, their lenses drawn unsorted, the unit among them at times."""
    n = 8 if q == 2 else 5
    families = []
    for _ in range(12):
        wires, items = [int(w) for w in rng.permutation(n)], []
        while wires and len(items) < 6:
            m = int(rng.integers(1, min(3, len(wires)) + 1))
            part, wires = wires[:m], wires[m:]
            items.append(focused(Lens(n, tuple(part)), random_gate(m, q, rng)))
            if rng.random() < 0.2:
                items.append(identity_focused(n, q))
        families.append(items)
    return n, families


def pool(n):
    """H on every wire plus CNOT on every ascending pair."""
    items = [focused(lens_single(n, i), hadamard()) for i in range(n)]
    items += [
        focused(lens_pair(n, i, j), cnot()) for i in range(n) for j in range(i + 1, n)
    ]
    return items


class TestFocusedConstruction:
    def test_sorted_lens_stored_unchanged(self):
        g = cnot()
        fg = focused(Lens(3, (0, 2)), g)
        assert fg.support == (0, 2)
        assert np.array_equal(fg.gate.mat, g.mat)

    def test_unsorted_lens_absorbs_permutation(self):
        lens = Lens(3, (2, 0))
        fg = focused(lens, cnot())
        assert fg.support == (0, 2)
        for v in all_basis_tuples(3):
            direct = focus_apply(lens, cnot(), ket(v))
            assert fg.apply(ket(v)).max_dev(direct) <= 1e-12

    def test_empty_support_unit(self):
        fg = focused(Lens(3, ()), identity(0))
        assert fg.isclose(identity_focused(3))

    def test_unsorted_storage_rejected(self):
        with pytest.raises(ShapeMismatch):
            from qlens import FocusedGate

            FocusedGate(3, Lens(3, (2, 0)), cnot())

    def test_lens_codomain_and_gate_arity_checked(self):
        from qlens import FocusedGate

        with pytest.raises(ShapeMismatch, match="codomain"):
            FocusedGate(3, Lens(2, (0,)), hadamard())
        with pytest.raises(ShapeMismatch, match="gate acts on 2 wires, lens selects 1"):
            FocusedGate(3, Lens(3, (0,)), cnot())

    @pytest.mark.parametrize("field", ["is_err", "gate", "lens"])
    def test_fields_cannot_be_reassigned(self, field):
        # Reassigning is_err would turn the absorbing element into a gate.
        err = error_focused(4)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(err, field, {"is_err": False, "gate": identity(0),
                                 "lens": Lens(4, ())}[field])
        assert err.is_err and err.gate.mat.tolist() == [[0]]

    def test_equality_is_identity(self):
        a, b = identity_focused(3), identity_focused(3)
        assert a == a and a != b and len({a, b}) == 2


class TestFocusedAction:
    def test_unit_is_identity(self):
        rng = np.random.default_rng(SEED)
        s = random_state(3, 2, rng)
        assert identity_focused(3).apply(s).max_dev(s) == 0.0

    def test_error_annihilates(self):
        rng = np.random.default_rng(SEED)
        s = random_state(3, 2, rng)
        assert not error_focused(3).apply(s).amps.any()

    @pytest.mark.parametrize("k", [0, 1])
    def test_cnot_on_leading_pair(self, k):
        fg = focused(Lens(3, (0, 1)), cnot())
        assert fg.apply(ket((1, 0, k))).max_dev(ket((1, 1, k))) == 0.0


class TestCombine:
    def test_disjoint_supports_union(self):
        a = focused(Lens(3, (0, 1)), cnot())
        b = focused(lens_single(3, 2), hadamard())
        both = combine(a, b)
        assert not both.is_err
        assert both.support == (0, 1, 2)
        rng = np.random.default_rng(SEED)
        s = random_state(3, 2, rng)
        want = focus_apply(Lens(3, (0, 1)), cnot(), focus_apply(lens_single(3, 2), hadamard(), s))
        assert both.apply(s).max_dev(want) <= 1e-12

    def test_overlap_is_error(self):
        a = focused(Lens(3, (0, 2)), cnot())
        b = focused(lens_single(3, 2), hadamard())
        assert combine(a, b).is_err

    def test_overlap_past_the_dense_guard_is_error(self):
        # The error element is the flagged zero scalar on no wires, so an
        # overlap on 20 wires needs no 2**20 x 2**20 zero matrix.
        a = focused(Lens(20, (0,)), hadamard())
        err = combine(a, a)
        assert err.is_err and err.support == () and err.gate.mat.shape == (1, 1)

    def test_overlap_allocates_no_ambient_matrix(self):
        a = focused(Lens(10, (0, 1)), cnot())
        b = focused(lens_single(10, 1), hadamard())
        tracemalloc.start()
        try:
            assert combine(a, b).is_err
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # a 2**10 x 2**10 zero matrix is 16 MiB

    def test_error_absorbs(self):
        a = focused(lens_single(3, 1), hadamard())
        assert combine(error_focused(3), a).is_err
        assert combine(a, error_focused(3)).is_err

    def test_unit_laws_exact(self):
        for fg in pool(3):
            assert combine(identity_focused(3), fg).isclose(fg, tol=0.0)
            assert combine(fg, identity_focused(3)).isclose(fg, tol=0.0)

    def test_ambient_mismatch(self):
        with pytest.raises(ShapeMismatch):
            combine(identity_focused(3), identity_focused(4))

    @pytest.mark.parametrize("q", [2, 3])
    def test_matches_focused_side_by_side_gate_and_oracle(self, q):
        # Reference: the side-by-side gate on a.idx + b.idx, its unsorted
        # lens collapsed by focused.
        n, pairs = disjoint_pairs(q, np.random.default_rng(SEED))
        for a, b in pairs:
            got = combine(a, b)
            assert not got.is_err and got.support == tuple(sorted(a.support + b.support))
            joined = Lens(n, a.support + b.support)
            assert got.isclose(focused(joined, parallel_gate(a.gate, b.gate)), tol=1e-12)
            want = dense_product([(a.lens, a.gate), (b.lens, b.gate)], n, q)
            assert max_entry(build_full_matrix(got.lens, got.gate).mat, want) <= 1e-10

    def test_one_pass_per_combine(self, monkeypatch):
        # The stored gate comes from one pass over the identity, sorted
        # joined lens or not, for two operands or a whole family.
        _, pairs = disjoint_pairs(2, np.random.default_rng(SEED))
        n, families = disjoint_families(2, np.random.default_rng(SEED))
        calls = []
        real = focus_module._execute
        monkeypatch.setattr(focus_module, "_execute", lambda *a: calls.append(1) or real(*a))
        for a, b in pairs:
            combine(a, b)
        assert len(calls) == len(pairs)
        for items in families:
            calls.clear()
            combine_all(n, items)
            assert len(calls) == 1

    def test_commutativity_small_pool(self):
        items = pool(3)
        for a in items:
            for b in items:
                assert combine(a, b).isclose(combine(b, a), tol=1e-12)

    def test_associativity_small_pool(self):
        items = pool(3)
        for a in items:
            for b in items:
                ab = combine(a, b)
                for c in items:
                    lhs = combine(ab, c)
                    rhs = combine(a, combine(b, c))
                    assert lhs.isclose(rhs, tol=1e-12)


class TestParallelGate:
    def test_swap_of_independent_wires(self):
        # acting side by side equals acting separately on a product state
        rng = np.random.default_rng(SEED)
        f, g = random_gate(1, 2, rng), random_gate(1, 2, rng)
        pg = parallel_gate(f, g)
        assert pg.wires == 2
        for v in all_basis_tuples(2):
            want = np.kron(f.mat @ ket((v[0],)).amps, g.mat @ ket((v[1],)).amps)
            assert np.max(np.abs(pg.apply(ket(v)).amps - want)) <= 1e-12

    def test_identity_blocks(self):
        pg = parallel_gate(identity(1), identity(2))
        assert np.array_equal(pg.mat, np.eye(8))

    @pytest.mark.parametrize("q", [2, 3])
    def test_columns_match_per_ket_reference_and_oracle(self, q):
        rng = np.random.default_rng(SEED)
        shapes = ((1, 1), (2, 1), (1, 2)) if q == 3 else ((1, 2), (2, 2), (3, 1))
        for p, s in shapes:
            f, g = random_gate(p, q, rng), random_gate(s, q, rng)
            left, right = lens_left(p, s), lens_right(p, s)
            pg = parallel_gate(f, g).mat
            for j, v in enumerate(all_basis_tuples(p + s, q)):
                col = focus_apply(left, f, focus_apply(right, g, ket(v, q))).amps
                assert np.max(np.abs(pg[:, j] - col)) <= 1e-12
                ref = reference_run([(right, g), (left, f)], ket(v, q)).amps
                assert np.max(np.abs(pg[:, j] - ref)) <= 1e-12
            want = dense_product([(right, g), (left, f)], p + s, q)
            assert np.max(np.abs(pg - want)) <= 1e-10

    @pytest.mark.parametrize("left_name,right_name", [
        ("sign_flip_enc", "ghz"), ("reversal", "bit_flip_dec"), ("ghz", "reversal")])
    def test_examples_match_oracle(self, left_name, right_name):
        examples = {"ghz": ghz_circuit(2), "reversal": reversal_circuit(4),
                    **shor_components()}
        f = examples[left_name].to_gate()
        g = examples[right_name].to_gate()
        p, s = f.wires, g.wires
        want = dense_product([(lens_right(p, s), g), (lens_left(p, s), f)], p + s, 2)
        assert np.max(np.abs(parallel_gate(f, g).mat - want)) <= 1e-10

    def test_size_guard(self):
        with pytest.raises(SizeGuardExceeded):
            parallel_gate(identity(8), identity(7))

    def test_alphabet_mismatch(self):
        with pytest.raises(ShapeMismatch, match="alphabet"):
            parallel_gate(hadamard(), identity(1, 3))


class TestCombineAll:
    def test_empty_family_is_unit(self):
        assert combine_all(4, []).isclose(identity_focused(4))

    def test_disjoint_family_support(self):
        items = [
            focused(lens_single(5, 4), hadamard()),
            focused(Lens(5, (1, 0)), cnot()),
            focused(lens_single(5, 3), hadamard()),
        ]
        out = combine_all(5, items)
        assert out.support == (0, 1, 3, 4)
        assert not out.is_err

    def test_overlap_collapses_to_error(self):
        items = [
            focused(lens_single(4, 1), hadamard()),
            focused(Lens(4, (1, 2)), cnot()),
        ]
        assert combine_all(4, items).is_err

    @pytest.mark.parametrize("q", [2, 3])
    def test_matches_pairwise_fold_and_oracle(self, q):
        n, families = disjoint_families(q, np.random.default_rng(SEED))
        for items in families:
            got = combine_all(n, items, q=q)
            fold = reduce(combine, items, identity_focused(n, q))
            assert not got.is_err and got.support == fold.support
            # Every entry is the same product of one entry per operand.
            # For qubits it comes out bit for bit; for qutrits BLAS may
            # round one product differently in blocks of another shape.
            assert got.isclose(fold, tol=0.0 if q == 2 else 1e-15)
            want = dense_product([(fg.lens, fg.gate) for fg in items], n, q)
            assert max_entry(build_full_matrix(got.lens, got.gate).mat, want) <= 1e-10

    def test_unsorted_pairs_bit_identical_to_fold(self):
        # The collapse_small recipe: 2-wire gates on unsorted pairs at n = 8.
        rng = np.random.default_rng(SEED)
        for _ in range(5):
            pairs = rng.permutation(8).reshape(-1, 2)
            items = [focused(Lens(8, tuple(map(int, p))), random_gate(2, 2, rng))
                     for p in pairs]
            got = combine_all(8, items)
            fold = reduce(combine, items, identity_focused(8))
            assert got.gate.mat.tobytes() == fold.gate.mat.tobytes()

    def test_error_and_overlap_rules_of_the_fold(self):
        h = focused(lens_single(4, 1), hadamard())
        cx = focused(Lens(4, (3, 0)), cnot())
        assert combine_all(4, [h, error_focused(4)]).is_err
        assert combine_all(4, [error_focused(4)]).is_err
        assert combine_all(4, [cx, h, focused(lens_single(4, 0), hadamard())]).is_err
        assert combine_all(4, [identity_focused(4), h]).isclose(h, tol=0.0)
        assert combine_all(4, [cx, identity_focused(4)]).isclose(cx, tol=0.0)

    def test_ambient_mismatch_raises_even_past_an_error(self):
        h = focused(lens_single(4, 1), hadamard())
        for bad in (identity_focused(3), identity_focused(4, q=3)):
            with pytest.raises(ShapeMismatch):
                combine_all(4, [h, bad])
            with pytest.raises(ShapeMismatch):
                combine_all(4, [error_focused(4), h, h, bad])
            with pytest.raises(ShapeMismatch):
                reduce(combine, [error_focused(4), h, h, bad], identity_focused(4))
        with pytest.raises(ShapeMismatch):
            combine_all(4, [h], q=3)

    def test_predicate_filters(self):
        items = [
            focused(lens_single(3, 0), hadamard()),
            focused(lens_single(3, 0), hadamard()),
        ]
        out = combine_all(3, items, pred=lambda i: i == 1)
        assert out.support == (0,)
        assert not out.is_err


class TestComposeActions:
    def test_single_action(self):
        fg = focused(lens_single(2, 0), hadamard())
        rng = np.random.default_rng(SEED)
        s = random_state(2, 2, rng)
        assert compose_actions([fg.apply])(s).max_dev(fg.apply(s)) == 0.0

    def test_empty_is_identity(self):
        rng = np.random.default_rng(SEED)
        s = random_state(2, 2, rng)
        assert compose_actions([])(s).max_dev(s) == 0.0

    def test_hadamard_twice_cancels(self):
        fg = focused(lens_single(2, 0), hadamard())
        rng = np.random.default_rng(SEED)
        s = random_state(2, 2, rng)
        out = compose_actions([fg.apply, fg.apply])(s)
        assert out.max_dev(s) <= 1e-10

    def test_highest_index_acts_first(self):
        lower = focused(lens_single(1, 0), Gate([[0, 0], [1, 0]]))
        raiser = focused(lens_single(1, 0), Gate([[0, 1], [0, 0]]))
        out = compose_actions([raiser.apply, lower.apply])(ket((0,)))
        # lower runs first: |0> -> |1>, then raiser: |1> -> |0>
        assert out.amplitude((0,)) == 1.0


class TestReversalViaMonoid:
    def test_swap_family_reverses_basis(self):
        n = 5
        family = [
            focused(lens_pair(n, i, n - 1 - i), swap()) for i in range(n // 2)
        ]
        seq = compose_actions([fg.apply for fg in family])
        par = combine_all(n, family)
        for v in all_basis_tuples(n):
            assert seq(ket(v)).max_dev(ket(v[::-1])) == 0.0
            assert par.apply(ket(v)).max_dev(ket(v[::-1])) <= 1e-12
