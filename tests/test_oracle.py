import math
from itertools import permutations

import numpy as np
import pytest

from qlens import (
    Gate,
    IndexOutOfRange,
    InvalidPermutation,
    Lens,
    ShapeMismatch,
    SizeGuardExceeded,
    all_basis_tuples,
    all_lenses,
    assert_equiv,
    build_full_matrix,
    cnot,
    focus_apply,
    hadamard,
    identity,
    ket,
    lens_id,
    null,
    perm_matrix,
    random_state,
    random_unitary,
    swap,
    toffoli,
    tuple_to_index,
)
import qlens.gates as gates_module
from qlens.oracle import inverse_permutation
from _helpers import max_entry, random_gate, random_lens

SEED = 7321

BUILTINS = {0: [identity(0), null(0)], 1: [hadamard(), identity(1), null(1)],
            2: [cnot(), swap(), identity(2)], 3: [toffoli()], 4: [identity(4)]}


def is_oracle_gate(op, n: int, q: int) -> bool:
    """A square Gate on all n wires whose matrix nobody can write."""
    return (isinstance(op, Gate) and op.wires == n and op.q == q
            and not op.mat.flags.writeable)


def dense_by_merge(lens: Lens, gate: Gate) -> np.ndarray:
    """The focused gate's matrix entry by entry from the lens laws: column
    merge(b, c) holds column b of the gate at the rows merge(a, c)."""
    n, m, q = lens.n, lens.m, gate.q
    pos = np.array([[tuple_to_index(lens.merge(u, c), q) for c in all_basis_tuples(n - m, q)]
                    for u in all_basis_tuples(m, q)])
    want = np.zeros((q**n, q**n), dtype=complex)
    want[pos[:, None, :], pos[None, :, :]] = gate.mat[:, :, None]
    return want


class TestKron:
    """np.kron, as build_full_matrix pads a gate with it: the left factor
    acts on the more significant wires."""

    def test_identity_factors(self):
        assert np.array_equal(np.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_hadamard_padded_on_ground_state(self):
        # (H ⊗ I)|00> = (|00> + |10>)/sqrt(2); multiply the 4x4 out by hand
        out = np.kron(hadamard().mat, np.eye(2)) @ ket((0, 0)).amps
        want = np.zeros(4, dtype=complex)
        want[0] = want[2] = math.sqrt(0.5)
        assert np.array_equal(out, want)

    def test_trivial_factor(self):
        rng = np.random.default_rng(SEED)
        a = rng.standard_normal((4, 4))
        assert np.array_equal(np.kron(a, np.eye(1)), a)

    def test_left_factor_is_most_significant(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        out = np.kron(x, np.eye(2)) @ ket((0, 1)).amps
        assert np.array_equal(out, ket((1, 1)).amps)


class TestPermMatrix:
    def test_identity(self):
        assert np.array_equal(perm_matrix(3, (0, 1, 2)).mat, np.eye(8))

    def test_transposition_is_swap(self):
        assert np.array_equal(perm_matrix(2, (1, 0)).mat, swap().mat)

    def test_entry_repositioning(self):
        # perm (0,3,2,1) moves the symbol at input slot perm[j] to output slot j
        op = perm_matrix(4, (0, 3, 2, 1))
        for t in all_basis_tuples(4):
            out = op.apply(ket(t))
            want = (t[0], t[3], t[2], t[1])
            assert np.array_equal(out.amps, ket(want).amps)

    def test_inverse_cancels(self):
        rng = np.random.default_rng(SEED)
        for n in (2, 3, 4):
            perm = tuple(int(i) for i in rng.permutation(n))
            forward = perm_matrix(n, perm).mat
            back = perm_matrix(n, inverse_permutation(perm)).mat
            assert np.array_equal(back @ forward, np.eye(2**n))

    def test_unitary_with_unit_entries(self):
        op = perm_matrix(3, (2, 0, 1))
        assert np.array_equal(op.mat.conj().T @ op.mat, np.eye(8))
        assert set(np.unique(op.mat)) <= {0, 1}

    @pytest.mark.parametrize("perm", [(0, 0, 1), (0, 2), (1, 2, 3)])
    def test_invalid_permutations(self, perm):
        with pytest.raises(InvalidPermutation):
            perm_matrix(len(perm), perm)

    @pytest.mark.parametrize("q", [2, 3])
    def test_every_permutation_is_an_exact_gate(self, q):
        for n in range(5):
            for perm in permutations(range(n)):
                op = perm_matrix(n, perm, q)
                want = np.zeros((q**n, q**n))
                for t in all_basis_tuples(n, q):
                    want[tuple_to_index([t[p] for p in perm], q), tuple_to_index(t, q)] = 1
                assert is_oracle_gate(op, n, q) and np.array_equal(op.mat, want)

    def test_negative_size_refused(self):
        with pytest.raises(IndexOutOfRange, match="negative wire count"):
            perm_matrix(-1, [])

    def test_qutrit_permutation(self):
        op = perm_matrix(2, (1, 0), q=3)
        for t in all_basis_tuples(2, 3):
            assert np.array_equal(op.apply(ket(t, q=3)).amps, ket(t[::-1], q=3).amps)


class TestBuildFullMatrix:
    def test_identity_lens_returns_gate(self):
        rng = np.random.default_rng(SEED)
        g = random_gate(2, 2, rng)
        dense = build_full_matrix(lens_id(2), g)
        assert max_entry(dense.mat, g.mat) <= 1e-15

    def test_cnot_with_far_target(self):
        # lens [0,3] in 4 wires: control wire 0, target wire 3, wires 1,2 idle
        dense = build_full_matrix(Lens(4, (0, 3)), cnot())
        for t in all_basis_tuples(4):
            out = dense.apply(ket(t))
            want = (t[0], t[1], t[2], t[3] ^ t[0])
            assert np.array_equal(out.amps, ket(want).amps)

    def test_permutation_conjugated_cnot(self):
        # build both routes for lens [0,2] in 3 wires and compare column-wise
        lens = Lens(3, (0, 2))
        dense = build_full_matrix(lens, cnot())
        for j, v in enumerate(all_basis_tuples(3)):
            col = focus_apply(lens, cnot(), ket(v)).amps
            assert max_entry(dense.mat[:, j], col) <= 1e-12

    def test_columns_reconstruct_focus(self):
        rng = np.random.default_rng(SEED)
        for _ in range(10):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, min(3, n) + 1))
            lens = random_lens(n, m, rng)
            g = random_gate(m, 2, rng)
            dense = build_full_matrix(lens, g)
            for j, v in enumerate(all_basis_tuples(n)):
                col = focus_apply(lens, g, ket(v)).amps
                assert max_entry(dense.mat[:, j], col) <= 1e-12

    @pytest.mark.parametrize("q", [2, 3])
    def test_every_lens_is_an_exact_gate(self, q):
        # Kron padding and 0/1 conjugation only move entries, so each one is
        # exactly the gate's entry that the lens laws put there.
        rng = np.random.default_rng(SEED)
        for n in range(5):
            for lens in all_lenses(n):
                gates = BUILTINS[lens.m] if q == 2 else [identity(lens.m, q), null(lens.m, q)]
                for g in gates + [random_gate(lens.m, q, rng)]:
                    dense = build_full_matrix(lens, g)
                    assert is_oracle_gate(dense, n, q)
                    assert np.array_equal(dense.mat, dense_by_merge(lens, g))

    def test_size_guard(self):
        with pytest.raises(SizeGuardExceeded):
            build_full_matrix(Lens(15, (0,)), hadamard())
        with pytest.raises(SizeGuardExceeded):
            perm_matrix(15, tuple(range(15)))

    def test_guard_is_configurable(self, monkeypatch):
        monkeypatch.setattr(gates_module, "MAX_DENSE_BITS", 3)
        with pytest.raises(SizeGuardExceeded):
            build_full_matrix(Lens(4, (0,)), hadamard())
        monkeypatch.setattr(gates_module, "MAX_DENSE_BITS", 4)
        assert build_full_matrix(Lens(4, (0,)), hadamard()).wires == 4

    def test_non_square_rejected(self):
        with pytest.raises(ShapeMismatch):
            build_full_matrix(Lens(3, (0,)), Gate(np.zeros((4, 2))))

    def test_gate_lens_arity_mismatch(self):
        with pytest.raises(ShapeMismatch, match="lens selects 1"):
            build_full_matrix(Lens(3, (0,)), cnot())

    def test_qutrit_case(self):
        rng = np.random.default_rng(SEED)
        g = Gate(random_unitary(3, rng), 1, 1, q=3)
        lens = Lens(2, (1,))
        dense = build_full_matrix(lens, g)
        s = random_state(2, 3, rng)
        assert dense.apply(s).max_dev(focus_apply(lens, g, s)) <= 1e-12


class TestAssertEquiv:
    def test_builtin_gates_all_lenses(self):
        rng = np.random.default_rng(SEED)
        named = {1: [hadamard()], 2: [cnot(), swap()], 3: [toffoli()]}
        for n in range(1, 5):
            for m, gs in named.items():
                if m > n:
                    continue
                for lens in all_lenses(n, m):
                    for g in gs:
                        assert assert_equiv(lens, g, trials=2, rng=rng) <= 1e-12

    def test_identity_gate_is_exact(self):
        rng = np.random.default_rng(SEED)
        assert assert_equiv(Lens(4, (2, 0)), identity(2), trials=3, rng=rng) <= 1e-15

    def test_large_random_unitary(self):
        rng = np.random.default_rng(SEED)
        lens = random_lens(6, 3, rng)
        g = random_gate(3, 2, rng)
        assert assert_equiv(lens, g, trials=5, rng=rng) <= 1e-10

    def test_non_unitary_gate(self):
        # nothing in either route may assume unitarity
        rng = np.random.default_rng(SEED)
        mat = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert assert_equiv(random_lens(4, 2, rng), Gate(mat), trials=5, rng=rng) <= 1e-12


class TestRandomUnitary:
    def test_is_unitary(self):
        rng = np.random.default_rng(SEED)
        for dim in (2, 3, 8):
            u = random_unitary(dim, rng)
            assert max_entry(u.conj().T @ u, np.eye(dim)) <= 1e-12
