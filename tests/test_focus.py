import math
import time
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlens import (
    Circuit,
    CurriedState,
    Gate,
    IndexOutOfRange,
    Lens,
    ShapeMismatch,
    SizeGuardExceeded,
    State,
    Step,
    all_basis_tuples,
    build_full_matrix,
    cnot,
    combine,
    compose,
    curry,
    focus_apply,
    focus_apply_reference,
    focus_as_gate,
    focus_on_basis,
    focused,
    from_amplitudes,
    ghz_circuit,
    hadamard,
    identity,
    ket,
    lens_empty,
    lens_id,
    map_blocks,
    merge_state,
    parallel_gate,
    random_state,
    reversal_circuit,
    swap,
    toffoli,
    tuple_to_index,
    uncurry,
    zero_state,
)
import qlens.focus as focus_module
import qlens.state as state_module
from qlens.checks import _random_cycle
from qlens.focus import _collapse, _focus_steps, _local
from _helpers import (dense_product, kind, max_entry, random_gate, random_lens, random_steps,
                      reference_run)

SEED = 424242


def curry_brute(lens, state):
    """Independent reference: build the block table with explicit tuple loops."""
    q = state.q
    table = {}
    for v in all_basis_tuples(lens.m, q):
        table[v] = {
            w: state.amplitude(lens.merge(v, w))
            for w in all_basis_tuples(lens.n - lens.m, q)
        }
    return table


class TestCurry:
    @pytest.mark.parametrize("q", [2, 3])
    def test_matches_brute_force(self, q):
        rng = np.random.default_rng(SEED)
        for n in range(0, 5 if q == 2 else 4):
            for m in range(n + 1):
                lens = random_lens(n, m, rng)
                s = random_state(n, q, rng)
                view = curry(lens, s)
                expected = curry_brute(lens, s)
                for v, col in expected.items():
                    for w, amp in col.items():
                        got = view.block(v)[tuple_to_index(w, q)]
                        assert got == amp

    def test_identity_lens_gives_scalar_blocks(self):
        rng = np.random.default_rng(SEED)
        s = random_state(3, 2, rng)
        view = curry(lens_id(3), s)
        assert view.blocks.shape == (8, 1)
        assert np.array_equal(view.blocks[:, 0], s.amps)

    def test_empty_lens_gives_single_block(self):
        rng = np.random.default_rng(SEED)
        s = random_state(3, 2, rng)
        view = curry(lens_empty(3), s)
        assert view.blocks.shape == (1, 8)
        assert np.array_equal(view.blocks[0], s.amps)

    def test_first_wire_of_two(self):
        view = curry(Lens(2, (0,)), ket((1, 0)))
        assert np.array_equal(view.block((1,)), [1, 0])
        assert np.array_equal(view.block((0,)), [0, 0])

    def test_arity_mismatch(self):
        with pytest.raises(ShapeMismatch):
            curry(Lens(3, (0,)), ket((0, 0)))


class TestUncurry:
    def test_cancellation_exact(self):
        rng = np.random.default_rng(SEED)
        for n in range(6):
            for _ in range(3):
                m = int(rng.integers(0, n + 1))
                lens = random_lens(n, m, rng)
                s = random_state(n, 2, rng)
                assert np.array_equal(uncurry(lens, curry(lens, s)).amps, s.amps)

    def test_cancellation_other_direction(self):
        rng = np.random.default_rng(SEED)
        lens = Lens(4, (2, 0))
        blocks = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        view = CurriedState(2, 2, 2, blocks)
        again = curry(lens, uncurry(lens, view))
        assert np.array_equal(again.blocks, view.blocks)

    def test_empty_lens_returns_block(self):
        rng = np.random.default_rng(SEED)
        s = random_state(2, 2, rng)
        view = CurriedState(0, 2, 2, s.amps.reshape(1, 4))
        assert np.array_equal(uncurry(lens_empty(2), view).amps, s.amps)

    def test_shape_mismatch(self):
        view = CurriedState(1, 1, 2, np.zeros((2, 2), dtype=complex))
        with pytest.raises(ShapeMismatch):
            uncurry(Lens(3, (0, 1)), view)

    def test_block_table_shape_checked(self):
        with pytest.raises(ShapeMismatch, match="block table"):
            CurriedState(1, 1, 2, np.zeros((2, 3), dtype=complex))

    @pytest.mark.parametrize("blocks", [np.array([["a"], ["b"]]), [[1.0], [1.0, 2.0]],
                                        [[np.nan], [0.0]], [[np.inf], [0.0]]],
                             ids=["strings", "ragged", "nan", "inf"])
    def test_bad_blocks_refused(self, blocks):
        # uncurry builds its State trusted from the blocks, so they are
        # refused here, as State refuses them.
        with pytest.raises(ShapeMismatch, match="blocks must"):
            CurriedState(1, 0, 2, blocks)

    def test_integer_blocks_give_complex_amplitudes(self):
        # blocks[v][w] is the amplitude at merge(lens, v, w) = (w, v)
        s = uncurry(Lens(2, (1,)), CurriedState(1, 1, 2, np.array([[1, 2], [3, 4]])))
        assert s.amps.dtype == np.complex128
        assert np.array_equal(s.amps, [1, 3, 2, 4])


class TestNoWritableMemory:
    """A returned State, Gate or CurriedState is immutable: no array it
    holds can be written, by its holder or through a caller's array."""

    def test_blocks_are_read_only(self):
        # On a lens whose wires are in order uncurry moves no axis, so its
        # State is a view of the blocks.
        view = CurriedState(1, 1, 2, np.array([[1, 0], [0, 0]]))
        s = uncurry(Lens(2, (0,)), view)
        with pytest.raises(ValueError, match="read-only"):
            view.blocks[0, 0] = 7
        assert s.amps[0] == 1

    def test_results_hold_no_writable_memory(self):
        rng = np.random.default_rng(SEED)
        inputs = {
            "amps": rng.standard_normal(8) + 0j,
            "local": rng.standard_normal(2) + 0j,
            "blocks": rng.standard_normal((2, 4)) + 0j,
            "h": np.array(hadamard().mat),
            "u": random_gate(2, 2, rng).mat.copy(),
        }
        s, local = State(3, 2, inputs["amps"]), State(1, 2, inputs["local"])
        h, u = Gate(inputs["h"]), Gate(inputs["u"])
        circ = Circuit(3, (Step(Lens(3, (0,)), h), Step(Lens(3, (2, 1)), u),
                           Step(Lens(3, (0, 1)), cnot())))
        results = []
        for lens in (Lens(3, (0,)), Lens(3, (2,)), Lens(3, ())):
            results += [curry(lens, s), focus_apply(lens, identity(lens.m), s),
                        focus_apply_reference(lens, identity(lens.m), s)]
        lens = Lens(3, (0,))
        results += [
            uncurry(lens, CurriedState(1, 2, 2, inputs["blocks"])),
            uncurry(lens, curry(lens, s)),
            focus_apply(lens, h, s), focus_apply_reference(lens, h, s),
            merge_state(lens, (0, 1, 0), local), focus_on_basis(lens, h, (1, 0, 1)),
            focus_as_gate(lens, h), h.apply(local), compose(u, u),
            from_amplitudes(inputs["amps"]), parallel_gate(h, u),
            combine(focused(Lens(3, (1, 2)), u), focused(lens, h)).gate,
        ]
        for _ in range(2):  # the second call runs with the kept scratch
            results += [circ.run(s), circ.run_basis((1, 0, 1)), circ.to_gate()]
        held = []
        for r in results:
            if isinstance(r, Gate):
                held += [r.mat] + ([] if r.rows is None else [r.rows])
            else:
                held.append(r.blocks if isinstance(r, CurriedState) else r.amps)
        for a in held:
            assert not a.flags.writeable
            for name, given in inputs.items():
                assert not np.shares_memory(a, given), name


class TestMergeState:
    def test_basis_law(self):
        rng = np.random.default_rng(SEED)
        for _ in range(25):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(0, n + 1))
            lens = random_lens(n, m, rng)
            v = tuple(int(x) for x in rng.integers(0, 2, size=n))
            u = tuple(int(x) for x in rng.integers(0, 2, size=m))
            got = merge_state(lens, v, ket(u))
            want = ket(lens.merge(u, lens.complement.extract(v)))
            assert np.array_equal(got.amps, want.amps)

    @pytest.mark.parametrize("i,j,k", list(product(range(2), repeat=3)))
    def test_pairwise_copy_instance(self, i, j, k):
        lens = Lens(3, (0, 1))
        got = merge_state(lens, (i, j, k), ket((i, i ^ j)))
        assert np.array_equal(got.amps, ket((i, i ^ j, k)).amps)

    def test_zero_local_gives_zero(self):
        out = merge_state(Lens(3, (1,)), (1, 0, 1), zero_state(1))
        assert not out.amps.any()

    def test_linear_in_local(self):
        lens = Lens(4, (3, 1))
        v = (1, 0, 1, 1)
        a, b = 0.25 - 1j, -0.5 + 2j
        local = a * ket((0, 1)) + b * ket((1, 1))
        got = merge_state(lens, v, local)
        want = a * merge_state(lens, v, ket((0, 1))) + b * merge_state(lens, v, ket((1, 1)))
        assert np.array_equal(got.amps, want.amps)

    def test_shape_errors(self):
        with pytest.raises(ShapeMismatch):
            merge_state(Lens(3, (0,)), (0, 0), ket((0,)))
        with pytest.raises(ShapeMismatch):
            merge_state(Lens(3, (0,)), (0, 0, 0), ket((0, 0)))

    @pytest.mark.parametrize("v", [(0, 1, -1), (0, 5, 0), (0, 0, 2), (0, 0.5, 0)])
    def test_complement_symbols_checked_as_ket_does(self, v):
        # Each entry sits at tuple_to_index of the merged tuple, so a symbol
        # outside [0, q), or one that is no integer, is refused: not read
        # from the end, past the table or at a neighbour's index.
        with pytest.raises(IndexOutOfRange):
            merge_state(Lens(3, (0,)), v, ket((1,)))
        with pytest.raises(IndexOutOfRange):
            focus_on_basis(Lens(3, (0,)), hadamard(), v)


class TestFocusApply:
    @pytest.mark.parametrize("i,j,k", list(product(range(2), repeat=3)))
    def test_cnot_on_leading_pair(self, i, j, k):
        out = focus_apply(Lens(3, (0, 1)), cnot(), ket((i, j, k)))
        assert np.array_equal(out.amps, ket((i, i ^ j, k)).amps)

    def test_identity_lens_is_direct_application(self):
        rng = np.random.default_rng(SEED)
        g = random_gate(3, 2, rng)
        s = random_state(3, 2, rng)
        dev = focus_apply(lens_id(3), g, s).max_dev(g.apply(s))
        assert dev <= 1e-13

    def test_identity_gate_is_identity(self):
        rng = np.random.default_rng(SEED)
        s = random_state(4, 2, rng)
        out = focus_apply(Lens(4, (1, 3)), identity(2), s)
        assert out.max_dev(s) == 0.0

    @pytest.mark.parametrize("q", [2, 3])
    def test_fast_matches_reference(self, q):
        rng = np.random.default_rng(SEED)
        for _ in range(15):
            n = int(rng.integers(1, 6 if q == 2 else 4))
            m = int(rng.integers(0, min(3, n) + 1))
            lens = random_lens(n, m, rng)
            g = random_gate(m, q, rng)
            s = random_state(n, q, rng)
            fast = focus_apply(lens, g, s)
            ref = focus_apply_reference(lens, g, s)
            assert fast.max_dev(ref) <= 1e-12

    def test_gate_must_be_square(self):
        with pytest.raises(ShapeMismatch):
            focus_apply(Lens(3, (0,)), Gate(np.zeros((4, 2))), zero_state(3))

    def test_gate_lens_arity_mismatch(self):
        with pytest.raises(ShapeMismatch):
            focus_apply(Lens(3, (0, 1)), hadamard(), zero_state(3))

    def test_alphabet_mismatch(self):
        with pytest.raises(ShapeMismatch):
            focus_apply(Lens(2, (0,)), identity(1, q=3), zero_state(2, q=2))


class TestFocusOnBasis:
    def test_hadamard_on_last_wire(self):
        out = focus_on_basis(Lens(3, (2,)), hadamard(), (0, 0, 0))
        want = math.sqrt(0.5) * (ket((0, 0, 0)) + ket((0, 0, 1)))
        assert np.array_equal(out.amps, want.amps)

    @pytest.mark.parametrize("i,j,k", list(product(range(2), repeat=3)))
    def test_cnot_instance(self, i, j, k):
        out = focus_on_basis(Lens(3, (0, 1)), cnot(), (i, j, k))
        assert np.array_equal(out.amps, ket((i, i ^ j, k)).amps)

    def test_identity_gate(self):
        v = (1, 0, 1, 1)
        out = focus_on_basis(Lens(4, (2, 0)), identity(2), v)
        assert np.array_equal(out.amps, ket(v).amps)

    def test_agrees_with_focus_apply(self):
        rng = np.random.default_rng(SEED)
        for _ in range(25):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(0, min(3, n) + 1))
            lens = random_lens(n, m, rng)
            g = random_gate(m, 2, rng)
            v = tuple(int(x) for x in rng.integers(0, 2, size=n))
            dev = focus_on_basis(lens, g, v).max_dev(focus_apply(lens, g, ket(v)))
            assert dev <= 1e-12


def batch_cases(q, rng, count=6):
    """Seeded (lens, gate) pairs: one fixed unsorted lens, then random lenses."""
    cases = [(Lens(3, (2, 0)), random_gate(2, q, rng))]
    for _ in range(count):
        n = int(rng.integers(1, 6 if q == 2 else 4))
        m = int(rng.integers(0, min(3, n) + 1))
        cases.append((random_lens(n, m, rng), random_gate(m, q, rng)))
    return cases


class TestBatchAxis:
    """_focus_steps on (q**n, B) amplitudes acts on every column at once."""

    @pytest.mark.parametrize("q", [2, 3])
    def test_columns_match_single_state_paths_and_oracle(self, q):
        rng = np.random.default_rng(SEED)
        for lens, g in batch_cases(q, rng):
            dim = q**lens.n
            dense = build_full_matrix(lens, g).mat
            for b in (1, 5, dim):
                amps = rng.standard_normal((dim, b)) + 1j * rng.standard_normal((dim, b))
                got = _focus_steps(lens.n, q, ((lens, g),), amps)
                assert got.shape == (dim, b)
                for j in range(b):
                    s = State(lens.n, q, amps[:, j])
                    assert max_entry(got[:, j], focus_apply(lens, g, s).amps) <= 1e-12
                    ref = focus_apply_reference(lens, g, s)
                    assert max_entry(got[:, j], ref.amps) <= 1e-12
                assert max_entry(got, dense @ amps) <= 1e-10

    def test_input_left_untouched(self):
        rng = np.random.default_rng(SEED)
        amps = rng.standard_normal((16, 3)) + 0j
        before = amps.copy()
        _focus_steps(4, 2, ((Lens(4, (3, 1)), random_gate(2, 2, rng)),), amps)
        assert np.array_equal(amps, before)

    @pytest.mark.parametrize("q", [2, 3])
    def test_focus_as_gate_columns(self, q):
        rng = np.random.default_rng(SEED)
        for lens, g in batch_cases(q, rng):
            mat = focus_as_gate(lens, g).mat
            for j, v in enumerate(all_basis_tuples(lens.n, q)):
                col = focus_apply(lens, g, ket(v, q)).amps
                assert max_entry(mat[:, j], col) <= 1e-12
                ref = focus_apply_reference(lens, g, ket(v, q)).amps
                assert max_entry(mat[:, j], ref) <= 1e-12
            assert max_entry(mat, build_full_matrix(lens, g).mat) <= 1e-10

    def test_focus_as_gate_size_guard(self):
        with pytest.raises(SizeGuardExceeded):
            focus_as_gate(Lens(15, (0,)), hadamard())


class TestCurriedSteps:
    """_focus_steps keeps the state curried from one step to the next."""

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("b", [1, 5])
    def test_matches_stepwise_reference_and_oracle(self, q, b):
        rng = np.random.default_rng(SEED)
        n = 5 if q == 2 else 4
        dim = q**n
        for _ in range(4):
            steps = random_steps(n, q, rng)
            amps = rng.standard_normal((dim, b)) + 1j * rng.standard_normal((dim, b))
            before = amps.copy()
            got = _focus_steps(n, q, steps, amps)
            assert got.shape == (dim, b)
            assert np.array_equal(amps, before)
            assert not np.shares_memory(got, amps)
            assert max_entry(got, dense_product(steps, n, q) @ amps) <= 1e-10
            for j in range(b):
                s = reference_run(steps, State(n, q, amps[:, j]))
                assert max_entry(got[:, j], s.amps) <= 1e-12

    def test_leading_lens_skips_gather(self, monkeypatch):
        # wires (0, 1) lead at the start and after themselves; (2,) needs one
        # gather, then leads again; the final order (2, 0, 1) needs one uncurry.
        rng = np.random.default_rng(SEED)
        steps = [(Lens(3, (0, 1)), random_gate(2, 2, rng)), (Lens(3, (0, 1)), random_gate(2, 2, rng)),
                 (Lens(3, (2,)), random_gate(1, 2, rng)), (Lens(3, (2,)), random_gate(1, 2, rng))]
        amps = random_state(3, 2, rng).amps
        calls = []

        def counted(name):
            real = getattr(np, name)
            return lambda *a, **k: calls.append(name) or real(*a, **k)

        monkeypatch.setattr(np, "copyto", counted("copyto"))
        monkeypatch.setattr(np, "matmul", counted("matmul"))
        got = _focus_steps(3, 2, steps, amps)
        assert (calls.count("copyto"), calls.count("matmul")) == (2, 4)
        monkeypatch.undo()
        assert max_entry(got, reference_run(steps, State(3, 2, amps)).amps) <= 1e-12


def permutation_gate(rows, m, q):
    """The 0/1 gate whose output row i is input row rows[i]."""
    mat = np.zeros((q**m, q**m))
    mat[np.arange(q**m), rows] = 1.0
    return Gate(mat, m, m, q)


def one_cycle_gate(m, q, rng):
    """A 0/1 gate whose rows form one cycle: every row moves, so rotating
    it would copy q**m + 1 blocks and the step takes np.take."""
    return permutation_gate(_random_cycle(q**m, rng), m, q)


def permutation_cases(q, rng):
    """Named (n, steps) cases of 0/1 permutation steps, one per lens class."""
    if q == 2:
        n, two, three = 5, cnot(), permutation_gate([0, 1, 2, 3, 4, 5, 7, 6], 3, 2)
    else:
        n = 4
        two = permutation_gate(rng.permutation(9), 2, 3)
        three = permutation_gate(rng.permutation(27), 3, 3)
    # |x> -> |x+1 mod q>: one q-cycle (a 3-cycle for q = 3)
    shift = permutation_gate(np.roll(np.arange(q), 1), 1, q)
    full = permutation_gate(rng.permutation(q**n), n, q)
    dense = [random_gate(m, q, rng) for m in (1, 2, 2)]
    return {
        "leading": (n, [(Lens(n, (0, 1)), two)]),
        "middle": (n, [(Lens(n, (1, 2)), two), (Lens(n, (2,)), shift)]),
        "innermost": (n, [(Lens(n, (n - 2, n - 1)), two), (Lens(n, (n - 1,)), shift)]),
        "unsorted": (n, [(Lens(n, (n - 1, 0)), two), (Lens(n, (2, n - 1, 0)), three)]),
        "m_equals_n": (n, [(Lens(n, tuple(int(w) for w in rng.permutation(n))), full)]),
        "m_zero": (n, [(Lens(n, ()), identity(0, q))]),
        "identity": (n, [(Lens(n, (n - 1, 1)), identity(2, q))]),
        "mixed": (n, [(Lens(n, (2,)), dense[0]), (Lens(n, (n - 1, 0)), two),
                      (Lens(n, (1, 0)), dense[1]), (Lens(n, (0,)), shift),
                      (Lens(n, (2, n - 1, 0)), three), (Lens(n, (3, 1)), dense[2]),
                      (Lens(n, (1, 2)), two)]),
        # Adjacent lens axes and one cycle through every row: these take
        # np.take, the first three as the first step, on the caller's array.
        "take_leading": (n, [(Lens(n, (0, 1, 2)), one_cycle_gate(3, q, rng))]),
        "take_middle": (n, [(Lens(n, (1, 2)), one_cycle_gate(2, q, rng))]),
        "take_innermost": (n, [(Lens(n, (n - 2, n - 1)), one_cycle_gate(2, q, rng))]),
        "take_unsorted": (n, [(Lens(n, (3, 2, 1)), one_cycle_gate(3, q, rng))]),
        # the dense step gathers wire 2 to the front and lays the next
        # step's wires (3, 1) out behind it, adjacent; (1, 0) stays adjacent
        "take_after_gather": (n, [(Lens(n, (2,)), dense[0]),
                                  (Lens(n, (3, 1)), one_cycle_gate(2, q, rng)),
                                  (Lens(n, (1, 0)), one_cycle_gate(2, q, rng))]),
    }


PERMUTATION_CASES = list(permutation_cases(2, np.random.default_rng(0)))


class TestPermutationKernel:
    """0/1 permutation steps move rows (a Rows), bit-identical to gather +
    GEMM: by rotating cycles in place across the lens axes, or by one
    np.take along one axis into the other buffer when the lens axes are
    adjacent and most rows move."""

    @pytest.mark.parametrize("chunk", [None, 64, 128],
                             ids=["one_chunk", "tiny_chunks", "small_chunks"])
    @pytest.mark.parametrize("b", [None, 3], ids=["vector", "batch"])
    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("case", PERMUTATION_CASES)
    def test_matches_gemm_reference_and_oracle(self, monkeypatch, case, q, b, chunk):
        rng = np.random.default_rng(SEED)
        n, steps = permutation_cases(q, rng)[case]
        dim = q**n
        shape = (dim,) if b is None else (dim, b)
        amps = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        before = amps.copy()
        if chunk is not None:
            monkeypatch.setattr(focus_module, "_CHUNK_BYTES", chunk)
        got = _focus_steps(n, q, steps, amps)
        if case.startswith("take_"):
            plan = focus_module._plan(n, q, steps, b)
            assert ([kind(op) for op in plan].count("Rows:one")
                    == sum(g.rows is not None for _, g in steps))
        assert np.array_equal(amps, before)
        with monkeypatch.context() as patched:
            patched.setattr(Gate, "rows", property(lambda self: None))
            gemm = _focus_steps(n, q, steps, amps)
        assert np.array_equal(got, gemm)
        assert max_entry(got, dense_product(steps, n, q) @ amps) <= 1e-10
        for j in range(1 if b is None else b):
            s = reference_run(steps, State(n, q, amps if b is None else amps[:, j]))
            assert max_entry(got if b is None else got[:, j], s.amps) <= 1e-12

    def test_no_gemm_and_identity_costs_nothing(self, monkeypatch):
        rng = np.random.default_rng(SEED)
        amps = random_state(5, 2, rng).amps
        calls = []

        def counted(name):
            real = getattr(np, name)
            return lambda *a, **k: calls.append(name) or real(*a, **k)

        monkeypatch.setattr(np, "copyto", counted("copyto"))
        monkeypatch.setattr(np, "matmul", counted("matmul"))
        got = _focus_steps(5, 2, [(Lens(5, (4, 1)), identity(2))], amps)
        # the one pass is the copy of the caller's array that is the result
        assert calls == ["copyto"] and np.array_equal(got, amps)
        assert not np.shares_memory(got, amps)
        calls.clear()
        # the caller's array copied once, then one 2-cycle per step (3 copies each)
        _focus_steps(5, 2, [(Lens(5, (4, 1)), cnot()), (Lens(5, (0, 3)), cnot())], amps)
        assert (calls.count("copyto"), calls.count("matmul")) == (7, 0)

    def test_rows_take_the_caller_array_once(self, monkeypatch):
        # n = 6, lens (3, 2): the state views as (A, 4, C) = (4, 4, 4).  One
        # np.take moves every row straight from the caller's array into the
        # result, and nothing is copied first.
        rng = np.random.default_rng(SEED)
        steps = [(Lens(6, (3, 2)), one_cycle_gate(2, 2, rng))]
        amps = random_state(6, 2, rng).amps
        calls = []
        take, copyto = np.take, np.copyto
        monkeypatch.setattr(np, "take", lambda a, idx, **k: calls.append(
            (a.shape, k["out"].shape, np.shares_memory(a, amps))) or take(a, idx, **k))
        monkeypatch.setattr(np, "copyto", lambda *a, **k: calls.append("copyto")
                            or copyto(*a, **k))
        got = _focus_steps(6, 2, steps, amps)
        monkeypatch.undo()
        assert calls == [((4, 4, 4), (4, 4, 4), True)]
        assert not np.shares_memory(got, amps)
        assert np.array_equal(got, focus_apply_reference(*steps[0], State(6, 2, amps)).amps)

    def test_one_lens_axis_is_always_taken(self):
        # At q = 4 a 2-cycle on one wire copies 3 blocks of 4 rows, so the
        # step keeps the full view; with one lens axis its row blocks are
        # still slices along that axis, and np.take moves them.
        g = permutation_gate([1, 0, 2, 3], 1, 4)
        steps = [(Lens(7, (3,)), g)]
        (op,) = focus_module._plan(7, 4, steps, None)
        assert (kind(op), op.shape, op.axes) == ("Rows:one", (4,) * 7, (3,))
        amps = random_state(7, 4, np.random.default_rng(SEED)).amps
        got = _focus_steps(7, 4, steps, amps)
        assert np.array_equal(got, focus_apply_reference(*steps[0], State(7, 4, amps)).amps)
        for index in (0, 5, 4**7 - 1):
            basis, _ = focus_module._execute(7, 4, (op,), None, index=index)
            ket_amps = np.eye(1, 4**7, index, dtype=complex)[0]
            assert np.array_equal(basis, _focus_steps(7, 4, steps, ket_amps))

    def test_routing_between_kernels(self):
        # CNOT, swap and Toffoli rotate 3 blocks of 4 or 8, a lens on wires
        # that are not adjacent cannot be viewed as (A, q**m, C), and a
        # fused GHZ cluster moves 30 of its 32 rows in 6 cycles.
        rng = np.random.default_rng(SEED)
        ghz = ghz_circuit(4)._clusters[1]
        several, one = "Rows:several", "Rows:one"
        cases = [((1, 2), cnot(), several), ((2, 3), swap(), several),
                 ((1, 2, 3), toffoli(), several), ((3, 1), one_cycle_gate(2, 2, rng), several),
                 ((0, 1, 2, 3, 4), ghz.gate, one), ((3, 2), one_cycle_gate(2, 2, rng), one)]
        amps = random_state(6, 2, rng).amps
        for wires, gate, kernel in cases:
            plan = focus_module._plan(6, 2, [(Lens(6, wires), gate)], None)
            assert [kind(op) for op in plan] == [kernel], wires
            got = _focus_steps(6, 2, [(Lens(6, wires), gate)], amps)
            want = focus_apply_reference(Lens(6, wires), gate, State(6, 2, amps)).amps
            assert np.array_equal(got, want)

    def test_in_place_temp_fits_the_state(self, monkeypatch):
        # A CNOT on wires 5 and 0 rotates in place; its temp holds one chunk
        # of one row block, not a fixed _CHUNK_BYTES, so no allocation
        # outgrows the 2**6 amplitudes of the state.
        s = random_state(6, 2, np.random.default_rng(SEED))
        (op,) = focus_module._plan(6, 2, [(Lens(6, (5, 0)), cnot())], None)
        assert kind(op) == "Rows:several"
        sizes, empty = [], np.empty
        monkeypatch.setattr(np, "empty", lambda shape, *a, **k: sizes.append(
            math.prod(np.atleast_1d(shape))) or empty(shape, *a, **k))
        got = focus_apply(Lens(6, (5, 0)), cnot(), s)
        monkeypatch.undo()
        assert sizes and max(sizes) <= 2**6
        assert np.array_equal(got.amps, focus_apply_reference(Lens(6, (5, 0)), cnot(), s).amps)


def placement_cases(q, rng):
    """Named (steps, op kinds of their plan) on n = 5 wires, for a run
    length of q amplitudes per batch column: a lens block is long when
    q**(wires behind it) >= q."""
    n = 5
    dense = [random_gate(m, q, rng) for m in (2, 2, 2, 1, 2, 2, n)]
    # one 2-cycle copies 3 blocks of q**2 and rotates; one cycle through
    # every row takes np.take on adjacent axes
    two_cycle = permutation_gate([1, 0] + list(range(2, q**2)), 2, q)
    cycles = [two_cycle] + [one_cycle_gate(2, q, rng) for _ in range(2)]
    return n, {
        "lead_in_order": ([(Lens(n, (0, 1)), dense[0])], ["Gemm1"]),
        "lead_unsorted": ([(Lens(n, (1, 0)), dense[1])], ["Gemm1"]),
        "middle_block": ([(Lens(n, (2, 1)), dense[2])], ["GemmA"]),
        "innermost_gathers": ([(Lens(n, (n - 1,)), dense[3])], ["Gather", "Gemm1", "Gather"]),
        # wires n-1 and 0 are apart: the gather lays out [n-1 | 0 | 2 | rest],
        # so the next step runs on its block in the middle
        "look_ahead": ([(Lens(n, (n - 1, 0)), dense[4]), (Lens(n, (0, 2)), dense[5])],
                       ["Gather", "Gemm1", "GemmA", "Gather"]),
        "permute": ([(Lens(n, (2, 1)), cycles[0])], ["Rows:several"]),
        "permute_apart": ([(Lens(n, (n - 1, 0)), cycles[1])], ["Rows:several"]),
        "take": ([(Lens(n, (n - 1, 1)), cycles[1]), (Lens(n, (n - 1, n - 2)), cycles[2])],
                 ["Rows:several", "Rows:one"]),
        # a gate as large as the state is gathered into lens order, not
        # conjugated
        "large_gate": ([(Lens(n, (1, 0) + tuple(range(2, n))), dense[6])],
                       ["Gather", "Gemm1", "Gather"]),
    }


PLACEMENT_CASES = list(placement_cases(2, np.random.default_rng(0))[1])


class TestPlacement:
    """Every op kind and placement of a plan against the reference and the
    dense oracle: products on a leading or a middle lens block (in lens
    order or conjugated into axis order), gathers laid out for the next
    step, and both permutation kernels."""

    @pytest.mark.parametrize("b", [None, 3], ids=["vector", "batch"])
    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("case", PLACEMENT_CASES)
    def test_matches_reference_and_oracle(self, monkeypatch, case, q, b):
        rng = np.random.default_rng(SEED)
        n, cases = placement_cases(q, rng)
        steps, kinds = cases[case]
        monkeypatch.setattr(focus_module, "_RUN_MIN", q * (b or 1))
        plan = focus_module._plan(n, q, steps, b)
        assert [kind(op) + ("" if not isinstance(op, focus_module.Gemm)
                            else "1" if op.A == 1 else "A") for op in plan] == kinds
        dim = q**n
        shape = (dim,) if b is None else (dim, b)
        amps = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        before = amps.copy()
        got, _ = focus_module._execute(n, q, plan, amps)
        assert np.array_equal(amps, before)
        assert not np.shares_memory(got, amps)
        assert max_entry(got, dense_product(steps, n, q) @ amps) <= 1e-10
        for j in range(1 if b is None else b):
            s = reference_run(steps, State(n, q, amps if b is None else amps[:, j]))
            assert max_entry(got if b is None else got[:, j], s.amps) <= 1e-12

    def test_conjugated_only_out_of_lens_order(self):
        # A block in lens order keeps the gate's own matrix; a block in
        # another order gets the gate conjugated into axis order once.
        g = random_gate(2, 2, np.random.default_rng(SEED))
        (lead,) = focus_module._plan(5, 2, [(Lens(5, (0, 1)), g)], None)
        (swapped,) = focus_module._plan(5, 2, [(Lens(5, (1, 0)), g)], None)
        assert lead.mat is g.mat
        assert np.array_equal(swapped.mat, g.mat[np.ix_([0, 2, 1, 3], [0, 2, 1, 3])])


def basis_plans(q: int, batch: int | None, rng) -> dict:
    """Named (plan, ops the basis fill covers), built by hand on n wires
    (4 for qubits, 3 for qutrits) for amplitudes of shape (q**n, batch) or
    (q**n,): products with A = 1, with A > 1 and on no wire, with and
    without a Rows of all q**n rows before and after them (only on the
    identity's batch, as _plan makes them), a second product, plans that
    open with no product, and Rows along one axis (lens blocks) and across
    several and Gather ops before and after a product, on both batches."""
    n = 4 if q == 2 else 3
    cols = batch or 1
    shape = (q,) * n + (() if batch is None else (batch,))

    def gemm(a: int, m: int) -> focus_module.Gemm:
        mat = random_gate(m, q, rng).mat
        return focus_module.Gemm(mat, q**a, q ** (n - a - m) * cols)

    def rows() -> focus_module.Rows:
        return focus_module.Rows(rng.permutation(q**n), (1, q**n, cols), (1,))

    plans = {
        "empty": ((), 0),
        "lead": ((gemm(0, 2),), 1),
        "middle": ((gemm(1, 2),), 1),
        "no_wire": ((gemm(0, 0), gemm(1, 1)), 1),
        "two_products": ((gemm(1, 1), gemm(0, 2)), 1),
    }
    if batch is None:
        gather = focus_module.Gather((q,) * n, tuple(rng.permutation(n)))
        plans["gather_first"] = ((gather, gemm(0, 1)), 2)
        plans["gather_after"] = ((gemm(1, 2), gather, gemm(2, 1)), 2)
    else:
        plans["rows_only"] = ((rows(),), 1)
        plans["rows_before"] = ((rows(), gemm(0, 2), gemm(1, 1)), 2)
        plans["rows_after"] = ((gemm(1, 1), rows(), gemm(0, 3)), 2)
        plans["both"] = ((rows(), gemm(1, 2), rows(), gemm(2, 1), rows()), 3)

    # Row maps that are one cycle through every row, so that none is its
    # own inverse.
    def block_rows(a: int, m: int) -> focus_module.Rows:
        view = (q**a, q**m, q ** (n - a - m) * cols)
        return focus_module.Rows(_random_cycle(q**m, rng), view, (1,))

    def permute(axes: list[int]) -> focus_module.Rows:
        return focus_module.Rows(_random_cycle(q ** len(axes), rng), shape, tuple(axes))

    def gather_all() -> focus_module.Gather:
        return focus_module.Gather(shape, tuple(rng.permutation(n)) + tuple(range(n, len(shape))))

    plans["block_rows_before"] = ((block_rows(1, 2), gemm(0, 2), gemm(1, 1)), 2)
    plans["block_rows_after"] = ((gemm(1, 1), block_rows(0, 2), block_rows(n - 1, 1),
                                  gemm(0, 2)), 3)
    plans["permute_before"] = ((permute([0, n - 1]), gemm(1, 1), gemm(0, 2)), 2)
    plans["permute_after"] = ((gemm(0, 2), permute([1, 2]), permute([0, n - 1]), gemm(1, 1)), 3)
    plans["gather_between"] = ((permute([0, n - 1]), block_rows(0, 2), gather_all(),
                                gemm(1, 2), block_rows(1, 2), permute([0, 1]), gemm(0, 1),
                                block_rows(0, 1)), 6)
    plans["moves_only"] = ((block_rows(0, n), permute([1, n - 1]), gather_all()), 3)
    return plans


KET_PLANS = list(basis_plans(2, None, np.random.default_rng(0)))
IDENTITY_PLANS = list(basis_plans(2, 16, np.random.default_rng(0)))


def ghz_steps(n: int, q: int, rng) -> list:
    """A GHZ preparation on n wires over q symbols, fused as Circuit.run
    fuses it: a random gate on wire 0, then a ladder of the adders
    |a, b> -> |a, a + b mod q> on wires (k, k + 1)."""
    add = np.eye(q * q)[[a * q + (a + b) % q for a in range(q) for b in range(q)]].T
    steps = [Step(Lens(n, (0,)), random_gate(1, q, rng))]
    steps += [Step(Lens(n, (k, k + 1)), Gate(add, 2, 2, q)) for k in range(n - 1)]
    return [(s.lens, s.gate) for s in Circuit(n, tuple(steps), q).fused(5).steps]


class TestBasisFill:
    """_execute on basis kets (amps None) writes in its fill what the ops
    that open the plan, up to its second Gemm, would make of them: the
    result is bit-identical to running the plan on the kets' array."""

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("case", IDENTITY_PLANS)
    def test_identity_matches_the_explicit_identity(self, q, case):
        n = 4 if q == 2 else 3
        plan, covered = basis_plans(q, q**n, np.random.default_rng(SEED))[case]
        assert focus_module._basis_walk(plan, q**n, None)[2] == covered
        got, _ = focus_module._execute(n, q, plan, None)
        want, _ = focus_module._execute(n, q, plan, np.eye(q**n, dtype=complex))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("case", KET_PLANS)
    def test_ket_matches_the_explicit_ket(self, q, case):
        n = 4 if q == 2 else 3
        plan, covered = basis_plans(q, None, np.random.default_rng(SEED))[case]
        assert focus_module._basis_walk(plan, 1, 0)[2] == covered
        for index in range(q**n):
            got, _ = focus_module._execute(n, q, plan, None, index=index)
            want, _ = focus_module._execute(n, q, plan, np.eye(q**n, dtype=complex)[index])
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("q", [2, 3])
    def test_planned_steps_match_on_both_starts(self, q):
        # Plans as _plan makes them, permutation kernels included: a
        # reversal (no Gemm; Rows across several axes, or one Rows on the
        # identity), a GHZ preparation (a Gemm, then one-axis Rows) and
        # random steps on unsorted lenses.  A ket runs the first two entirely in the fill.
        rng = np.random.default_rng(SEED)
        n = 4 if q == 2 else 3
        digits_swapped = np.arange(q * q).reshape(q, q).T.reshape(-1)
        sw = Gate(np.eye(q * q)[digits_swapped], 2, 2, q)
        cases = {"reversal": [(Lens(n, (i, n - 1 - i)), sw) for i in range(n // 2)],
                 "ghz": ghz_steps(n, q, rng),
                 "random": random_steps(n, q, rng, count=4)}
        for name, steps in cases.items():
            plan = focus_module._plan(n, q, steps, q**n)
            got, _ = focus_module._execute(n, q, plan, None)
            want, _ = focus_module._execute(n, q, plan, np.eye(q**n, dtype=complex))
            assert np.array_equal(got, want)
            assert max_entry(got, dense_product(steps, n, q)) <= 1e-10
            plan = focus_module._plan(n, q, steps, None)
            if name != "random":
                kinds = {kind(op) for op in plan}
                assert kinds == ({"Rows:several"} if name == "reversal"
                                 else {"Gemm", "Rows:one"})
                assert focus_module._basis_walk(plan, 1, 0)[2] == len(plan)
            for index in range(q**n):
                got, _ = focus_module._execute(n, q, plan, None, index=index)
                want, _ = focus_module._execute(n, q, plan, np.eye(q**n, dtype=complex)[index])
                assert np.array_equal(got, want)

    def test_ghz_16_runs_in_the_fill(self):
        # GHZ-16, fused, is one product and then one-axis Rows, all in the
        # fill.
        steps = [(s.lens, s.gate) for s in ghz_circuit(15).fused(5).steps]
        plan = focus_module._plan(16, 2, steps, None)
        assert [kind(op) for op in plan] == ["Gemm"] + ["Rows:one"] * (len(plan) - 1)
        assert len(plan) > 2
        assert focus_module._basis_walk(plan, 1, 0)[2] == len(plan)
        for index in (0, 2**16 - 1, 0b1011001110001011):
            amps = np.zeros(2**16, complex)
            amps[index] = 1
            got, _ = focus_module._execute(16, 2, plan, None, index=index)
            want, _ = focus_module._execute(16, 2, plan, amps)
            assert np.array_equal(got, want)


class TestPlanSize:
    """A plan holds nothing of the state's size: a Rows holds the q**m rows
    of its step's gate and a view of the state.  So a 40-wire plan, for a
    state no guard admits, is quick to make (its state-sized index tables
    once took seconds and GiB to plan)."""

    @pytest.mark.parametrize("circ, kinds",
                             [(ghz_circuit(39), {"Gemm", "Rows:one"}),
                              (reversal_circuit(40), {"Rows:several", "Rows:one"})],
                             ids=["ghz", "reversal"])
    def test_plans_at_40_wires_are_small_and_quick(self, circ, kinds):
        steps = [(s.lens, s.gate) for s in circ.fused(5).steps]
        start = time.perf_counter()
        plan = focus_module._plan(40, 2, steps, None)
        assert time.perf_counter() - start < 1.0
        assert {kind(op) for op in plan} == kinds
        assert len(plan) == len(steps)
        for op, (_, gate) in zip(plan, steps):
            if isinstance(op, focus_module.Rows):
                assert len(op.rows) == len(gate.mat)
                assert math.prod(op.shape) == 2**40


class TestWorkingSetGuard:
    """_focus_steps refuses a working set past MAX_STATE_ENTRIES before it
    allocates: the input and two buffers, or two buffers for a collapse."""

    @pytest.fixture
    def no_allocation(self, monkeypatch):
        def refuse(*a, **k):
            raise AssertionError("allocated past the guard")
        monkeypatch.setattr(np, "empty", refuse)
        monkeypatch.setattr(np, "eye", refuse)

    def test_run_counts_input_and_two_buffers(self, monkeypatch):
        amps = np.zeros((2**6, 2), dtype=complex)
        amps[0] = 1
        monkeypatch.setattr(state_module, "MAX_STATE_ENTRIES", 3 * 2**7)
        assert np.array_equal(_focus_steps(6, 2, [(Lens(6, ()), identity(0))], amps), amps)
        monkeypatch.setattr(state_module, "MAX_STATE_ENTRIES", 3 * 2**7 - 1)
        with pytest.raises(SizeGuardExceeded):
            _focus_steps(6, 2, [(Lens(6, (0,)), hadamard())], amps)

    def test_collapse_counts_two_buffers(self, monkeypatch):
        monkeypatch.setattr(state_module, "MAX_STATE_ENTRIES", 2 * 4**5)
        assert focus_as_gate(Lens(5, (1,)), hadamard()).wires == 5
        monkeypatch.setattr(state_module, "MAX_STATE_ENTRIES", 2 * 4**5 - 1)
        with pytest.raises(SizeGuardExceeded):
            focus_as_gate(Lens(5, (1,)), hadamard())

    def test_basis_ket_counts_two_buffers(self, monkeypatch):
        plan = focus_module._plan(6, 2, [(Lens(6, (0,)), hadamard())], None)
        want = focus_apply(Lens(6, (0,)), hadamard(), ket((0,) * 6)).amps
        monkeypatch.setattr(state_module, "MAX_STATE_ENTRIES", 2 * 2**6)
        got, _ = focus_module._execute(6, 2, plan, None, index=0)
        assert np.array_equal(got, want)
        monkeypatch.setattr(state_module, "MAX_STATE_ENTRIES", 2 * 2**6 - 1)
        with pytest.raises(SizeGuardExceeded):
            focus_module._execute(6, 2, plan, None, index=0)

    def test_refused_before_allocating(self, monkeypatch, no_allocation):
        monkeypatch.setattr(state_module, "MAX_STATE_ENTRIES", 2**10)
        amps = np.zeros(2**10, dtype=complex)
        with pytest.raises(SizeGuardExceeded):
            _focus_steps(10, 2, [(Lens(10, (0,)), hadamard())], amps)
        with pytest.raises(SizeGuardExceeded):
            _focus_steps(10, 2, [(Lens(10, (0,)), hadamard())], None)


class TestFocusAlgebra:
    def test_lens_composition_nests_focus(self):
        rng = np.random.default_rng(SEED)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, min(4, n) + 1))
            p = int(rng.integers(0, min(3, m) + 1))
            outer = random_lens(n, m, rng)
            inner = random_lens(m, p, rng)
            g = random_gate(p, 2, rng)
            s = random_state(n, 2, rng)
            lhs = focus_apply(outer.compose(inner), g, s)
            rhs = focus_apply(outer, focus_as_gate(inner, g), s)
            assert lhs.max_dev(rhs) <= 1e-10

    def test_disjoint_focuses_commute(self):
        rng = np.random.default_rng(SEED)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            order = [int(i) for i in rng.permutation(n)]
            m1 = int(rng.integers(1, min(2, n - 1) + 1))
            m2 = int(rng.integers(1, min(2, n - m1) + 1))
            l1 = Lens(n, tuple(order[:m1]))
            l2 = Lens(n, tuple(order[m1 : m1 + m2]))
            f, g = random_gate(m1, 2, rng), random_gate(m2, 2, rng)
            s = random_state(n, 2, rng)
            lhs = focus_apply(l2, g, focus_apply(l1, f, s))
            rhs = focus_apply(l1, f, focus_apply(l2, g, s))
            assert lhs.max_dev(rhs) <= 1e-10


class TestMapBlocks:
    def test_rows_transformed(self):
        blocks = np.arange(6, dtype=complex).reshape(3, 2)
        doubled = map_blocks(lambda b: 2 * b, blocks)
        assert np.array_equal(doubled, 2 * blocks)

    def test_inconsistent_shapes_rejected(self):
        blocks = np.array([[1, 0], [0, 0]], dtype=complex)
        with pytest.raises(ShapeMismatch):
            map_blocks(lambda b: b[: 1 + int(b[0].real == 0)], blocks)

    @pytest.mark.parametrize("phi, message", [
        (lambda b: ["1", "1j"], "array of numbers"),
        (lambda b: np.nan, "finite"),
        (lambda b: b * np.inf, "finite"),
        (lambda b: [1, complex(0, np.inf)], "finite"),
        (lambda b: np.array([b"1", b"0"]), "array of numbers"),
        (lambda b: np.array(["1", 2], dtype=object), "array of numbers"),
        (lambda b: [[1], [1, 2]], "array of numbers"),
    ], ids=["strings", "nan", "inf", "imaginary_inf", "numeric_bytes", "object_strings",
            "ragged"])
    def test_outputs_must_be_finite_numbers(self, phi, message):
        # Block-map outputs are read as State reads amplitudes: numpy would
        # parse the strings as 1 and 1j, and keep NaN or inf.
        with pytest.raises(ShapeMismatch, match=f"block map output must be .*{message}"):
            map_blocks(phi, np.ones((2, 2)))

    def test_scalar_outputs_keep_their_shape(self):
        out = map_blocks(lambda b: b.sum(), np.ones((3, 2)))
        assert out.shape == (3,)
        assert np.array_equal(out, [2, 2, 2])


class TestLocal:
    """_local relabels steps onto the positions of their wires in a wire
    list, unsorted or not, so that _collapse gives their gate on that list."""

    def test_relabels_onto_positions(self):
        g = cnot()
        local = _local((4, 1, 2), [(Lens(5, (2, 4)), g), (Lens(5, (1, 2)), g)])
        assert [(lens.n, lens.idx) for lens, _ in local] == [(3, (2, 0)), (3, (1, 2))]
        assert all(gate is g for _, gate in local)

    @pytest.mark.parametrize("q", [2, 3])
    def test_collapsed_gate_focused_on_the_wires_is_the_steps(self, q):
        rng = np.random.default_rng(SEED)
        for _ in range(10):
            n = int(rng.integers(1, 6))
            k = int(rng.integers(1, min(3, n) + 1))
            wires = tuple(int(w) for w in rng.permutation(n)[:k])
            steps = []
            for _ in range(int(rng.integers(0, 4))):
                inner = random_lens(len(wires), int(rng.integers(0, len(wires) + 1)), rng)
                steps.append((Lens(n, tuple(wires[i] for i in inner.idx)),
                              random_gate(inner.m, q, rng)))
            gate = _collapse(len(wires), q, _local(wires, steps))
            s = random_state(n, q, rng)
            assert focus_apply(Lens(n, wires), gate, s).max_dev(reference_run(steps, s)) <= 1e-10


@st.composite
def focus_case(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    order = draw(st.permutations(list(range(n))))
    m = draw(st.integers(min_value=0, max_value=min(2, n)))
    v = tuple(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return Lens(n, tuple(order[:m])), v, seed


@settings(max_examples=60, deadline=None)
@given(focus_case())
def test_basis_step_property(case):
    lens, v, seed = case
    g = random_gate(lens.m, 2, np.random.default_rng(seed))
    dev = focus_on_basis(lens, g, v).max_dev(focus_apply(lens, g, ket(v)))
    assert dev <= 1e-12
