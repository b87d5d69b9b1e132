import gc
import math
import sys
import threading
import tracemalloc
import weakref
from itertools import product
from unittest import mock

import numpy as np
import pytest

from qlens import (
    Circuit,
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
    focus_apply,
    focus_as_gate,
    ghz_circuit,
    ghz_state,
    hadamard,
    identity,
    ket,
    lens_pair,
    lens_single,
    marginal,
    null,
    random_state,
    reversal_circuit,
    shor_components,
    swap,
    zero_state,
)
from qlens.checks import _random_cycle, _random_mixed_circuit
from qlens.circuits import FUSE_WIRES
from qlens.focus import Gather, Gemm, _focus_steps, _local
from qlens.oracle import random_unitary
import qlens.circuits as circuits_module
import qlens.cli as cli
import qlens.focus as focus_module
import qlens.state as state_module
from _helpers import (dense_product, kind, max_entry, random_gate, random_lens, random_steps,
                      reference_run)

SEED = 60609


def cached_plan(circ: Circuit, batch: int | None) -> tuple:
    """The plan that circ._run_plan keeps in _programs for this batch size,
    made without executing it, so without a state-sized array; the entry is
    taken out again, and the circuit keeps no program."""
    with mock.patch.object(circuits_module, "_execute", lambda *a: (None, None)):
        circ._run_plan(batch, None)
    return circ._programs.pop(batch)[0]


@pytest.fixture(scope="module")
def comps():
    return shor_components()


class TestCircuitType:
    def test_empty_circuit_is_identity(self):
        rng = np.random.default_rng(SEED)
        s = random_state(3, 2, rng)
        assert Circuit(3, ()).run(s).max_dev(s) == 0.0

    def test_lens_codomain_validated(self):
        with pytest.raises(ShapeMismatch):
            Circuit(3, (Step(Lens(2, (0,)), hadamard()),))

    def test_gate_arity_validated(self):
        with pytest.raises(ShapeMismatch):
            Circuit(3, (Step(Lens(3, (0, 1)), hadamard()),))

    def test_gate_alphabet_validated(self):
        with pytest.raises(ShapeMismatch, match="step 0: alphabet mismatch: gate q=2, expected q=3"):
            Circuit(3, (Step(Lens(3, (0,)), hadamard()),), 3)

    def test_run_arity_validated(self):
        with pytest.raises(ShapeMismatch):
            Circuit(3, ()).run(zero_state(2))

    def test_embedded_matches_collapsed_gate(self):
        rng = np.random.default_rng(SEED)
        inner = Circuit(2, (
            Step(Lens(2, (1, 0)), random_gate(2, 2, rng)),
            Step(Lens(2, (0,)), random_gate(1, 2, rng)),
        ))
        lens = random_lens(4, 2, rng)
        s = random_state(4, 2, rng)
        via_embed = inner.embedded(lens).run(s)
        via_gate = focus_apply(lens, inner.to_gate(), s)
        assert via_embed.max_dev(via_gate) <= 1e-12

    def test_embedded_arity_check(self):
        with pytest.raises(ShapeMismatch):
            Circuit(2, ()).embedded(lens_single(4, 1))

    def test_to_gate_guard(self):
        with pytest.raises(SizeGuardExceeded):
            Circuit(15, ()).to_gate()


def shor_code():
    comps = shor_components()
    return Circuit(9, comps["shor_enc"].steps + comps["shor_dec"].steps)


EXAMPLES = {
    "shor": shor_code,
    "ghz": lambda: ghz_circuit(4),
    "reversal": lambda: reversal_circuit(6),
}


class TestBatchedCollapse:
    """to_gate and focus_as_gate collapse in one batched pass per step."""

    @pytest.mark.parametrize("name", sorted(EXAMPLES))
    def test_example_collapses_match_oracle(self, name):
        circ = EXAMPLES[name]()
        for step in circ.steps:
            dense = build_full_matrix(step.lens, step.gate).mat
            assert np.max(np.abs(focus_as_gate(step.lens, step.gate).mat - dense)) <= 1e-10
        assert np.max(np.abs(circ.to_gate().mat - dense_product(circ.steps, circ.n, 2))) <= 1e-10

    @pytest.mark.parametrize("circ", [ghz_circuit(3), reversal_circuit(5),
                                      shor_components()["sign_flip_dec"]],
                             ids=["ghz", "reversal", "sign_flip_dec"])
    def test_to_gate_columns_match_per_ket_runs(self, circ):
        mat = circ.to_gate().mat
        for j, v in enumerate(all_basis_tuples(circ.n)):
            assert np.max(np.abs(mat[:, j] - circ.run(ket(v)).amps)) <= 1e-12

    @pytest.mark.parametrize("q", [2, 3])
    def test_to_gate_random_unsorted_steps(self, q):
        rng = np.random.default_rng(SEED)
        n = 4 if q == 2 else 3
        steps = tuple(
            Step(lens, random_gate(lens.m, q, rng))
            for lens in (random_lens(n, int(rng.integers(1, 4)), rng) for _ in range(6))
        )
        circ = Circuit(n, steps, q)
        mat = circ.to_gate().mat
        assert np.max(np.abs(mat - dense_product(steps, n, q))) <= 1e-10
        for j, v in enumerate(all_basis_tuples(n, q)):
            assert np.max(np.abs(mat[:, j] - circ.run(ket(v, q)).amps)) <= 1e-12

    def test_to_gate_keeps_two_matrix_sized_buffers(self):
        # The identity is built in one of the two ping-pong buffers, and the
        # result is not copied again: the 4 MiB Shor collapse peaks near 8 MiB.
        comps = shor_components()
        circ = Circuit(9, comps["shor_enc"].steps + comps["shor_dec"].steps)
        tracemalloc.start()
        try:
            g = circ.to_gate()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.mat.nbytes == 2**22 and peak < 2.25 * g.mat.nbytes


class TestCurriedRun:
    """Circuit.run keeps the state curried across its steps."""

    @pytest.mark.parametrize("q", [2, 3])
    def test_random_circuits_match_reference_and_oracle(self, q):
        rng = np.random.default_rng(SEED)
        n = 5 if q == 2 else 4
        for _ in range(4):
            circ = Circuit(n, tuple(Step(lens, g) for lens, g in random_steps(n, q, rng)), q)
            s = random_state(n, q, rng)
            before = s.amps.copy()
            out = circ.run(s)
            assert np.array_equal(s.amps, before)
            assert not np.shares_memory(out.amps, s.amps)
            assert not out.amps.flags.writeable
            assert out.max_dev(reference_run(circ.steps, s)) <= 1e-12
            assert np.max(np.abs(out.amps - dense_product(circ.steps, n, q) @ s.amps)) <= 1e-10

    def test_empty_circuit_returns_fresh_readonly_copy(self):
        s = random_state(3, 2, np.random.default_rng(SEED))
        out = Circuit(3, ()).run(s)
        assert np.array_equal(out.amps, s.amps)
        assert not np.shares_memory(out.amps, s.amps)
        assert not out.amps.flags.writeable


class TestPlan:
    """run and to_gate plan the fused circuit once per batch size; these
    tests allocate no state-sized array."""

    def test_random_layered_plan_gathers_at_most_six_times(self):
        # The benchmark's seeded random_layered recipe (seed 7, n = 20): 30
        # dense steps on unsorted lenses fuse into 9; planning one gather
        # per step in lens order, plus the final uncurry, took 10 gathers.
        rng = np.random.default_rng(7)
        steps = []
        for m in map(int, rng.permutation(np.repeat([1, 2, 3], 10))):
            idx = tuple(int(w) for w in rng.choice(20, m, replace=False))
            steps.append(Step(Lens(20, idx), Gate(random_unitary(2**m, rng), m, m, 2)))
        plan = cached_plan(Circuit(20, tuple(steps)), None)
        kinds = [type(op) for op in plan]
        assert set(kinds) == {Gather, Gemm}
        assert kinds.count(Gemm) == 9
        assert kinds.count(Gather) <= 6

    def test_shor_to_gate_moves_rows_twice_after_the_fill(self, comps):
        # On the identity's batch every Gather and permutation step only
        # moves rows; runs of them compose into one Rows.  The basis fill writes
        # the first Rows, the first Gemm and the Rows after it, leaving 2
        # passes over the matrix.
        circ = Circuit(9, comps["shor_enc"].steps + comps["shor_dec"].steps)
        plan = cached_plan(circ, 2**9)
        assert [kind(op) for op in plan] == ["Rows:one", "Gemm"] * 2 + ["Rows:one"]
        assert focus_module._basis_walk(plan, 2**9, None)[2] == 3

    def test_run_and_to_gate_plan_once(self, monkeypatch):
        calls = []
        real = circuits_module._plan
        monkeypatch.setattr(circuits_module, "_plan",
                            lambda *a: calls.append(a[3]) or real(*a))
        circ = shor_components()["sign_flip_dec"]
        s = random_state(3, 2, np.random.default_rng(SEED))
        first = circ.run(s)
        assert np.array_equal(circ.run(s).amps, first.amps)
        assert np.array_equal(circ.to_gate().mat, circ.to_gate().mat)
        assert calls == [None, 8]

    def test_guard_refuses_before_allocating(self, monkeypatch):
        # Fusing builds the 32 x 32 cluster gates; nothing state-sized may
        # be allocated.
        circ = ghz_circuit(11)
        s = zero_state(12)

        def refuse(real):
            def alloc(shape, *a, **k):
                assert np.prod(shape) < 2**12, "allocated past the guard"
                return real(shape, *a, **k)
            return alloc

        monkeypatch.setattr(state_module, "MAX_STATE_ENTRIES", 3 * 2**12 - 1)
        monkeypatch.setattr(np, "empty", refuse(np.empty))
        monkeypatch.setattr(np, "eye", refuse(np.eye))
        with pytest.raises(SizeGuardExceeded):
            circ.run(s)
        with pytest.raises(SizeGuardExceeded):
            circ.to_gate()


def _scratch_cases(rng) -> dict:
    """Circuits on 6 wires, each with the op kinds its plan must have (the
    ops that write a buffer decide which buffers a run allocates and which
    one it returns): for a state or a batch of 3, and for the identity's
    batch of 64, where row moves merge into Rows; then whether a run, and a
    to_gate, writes both buffers.  The basis fill of a to_gate writes a
    leading Rows, the first Gemm and a Rows right after it, so of these
    only the to_gate of "even" writes both."""
    dense = (Step(Lens(6, (0, 1, 2, 3)), random_gate(4, 2, rng)),
             Step(Lens(6, (5, 4)), random_gate(2, 2, rng)))
    return {
        "even": (Circuit(6, dense), ["Gemm", "Gather", "Gemm", "Gather"],
                 ["Gemm", "Rows:one", "Gemm", "Rows:one"], (True, True)),
        "odd": (Circuit(6, dense[:1]), ["Gemm"], ["Gemm"], (False, False)),
        "in_place_after_gemm": (ghz_circuit(5), ["Gemm", "Rows:one", "Rows:several"],
                                ["Gemm", "Rows:one"], (True, False)),
        "in_place_first": (Circuit(6, (Step(Lens(6, (4, 1)), cnot()),) + dense[1:]),
                           ["Rows:several", "Gather", "Gemm", "Gather"],
                           ["Rows:one", "Gemm", "Rows:one"], (True, False)),
        "identity": (Circuit(6, ()), [], [], (False, False)),
    }


class TestScratchBuffer:
    """_execute allocates each buffer when an op first writes it, and from
    its second execution on a plan keeps the written buffer that _execute
    does not return beside it, so a later call allocates only the buffer it
    returns.  A kept buffer that ever became a returned array would
    silently overwrite a result the caller holds."""

    @staticmethod
    def held_results(call, kept, runs=4, keeps=True):
        """Run ``call`` ``runs`` times; each result must keep its values and
        share no memory with a later result or with the kept buffer.  A
        plan that writes one buffer (``keeps`` False) keeps none."""
        held = []
        for _ in range(runs):
            out = call()
            for old, values in held:
                assert np.array_equal(old, values)
                assert not np.shares_memory(old, out)
            held.append((out, out.copy()))
        scratch = kept()
        assert (scratch is not None) == keeps
        for out, values in held:
            assert np.array_equal(out, values)
            assert scratch is None or not np.shares_memory(out, scratch)
        return [out for out, _ in held]

    @pytest.mark.parametrize("case", ["even", "odd", "in_place_after_gemm",
                                      "in_place_first", "identity"])
    def test_results_never_alias_the_kept_buffer(self, case):
        # run_basis shares run's plan and scratch, and writes the same
        # buffers: its fill stands in for the copy or the first Gemm.
        rng = np.random.default_rng(SEED)
        circ, kinds, identity_kinds, (keeps, identity_keeps) = _scratch_cases(rng)[case]
        assert [kind(op) for op in cached_plan(circ, None)] == kinds
        assert [kind(op) for op in cached_plan(circ, 3)] == kinds
        assert [kind(op) for op in cached_plan(circ, 64)] == identity_kinds

        s = random_state(6, 2, rng)
        before = s.amps.copy()
        outs = self.held_results(lambda: circ.run(s).amps, lambda: circ._programs[None][1],
                                 keeps=keeps)
        assert np.array_equal(s.amps, before)
        want = reference_run(circ.steps, s)
        assert all(want.max_dev(State(6, 2, out)) <= 1e-12 for out in outs)
        assert all(np.array_equal(out, outs[0]) for out in outs)

        v = (1, 0, 1, 1, 0, 1)
        outs = self.held_results(lambda: circ.run_basis(v).amps,
                                 lambda: circ._programs[None][1], keeps=keeps)
        assert all(np.array_equal(out, circ.run(ket(v)).amps) for out in outs)

        batch = rng.standard_normal((64, 3)) + 1j * rng.standard_normal((64, 3))
        before = batch.copy()
        outs = self.held_results(lambda: circ._run_plan(3, batch), lambda: circ._programs[3][1],
                                 keeps=keeps)
        assert np.array_equal(batch, before)
        assert max_entry(outs[0], dense_product(circ.steps, 6, 2) @ batch) <= 1e-10
        assert all(np.array_equal(out, outs[0]) for out in outs)

        outs = self.held_results(lambda: circ.to_gate().mat, lambda: circ._programs[64][1],
                                 keeps=identity_keeps)
        assert max_entry(outs[0], dense_product(circ.steps, 6, 2)) <= 1e-10
        assert all(np.array_equal(out, outs[0]) for out in outs)

    def test_run_once_keeps_nothing(self):
        circ, _, _, _ = _scratch_cases(np.random.default_rng(SEED))["even"]
        circ.run(zero_state(6))
        circ.to_gate()
        assert {b: scratch for b, (_, scratch) in circ._programs.items()} == {None: None, 64: None}

    @pytest.mark.parametrize("case", ["even", "odd", "in_place_after_gemm", "in_place_first"])
    def test_later_runs_allocate_one_state_sized_array(self, monkeypatch, case):
        # A call allocates the buffers its plan writes; the second keeps
        # the one it does not return, so each later call allocates only
        # the array it returns.  On the identity (to_gate), every plan here
        # but "even" is written by the basis fill and one buffer.  run_basis
        # shares run's plan and kept scratch.
        circ, _, _, (keeps, identity_keeps) = _scratch_cases(np.random.default_rng(SEED))[case]
        counts = []
        real = np.empty

        def counted(shape, *a, **k):
            out = real(shape, *a, **k)
            counts[-1] += out.dtype == np.complex128 and out.shape in {(64,), (64, 64)}
            return out

        monkeypatch.setattr(np, "empty", counted)
        s = zero_state(6)
        for call in ([lambda: circ.run(s)] * 5 + [lambda: circ.run_basis((0,) * 6)] * 2
                     + [circ.to_gate] * 5):
            counts.append(0)
            call()
        assert counts == (([2, 2, 1, 1, 1] if keeps else [1] * 5) + [1, 1]
                          + ([2, 2, 1, 1, 1] if identity_keeps else [1] * 5))

    def test_plans_with_nothing_to_run_allocate_no_scratch(self, monkeypatch):
        # An empty plan copies the input or writes the identity, and the
        # to_gate of a pure permutation circuit folds its one Rows into
        # the identity fill: each call writes, and allocates, only the
        # buffer it returns.
        counts = []
        real = np.empty

        def counted(shape, *a, **k):
            out = real(shape, *a, **k)
            counts[-1] += out.dtype == np.complex128
            return out

        empty, perm = Circuit(16, ()), reversal_circuit(6)
        assert [kind(op) for op in cached_plan(perm, 64)] == ["Rows:one"]
        s = random_state(16, 2, np.random.default_rng(SEED))
        monkeypatch.setattr(np, "empty", counted)
        outs = []
        for _ in range(3):
            counts.append(0)
            outs.append(empty.run(s).amps)
        assert counts == [1, 1, 1]
        assert all(np.array_equal(out, s.amps) and not np.shares_memory(out, s.amps)
                   for out in outs)
        counts.clear()
        for _ in range(3):
            counts.append(0)
            got = empty.run_basis((1,) * 16).amps
        assert counts == [1, 1, 1]
        assert np.array_equal(got, ket((1,) * 16).amps)
        for circ in (Circuit(6, ()), perm):
            counts.clear()
            for _ in range(3):
                counts.append(0)
                got = circ.to_gate().mat
            assert counts == [1, 1, 1]
            assert np.array_equal(got, dense_product(circ.steps, 6, 2))
            assert circ._programs[64][1] is None
        assert empty._programs[None][1] is None

    def test_threads_running_one_circuit_share_no_buffer(self):
        # Run twice first, so that the circuit holds a scratch buffer that
        # every thread reaches for; a shared one corrupted a third or more
        # of these runs.  Four threads, switching often.
        rng = np.random.default_rng(SEED)
        circ = Circuit(16, tuple(Step(lens, g) for lens, g in random_steps(16, 2, rng)))
        states = [random_state(16, 2, rng) for _ in range(4)]
        wants = [reference_run(circ.steps, s) for s in states]
        for s in states[:2]:
            circ.run(s)
        assert circ._programs[None][1] is not None
        barrier = threading.Barrier(len(states))
        results: list[list] = [[] for _ in states]

        def worker(k):
            barrier.wait(timeout=60)
            for _ in range(20):
                results[k].append(circ.run(states[k]))

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(len(states))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for want, outs in zip(wants, results):
            assert len(outs) == 20
            assert all(out.max_dev(want) <= 1e-12 for out in outs)
            assert all(np.array_equal(out.amps, outs[0].amps) for out in outs)


def _basis_circuits() -> dict:
    """Circuits whose run plans open with each op kind the basis fill meets
    (under _RUN_MIN = 2, unfused): a leading Gemm, a Gemm on a middle block
    (A > 1), a Gather, a Rows on several axes, a one-axis Rows on a middle
    block, and no op at all; then two random circuits, fused."""
    rng = np.random.default_rng(SEED)
    cycle = Gate(np.eye(8)[_random_cycle(8, rng)], 3, 3, 2)
    unfused = {
        "gemm_leading": Circuit(4, (Step(Lens(4, (0, 1)), random_gate(2, 2, rng)),
                                    Step(Lens(4, (3,)), random_gate(1, 2, rng)))),
        "gemm_middle": Circuit(5, (Step(Lens(5, (2, 1)), random_gate(2, 2, rng)),
                                   Step(Lens(5, (0, 4)), random_gate(2, 2, rng)))),
        "gather": Circuit(4, (Step(Lens(4, (3, 0)), random_gate(2, 2, rng)),)),
        "permute": reversal_circuit(5),
        "rows": Circuit(4, (Step(Lens(4, (1, 2, 3)), cycle), Step(Lens(4, (0,)), hadamard()))),
        "empty": Circuit(3, ()),
    }
    return {**{name: circ.fused(0) for name, circ in unfused.items()},
            "qutrit": _random_mixed_circuit(3, 3, rng),
            "mixed": _random_mixed_circuit(4, 2, rng)}


class TestRunBasis:
    """Circuit.run_basis(v) is run(ket(v)), bit for bit, with no ket built."""

    FIRST_OPS = {"gemm_leading": "Gemm", "gemm_middle": "Gemm", "gather": "Gather",
                 "permute": "Rows:several", "rows": "Rows:one", "empty": None}

    @pytest.mark.parametrize("name", sorted(_basis_circuits()))
    def test_matches_run_on_the_ket_for_every_basis_tuple(self, monkeypatch, name):
        monkeypatch.setattr(focus_module, "_RUN_MIN", 2)
        circ = _basis_circuits()[name]
        plan = cached_plan(circ, None)
        if name in self.FIRST_OPS:
            assert (kind(plan[0]) if plan else None) == self.FIRST_OPS[name]
        if name == "gemm_middle":
            assert plan[0].A > 1
        if name == "rows":
            assert plan[0].shape[0] > 1
        for v in all_basis_tuples(circ.n, circ.q):
            got = circ.run_basis(v)
            want = circ.run(ket(v, circ.q))
            assert np.array_equal(got.amps, want.amps)
            assert not got.amps.flags.writeable
        v = (1,) * circ.n
        want = dense_product(circ.steps, circ.n, circ.q) @ ket(v, circ.q).amps
        assert max_entry(circ.run_basis(v).amps, want) <= 1e-10

    def test_checks_the_tuple_as_ket_does(self):
        circ = ghz_circuit(2)
        with pytest.raises(ShapeMismatch):
            circ.run_basis((0, 0))
        with pytest.raises(IndexOutOfRange):
            circ.run_basis((0, 2, 0))
        with pytest.raises(IndexOutOfRange):
            circ.run_basis((0, -1, 0))
        with pytest.raises(SizeGuardExceeded):
            Circuit(31, ()).run_basis((0,) * 31)

    @pytest.mark.parametrize("symbol", [0.5, 1.0, "1", True])
    def test_symbol_that_is_no_integer_rejected(self, symbol):
        with pytest.raises(IndexOutOfRange):
            ghz_circuit(2).run_basis((0, symbol, 0))


def _adder(q: int) -> Gate:
    """|a, b> -> |a, a + b mod q>: a CNOT at q = 2, its own inverse only there."""
    a, b = np.divmod(np.arange(q * q), q)
    return Gate(np.eye(q * q)[a * q + (a + b) % q].T, 2, 2, q)


def _permutation_ladders(n: int, q: int, rng: np.random.Generator) -> dict:
    """GHZ (a Fourier gate on wire 0, then a ladder of adders), the same
    ladder after a random gate, the adder ladder alone and the reversal, on
    n wires."""
    a, b = np.divmod(np.arange(q * q), q)
    add = _adder(q)
    swap_q = Gate(np.eye(q * q)[b * q + a], 2, 2, q)
    fourier = Gate(np.exp(2j * np.pi * np.outer(a[:q], a[:q]) / q) / math.sqrt(q), 1, 1, q)
    ladder = tuple(Step(Lens(n, (i, i + 1)), add) for i in range(n - 1))
    return {"ghz": Circuit(n, (Step(Lens(n, (0,)), fourier), *ladder), q),
            "random_then_ladder": Circuit(n, (Step(Lens(n, (0,)), random_gate(1, q, rng)),
                                              *ladder), q),
            "ladder": Circuit(n, ladder, q),
            "reversal": Circuit(n, tuple(Step(Lens(n, (i, n - 1 - i)), swap_q)
                                         for i in range(n // 2)), q)}


def _one_dense_step(q: int, rng: np.random.Generator) -> dict:
    """Five-wire circuits whose one dense step sits mid-circuit on the
    unsorted, non-adjacent lens (3, 1), between permutations that are not
    their own inverses (adders at q = 3, random cycles) and a 0-wire
    identity; and the same with a 0-wire scalar, a gate with exact zeros in
    its columns, or null(1) as the dense step."""
    n, add = 5, _adder(q)

    def cycle(m: int) -> Gate:
        return Gate(np.eye(q**m)[_random_cycle(q**m, rng)], m, m, q)

    before = (Step(Lens(n, (0, 1)), add), Step(Lens(n, (4, 2, 0)), cycle(3)),
              Step(Lens(n, (3,)), cycle(1)))
    after = (Step(Lens(n, ()), identity(0, q)), Step(Lens(n, (1, 4)), cycle(2)),
             Step(Lens(n, (2, 3)), add))
    zeros = rng.standard_normal((q * q, q * q)) + 1j * rng.standard_normal((q * q, q * q))
    zeros[rng.random(zeros.shape) < 0.4] = 0
    dense = {"unitary": Step(Lens(n, (3, 1)), random_gate(2, q, rng)),
             "scalar": Step(Lens(n, ()), Gate(np.array([[0.6 - 0.8j]]), 0, 0, q)),
             "zeros": Step(Lens(n, (3, 1)), Gate(zeros, 2, 2, q)),
             "null": Step(Lens(n, (3,)), null(1, q))}
    return {name: Circuit(n, (*before, step, *after), q) for name, step in dense.items()}


class TestBasisSupport:
    """Circuit._basis_support(v) is the support of run_basis(v), bit for
    bit, wherever a walk covers the circuit, and its text is
    state_to_text's of the dense run."""

    THRESHOLDS = (0.0, 0.3, 0.5, 0.8)

    def assert_matches_dense(self, circ, v, support=None):
        """``support``, circ._basis_support(v) if not given, against
        run_basis(v)."""
        support, dense = support or circ._basis_support(v), circ.run_basis(v)
        plan = circ._programs[None][0]
        assert (support is None) == (sum(isinstance(op, Gemm) for op in plan) > 1)
        if support is None:
            return False
        indices, values = support
        assert (np.diff(indices) > 0).all()
        amps = np.zeros(dense.amps.size, complex)
        amps[indices] = values
        assert np.array_equal(amps, dense.amps)
        for threshold in self.THRESHOLDS:
            assert (state_module.support_to_text(circ.n, circ.q, indices, values, threshold)
                    == state_module.state_to_text(dense, threshold))
        return True

    @pytest.mark.parametrize("name", sorted(_basis_circuits()))
    def test_matches_run_basis_for_every_basis_tuple(self, monkeypatch, name):
        monkeypatch.setattr(focus_module, "_RUN_MIN", 2)
        circ = _basis_circuits()[name]
        for v in all_basis_tuples(circ.n, circ.q):
            self.assert_matches_dense(circ, v)

    @pytest.mark.parametrize("q, n", [(2, 5), (3, 3)])
    def test_ladders_below_the_permutation_size_for_every_basis_tuple(self, q, n):
        for circ in _permutation_ladders(n, q, np.random.default_rng(SEED)).values():
            for v in all_basis_tuples(n, q):
                assert self.assert_matches_dense(circ, v)

    @pytest.mark.parametrize("q, n", [(2, 14), (2, 16), (3, 9)])
    def test_ladders_past_the_permutation_size(self, q, n):
        rng = np.random.default_rng(SEED)
        for circ in _permutation_ladders(n, q, rng).values():
            for v in [(0,) * n, (q - 1,) * n] + [tuple(map(int, rng.integers(0, q, n)))
                                                 for _ in range(4)]:
                assert self.assert_matches_dense(circ, v)

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("name", ["unitary", "scalar", "zeros", "null"])
    def test_one_dense_step_walks_the_steps_unplanned(self, monkeypatch, q, name):
        circ = _one_dense_step(q, np.random.default_rng(SEED))[name]

        def refuse(*args):
            raise AssertionError("a walk of the circuit's own steps fused or planned")

        with monkeypatch.context() as patch:
            patch.setattr(circuits_module, "_plan", refuse)
            patch.setattr(Circuit, "fused", refuse)
            supports = {v: circ._basis_support(v) for v in all_basis_tuples(circ.n, q)}
        assert "_programs" not in circ.__dict__ and "_clusters" not in circ.__dict__
        for v, support in supports.items():
            assert self.assert_matches_dense(circ, v, support)
            if name == "null":
                assert state_module.support_to_text(circ.n, q, *support, 0.0) == ""

    @pytest.mark.parametrize("q, n", [(2, 16), (3, 10)])
    def test_dense_steps_fused_to_one_product_walk_the_plan(self, q, n):
        # Two dense steps on wires {0} and {1, 0} fuse to one cluster: the
        # fused walk covers the plan, and no array of q**n entries is made.
        rng = np.random.default_rng(SEED)
        circ = Circuit(n, (Step(Lens(n, (0,)), random_gate(1, q, rng)),
                           Step(Lens(n, (1, 0)), random_gate(2, q, rng)),
                           *(Step(Lens(n, (i, i + 1)), _adder(q)) for i in range(1, n - 1))),
                       q)
        v = tuple(map(int, rng.integers(0, q, n)))
        tracemalloc.start()
        try:
            support = circ._basis_support(v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < q**n * 16 / 4
        assert len(circ._programs[None][0]) > 0
        assert self.assert_matches_dense(circ, v, support)

    def test_checks_the_tuple_and_working_set_as_run_basis_does(self, monkeypatch):
        circ = ghz_circuit(2)
        with pytest.raises(ShapeMismatch):
            circ._basis_support((0, 0))
        with pytest.raises(IndexOutOfRange):
            circ._basis_support((0, 2, 0))
        with pytest.raises(IndexOutOfRange):
            circ._basis_support((0, 0.5, 0))
        with pytest.raises(SizeGuardExceeded):
            Circuit(31, ())._basis_support((0,) * 31)
        monkeypatch.setattr(state_module, "MAX_STATE_ENTRIES", 2 * 2**3 - 1)
        for run in (circ.run_basis, circ._basis_support):
            with pytest.raises(SizeGuardExceeded):
                run((0, 0, 0))

    def test_takes_and_keeps_the_plan_and_scratch(self):
        # Two dense products on 4 and 2 of 6 wires: the walk stops at the
        # second, which a run_basis writes into the scratch.
        circ = _scratch_cases(np.random.default_rng(SEED))["even"][0]
        for _ in range(2):
            circ.run_basis((0,) * 6)
        plan, scratch = circ._programs[None]
        assert scratch is not None
        assert circ._basis_support((1, 0, 0, 1, 0, 1)) is None
        assert circ._programs[None][0] is plan and circ._programs[None][1] is scratch


class TestFusion:
    """Circuit.fused clusters dense steps; run and to_gate execute the fusion."""

    def test_clusters_stay_within_max_wires(self):
        rng = np.random.default_rng(SEED)
        for _ in range(10):
            circ = _random_mixed_circuit(6, 2, rng)
            for k in range(1, 6):
                fused = circ.fused(k).steps
                new = [st for st in fused if not any(st is old for old in circ.steps)]
                assert all(st.lens.m <= k for st in new)
                assert len(fused) <= len(circ.steps)

    def test_dense_step_stays_behind_permutation_on_shared_wire(self):
        rng = np.random.default_rng(SEED)
        u, cx = Step(Lens(3, (0,)), random_gate(1, 2, rng)), Step(Lens(3, (0, 1)), cnot())
        v = Step(Lens(3, (1,)), random_gate(1, 2, rng))
        w = Step(Lens(3, (0,)), random_gate(1, 2, rng))
        circ = Circuit(3, (u, cx, v, w))
        fused = circ.fused(3)
        assert fused.steps[0] is u and fused.steps[1] is cx
        assert [st.lens.idx for st in fused.steps[2:]] == [(1, 0)]
        s = random_state(3, 2, rng)
        assert fused.run(s).max_dev(reference_run(circ.steps, s)) <= 1e-12

    def test_disjoint_dense_step_joins_across_permutation(self):
        rng = np.random.default_rng(SEED)
        u, cx = Step(Lens(3, (0,)), random_gate(1, 2, rng)), Step(Lens(3, (0, 1)), cnot())
        w = Step(Lens(3, (2,)), random_gate(1, 2, rng))
        fused = Circuit(3, (u, cx, w)).fused(2)
        assert [st.lens.idx for st in fused.steps] == [(0, 2), (0, 1)]
        assert fused.steps[1] is cx

    @pytest.mark.parametrize("circ, builds", [
        (cli.circuit_from_spec(cli.circuit_to_spec(ghz_circuit(19))), 2),
        (reversal_circuit(20), 1),
    ], ids=["ghz20_parsed", "reversal20"])
    def test_matching_clusters_build_one_gate(self, monkeypatch, circ, builds):
        # Matching clusters are found by their relabelled lenses and gate
        # bytes, not by gate objects: a circuit may hold equal gates apart.
        # Each shared gate equals the one built from the cluster's own steps.
        calls = []
        real = circuits_module._collapse
        monkeypatch.setattr(circuits_module, "_collapse",
                            lambda *a: calls.append(a) or real(*a))
        fused = circ._clusters
        assert len(calls) == builds
        left = list(circ.steps)
        for st in fused:
            own = [old for old in left if set(old.lens.idx) <= set(st.lens.idx)]
            left = [old for old in left if not any(old is o for o in own)]
            if len(own) > 1:
                alone = real(st.lens.m, 2, _local(st.lens.idx, ((o.lens, o.gate) for o in own)))
                assert np.array_equal(st.gate.mat, alone.mat)
        assert not left

    @pytest.mark.parametrize("circ, clusters", [
        (ghz_circuit(15), [(0,), (0, 1, 2, 3, 4), (4, 5, 6, 7, 8), (8, 9, 10, 11, 12),
                           (12, 13, 14, 15)]),
        (reversal_circuit(16), [(0, 15, 1, 14), (2, 13, 3, 12), (4, 11, 5, 10),
                                (6, 9, 7, 8)]),
    ], ids=["ghz16", "reversal16"])
    def test_permutation_runs_fuse_apart_from_dense_bit_identical(self, circ, clusters):
        fused = circ._clusters
        assert [st.lens.idx for st in fused] == clusters
        assert all(st.lens.m <= FUSE_WIRES for st in fused)
        # The one dense step (GHZ's Hadamard) stays alone; every other step
        # is a 0/1 permutation cluster, so no cluster mixes the two kinds.
        dense = [st for st in fused if st.gate.rows is None]
        raw_dense = [st for st in circ.steps if st.gate.rows is None]
        assert len(dense) == len(raw_dense)
        assert all(a is b for a, b in zip(dense, raw_dense))
        s = random_state(16, 2, np.random.default_rng(SEED))
        raw = _focus_steps(16, 2, ((st.lens, st.gate) for st in circ.steps), s.amps)
        assert np.array_equal(circ.run(s).amps, raw)

    def test_dense_and_permutation_steps_never_share_a_cluster(self):
        # u may not join the CNOT's cluster; the swap commutes past u and joins it.
        rng = np.random.default_rng(SEED)
        cx, u = Step(Lens(3, (0, 1)), cnot()), Step(Lens(3, (0,)), random_gate(1, 2, rng))
        circ = Circuit(3, (cx, u, Step(Lens(3, (1, 2)), swap())))
        fused = circ.fused(3)
        assert [st.lens.idx for st in fused.steps] == [(0, 1, 2), (0,)]
        assert fused.steps[0].gate.rows is not None
        assert fused.steps[1] is u
        s = random_state(3, 2, rng)
        assert fused.run(s).max_dev(reference_run(circ.steps, s)) <= 1e-12

    @pytest.mark.parametrize("q", [2, 3])
    def test_to_gate_matches_oracle_and_reference(self, q):
        rng = np.random.default_rng(SEED)
        for _ in range(6):
            circ = _random_mixed_circuit(int(rng.integers(1, 7 if q == 2 else 5)), q, rng)
            mat = circ.to_gate().mat
            assert np.max(np.abs(mat - dense_product(circ.steps, circ.n, q))) <= 1e-10
            for _ in range(2):
                s = random_state(circ.n, q, rng)
                assert np.max(np.abs(mat @ s.amps - reference_run(circ.steps, s).amps)) <= 1e-12

    def test_zero_wire_steps(self):
        rng = np.random.default_rng(SEED)
        phase = [Step(Lens(4, ()), Gate(np.array([[np.exp(1j * t)]]), 0, 0)) for t in (0.3, 1.1)]
        h = Step(Lens(4, (2,)), hadamard())
        u = Step(Lens(4, (3, 1)), random_gate(2, 2, rng))
        s = random_state(4, 2, rng)
        only_phases = Circuit(4, tuple(phase)).fused(FUSE_WIRES)
        assert [st.lens.idx for st in only_phases.steps] == [()]
        assert abs(only_phases.steps[0].gate.mat[0, 0] - np.exp(1.4j)) <= 1e-15
        for steps in (phase, [phase[0], h, phase[1], u], [u, phase[0], phase[1], h]):
            circ = Circuit(4, tuple(steps))
            want = reference_run(circ.steps, s)
            for k in range(0, 5):
                assert circ.fused(k).run(s).max_dev(want) <= 1e-12
            assert circ.run(s).max_dev(want) <= 1e-12

    @pytest.mark.parametrize("q, max_wires", [(3, 3), (4, 2), (10, 1)])
    def test_qudit_clusters_stay_within_dimension(self, q, max_wires):
        # run fuses to clusters of q**k <= 2**FUSE_WIRES amplitudes.
        rng = np.random.default_rng(SEED)
        steps = tuple(Step(Lens(4, (w,)), random_gate(1, q, rng)) for w in (0, 1, 2, 3, 0))
        circ = Circuit(4, steps, q)
        assert max(st.lens.m for st in circ._clusters) == max_wires
        s = random_state(4, q, rng)
        assert circ.run(s).max_dev(reference_run(circ.steps, s)) <= 1e-12

    def test_cluster_past_the_dense_guard_refused(self):
        steps = tuple(Step(lens_single(15, w), hadamard()) for w in range(15))
        with pytest.raises(SizeGuardExceeded):
            Circuit(15, steps).fused(15)

    def test_fused_once_across_runs(self, monkeypatch):
        calls = []
        real = Circuit.fused
        monkeypatch.setattr(Circuit, "fused",
                            lambda self, k: calls.append(k) or real(self, k))
        rng = np.random.default_rng(SEED)
        circ = Circuit(4, tuple(Step(lens, g) for lens, g in random_steps(4, 2, rng)))
        s = random_state(4, 2, rng)
        first = circ.run(s)
        assert np.array_equal(circ.run(s).amps, first.amps)
        circ.to_gate()
        assert calls == [FUSE_WIRES]

    def test_running_a_fused_circuit_does_not_fuse_again(self):
        rng = np.random.default_rng(SEED)
        circ = Circuit(4, tuple(Step(lens, g) for lens, g in random_steps(4, 2, rng)))
        fused = circ.fused(2)
        assert fused._clusters is fused.steps

    def test_circuit_with_programs_freed_with_its_last_reference(self):
        # No reference cycle: a circuit holding its clusters, plans and
        # scratch buffers does not wait for the garbage collector.  GHZ-7's
        # to_gate plan (Gemm, Rows) is written by the basis fill alone and
        # keeps none; two dense products on 4 and 2 of 6 wires write both
        # buffers after the fill, in run and in to_gate.
        for circ, kept in ((ghz_circuit(6), [True, False]),
                           (_scratch_cases(np.random.default_rng(SEED))["even"][0], [True, True])):
            for _ in range(2):
                circ.run(ket((0,) * circ.n))
                circ.to_gate()
            assert [scratch is not None for _, scratch in circ._programs.values()] == kept
        ref = weakref.ref(circ)
        gc.disable()
        try:
            del circ
            assert ref() is None
        finally:
            gc.enable()


class TestShorComponents:
    def test_step_counts(self, comps):
        counts = {name: len(c.steps) for name, c in comps.items()}
        assert counts == {
            "bit_flip_enc": 2,
            "bit_flip_dec": 3,
            "hadamard3": 3,
            "sign_flip_enc": 5,
            "sign_flip_dec": 6,
            "shor_enc": 11,
            "shor_dec": 15,
        }

    def test_wire_counts(self, comps):
        assert comps["shor_enc"].n == comps["shor_dec"].n == 9
        assert all(comps[k].n == 3 for k in
                   ("bit_flip_enc", "bit_flip_dec", "hadamard3",
                    "sign_flip_enc", "sign_flip_dec"))

    @pytest.mark.parametrize("i,j,k", list(product(range(2), repeat=3)))
    def test_bit_flip_encoding(self, comps, i, j, k):
        out = comps["bit_flip_enc"].run(ket((i, j, k)))
        assert np.array_equal(out.amps, ket((i, i ^ j, i ^ k)).amps)

    def test_bit_flip_single_instance(self, comps):
        out = comps["bit_flip_enc"].run(ket((1, 0, 0)))
        assert np.array_equal(out.amps, ket((1, 1, 1)).amps)

    def test_sign_flip_roundtrip_fixes_zero_ancillas(self, comps):
        for i in range(2):
            inp = ket((i, 0, 0))
            out = comps["sign_flip_dec"].run(comps["sign_flip_enc"].run(inp))
            assert out.max_dev(inp) <= 1e-9

    @pytest.mark.parametrize("i", range(2))
    def test_encoded_codewords(self, comps, i):
        # hand expansion: (|000> +/- |111>)^(x3) / (2 sqrt 2), sign from the
        # parity of 111-triples when encoding |1>
        enc = comps["shor_enc"].run(ket((i,) + (0,) * 8))
        amp = 1.0 / (2.0 * math.sqrt(2.0))
        want = np.zeros(512, dtype=complex)
        for triples in product((0, 1), repeat=3):
            tup = sum(((t,) * 3 for t in triples), ())
            sign = (-1) ** sum(triples) if i else 1
            want[int("".join(map(str, tup)), 2)] = sign * amp
        assert np.max(np.abs(enc.amps - want)) <= 1e-12


class TestGhz:
    def test_depth_zero_is_single_hadamard(self):
        circ = ghz_circuit(0)
        assert circ.n == 1
        assert len(circ.steps) == 1
        out = circ.run(ket((0,)))
        want = math.sqrt(0.5) * (ket((0,)) + ket((1,)))
        assert np.array_equal(out.amps, want.amps)

    def test_depth_one_is_bell_pair(self):
        out = ghz_circuit(1).run(ket((0, 0)))
        want = np.zeros(4, dtype=complex)
        want[0] = want[3] = math.sqrt(0.5)
        assert np.max(np.abs(out.amps - want)) <= 1e-15

    def test_ladder_structure(self):
        circ = ghz_circuit(4)
        assert circ.n == 5
        names = [s.name for s in circ.steps]
        assert names == ["hadamard"] + ["cnot"] * 4
        assert [s.lens.idx for s in circ.steps[1:]] == [(0, 1), (1, 2), (2, 3), (3, 4)]

    def test_target_state_shape(self):
        s = ghz_state(3)
        assert s.amplitude((0, 0, 0)) == pytest.approx(math.sqrt(0.5), abs=0)
        assert s.amplitude((1, 1, 1)) == pytest.approx(math.sqrt(0.5), abs=0)
        assert s.is_unit()

    def test_negative_depth_rejected(self):
        with pytest.raises(ShapeMismatch):
            ghz_circuit(-1)

    def test_target_state_needs_a_wire(self):
        with pytest.raises(ShapeMismatch, match="at least one wire"):
            ghz_state(0)

    @pytest.mark.parametrize("depth", range(7))
    def test_steps_match_recursive_definition(self, depth):
        def recursive(d):
            if d == 0:
                return Circuit(1, (Step(lens_single(1, 0), hadamard(), "hadamard"),))
            steps = recursive(d - 1).embedded(lens_single(d + 1, d).complement).steps
            return Circuit(d + 1, steps + (Step(lens_pair(d + 1, d - 1, d), cnot(), "cnot"),))

        got, want = ghz_circuit(depth), recursive(depth)
        assert got.n == want.n
        assert ([(st.lens, st.name) for st in got.steps]
                == [(st.lens, st.name) for st in want.steps])
        assert all(np.array_equal(a.gate.mat, b.gate.mat) for a, b in zip(got.steps, want.steps))


class TestReversal:
    def test_two_wires(self):
        circ = reversal_circuit(2)
        for a, b in all_basis_tuples(2):
            assert np.array_equal(circ.run(ket((a, b))).amps, ket((b, a)).amps)

    def test_single_wire_has_no_steps(self):
        assert reversal_circuit(1).steps == ()

    def test_negative_wire_count_rejected(self):
        with pytest.raises(ShapeMismatch, match="wire count"):
            reversal_circuit(-1)

    def test_three_wires_against_dense_route(self):
        # independent route: collapse the circuit and check the full matrix
        # permutes basis columns exactly as tuple reversal does
        circ = reversal_circuit(3)
        dense = circ.to_gate()
        for j, v in enumerate(all_basis_tuples(3)):
            col = dense.mat[:, j]
            assert np.array_equal(col, ket(v[::-1]).amps)

    def test_pair_layout(self):
        circ = reversal_circuit(5)
        assert [s.lens.idx for s in circ.steps] == [(0, 4), (1, 3)]


class TestMarginal:
    def test_identity_lens_gives_magnitudes(self):
        rng = np.random.default_rng(SEED)
        s = random_state(3, 2, rng)
        from qlens import lens_id

        assert np.max(np.abs(marginal(lens_id(3), s) - np.abs(s.amps))) <= 1e-15

    def test_single_wire_of_basis_state(self):
        table = marginal(lens_single(2, 0), ket((1, 0)))
        assert np.array_equal(table, [0.0, 1.0])

    def test_untouched_wire_marginal_invariant(self):
        # a unitary on wires 1,3 cannot move probability weight on wire 0
        rng = np.random.default_rng(SEED)
        s = random_state(4, 2, rng)
        moved = focus_apply(Lens(4, (1, 3)), cnot(), s)
        before = marginal(lens_single(4, 0), s)
        after = marginal(lens_single(4, 0), moved)
        assert np.max(np.abs(after - before)) <= 1e-10

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            marginal(lens_single(3, 0), zero_state(2))
