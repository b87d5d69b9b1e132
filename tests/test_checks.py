"""The law suites are not vacuous: a fault planted in the code a scope guards
makes at least one of its laws report FAIL.

The acceptance criteria assert that every law passes on the real code; these
tests show that the same laws notice when that code is wrong.
"""

import numpy as np
import pytest

import qlens.circuits as circuits_module
import qlens.focus as focus_module
import qlens.parallel as parallel_module
from qlens import Circuit, Gate, Lens
from qlens.checks import CheckResult, run_scope
from qlens.cli import main
from _helpers import last_step_dropped


def merge_ignores_lens_order(monkeypatch):
    real = Lens.merge
    monkeypatch.setattr(Lens, "merge", lambda self, v, c: real(
        Lens(self.n, tuple(sorted(self.idx))), v, c))


def lens_read_reversed(monkeypatch):
    real = focus_module._focus_steps
    monkeypatch.setattr(focus_module, "_focus_steps", lambda n, q, steps, amps: real(
        n, q, [(Lens(lens.n, lens.idx[::-1]), g) for lens, g in steps], amps))


def cycles_rotated_backwards(monkeypatch):
    real = focus_module._cycles
    monkeypatch.setattr(focus_module, "_cycles",
                        lambda rows: [c[::-1] for c in real(rows)])


def axis_order_skipped(monkeypatch, dense):
    # A gate's lens digits read as if its lens wires sat on their axes in
    # lens order, for dense gates or for 0/1 permutations only.
    real = focus_module._in_axis_order
    monkeypatch.setattr(focus_module, "_in_axis_order", lambda mat, axes, q: (
        mat if (Gate(mat, q=q).rows is None) == dense else real(mat, axes, q)))


def permutation_skips_axis_order(monkeypatch):
    axis_order_skipped(monkeypatch, dense=False)


def dense_skips_axis_order(monkeypatch):
    axis_order_skipped(monkeypatch, dense=True)


def fuser_ignores_commutation(monkeypatch):
    # Every step may join any cluster with room, past steps it does not
    # commute with.
    monkeypatch.setattr(circuits_module, "_earliest_join", lambda items, wires: 0)


def gate_transposed(monkeypatch):
    real = focus_module._focus_steps
    monkeypatch.setattr(focus_module, "_focus_steps", lambda n, q, steps, amps: real(
        n, q, [(lens, Gate(g.mat.T, g.wires_in, g.wires_out, g.q)) for lens, g in steps],
        amps))


def combine_ignores_union_order(monkeypatch):
    # Operands are placed in concatenation order: combine relabels a and b
    # onto their a.idx + b.idx positions, not onto their places in the
    # sorted union.
    real = parallel_module._local

    def local(wires, steps):
        steps = list(steps)
        return real([w for lens, _ in steps for w in lens.idx], steps)

    monkeypatch.setattr(parallel_module, "_local", local)


def local_reads_wires_sorted(monkeypatch):
    # The relabel that combine and the fuser share reads the wires in
    # ascending order: only a fused cluster lists its wires unsorted.
    real = focus_module._local
    for module in (circuits_module, parallel_module):
        monkeypatch.setattr(module, "_local",
                            lambda wires, steps: real(sorted(wires), steps))


def rows_compose_reversed(monkeypatch):
    # A row map r2 that follows r1 composes to r2[r1] instead of r1[r2]
    # (relabel composes one-axis Rows only).  Only that indexing changes:
    # the basis walk's argsort of the rows stays a plain array.
    class Reversed(np.ndarray):
        def __getitem__(self, rows):
            return np.asarray(rows)[self.view(np.ndarray)]

        def argsort(self, *args, **kwargs):
            return self.view(np.ndarray).argsort(*args, **kwargs)

    class Rows(focus_module.Rows):
        def __new__(cls, rows, shape, axes):
            return super().__new__(cls, rows.view(Reversed) if len(axes) == 1 else rows,
                                   shape, axes)

    monkeypatch.setattr(focus_module, "Rows", Rows)


def fill_skips_rows_after_product(monkeypatch):
    # The basis walk carries the kets through the plan's first product and
    # counts the Rows right after it as done, but leaves those rows where
    # the product put them.
    real = focus_module._basis_walk

    def walk(plan, cols, index):
        first = 1 if plan and isinstance(plan[0], focus_module.Rows) else 0
        if (len(plan) > first + 1 and isinstance(plan[first], focus_module.Gemm)
                and isinstance(plan[first + 1], focus_module.Rows)):
            flat, vals, done = real(plan[:first + 1], cols, index)
            return flat, vals, done + 1
        return real(plan, cols, index)

    monkeypatch.setattr(focus_module, "_basis_walk", walk)


def rows_carried_forward(monkeypatch):
    # The basis walk carries the kets through the row map of a one-axis
    # Rows on a middle block (A > 1) instead of through its inverse.
    real = focus_module.Rows.moved

    def moved(op, flat):
        if op.axes == (1,) and op.shape[0] > 1:
            op = op._replace(rows=np.argsort(op.rows))
        return real(op, flat)

    monkeypatch.setattr(focus_module.Rows, "moved", moved)


def support_left_unsorted(monkeypatch):
    # The support a basis run prints from comes out of index order
    # (reversed, so every support of two entries or more is out of order).
    real = Circuit._basis_support

    def support(self, v):
        out = real(self, v)
        return out if out is None else (out[0][::-1], out[1][::-1])

    monkeypatch.setattr(Circuit, "_basis_support", support)


def embedding_sorts_its_lens(monkeypatch):
    real = Circuit.embedded
    monkeypatch.setattr(Circuit, "embedded", lambda self, lens: real(
        self, Lens(lens.n, tuple(sorted(lens.idx)))))


def ghz_level_reversed(monkeypatch):
    # The CNOT of the level on 5 wires has its control and target swapped.
    real = circuits_module.lens_pair
    monkeypatch.setattr(circuits_module, "lens_pair", lambda n, i, j: (
        real(n, j, i) if n == 5 else real(n, i, j)))


# fault -> (scope, a law the fault must fail)
FAULTS = {
    merge_ignores_lens_order: ("lens-laws", "merge_extract"),
    lens_read_reversed: ("focus-laws", "fast_vs_reference"),
    cycles_rotated_backwards: ("focus-laws", "classical_permutation_focus"),
    permutation_skips_axis_order: ("focus-laws", "classical_permutation_focus"),
    dense_skips_axis_order: ("focus-laws", "fusion_equivalence"),
    fuser_ignores_commutation: ("focus-laws", "fusion_equivalence"),
    gate_transposed: ("oracle", "oracle_random_unitaries"),
    combine_ignores_union_order: ("monoid", "combine_commutativity"),
    local_reads_wires_sorted: ("focus-laws", "fusion_equivalence"),
    rows_compose_reversed: ("focus-laws", "identity_plan_collapse"),
    fill_skips_rows_after_product: ("focus-laws", "identity_plan_collapse"),
    rows_carried_forward: ("focus-laws", "basis_run_vs_reference"),
    support_left_unsorted: ("focus-laws", "basis_text_vs_reference"),
    last_step_dropped: ("examples", "ghz_preparation"),
    embedding_sorts_its_lens: ("focus-laws", "embedding_naturality"),
    ghz_level_reversed: ("examples", "recursive_definition"),
}


@pytest.mark.parametrize("plant", FAULTS, ids=lambda plant: plant.__name__)
def test_planted_fault_fails_a_law(monkeypatch, plant):
    scope, law = FAULTS[plant]
    plant(monkeypatch)
    failed = [r.name for r in run_scope(scope, seed=0, trials=20) if not r.passed]
    assert law in failed


def test_passing_law_keeps_the_witness_of_its_worst_draw():
    result = CheckResult("law", 1.0)
    for dev, detail in [(0.25, "first"), (0.5, "worst"), (0.5, "tie"), (0.0, "exact")]:
        result.see(dev, detail)
    assert result.passed and (result.max_dev, result.detail) == (0.5, "worst")


def test_fast_path_law_names_its_worst_draw():
    # fast_vs_reference passes within rounding, so its worst draw is one
    # whose product rounded.
    (result,) = [r for r in run_scope("focus-laws", seed=0, trials=5, max_wires=3)
                 if r.name == "fast_vs_reference"]
    assert result.passed and result.max_dev > 0
    assert result.detail.startswith("n=")


def test_fail_line_names_the_witness(monkeypatch, capsys):
    merge_ignores_lens_order(monkeypatch)
    assert main(["check", "lens-laws", "--max-wires", "2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert ("FAIL  merge_extract                    max_dev=1.000e+00  tol=0.0e+00  "
            "(n=2 lens=[1, 0])") in lines
    # Only a FAIL line prints its witness.
    assert [line.endswith(")") for line in lines[1:-1]] == [
        line.startswith("FAIL") for line in lines[1:-1]]
