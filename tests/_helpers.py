"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np

from qlens import Circuit, Lens, Step, build_full_matrix, focus_apply_reference
from qlens.checks import _random_gate as random_gate, _random_lens as random_lens


def max_entry(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)), initial=0.0))


def kind(op) -> str:
    """The kind of a plan's op, a Rows named by its kernel: "Rows:one"
    takes its rows along one axis into the other buffer, "Rows:several"
    rotates their cycles in place across several axes."""
    name = type(op).__name__
    if name != "Rows":
        return name
    return "Rows:one" if len(op.axes) == 1 else "Rows:several"


def random_steps(n: int, q: int, rng: np.random.Generator, count: int = 8) -> list:
    """Seeded (lens, gate) steps on unsorted lenses of 0..3 wires.

    The first lens already leads (wires 0, 1 in order), one lens is the empty
    lens, and the last lens is repeated, so every branch of the curried
    kernel runs: gather skipped, gather done, and a final uncurry.
    """
    lenses = [Lens(n, (0, 1)), Lens(n, ())]
    lenses += [random_lens(n, int(rng.integers(0, 4)), rng) for _ in range(count)]
    lenses.append(lenses[-1])
    return [(lens, random_gate(lens.m, q, rng)) for lens in lenses]


def _pairs(steps) -> list:
    return [(s.lens, s.gate) if isinstance(s, Step) else s for s in steps]


def dense_product(steps, n: int, q: int) -> np.ndarray:
    """The oracle's matrix of (lens, gate) pairs or Steps applied left to
    right: the product of their padded build_full_matrix operators."""
    product = np.eye(q**n, dtype=complex)
    for lens, gate in _pairs(steps):
        product = build_full_matrix(lens, gate).mat @ product
    return product


def reference_run(steps, state):
    """``state`` after (lens, gate) pairs or Steps, left to right, each
    through the naive focus_apply_reference pipeline."""
    for lens, gate in _pairs(steps):
        state = focus_apply_reference(lens, gate, state)
    return state


def last_step_dropped(monkeypatch):
    """Planted fault: Circuit.run (a state-file run, not a basis run) drops
    the circuit's last step."""
    real = Circuit.run
    monkeypatch.setattr(Circuit, "run", lambda self, state: real(
        Circuit(self.n, self.steps[:-1], self.q), state))
