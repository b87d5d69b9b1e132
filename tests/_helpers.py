"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np

from qlens import Gate, Lens, random_unitary


def random_lens(n: int, m: int, rng: np.random.Generator) -> Lens:
    return Lens(n, tuple(int(i) for i in rng.permutation(n)[:m]))


def random_gate(m: int, rng: np.random.Generator, q: int = 2) -> Gate:
    return Gate(random_unitary(q**m, rng), m, m, q)


def max_entry(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)), initial=0.0))


def random_steps(n: int, q: int, rng: np.random.Generator, count: int = 8) -> list:
    """Seeded (lens, gate) steps on unsorted lenses of 0..3 wires.

    The first lens already leads (wires 0, 1 in order), one lens is the empty
    lens, and the last lens is repeated, so every branch of the curried
    kernel runs: gather skipped, gather done, and a final uncurry.
    """
    lenses = [Lens(n, (0, 1)), Lens(n, ())]
    lenses += [random_lens(n, int(rng.integers(0, 4)), rng) for _ in range(count)]
    lenses.append(lenses[-1])
    return [(lens, random_gate(lens.m, rng, q)) for lens in lenses]
