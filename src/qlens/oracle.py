"""Dense differential-testing oracle: Kronecker padding plus wire permutation.

This module rebuilds a focused gate as an explicit q**n x q**n matrix, a
square Gate on all n wires, the textbook way — pad the gate with an identity
Kronecker factor, then conjugate with the permutation that routes the
selected wires to the front.  It is deliberately naive and
allocation-heavy; its only job is to catch bugs in the focusing fast path,
so it never shares code with it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import InvalidPermutation, ShapeMismatch
from .gates import Gate, check_dense_size
from .lens import Lens
from .state import random_state


def inverse_permutation(perm: Sequence[int]) -> tuple[int, ...]:
    inv = [0] * len(perm)
    for j, p in enumerate(perm):
        inv[p] = j
    return tuple(inv)


def perm_matrix(n: int, perm: Sequence[int], q: int = 2) -> Gate:
    """Matrix sending ket(t) to ket(t') with t'[j] = t[perm[j]].

    perm must be a bijection of [0, n); the result is a 0/1 unitary.
    """
    perm = tuple(int(p) for p in perm)
    if sorted(perm) != list(range(n)):
        raise InvalidPermutation(f"{list(perm)} is not a permutation of [0, {n})")
    dim = check_dense_size(n, q)
    # Digit-shuffle every column index at once instead of looping kets.
    digits = np.empty((n, dim), dtype=np.int64)
    idx = np.arange(dim)
    for k in range(n - 1, -1, -1):
        idx, digits[k] = np.divmod(idx, q)
    rows = np.zeros(dim, dtype=np.int64)
    for j in range(n):
        rows = rows * q + digits[perm[j]]
    mat = np.zeros((dim, dim), dtype=np.complex128)
    mat[rows, np.arange(dim)] = 1.0
    return Gate(mat, n, n, q, _trusted=True)


def build_full_matrix(lens: Lens, gate: Gate) -> Gate:
    """Dense matrix of a gate focused at a lens: U(rho)^-1 (M ⊗ I) U(rho).

    rho routes the lens wires to the leading positions (complement wires keep
    their sorted order behind them).  Built from np.kron, whose left factor
    acts on the more significant wires (here the lens wires), and
    permutation conjugation only — independent of the focusing
    implementation.
    """
    if not gate.is_square:
        raise ShapeMismatch("only square gates have a focused dense form")
    if gate.wires_in != lens.m:
        raise ShapeMismatch(f"gate acts on {gate.wires_in} wires, lens selects {lens.m}")
    n, q = lens.n, gate.q
    rho = lens.idx + lens.complement.idx
    gather = perm_matrix(n, rho, q)
    scatter = perm_matrix(n, inverse_permutation(rho), q)
    padded = np.kron(gate.mat, np.eye(q ** (n - lens.m), dtype=np.complex128))
    return Gate(scatter.mat @ padded @ gather.mat, n, n, q, _trusted=True)


def random_unitary(dim: int, rng: np.random.Generator | None = None) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    rng = np.random.default_rng() if rng is None else rng
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    qmat, r = np.linalg.qr(z)
    # Fix the phase ambiguity so the distribution is Haar.
    return qmat * (np.diag(r) / np.abs(np.diag(r)))


def assert_equiv(lens: Lens, gate: Gate, trials: int = 20,
                 rng: np.random.Generator | None = None) -> float:
    """Max deviation between the dense operator and focus_apply on random states."""
    from .focus import focus_apply

    rng = np.random.default_rng() if rng is None else rng
    dense = build_full_matrix(lens, gate)
    worst = 0.0
    for _ in range(trials):
        s = random_state(lens.n, gate.q, rng)
        got = focus_apply(lens, gate, s)
        want = dense.apply(s)
        worst = max(worst, got.max_dev(want))
    return worst
