"""Commutative monoid of focused gates: parallel composition without Kronecker products.

A FocusedGate packages a square gate with the sorted lens giving its support
inside an ambient n-wire circuit.  Combining two of them succeeds when the
supports are disjoint (the gates then act side by side) and collapses to the
absorbing error element when they overlap, which is what makes the operation
commutative and associative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ShapeMismatch
from .focus import _check_gate, _collapse, _local, focus_apply, focus_as_gate
from .gates import Gate, identity, null
from .lens import Lens, lens_empty, lens_left, lens_right
from .state import State


@dataclass(frozen=True, slots=True, eq=False)
class FocusedGate:
    """A square gate together with its strictly ascending support lens.

    Equality and hashing are by identity; isclose compares values."""

    n: int
    lens: Lens
    gate: Gate
    is_err: bool = False

    def __post_init__(self):
        if self.lens.n != self.n:
            raise ShapeMismatch(f"lens codomain {self.lens.n} != ambient {self.n}")
        if not self.lens.is_sorted():
            raise ShapeMismatch(f"support lens must be sorted, got {list(self.lens.idx)}")
        _check_gate(self.lens, self.gate, self.gate.q)

    @property
    def q(self) -> int:
        return self.gate.q

    @property
    def support(self) -> tuple[int, ...]:
        return self.lens.idx

    def apply(self, state: State) -> State:
        """Act on an ambient state by focusing the stored gate at the stored lens."""
        return focus_apply(self.lens, self.gate, state)

    def isclose(self, other: FocusedGate, tol: float = 1e-12) -> bool:
        """Value equality: flag, ambient size, support, gate matrix within tol."""
        return (
            self.is_err == other.is_err
            and self.n == other.n
            and self.q == other.q
            and self.lens.idx == other.lens.idx
            and self.gate.mat.shape == other.gate.mat.shape
            and float(np.max(np.abs(self.gate.mat - other.gate.mat))) <= tol
        )

    def __repr__(self) -> str:
        tag = ", err" if self.is_err else ""
        return f"FocusedGate(n={self.n}, support={list(self.lens.idx)}{tag})"


def focused(lens: Lens, gate: Gate) -> FocusedGate:
    """Smart constructor from an arbitrarily ordered lens.

    Factorizes the lens into sorted basis and permutation; the permutation is
    absorbed into the stored gate so that apply() equals focusing the original
    gate at the original lens.
    """
    basis, perm = lens.factorize()
    if perm.idx == tuple(range(perm.n)):
        inner = gate
    else:
        inner = focus_as_gate(perm, gate)
    return FocusedGate(lens.n, basis, inner)


def identity_focused(n: int, q: int = 2) -> FocusedGate:
    """Unit element: empty support, zero-wire identity."""
    return FocusedGate(n, lens_empty(n), identity(0, q))


def error_focused(n: int, q: int = 2) -> FocusedGate:
    """Absorbing element: the flagged zero scalar on no wires; it maps every
    state to zero and holds no matrix of the ambient size."""
    return FocusedGate(n, lens_empty(n), null(0, q), is_err=True)


def parallel_gate(f: Gate, g: Gate) -> Gate:
    """Side-by-side gate on f.wires + g.wires wires, built by focusing, not kron."""
    if f.q != g.q:
        raise ShapeMismatch(f"alphabet mismatch: q={f.q} vs q={g.q}")
    p, s = f.wires, g.wires
    return _collapse(p + s, f.q, ((lens_right(p, s), g), (lens_left(p, s), f)))


def _combine(n: int, q: int, items: Sequence[FocusedGate]) -> FocusedGate:
    """Side-by-side composition of ``items`` on disjoint supports, the error
    element otherwise, and the unit for none: combine folded over them from
    the unit.  By focus_lens_comp the gate on the sorted union U is one
    pass focusing each item, in order, at the positions of its support in
    U.  Every entry is the same product of one entry per item as in the
    fold.  Qubit gates on one or more wires came out bit for bit in every
    seeded draw; for qutrits, or 0-wire phases, BLAS may round a product
    differently in blocks of another shape (by at most 1.3e-16 there)."""
    for fg in items:
        if fg.n != n or fg.q != q:
            raise ShapeMismatch(
                f"ambient mismatch: (n={n}, q={q}) vs (n={fg.n}, q={fg.q})"
            )
    union = sorted(w for fg in items for w in fg.support)
    if any(fg.is_err for fg in items) or len(set(union)) < len(union):
        return error_focused(n, q)
    if not items:
        return identity_focused(n, q)
    gate = _collapse(len(union), q, _local(union, ((fg.lens, fg.gate) for fg in items)))
    return FocusedGate(n, Lens._trusted(n, tuple(union)), gate)


def combine(a: FocusedGate, b: FocusedGate) -> FocusedGate:
    """Commutative composition: side-by-side on disjoint supports, error otherwise."""
    return _combine(a.n, a.q, (a, b))


def combine_all(n: int, items: Sequence[FocusedGate],
                pred: Callable[[int], bool] | None = None,
                q: int = 2) -> FocusedGate:
    """combine folded over the selected indices in ascending order, from the
    unit, as one pass over the union of their supports."""
    return _combine(n, q, [fg for i, fg in enumerate(items) if pred is None or pred(i)])


def compose_actions(actions: Sequence[Callable[[State], State]],
                    pred: Callable[[int], bool] | None = None,
                    ) -> Callable[[State], State]:
    """Sequential composition of state actions, folded over ascending indices.

    Matches the composition convention where the right operand acts first, so
    the highest selected index is applied to the state before the others.
    """
    chosen = [a for i, a in enumerate(actions) if pred is None or pred(i)]

    def composed(state: State) -> State:
        for action in reversed(chosen):
            state = action(state)
        return state

    return composed
