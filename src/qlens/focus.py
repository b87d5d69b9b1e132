"""Currying states along a lens and focused application of gates.

Focusing applies an m-wire gate inside an n-wire state in three moves:
curry the state along the lens (selected wires become the outer index,
untouched wires become inner blocks), act on the outer index with the gate's
block action, uncurry back.  That pipeline is the reference semantics; the
production path fuses it into a strided reshape plus one matrix product and
is differentially tested against the reference at 1e-12.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ShapeMismatch
from .gates import Gate, apply_to_blocks, check_dense_size
from .lens import Lens
from .state import State, ket, tuple_to_index


@dataclass(frozen=True)
class CurriedState:
    """A state reshaped along a lens: blocks[v] is the inner state at outer index v.

    blocks has shape (q**outer, q**inner); row order follows the lens wire
    order, column order the sorted complement wires.
    """

    outer: int
    inner: int
    q: int
    blocks: np.ndarray

    def __post_init__(self):
        expect = (self.q**self.outer, self.q**self.inner)
        if self.blocks.shape != expect:
            raise ShapeMismatch(f"expected block table {expect}, got {self.blocks.shape}")

    def block(self, v: Sequence[int]) -> np.ndarray:
        return self.blocks[tuple_to_index(v, self.q)]


def _check_focus_shapes(lens: Lens, state: State) -> None:
    if state.n != lens.n:
        raise ShapeMismatch(f"lens targets {lens.n} wires, state has {state.n}")


def curry(lens: Lens, state: State) -> CurriedState:
    """Reshape so that curry(lens, s).block(v)[w] == s(merge(lens, v, w))."""
    _check_focus_shapes(lens, state)
    n, m, q = lens.n, lens.m, state.q
    arr = state.amps.reshape((q,) * n)
    arr = np.moveaxis(arr, lens.idx, range(m))
    blocks = np.ascontiguousarray(arr).reshape(q**m, q ** (n - m))
    return CurriedState(m, n - m, q, blocks)


def uncurry(lens: Lens, view: CurriedState) -> State:
    """Inverse reshape; uncurry(lens, curry(lens, s)) == s exactly."""
    if view.outer != lens.m or view.inner != lens.n - lens.m:
        raise ShapeMismatch(
            f"curried shape ({view.outer}, {view.inner}) does not fit lens "
            f"({lens.m} of {lens.n})"
        )
    n, m, q = lens.n, lens.m, view.q
    arr = view.blocks.reshape((q,) * n)
    arr = np.moveaxis(arr, range(m), lens.idx)
    return State(n, q, np.ascontiguousarray(arr).reshape(q**n), _trusted=True)


def map_blocks(phi: Callable[[np.ndarray], np.ndarray], blocks: np.ndarray) -> np.ndarray:
    """Apply a block map at every outer index; all outputs must share a shape."""
    rows = [np.asarray(phi(b), dtype=np.complex128) for b in blocks]
    if rows and any(r.shape != rows[0].shape for r in rows):
        raise ShapeMismatch("block map produced inconsistent shapes")
    return np.stack(rows) if rows else np.zeros_like(blocks)


def _group_offsets(lens: Lens, q: int) -> np.ndarray:
    """Flat offsets of all outer tuples w within one complement group.

    offsets[index(w)] = sum_k w[k] * q**(n-1-idx[k]); the lens wire order is
    the digit order of w.
    """
    offs = np.zeros(1, dtype=np.int64)
    for wire in lens.idx:
        step = q ** (lens.n - 1 - wire)
        offs = (offs[:, None] + step * np.arange(q, dtype=np.int64)).reshape(-1)
    return offs


def merge_state(lens: Lens, v: Sequence[int], local: State) -> State:
    """Embed a local m-wire state at the lens, complement taken from tuple v.

    Linear in the local state; on basis vectors it reduces to
    merge_state(lens, v, ket(u)) == ket(lens.merge(u, extract_complement(v))).
    """
    if len(v) != lens.n:
        raise ShapeMismatch(f"expected full tuple of arity {lens.n}, got {len(v)}")
    if local.n != lens.m:
        raise ShapeMismatch(f"local state has {local.n} wires, lens selects {lens.m}")
    q = local.q
    comp = lens.complement
    c = comp.extract(tuple(v))
    base = sum(c[k] * q ** (lens.n - 1 - comp.idx[k]) for k in range(len(c)))
    out = np.zeros(q**lens.n, dtype=np.complex128)
    out[base + _group_offsets(lens, q)] = local.amps
    return State(lens.n, q, out, _trusted=True)


def _check_gate(lens: Lens, gate: Gate, q: int) -> None:
    if not gate.is_square:
        raise ShapeMismatch("only square gates can be focused")
    if gate.wires_in != lens.m:
        raise ShapeMismatch(f"gate acts on {gate.wires_in} wires, lens selects {lens.m}")
    if gate.q != q:
        raise ShapeMismatch(f"alphabet mismatch: gate q={gate.q}, state q={q}")


def _focus_steps(n: int, q: int, steps: Iterable[tuple[Lens, Gate]],
                 amps: np.ndarray) -> np.ndarray:
    """Focused action of (lens, gate) steps, left to right, on amplitudes of
    shape (q**n,) or (q**n, B), unchecked.

    The state stays curried between steps; ``order[k]`` is the wire held on
    axis k.  A step gathers its lens wires to the front with one copy (none
    when they already lead in lens order) and runs one q**m x q**m by
    q**m x q**(n-m)*B matrix product.  Index arithmetic is exactly curry's
    merge(lens, v, w) encoding, the untouched wires keeping their current
    relative order.  The wire order is restored once at the end.  Copies and
    products alternate between two buffers; ``amps`` is never written and the
    batch axis trails along untouched.
    """
    shape = (q,) * n + amps.shape[1:]
    batch = list(range(n, len(shape)))
    bufs = (np.empty(amps.shape, np.complex128), np.empty(amps.shape, np.complex128))
    cur, order = amps, list(range(n))

    def gather(wires: list[int]) -> None:
        nonlocal cur, order
        dst = bufs[1] if cur is bufs[0] else bufs[0]
        axes = [order.index(w) for w in wires]
        np.copyto(dst.reshape(shape), cur.reshape(shape).transpose(axes + batch))
        cur, order = dst, wires

    for lens, gate in steps:
        wires = list(lens.idx)
        if order[:lens.m] != wires:
            gather(wires + [w for w in order if w not in lens.idx])
        dst = bufs[1] if cur is bufs[0] else bufs[0]
        rows = q**lens.m
        np.matmul(gate.mat, cur.reshape(rows, -1), out=dst.reshape(rows, -1))
        cur = dst
    if order != list(range(n)):
        gather(list(range(n)))
    return amps.copy() if cur is amps else cur


def _focus_amps(lens: Lens, gate: Gate, amps: np.ndarray) -> np.ndarray:
    """One focused step on amplitudes of shape (q**n,) or (q**n, B), unchecked."""
    return _focus_steps(lens.n, gate.q, ((lens, gate),), amps)


def focus_apply(lens: Lens, gate: Gate, state: State,
                workers: int | None = None) -> State:
    """Apply a gate to the wires a lens selects, leaving the rest untouched.

    ``workers`` is accepted for compatibility and ignored: the matrix
    product already runs on the BLAS library's threads.
    """
    _check_focus_shapes(lens, state)
    _check_gate(lens, gate, state.q)
    return State(lens.n, state.q, _focus_amps(lens, gate, state.amps), _trusted=True)


def focus_apply_reference(lens: Lens, gate: Gate, state: State) -> State:
    """Reference pipeline: curry, block action, uncurry.  Kept naive on purpose."""
    _check_focus_shapes(lens, state)
    _check_gate(lens, gate, state.q)
    view = curry(lens, state)
    blocks = apply_to_blocks(gate, view.blocks)
    return uncurry(lens, CurriedState(view.outer, view.inner, view.q, blocks))


def focus_on_basis(lens: Lens, gate: Gate, v: Sequence[int]) -> State:
    """Focused action on a basis vector via local application and re-embedding.

    Equals focus_apply(lens, gate, ket(v)) but runs a different code path,
    which the tests exploit.
    """
    _check_gate(lens, gate, gate.q)
    local = gate.apply(ket(lens.extract(tuple(v)), gate.q))
    return merge_state(lens, v, local)


def focus_as_gate(lens: Lens, gate: Gate) -> Gate:
    """Collapse a focused gate to its dense matrix at the ambient arity.

    Column j is the focused action on the j-th basis vector, computed for
    all columns at once by focusing the identity (guarded; intended for
    small ambient sizes: monoid bookkeeping, circuit collapse).
    """
    _check_gate(lens, gate, gate.q)
    dim = check_dense_size(lens.n, gate.q)
    return Gate(_focus_amps(lens, gate, np.eye(dim, dtype=np.complex128)),
                lens.n, lens.n, gate.q)
