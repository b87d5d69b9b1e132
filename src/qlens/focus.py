"""Currying states along a lens and focused application of gates.

Focusing applies an m-wire gate inside an n-wire state in three moves:
curry the state along the lens (selected wires become the outer index,
untouched wires become inner blocks), act on the outer index with the gate's
block action, uncurry back.  That pipeline is the reference semantics; the
production path fuses it into a strided reshape plus one matrix product and
is differentially tested against the reference at 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ShapeMismatch
from .gates import Gate, apply_to_blocks, check_dense_size
from .lens import Lens
from .state import State, check_working_set, ket, tuple_to_index


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


# Permutation steps move row blocks chunk by chunk: a chunk of at most this
# many bytes stays in cache across the copies that rotate one cycle, or
# between an np.take into the spare buffer and the copy back.  On a
# 2-vCPU Xeon at n = 20 (16 MiB state), 1 MiB chunks cut an in-place CNOT by
# about a third on most wire pairs (wires (18, 19): 4.1 -> 2.6 ms) and a
# `qlens run` of GHZ-20 from 58 to 38 ms.
_CHUNK_BYTES = 1 << 20
# Below this many amplitudes (batch axis included) a permutation step takes
# gather + GEMM: detecting the permutation and building the row views cost
# about 25 us a step, while gather + GEMM of a CNOT costs 8.5 us at 2**8
# amplitudes, 32 us at 2**13 and 61 us at 2**14 (kernel there: 56 us).
_PERM_MIN_SIZE = 1 << 14


def _permutation_rows(mat: np.ndarray) -> np.ndarray | None:
    """rows with mat[i, rows[i]] == 1, when mat is a 0/1 permutation matrix."""
    ones = mat == 1
    if (ones | (mat == 0)).all() and (ones.sum(0) == 1).all() and (ones.sum(1) == 1).all():
        return ones.argmax(axis=1)
    return None


def _cycles(rows: np.ndarray) -> list[list[int]]:
    """Non-trivial cycles c of the row map: new row c[k] is old row c[k+1]."""
    seen = rows == np.arange(len(rows))
    cycles = []
    for start in range(len(rows)):
        cycle, j = [], start
        while not seen[j]:
            seen[j] = True
            cycle.append(j)
            j = int(rows[j])
        if cycle:
            cycles.append(cycle)
    return cycles


def _permute_blocks(buf: np.ndarray, shape: tuple[int, ...], axes: list[int],
                    rows: np.ndarray, q: int, spare: np.ndarray) -> None:
    """Row block i of buf becomes its row block rows[i], in place.

    The buffers hold shape (q,)*n plus an optional batch axis; ``axes`` hold
    the lens wires in lens order, and row block i fixes them to the digits
    of i.  The non-trivial cycles rotate through ``spare`` (a buffer as
    large), chunk by chunk along the blocks' leading axes; fixed rows are
    not touched.
    """
    buf = buf.reshape(shape)
    blocks = []
    for i in range(len(rows)):
        index = [slice(None)] * buf.ndim
        for pos, a in enumerate(axes):
            index[a] = i // q ** (len(axes) - 1 - pos) % q
        blocks.append(buf[tuple(index) + (Ellipsis,)])
    inner, lead, nchunks = blocks[0].shape, 0, 1
    while lead < len(inner) and buf.nbytes > _CHUNK_BYTES * nchunks:
        nchunks *= inner[lead]
        lead += 1
    tmp = spare.reshape(-1)[:math.prod(inner[lead:])].reshape(inner[lead:])
    cycles = _cycles(rows)
    for chunk in product(*map(range, inner[:lead])):
        at = chunk + (Ellipsis,)
        for cycle in cycles:
            np.copyto(tmp, blocks[cycle[0]][at])
            for here, there in zip(cycle, cycle[1:]):
                np.copyto(blocks[here][at], blocks[there][at])
            np.copyto(blocks[cycle[-1]][at], tmp)


def _take_rows(buf: np.ndarray, axes: list[int], rows: np.ndarray, q: int,
               spare: np.ndarray) -> None:
    """Row block i of buf becomes its row block rows[i], in place, when the
    lens ``axes`` are adjacent (in any order among themselves).

    buf is viewed as (A, q**m, C), C holding the inner wires and the batch
    axis; the row map is rewritten from lens digit order into axis order.
    Each chunk of at most _CHUNK_BYTES is taken into ``spare`` with one
    np.take and copied back, chunking along A, and along C as well when one
    (q**m, C) slab is larger than a chunk.
    """
    m, lead = len(axes), min(axes)
    lens_of = np.arange(q**m).reshape((q,) * m).transpose(np.argsort(axes)).reshape(-1)
    axis_rows = np.argsort(lens_of)[rows[lens_of]]
    view = buf.reshape(q**lead, q**m, -1)
    slab, c_len = view[0].nbytes, view.shape[2]
    # C splits into n_c chunks, row r of chunk c at row r * n_c + c, so
    # np.take reads a contiguous array (it would copy a strided one first).
    n_c = next((d for d in range(1, c_len + 1)
                if c_len % d == 0 and slab // d <= _CHUNK_BYTES), c_len)
    view = view.reshape(q**lead, q**m * n_c, -1)
    a_step, flat = max(_CHUNK_BYTES // slab, 1), spare.reshape(-1)
    for a in range(0, len(view), a_step):
        part = view[a:a + a_step]
        for c in range(n_c):
            dst = part[:, c::n_c]
            tmp = flat[:dst.size].reshape(dst.shape)
            np.take(part, axis_rows * n_c + c, axis=1, out=tmp, mode="clip")
            np.copyto(dst, tmp)


def _focus_steps(n: int, q: int, steps: Iterable[tuple[Lens, Gate]],
                 amps: np.ndarray | None) -> np.ndarray:
    """Focused action of (lens, gate) steps, left to right, on amplitudes of
    shape (q**n,) or (q**n, B), unchecked.  ``amps`` None stands for the
    q**n x q**n identity, built in the first buffer: the result is then the
    steps' dense matrix, with two state-sized buffers alive instead of three.

    The state stays curried between steps; ``order[k]`` is the wire held on
    axis k.  A step whose gate is a 0/1 permutation matrix only relabels
    basis tuples: on a state of at least _PERM_MIN_SIZE amplitudes it moves
    row blocks in place and leaves ``order`` alone (an identity step does
    nothing).  Rotating the non-trivial cycles copies one block per moved
    row plus one per cycle, while one np.take pass (_take_rows) writes every
    row into a cache-sized chunk and copies it back.  So the step takes
    np.take when its lens wires sit on adjacent axes (in any order) and the
    cycles would copy at least q**m blocks, and rotates the cycles
    (_permute_blocks, wherever the lens wires sit) otherwise: a lone CNOT,
    swap or Toffoli rotates 3 blocks, a fused GHZ cluster moves 30 of 32
    rows in 6 cycles.  Any other step gathers its lens wires to the front
    with one copy (none when they already lead in lens order) and runs one
    q**m x q**m by q**m x q**(n-m)*B matrix product.  Index
    arithmetic is exactly curry's merge(lens, v, w) encoding, the untouched
    wires keeping their current relative order.  The wire order is restored
    once at the end.  Copies and products alternate between two buffers;
    a caller's ``amps`` is never written (a permutation as the first step
    first copies it into the first buffer) and the batch axis trails along
    untouched.  Before allocating, the working set (the caller's ``amps``
    and two buffers, or two buffers for the identity) must fit
    MAX_STATE_ENTRIES.
    """
    owned = amps is None
    check_working_set(2 if owned else 3, q ** (2 * n) if owned else amps.size)
    if owned:
        amps = np.eye(q**n, dtype=np.complex128)
    shape = (q,) * n + amps.shape[1:]
    batch = list(range(n, len(shape)))
    bufs = (amps if owned else np.empty(amps.shape, np.complex128),
            np.empty(amps.shape, np.complex128))
    cur, order = amps, list(range(n))

    def other(buf: np.ndarray) -> np.ndarray:
        return bufs[1] if buf is bufs[0] else bufs[0]

    def gather(wires: list[int]) -> None:
        nonlocal cur, order
        dst = other(cur)
        axes = [order.index(w) for w in wires]
        np.copyto(dst.reshape(shape), cur.reshape(shape).transpose(axes + batch))
        cur, order = dst, wires

    for lens, gate in steps:
        wires = list(lens.idx)
        perm = _permutation_rows(gate.mat) if cur.size >= _PERM_MIN_SIZE else None
        if perm is not None:
            moved = int((perm != np.arange(len(perm))).sum())
            if moved:
                if cur is amps and not owned:
                    np.copyto(bufs[0], amps)
                    cur = bufs[0]
                axes = [order.index(w) for w in wires]
                if (max(axes) - min(axes) == lens.m - 1
                        and moved + len(_cycles(perm)) >= len(perm)):
                    _take_rows(cur, axes, perm, q, other(cur))
                else:
                    _permute_blocks(cur, shape, axes, perm, q, other(cur))
            continue
        if order[:lens.m] != wires:
            gather(wires + [w for w in order if w not in lens.idx])
        dst = other(cur)
        rows = q**lens.m
        np.matmul(gate.mat, cur.reshape(rows, -1), out=dst.reshape(rows, -1))
        cur = dst
    if order != list(range(n)):
        gather(list(range(n)))
    return amps.copy() if cur is amps and not owned else cur


def _focus_amps(lens: Lens, gate: Gate, amps: np.ndarray) -> np.ndarray:
    """One focused step on amplitudes of shape (q**n,) or (q**n, B), unchecked."""
    return _focus_steps(lens.n, gate.q, ((lens, gate),), amps)


def focus_apply(lens: Lens, gate: Gate, state: State) -> State:
    """Apply a gate to the wires a lens selects, leaving the rest untouched."""
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
    check_dense_size(lens.n, gate.q)
    return Gate(_focus_steps(lens.n, gate.q, ((lens, gate),), None),
                lens.n, lens.n, gate.q, _trusted=True)
