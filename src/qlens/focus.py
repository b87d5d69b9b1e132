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
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import ShapeMismatch
from .gates import Gate, apply_to_blocks, check_dense_size
from .lens import Lens
from .state import (_CHUNK_BYTES, State, _complex_array, all_basis_tuples, check_working_set,
                    ket, tuple_to_index)


@dataclass(frozen=True)
class CurriedState:
    """A state reshaped along a lens: blocks[v] is the inner state at outer index v.

    blocks has shape (q**outer, q**inner); row order follows the lens wire
    order, column order the sorted complement wires.  Like a State's
    amplitudes, blocks is a read-only copy of what it was built from.
    """

    outer: int
    inner: int
    q: int
    blocks: np.ndarray

    def __post_init__(self):
        blocks = _complex_array(self.blocks, "blocks")
        blocks.setflags(write=False)
        object.__setattr__(self, "blocks", blocks)
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
    """Apply a block map at every outer index; all outputs must share a shape
    and, as a State's amplitudes, be finite numbers."""
    rows = [_complex_array(phi(b), "block map output", ndmin=0) for b in blocks]
    if rows and any(r.shape != rows[0].shape for r in rows):
        raise ShapeMismatch("block map produced inconsistent shapes")
    return np.stack(rows) if rows else np.zeros_like(blocks)


def merge_state(lens: Lens, v: Sequence[int], local: State) -> State:
    """Embed a local m-wire state at the lens, complement taken from tuple v.

    The amplitude at local tuple u goes to lens.merge(u, c), c the
    complement entries of v, so merge_state(lens, v, ket(u)) ==
    ket(lens.merge(u, c)); a symbol of c that ket refuses is refused.
    """
    if len(v) != lens.n:
        raise ShapeMismatch(f"expected full tuple of arity {lens.n}, got {len(v)}")
    if local.n != lens.m:
        raise ShapeMismatch(f"local state has {local.n} wires, lens selects {lens.m}")
    q = local.q
    c = lens.complement.extract(tuple(v))
    out = np.zeros(q**lens.n, dtype=np.complex128)
    for u, a in zip(all_basis_tuples(lens.m, q), local.amps):
        out[tuple_to_index(lens.merge(u, c), q)] = a
    return State(lens.n, q, out, _trusted=True)


def _check_gate(lens: Lens, gate: Gate, q: int) -> None:
    """Refuse a gate that is not square on the lens's wires over alphabet q:
    the one fact that joins a lens to the gate focused along it."""
    if gate.wires != lens.m:
        raise ShapeMismatch(f"gate acts on {gate.wires} wires, lens selects {lens.m}")
    if gate.q != q:
        raise ShapeMismatch(f"alphabet mismatch: gate q={gate.q}, expected q={q}")


# A lens block on contiguous axes views the state as (A, q**m, C), C being
# the contiguous run of amplitudes (batch axis included) behind each row.
# From this run length up, a dense step multiplies the block where it sits
# (one batched matmul, no gather); below it, the step gathers its wires to
# the front unless they lead already.  On a 2-vCPU Xeon at n = 20 (median
# of 21, one copy of the state 1.3-1.5 ms), the product on a middle block
# of 1-5 wires beat gather + leading product from C = 2**8-2**9 up (5
# wires: 4.9 against 6.0 ms at 2**9, 6.6 against 6.0 ms at 2**7) and lost
# up to 8x at C <= 2**2.
_RUN_MIN = 1 << 9


def _cycles(rows: np.ndarray) -> list[list[int]]:
    """Non-trivial cycles c of the row map: new row c[k] is old row c[k+1]."""
    rows = rows.tolist()
    seen = [row == i for i, row in enumerate(rows)]
    cycles = []
    for start in range(len(rows)):
        cycle, j = [], start
        while not seen[j]:
            seen[j] = True
            cycle.append(j)
            j = rows[j]
        if cycle:
            cycles.append(cycle)
    return cycles


def _in_axis_order(mat: np.ndarray, axes: list[int], q: int) -> np.ndarray:
    """The gate ``mat``, whose rows and columns count the lens digits in lens
    order, rewritten to count them in the order of the ``axes`` that hold the
    lens wires.  Reordering the wires of a block only conjugates the gate by
    a permutation (the basis/permutation split of Lens.factorize)."""
    if axes == sorted(axes):
        return mat
    m = len(axes)
    lens_of = np.arange(q**m).reshape((q,) * m).transpose(np.argsort(axes)).reshape(-1)
    return mat.take(lens_of, axis=0).take(lens_of, axis=1)


class Gather(NamedTuple):
    """Copy the state into the other buffer with its axes (q,)*n plus the
    batch axis transposed by ``axes``."""

    shape: tuple[int, ...]
    axes: tuple[int, ...]

    def run(self, cur: np.ndarray, out: np.ndarray) -> None:
        np.copyto(out.reshape(self.shape), cur.reshape(self.shape).transpose(self.axes))

    def moved(self, flat: np.ndarray) -> np.ndarray:
        """Where the amplitudes at the flat indices ``flat`` go: their
        digits transposed."""
        digits = np.unravel_index(flat, self.shape)
        return np.ravel_multi_index([digits[a] for a in self.axes], self.shape)


class Gemm(NamedTuple):
    """Multiply the state, viewed as (A, q**m, C), by ``mat`` (in axis order)
    along the middle axis, into the other buffer."""

    mat: np.ndarray
    A: int
    C: int

    def run(self, cur: np.ndarray, out: np.ndarray) -> None:
        view = (self.A, len(self.mat), self.C)
        np.matmul(self.mat, cur.reshape(view), out=out.reshape(view))


class Rows(NamedTuple):
    """Move the row blocks of the state, viewed with ``shape``, by the row
    map ``rows``: new row block r is old row block rows[r], row block i
    being the view with its ``axes`` fixed to the digits of i."""

    rows: np.ndarray
    shape: tuple[int, ...]
    axes: tuple[int, ...]

    def run(self, cur: np.ndarray, out: np.ndarray) -> None:
        """On one axis (the (A, q**m, C) view of a lens block, axes (1,)),
        one np.take into ``out``.  On several, whose row blocks are strided
        views, in place on ``out``, which first takes a copy of ``cur``
        unless it is ``cur``: each cycle of the row map rotates through a
        temp, and fixed rows are not touched.  The row blocks move chunk by
        chunk over their leading axes, as few as bring a chunk of the state
        within _CHUNK_BYTES; the temp holds one block's chunk."""
        if len(self.axes) == 1:
            np.take(cur.reshape(self.shape), self.rows, axis=self.axes[0],
                    out=out.reshape(self.shape), mode="clip")
            return
        if out is not cur:
            np.copyto(out, cur)
        m = len(self.axes)
        state = np.moveaxis(out.reshape(self.shape), self.axes, range(m))
        cycles, inner = _cycles(self.rows), state.shape[m:]
        blocks = {i: state[np.unravel_index(i, state.shape[:m]) + (Ellipsis,)]
                  for cycle in cycles for i in cycle}
        lead = 0
        while lead < len(inner) and out.nbytes > _CHUNK_BYTES * math.prod(inner[:lead]):
            lead += 1
        tmp = np.empty(inner[lead:], out.dtype)
        for chunk in product(*map(range, inner[:lead])):
            at = chunk + (Ellipsis,)
            for cycle in cycles:
                np.copyto(tmp, blocks[cycle[0]][at])
                for here, there in zip(cycle, cycle[1:]):
                    np.copyto(blocks[here][at], blocks[there][at])
                np.copyto(blocks[cycle[-1]][at], tmp)

    def moved(self, flat: np.ndarray) -> np.ndarray:
        """Where the amplitudes at the flat indices ``flat`` go: the row of
        each through the inverse of the row map (argsort, the map being a
        permutation), on one axis by the row's stride, on several by moving
        the digits on its axes."""
        to = np.argsort(self.rows)
        if len(self.axes) == 1:
            step = math.prod(self.shape[self.axes[0] + 1:])
            row = flat // step % len(self.rows)
            return flat + (to[row] - row) * step
        digits, axes = np.array(np.unravel_index(flat, self.shape)), list(self.axes)
        lens = [self.shape[a] for a in axes]
        digits[axes] = np.unravel_index(to[np.ravel_multi_index(digits[axes], lens)], lens)
        return np.ravel_multi_index(digits, self.shape)


def _layout(order: list[int], front: list[int]) -> list[int]:
    """``front``, then the other wires in their ``order``, except that their
    longest run on consecutive axes (the last of the longest) goes last."""
    runs: list[list[int]] = []
    for w in order:
        if w in front:
            continue
        if runs and order.index(w) == order.index(runs[-1][-1]) + 1:
            runs[-1].append(w)
        else:
            runs.append([w])
    last = max(reversed(runs), key=len, default=[])
    return front + [w for run in runs if run is not last for w in run] + last


def _plan(n: int, q: int, steps: Iterable[tuple[Lens, Gate]],
          batch: int | None) -> tuple[Gather | Gemm | Rows, ...]:
    """Ops that apply (lens, gate) steps, left to right, to amplitudes of
    shape (q**n,) (``batch`` None) or (q**n, batch), unchecked.

    The state stays curried between steps; ``order[k]`` is the wire held on
    axis k, and a step's lens wires sit on axes of (A, q**m, C), C the run
    of amplitudes behind them.  An identity step gives no op.

    A step whose gate is a 0/1 permutation matrix (Gate.rows) only relabels
    basis tuples, at every size, and leaves ``order`` alone: it is a Rows of
    its row map (q**m entries).  Rotating the non-trivial cycles of row
    blocks in place, each block a strided view on the sorted lens axes of
    the full (q,)*n shape, copies one block per moved row plus one per
    cycle, while one np.take pass along the middle axis of the (A, q**m, C)
    view copies every row into the other buffer.  So the step takes the
    one-axis view when its lens wires sit on adjacent axes and the cycles
    would copy at least q**m blocks (a fused GHZ cluster: 30 of 32 rows
    moved, in 6 cycles), and the lens axes otherwise (a lone CNOT, swap or
    Toffoli: 3 blocks of 4 or 8).

    A dense step whose lens wires already sit on adjacent axes, in any
    order, runs one matrix product where they sit (Gemm), when they lead
    (A = 1) or C is at least _RUN_MIN: a batched matmul over short rows is
    up to 30x slower.  Otherwise it first gathers (Gather) with one copy,
    laying the axes out as [this step only | shared with the next step |
    next step only | the rest], so that the next step's wires are adjacent
    too.  The rest keep their current order,
    except that their longest run of consecutive axes goes last: the copy's
    inner loop walks that run, and a copy whose inner loop walks one or two
    amplitudes costs several copies of the state.  A gate on wires placed
    out of lens order is conjugated into axis order once, here, unless it
    is as large as the state: then its wires are gathered in lens order.
    The wire order is restored by one Gather at the end.

    On the identity's batch (``batch`` == q**n: to_gate, _collapse) each
    Gather or permutation step only moves rows, so it is planned as its row
    map on the one-axis (1, q**n, batch) view: the basis-index table
    transposed by the Gather's axes, or with the step applied (curried
    along its lens axes, rows taken, uncurried).  A map r2 after r1
    composes to r1[r2]; runs merge into one Rows, dropped if it is the
    identity: that turns the 9 ops of the Shor-code collapse into 5, of
    which 4 pass over the matrix.
    """
    shape, steps = (q,) * n + (() if batch is None else (batch,)), list(steps)
    size, trail = math.prod(shape), tuple(range(n, len(shape)))
    order: list[int] = list(range(n))
    plan: list[Gather | Gemm | Rows] = []
    table = np.arange(q**n).reshape((q,) * n) if batch == q**n else None

    def place(wires: list[int]) -> tuple[list[int], int, int, bool]:
        axes = [order.index(w) for w in wires]
        lo, hi = min(axes, default=0), max(axes, default=-1)
        return axes, q**lo, size // q ** (hi + 1), hi - lo == len(axes) - 1

    def relabel(rows: np.ndarray) -> None:
        if plan and isinstance(plan[-1], Rows):
            rows = plan.pop().rows[rows]
        if (rows != table.reshape(-1)).any():
            plan.append(Rows(rows, (1, q**n, batch), (1,)))

    def gather(axes: tuple[int, ...]) -> None:
        if table is None:
            plan.append(Gather(shape, axes + trail))
        else:
            relabel(table.transpose(axes).reshape(-1))

    for k, (lens, gate) in enumerate(steps):
        wires = list(lens.idx)
        axes, A, C, adjacent = place(wires)
        if gate.rows is not None:
            rows = _in_axis_order(gate.mat, axes, q).argmax(axis=1)
            if table is not None:
                lead = np.moveaxis(table, sorted(axes), range(len(axes)))
                moved = lead.reshape(len(rows), -1)[rows].reshape(lead.shape)
                relabel(np.moveaxis(moved, range(len(axes)), sorted(axes)).reshape(-1))
                continue
            cycles = _cycles(rows)
            if adjacent and sum(map(len, cycles)) + len(cycles) >= len(rows):
                plan.append(Rows(rows, (A, len(rows), C), (1,)))
            elif cycles:
                plan.append(Rows(rows, shape, tuple(sorted(axes))))
            continue
        # A gate as large as the state costs as much to conjugate as the
        # state does to gather, and its conjugate would be one more array
        # of that size: such a step gathers its wires in lens order.
        large = q ** (2 * len(wires)) >= size
        if not adjacent or (A > 1 and C < _RUN_MIN) or (large and axes != sorted(axes)):
            nxt = list(steps[k + 1][0].idx) if k + 1 < len(steps) and not large else []
            front = ([w for w in wires if w not in nxt] + [w for w in wires if w in nxt]
                     + [w for w in nxt if w not in wires])
            new = _layout(order, front)
            gather(tuple(order.index(w) for w in new))
            order = new
            axes, A, C, _ = place(wires)
        plan.append(Gemm(_in_axis_order(gate.mat, axes, q), A, C))
    if order != list(range(n)):
        gather(tuple(order.index(w) for w in range(n)))
    return tuple(plan)


def _basis_walk(plan: tuple[Gather | Gemm | Rows, ...], cols: int,
                index: int | None) -> tuple[np.ndarray, np.ndarray | None, int]:
    """The flat indices and values (None: all 1) of the nonzero amplitudes
    of basis kets, the identity's ``cols`` columns (``index`` None) or the
    one ket at ``index``, carried through the ops that open ``plan`` up to
    its second product, and how many ops that covered.

    The walk follows the flat indices through each Gather or Rows, the ops
    that only move amplitudes (their ``moved``, a bijection, so they stay
    distinct).  The first Gemm expands them as focus_on_basis re-embeds a
    gate applied locally: an amplitude at (a, j, c) of its (A, q**m, C) view
    becomes mat[:, j] at (a, :, c), each entry one product term times 1.0,
    so the values are bit-identical to running those ops.  A second product
    is not walked: its sums may round differently from the matmul's.  On a
    2-vCPU Xeon, the Shor-code to_gate plan [Rows, Gemm, Rows, Gemm, Rows],
    its first three ops walked, took 1.7 ms a call against 2.8-3.0 with the
    first Rows alone walked (median of 301); a GHZ-20 run_basis, its whole
    plan walked, 1.5-1.9 ms against 22-29 with its five Rows run as passes
    (median of 31)."""
    flat = np.arange(cols) * (cols + 1) if index is None else np.array([index])
    vals, done = None, 0
    for op in plan:
        if not isinstance(op, Gemm):
            flat = op.moved(flat)
        elif vals is None:
            j = flat // op.C % len(op.mat)
            flat = (flat - j * op.C)[:, None] + np.arange(len(op.mat)) * op.C
            vals = op.mat[:, j].T
        else:
            break
        done += 1
    return flat, vals, done


def _step_walk(n: int, q: int, steps: Iterable[tuple[Lens, Gate]],
               index: int) -> tuple[np.ndarray, np.ndarray | None]:
    """The flat indices and values (None: all 1) of the nonzero amplitudes
    of the ket at ``index`` carried through (lens, gate) steps, at most one
    of them dense, unfused and unplanned.

    A step reads each index's lens digits by their place values q**(n-1-w)
    as a local row j of its gate.  A 0/1 permutation moves row j to
    argsort(rows)[j] (classical_permutation_focus); the dense step expands
    it as focus_on_basis re-embeds a gate applied locally: mat[:, j] at all
    q**m local rows.  So the values are _basis_walk's over the fused plan,
    bit for bit.  On a 2-vCPU Xeon (numpy 2.4.6), a GHZ-20 walk took
    150-175 us (medians of 15), against 490-535 us to fuse, plan and walk
    it, and 510-905 us with one Rows(...).moved per step."""
    flat, vals = np.array([index]), None
    inverse: dict[Gate, np.ndarray] = {}  # gate -> argsort(gate.rows), by identity
    digits: dict[int, tuple[np.ndarray, np.ndarray]] = {}  # m -> (row digits, row weights)
    for lens, gate in steps:
        m = lens.m
        if m not in digits:
            digits[m] = (np.array(list(product(range(q), repeat=m)), np.int64).reshape(q**m, m),
                         q ** np.arange(m - 1, -1, -1, dtype=np.int64))
        table, weights = digits[m]
        place = np.array([q ** (n - 1 - w) for w in lens.idx], np.int64)
        offset = table @ place
        j = (flat[:, None] // place % q) @ weights
        base = flat - offset[j]
        if gate.rows is None:
            flat, vals = (base[:, None] + offset).reshape(-1), gate.mat[:, j].T.reshape(-1)
            continue
        if gate not in inverse:
            inverse[gate] = np.argsort(gate.rows)
        flat = base + offset[inverse[gate][j]]
    return flat, vals


def _execute(n: int, q: int, plan: tuple[Gather | Gemm | Rows, ...],
             amps: np.ndarray | None, scratch: np.ndarray | None = None,
             index: int | None = None) -> tuple[np.ndarray, np.ndarray | None]:
    """Run a plan of _plan(n, q, steps, batch) on amplitudes of the shape it
    was made for; return the result and the other buffer (None if no op
    wrote one), the scratch.  ``amps`` None stands for basis kets: the
    q**n x q**n identity (batch q**n), or the ket at ``index`` (batch None).

    Each of the two state-sized buffers is allocated when an op first
    writes it.  The basis fill, and the copy of the caller's ``amps`` that
    an op in place (a Rows on several axes) or a plan that writes nothing
    makes first, go into the first buffer, always fresh; a ``scratch`` of
    the buffers' shape is the second (with the scratch first, a Shor-code
    to_gate result landed in it, and collapse_small ops took 8-20% longer,
    2-vCPU Xeon).  The other ops alternate between the buffers, reading the
    caller's array where one opens the plan (np.take with mode="clip": with
    "raise" and out=, numpy buffers the copy, 1.3 against 0.44 ms at
    512 x 512).  Basis kets cost no pass for the ops before the plan's
    second Gemm: _basis_walk carries them through those ops, and the fill
    writes the state after them (a Shor-code to_gate runs 2 of its 4
    passes, a GHZ-20 ket or a reversal none).  The result never shares
    memory with the scratch handed back, so a caller may keep that for its
    next call.  Before allocating, the working set (the caller's ``amps``
    and two buffers, or two buffers for basis kets) must fit
    MAX_STATE_ENTRIES.
    """
    basis = amps is None
    shape = ((q**n, q**n) if index is None else (q**n,)) if basis else amps.shape
    check_working_set(2 if basis else 3, math.prod(shape))
    bufs = [None, scratch]

    def buffer(i: int) -> np.ndarray:
        if bufs[i] is None:
            bufs[i] = np.empty(shape, np.complex128)
        return bufs[i]

    cur, done = amps, 0
    if basis:
        flat, vals, done = _basis_walk(plan, math.prod(shape[1:]), index)
        cur = buffer(0)
        cur.fill(0)
        cur.reshape(-1)[flat] = 1 if vals is None else vals
    for op in plan[done:]:
        # An op in place runs on cur, unless cur is the caller's array,
        # which is never written: it then starts from a copy in the first
        # buffer.
        in_place = isinstance(op, Rows) and len(op.axes) > 1 and cur is not amps
        out = cur if in_place else buffer(1 if cur is bufs[0] else 0)
        op.run(cur, out)
        cur = out
    if cur is amps:
        cur = buffer(0)
        np.copyto(cur, amps)
    return cur, bufs[1] if cur is bufs[0] else bufs[0]


def _focus_steps(n: int, q: int, steps: Iterable[tuple[Lens, Gate]],
                 amps: np.ndarray | None) -> np.ndarray:
    """Focused action of (lens, gate) steps, left to right, on amplitudes of
    shape (q**n,) or (q**n, B), or on the identity for ``amps`` None,
    planned and executed in one call."""
    batch = q**n if amps is None else (amps.shape[1] if amps.ndim == 2 else None)
    return _execute(n, q, _plan(n, q, steps, batch), amps)[0]


def _local(wires: Sequence[int], steps: Iterable[tuple[Lens, Gate]]) -> list[tuple[Lens, Gate]]:
    """(lens, gate) steps whose lenses select among ``wires``, each lens
    relabelled onto the positions of its wires in ``wires`` (one position
    map for all): by focus_comp and focus_lens_comp, _collapse(len(wires),
    q, _local(wires, steps)) is their dense gate on ``wires``, in that
    order."""
    pos = {w: i for i, w in enumerate(wires)}
    return [(Lens._trusted(len(pos), tuple(pos[w] for w in lens.idx)), gate)
            for lens, gate in steps]


def _collapse(k: int, q: int, steps: Iterable[tuple[Lens, Gate]]) -> Gate:
    """The dense gate on k wires of (lens, gate) steps on those k wires, left
    to right: their focused action on the identity (guarded; intended for few
    wires: monoid bookkeeping, circuit collapse)."""
    check_dense_size(k, q)
    return Gate(_focus_steps(k, q, steps, None), k, k, q, _trusted=True)


def focus_apply(lens: Lens, gate: Gate, state: State) -> State:
    """Apply a gate to the wires a lens selects, leaving the rest untouched."""
    _check_focus_shapes(lens, state)
    _check_gate(lens, gate, state.q)
    amps = _focus_steps(lens.n, state.q, ((lens, gate),), state.amps)
    return State(lens.n, state.q, amps, _trusted=True)


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
    all columns at once by _collapse (guarded; for small ambient sizes)."""
    _check_gate(lens, gate, gate.q)
    return _collapse(lens.n, gate.q, ((lens, gate),))
