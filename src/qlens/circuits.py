"""Example circuits: the nine-wire repetition code, GHZ preparation, reversal.

A circuit is a flat list of (lens, gate) steps applied left to right; larger
circuits are assembled by composing each sub-step's lens with the embedding
lens, so subcircuits stay reusable components instead of flattened matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ShapeMismatch
from .focus import _basis_walk, _check_gate, _collapse, _execute, _local, _plan, curry
from .focus import focus_apply  # noqa: F401  (perfbench/tracing.py patches this name)
from .gates import Gate, check_dense_size, cnot, hadamard, swap, toffoli
from .lens import Lens, lens_id, lens_pair, lens_single
from .state import State, check_allocation, check_working_set, tuple_to_index, zero_state

# run and to_gate execute a circuit fused to clusters of k wires with
# q**k <= 2**FUSE_WIRES.  perfbench random_layered (30 dense steps, n = 20,
# 2-vCPU Xeon, median of 4 runs): run_s 0.160 s unfused, 0.113 s at k = 4,
# 0.100 s at k = 5, 0.106 s at k = 6.
FUSE_WIRES = 5


@dataclass(frozen=True)
class Step:
    lens: Lens
    gate: Gate
    name: str | None = None


def _earliest_join(items: list[tuple[list[Step], dict[int, None], bool]],
                   wires: dict[int, None]) -> int:
    """Index of the earliest fusion item a step on ``wires`` may join: the
    latest one touching them (0 if none), since the step commutes with every
    item after it."""
    i = len(items) - 1
    while i > 0 and wires.keys().isdisjoint(items[i][1]):
        i -= 1
    return max(i, 0)


@dataclass(frozen=True)
class Circuit:
    """An n-wire circuit as an ordered sequence of focused gate applications."""

    n: int
    steps: tuple[Step, ...]
    q: int = 2

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        for k, step in enumerate(self.steps):
            if step.lens.n != self.n:
                raise ShapeMismatch(f"step {k}: lens targets {step.lens.n} of {self.n} wires")
            try:
                _check_gate(step.lens, step.gate, self.q)
            except ShapeMismatch as exc:
                raise ShapeMismatch(f"step {k}: {exc}") from None

    def run(self, state: State) -> State:
        """Apply every step of the fused circuit, keeping the state curried
        between them.

        The result is a fresh array.  From the circuit's second run on, the
        executor's other buffer, if the plan writes one, stays with the
        circuit (one state-sized array per batch size, until the circuit is
        freed), and each later run allocates only its result (_run_plan has
        the measurements)."""
        if state.n != self.n or state.q != self.q:
            raise ShapeMismatch(
                f"circuit on ({self.n}, q={self.q}) run on ({state.n}, q={state.q})"
            )
        return State(self.n, self.q, self._run_plan(None, state.amps), _trusted=True)

    def run_basis(self, v: Sequence[int]) -> State:
        """run(ket(v, q)), bit-identical, without building the ket: the
        executor's first buffer starts as the state after every op before
        the plan's second product, the ket carried through them
        (focus._basis_walk), and buffers are kept as for run.  ``v`` is
        checked as ket checks it."""
        return State(self.n, self.q, self._run_plan(None, None, self._basis_index(v)),
                     _trusted=True)

    def _basis_index(self, v: Sequence[int]) -> int:
        if len(v) != self.n:
            raise ShapeMismatch(f"circuit on {self.n} wires run on a basis tuple of {len(v)}")
        check_allocation(self.n, self.q)
        return tuple_to_index(v, self.q)

    def _basis_support(self, v: Sequence[int]) -> tuple[np.ndarray, np.ndarray] | None:
        """run_basis(v)'s nonzero amplitudes, bit-identical, as flat indices,
        sorted, and values, when focus._basis_walk covers the whole plan;
        else None.  Checks ``v`` and the working set as run_basis does.  The
        plan goes into the cache entry run_basis reads, a kept scratch stays
        there, and a run_basis after this counts as the plan's second run."""
        index = self._basis_index(v)
        check_working_set(2, self.q**self.n)
        plan, scratch, _ = self._take_program(None)
        self._programs[None] = (plan, scratch)
        flat, vals, done = _basis_walk(plan, 1, index)
        if done < len(plan):
            return None
        order = np.argsort(flat, axis=None)
        vals = np.ones(flat.size, np.complex128) if vals is None else vals
        return flat.reshape(-1)[order], vals.reshape(-1)[order]

    def fused(self, max_wires: int) -> Circuit:
        """An equivalent circuit whose runs of dense steps, and runs of 0/1
        permutation steps, on at most ``max_wires`` wires in all are each one
        step.

        By focus_comp and focus_lens_comp, steps on the wires W of a cluster
        equal one step along Lens(n, W) whose gate is their product on W.
        Walking the steps in order, a step may join the latest cluster that
        touches its wires or any later one, since it commutes with
        everything after that; it joins the one of its own kind (dense or
        permutation) it overlaps most whose union with it stays within
        ``max_wires``, or starts a cluster.  A product of 0/1 permutations
        is an exact 0/1 permutation, so a permutation cluster still takes an
        in-place permutation kernel; a cluster of one step keeps its Step
        object.  Clusters whose steps match, once relabelled onto the
        cluster's wires, share one gate, built once (four of GHZ-20's five).
        Running the result does not fuse it again.
        """
        items: list[tuple[list[Step], dict[int, None], bool]] = []
        for step in self.steps:
            wires = dict.fromkeys(step.lens.idx)
            dense = step.gate.rows is None
            fits = [(len(items[j][1].keys() & wires), j)
                    for j in range(_earliest_join(items, wires), len(items))
                    if items[j][2] == dense and len(items[j][1].keys() | wires) <= max_wires]
            if fits:
                group, joined, _ = items[max(fits)[1]]
                group.append(step)
                joined.update(wires)
            else:
                items.append(([step], wires, dense))
        built: dict[tuple, Gate] = {}

        def cluster(group: list[Step], wires: tuple[int, ...]) -> Step:
            local = _local(wires, ((s.lens, s.gate) for s in group))
            key = tuple((lens.idx, gate.mat.tobytes()) for lens, gate in local)
            if key not in built:
                built[key] = _collapse(len(wires), self.q, local)
            return Step(Lens._trusted(self.n, wires), built[key])

        steps = (group[0] if len(group) == 1 else cluster(group, tuple(wires))
                 for group, wires, _ in items)
        out = Circuit(self.n, tuple(steps), self.q)
        out.__dict__["_clusters"] = out.steps
        return out

    @cached_property
    def _clusters(self) -> tuple[Step, ...]:
        """The steps of this circuit fused once, on first use, to clusters of
        dimension at most 2**FUSE_WIRES; a circuit that fused() returned
        holds its own steps here, so it is never fused again."""
        max_wires = 0
        while self.q ** (max_wires + 1) <= 2**FUSE_WIRES:
            max_wires += 1
        return self.fused(max_wires).steps

    @cached_property
    def _programs(self) -> dict[int | None, tuple[tuple, np.ndarray | None]]:
        """batch size -> (plan of the fused steps, scratch buffer or None).
        Circuit is frozen and Gate.mat read-only, so a plan never goes
        stale."""
        return {}

    def _take_program(self, batch: int | None) -> tuple[tuple, np.ndarray | None, bool]:
        """Pop this batch size's cache entry, (plan, scratch buffer or None),
        and whether it was there; an absent entry's plan is made here.  The
        caller puts the entry back."""
        plan, scratch = self._programs.pop(batch, (None, None))
        if plan is None:
            plan = _plan(self.n, self.q, ((s.lens, s.gate) for s in self._clusters), batch)
            return plan, None, False
        return plan, scratch, True

    def _run_plan(self, batch: int | None, amps: np.ndarray | None,
                  index: int | None = None) -> np.ndarray:
        """_execute the plan for this batch size (basis kets for ``amps``
        None, as _execute reads them), made on first use, keeping
        the scratch buffer it hands back beside it from the plan's second
        execution on, so that each later call allocates only the buffer it
        returns.  With both buffers new on every call, glibc gave them back
        to the OS in between, and a Shor-code to_gate took about 1240 minor
        faults and 10.3 ms a call; with the scratch kept, none and 5.6 ms.
        The first execution keeps nothing.  Kept from the first call, the
        scratch took collapse_small from 2520-3000 minor faults an op to
        3570-4490, and from 5.4-5.9 to 7.6-8.1 ms (2-vCPU Xeon); with
        glibc's mmap threshold pinned (MALLOC_MMAP_THRESHOLD_) both read
        alike, so the cost is where glibc puts a buffer allocated before its
        threshold has risen: mapped apart from the heap, it leaves later
        results at the heap's top, which goes back to the OS.  A call
        pops the entry out of the cache and puts it back on return, so two
        threads running one circuit never share a scratch buffer: one that
        finds the entry taken plans again and allocates its own, which costs
        time, not results.  The buffer lives until the circuit is freed.
        """
        plan, scratch, kept = self._take_program(batch)
        out, spare = _execute(self.n, self.q, plan, amps, scratch, index)
        self._programs[batch] = (plan, spare if kept else None)
        return out

    def embedded(self, lens: Lens) -> Circuit:
        """Reinterpret this circuit as steps of a larger one along a lens."""
        if lens.m != self.n:
            raise ShapeMismatch(f"embedding lens selects {lens.m} wires, circuit has {self.n}")
        steps = tuple(Step(lens.compose(s.lens), s.gate, s.name) for s in self.steps)
        return Circuit(lens.n, steps, self.q)

    def to_gate(self) -> Gate:
        """Collapse to a dense gate by running every step of the fused circuit
        once on all basis kets at once (guarded; intended for small circuits
        only).

        The identity, carried through the plan's first product
        (focus._basis_walk), is written into the executor's first buffer;
        buffers are kept and allocated as for run."""
        check_dense_size(self.n, self.q)
        return Gate(self._run_plan(self.q**self.n, None), self.n, self.n, self.q, _trusted=True)


def bit_flip_encoder() -> Circuit:
    """Copy wire 0 onto wires 1 and 2: |i,j,k> -> |i, i+j, i+k>."""
    cn = cnot()
    return Circuit(3, (
        Step(Lens(3, (0, 1)), cn, "cnot"),
        Step(Lens(3, (0, 2)), cn, "cnot"),
    ))


def bit_flip_decoder() -> Circuit:
    """Undo the copies, then majority-correct wire 0 from the syndrome wires."""
    enc = bit_flip_encoder()
    return Circuit(3, enc.steps + (Step(Lens(3, (1, 2, 0)), toffoli(), "toffoli"),))


def hadamard_layer() -> Circuit:
    """A Hadamard on each of the three wires."""
    h = hadamard()
    return Circuit(3, tuple(Step(lens_single(3, i), h, "hadamard") for i in range(3)))


def sign_flip_encoder() -> Circuit:
    enc, layer = bit_flip_encoder(), hadamard_layer()
    return Circuit(3, enc.steps + layer.steps)


def sign_flip_decoder() -> Circuit:
    layer, dec = hadamard_layer(), bit_flip_decoder()
    return Circuit(3, layer.steps + dec.steps)


def shor_encoder() -> Circuit:
    """Sign-flip encode across wires 0,3,6, then bit-flip encode each triple."""
    sfe, bfe = sign_flip_encoder(), bit_flip_encoder()
    steps = sfe.embedded(Lens(9, (0, 3, 6))).steps
    for triple in ((6, 7, 8), (3, 4, 5), (0, 1, 2)):
        steps += bfe.embedded(Lens(9, triple)).steps
    return Circuit(9, steps)


def shor_decoder() -> Circuit:
    """Mirror of the encoder: bit-flip decode the triples, then sign-flip decode."""
    bfd, sfd = bit_flip_decoder(), sign_flip_decoder()
    steps: tuple[Step, ...] = ()
    for triple in ((0, 1, 2), (3, 4, 5), (6, 7, 8)):
        steps += bfd.embedded(Lens(9, triple)).steps
    steps += sfd.embedded(Lens(9, (0, 3, 6))).steps
    return Circuit(9, steps)


def shor_components() -> dict[str, Circuit]:
    """All building blocks of the nine-wire code, keyed by conventional names."""
    return {
        "bit_flip_enc": bit_flip_encoder(),
        "bit_flip_dec": bit_flip_decoder(),
        "hadamard3": hadamard_layer(),
        "sign_flip_enc": sign_flip_encoder(),
        "sign_flip_dec": sign_flip_decoder(),
        "shor_enc": shor_encoder(),
        "shor_dec": shor_decoder(),
    }


def ghz_circuit(depth: int) -> Circuit:
    """Entangler on depth+1 wires: Hadamard on wire 0, then a CNOT ladder.

    Defined recursively: the depth-d circuit is the depth-(d-1) circuit on
    the first d wires followed by a CNOT on the pair (d-1, d).  Built without
    recursion, from the top down: ``outer`` composes the embeddings of all
    enclosing levels, so each level's own step is embedded once, and lens
    composition being associative, lands where the recursion puts it.
    """
    if depth < 0:
        raise ShapeMismatch(f"depth must be >= 0, got {depth}")
    cx, outer, steps = cnot(), lens_id(depth + 1), []
    for d in range(depth, 0, -1):
        steps.append(Step(outer.compose(lens_pair(d + 1, d - 1, d)), cx, "cnot"))
        outer = outer.compose(lens_single(d + 1, d).complement)
    steps.append(Step(outer.compose(lens_single(1, 0)), hadamard(), "hadamard"))
    return Circuit(depth + 1, tuple(reversed(steps)))


def ghz_state(wires: int) -> State:
    """(|0..0> + |1..1>)/sqrt(2) on the given number of wires."""
    if wires < 1:
        raise ShapeMismatch(f"need at least one wire, got {wires}")
    s = zero_state(wires)
    amps = s.amps.copy()
    amps[0] = amps[-1] = math.sqrt(0.5)
    return State(wires, 2, amps, _trusted=True)


def reversal_circuit(n: int) -> Circuit:
    """floor(n/2) swaps pairing wire i with wire n-1-i; reverses basis tuples."""
    if n < 0:
        raise ShapeMismatch(f"wire count must be >= 0, got {n}")
    sw = swap()
    steps = tuple(
        Step(lens_pair(n, i, n - 1 - i), sw, "swap") for i in range(n // 2)
    )
    return Circuit(n, steps)


def marginal(lens: Lens, state: State) -> np.ndarray:
    """Block-norm table over the lens wires: entry v is the l2 norm of block v.

    Independent of the complement ordering, so it serves as the observable
    marginal of the selected wires.
    """
    view = curry(lens, state)
    return np.linalg.norm(view.blocks, axis=1)
