"""Runnable verification suites behind `qlens check`.

Each suite replays a family of laws either exhaustively (lens combinatorics)
or on seeded random instances (everything touching amplitudes) and reports
one result per law with the worst deviation observed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Iterable

import numpy as np

from . import circuits
from .focus import (
    curry,
    focus_apply,
    focus_apply_reference,
    focus_as_gate,
    focus_on_basis,
    map_blocks,
    uncurry,
)
from .gates import (
    Gate,
    apply_to_blocks,
    builtin,
    cnot,
    compose,
    hadamard,
    identity,
    swap,
    toffoli,
    unitarity_defect,
)
from .lens import Lens, all_lenses, lens_pair, lens_single
from .oracle import assert_equiv, build_full_matrix, random_unitary
from .parallel import (
    FocusedGate,
    combine,
    combine_all,
    compose_actions,
    error_focused,
    focused,
    identity_focused,
)
from .state import (
    State,
    all_basis_tuples,
    index_to_tuple,
    ket,
    random_state,
    state_to_text,
    support_to_text,
    tuple_to_index,
)


@dataclass
class CheckResult:
    """One law: the worst deviation seen over its draws and the detail of
    the draw that gave it, whether or not the law passes."""

    name: str
    tol: float
    max_dev: float = 0.0
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.max_dev <= self.tol

    def see(self, dev: float, detail: str = "") -> None:
        if dev > self.max_dev:
            self.max_dev, self.detail = dev, detail

    def see_bool(self, ok: bool, detail: str = "") -> None:
        self.see(0.0 if ok else 1.0, detail)


def _random_lens(n: int, m: int, rng: np.random.Generator) -> Lens:
    return Lens(n, tuple(int(i) for i in rng.permutation(n)[:m]))


def _random_gate(m: int, q: int, rng: np.random.Generator) -> Gate:
    return Gate(random_unitary(q**m, rng), m, m, q)


def lens_laws(max_wires: int = 5, q: int = 2) -> list[CheckResult]:
    """Exhaustive get/put, positional, membership, and factorization laws."""
    get_put = CheckResult("merge_extract", 0.0)
    put_get = CheckResult("extract_merge", 0.0)
    put_get_c = CheckResult("extractC_merge", 0.0)
    positional = CheckResult("tnth_merge/mergeC/extract", 0.0)
    membership = CheckResult("mem_lensC", 0.0)
    factor = CheckResult("basis_perm_factorization", 0.0)
    double_comp = CheckResult("double_complement", 0.0)
    assoc = CheckResult("lens_comp_associativity", 0.0)

    for n in range(max_wires + 1):
        tuples = list(all_basis_tuples(n, q))
        for lens in all_lenses(n):
            comp = lens.complement
            where = f"n={n} lens={list(lens.idx)}"
            for t in tuples:
                v, c = lens.extract(t), comp.extract(t)
                get_put.see_bool(lens.merge(v, c) == t, where)
            for t in tuples:
                v, c = lens.extract(t), comp.extract(t)
                merged = lens.merge(v, c)
                put_get.see_bool(lens.extract(merged) == v, where)
                put_get_c.see_bool(comp.extract(merged) == c, where)
                for i in range(n):
                    if lens.contains(i):
                        positional.see_bool(merged[i] == v[lens.position(i)], where)
                    else:
                        positional.see_bool(merged[i] == c[comp.position(i)], where)
                for j in range(lens.m):
                    positional.see_bool(v[j] == t[lens.idx[j]], where)
            for i in range(n):
                membership.see_bool(comp.contains(i) == (not lens.contains(i)), where)
            basis, perm = lens.factorize()
            factor.see_bool(basis.is_sorted(), where)
            factor.see_bool(sorted(basis.idx) == sorted(lens.idx), where)
            factor.see_bool(basis.compose(perm).idx == lens.idx, where)
            if lens.is_sorted():
                double_comp.see_bool(comp.complement.idx == lens.idx, where)

    for n in range(min(max_wires, 4) + 1):
        for outer in all_lenses(n):
            for mid in all_lenses(outer.m):
                for inner in all_lenses(mid.m):
                    lhs = outer.compose(mid).compose(inner)
                    rhs = outer.compose(mid.compose(inner))
                    assoc.see_bool(lhs.idx == rhs.idx,
                                   f"{list(outer.idx)}∘{list(mid.idx)}∘{list(inner.idx)}")

    return [get_put, put_get, put_get_c, positional, membership,
            factor, double_comp, assoc]


def _classical_dev(lens: Lens, perm: np.ndarray, v: tuple[int, ...], q: int) -> float:
    """Focus the 0/1 gate sending local basis index j to perm[j] on ket(v),
    and compare with the tuple update merge(perm(extract(v)), rest)."""
    m = lens.m
    pmat = np.zeros((q**m, q**m))
    pmat[perm, np.arange(q**m)] = 1.0
    got = focus_apply(lens, Gate(pmat, m, m, q), ket(v, q))
    image = index_to_tuple(int(perm[tuple_to_index(lens.extract(v), q)]), m, q)
    return got.max_dev(ket(lens.merge(image, lens.complement.extract(v)), q))


def focus_laws(seed: int = 0, max_wires: int = 6, trials: int = 20,
               q: int = 2) -> list[CheckResult]:
    """Randomized algebra of focusing: cancellation, composition, naturality."""
    rng = np.random.default_rng(seed)
    cancel = CheckResult("curry_uncurry_cancellation", 0.0)
    fast_ref = CheckResult("fast_vs_reference", 1e-12)
    basis_step = CheckResult("focus_on_basis_step", 1e-12)
    comp = CheckResult("focus_comp", 1e-10)
    comp_lens = CheckResult("focus_lens_comp", 1e-10)
    comm = CheckResult("focus_disjoint_commute", 1e-10)
    uni = CheckResult("unitary_focus", 1e-10)
    natural = CheckResult("block_naturality", 1e-12)
    classical = CheckResult("classical_permutation_focus", 0.0)

    for _ in range(trials):
        n = int(rng.integers(1, max_wires + 1))
        m = int(rng.integers(0, min(3, n) + 1))
        lens = _random_lens(n, m, rng)
        where = f"n={n} lens={list(lens.idx)}"
        s = random_state(n, q, rng)

        view = curry(lens, s)
        cancel.see(uncurry(lens, view).max_dev(s), where)
        reblocks = curry(lens, uncurry(lens, view)).blocks
        cancel.see(float(np.max(np.abs(reblocks - view.blocks), initial=0.0)), where)

        g = _random_gate(m, q, rng)
        fast_ref.see(focus_apply(lens, g, s).max_dev(focus_apply_reference(lens, g, s)),
                     where)

        v = tuple(int(x) for x in rng.integers(0, q, size=n))
        basis_step.see(focus_on_basis(lens, g, v).max_dev(focus_apply(lens, g, ket(v, q))),
                       where)

        f = _random_gate(m, q, rng)
        lhs = focus_apply(lens, compose(f, g), s)
        rhs = focus_apply(lens, f, focus_apply(lens, g, s))
        comp.see(lhs.max_dev(rhs), where)

        p = int(rng.integers(0, m + 1))
        inner = _random_lens(m, p, rng)
        gp = _random_gate(p, q, rng)
        lhs = focus_apply(lens.compose(inner), gp, s)
        rhs = focus_apply(lens, focus_as_gate(inner, gp), s)
        comp_lens.see(lhs.max_dev(rhs), f"{where} inner={list(inner.idx)}")

        rest = [i for i in range(n) if not lens.contains(i)]
        m2 = int(rng.integers(0, min(2, len(rest)) + 1))
        other = Lens(n, tuple(rest[:m2]))
        g2 = _random_gate(m2, q, rng)
        lhs = focus_apply(other, g2, focus_apply(lens, g, s))
        rhs = focus_apply(lens, g, focus_apply(other, g2, s))
        comm.see(lhs.max_dev(rhs), f"{where} other={list(other.idx)}")

        t = random_state(n, q, rng)
        uni.see(abs(focus_apply(lens, g, s).inner(focus_apply(lens, g, t)) - s.inner(t)),
                where)

        d1, d2 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        blocks = rng.standard_normal((q**m, d1)) + 1j * rng.standard_normal((q**m, d1))
        phi_mat = rng.standard_normal((d2, d1)) + 1j * rng.standard_normal((d2, d1))
        phi = lambda b: phi_mat @ b  # noqa: E731
        lhs_b = map_blocks(phi, apply_to_blocks(g, blocks))
        rhs_b = apply_to_blocks(g, map_blocks(phi, blocks))
        natural.see(float(np.max(np.abs(lhs_b - rhs_b), initial=0.0)), where)

        classical.see(_classical_dev(lens, rng.permutation(q**m), v, q), where)

    # The draws above stay on states of at most max_wires wires; these run
    # the permutation kernels on at least 2**14 amplitudes, so that each row
    # block they move is a strided view of many amplitudes.
    n = next(k for k in count() if q**k >= 2**14)
    for m in range(min(3, n) + 1):
        lens = _random_lens(n, m, rng)
        if m > 1 and lens.is_sorted():
            lens = Lens(n, lens.idx[::-1])
        v = tuple(int(x) for x in rng.integers(0, q, size=n))
        classical.see(_classical_dev(lens, rng.permutation(q**m), v, q),
                      f"n={n} lens={list(lens.idx)}")
    # Wires adjacent but unsorted, and a permutation through every row in
    # one cycle: the step takes the np.take kernel, which relabels lens
    # digits into axis order.
    for m in (2, 3, 2, 3):
        wires = int(rng.integers(0, n - m + 1)) + rng.permutation(m)
        if (np.diff(wires) > 0).all():
            wires = wires[::-1]
        lens = Lens(n, tuple(int(w) for w in wires))
        perm = _random_cycle(q**m, rng)
        v = tuple(int(x) for x in rng.integers(0, q, size=n))
        classical.see(_classical_dev(lens, perm, v, q), f"n={n} lens={list(lens.idx)}")

    # Drawn from their own generator, so the draws above stay as they were.
    fusion = CheckResult("fusion_equivalence", 1e-10)
    rng = np.random.default_rng([seed, 1])
    for _ in range(trials):
        circ = _random_mixed_circuit(int(rng.integers(1, min(max_wires, 6) + 1)),
                                     int(rng.integers(2, 4)), rng)
        s = random_state(circ.n, circ.q, rng)
        want, where = _reference_run(circ.steps, s), _where(circ)
        fusion.see(circ.run(s).max_dev(want), f"{where} default")
        for k in range(2, 6):
            fusion.see(circ.fused(k).run(s).max_dev(want), f"{where} k={k}")
    # States of 2**12-3**10 amplitudes, whose runs pass _RUN_MIN, as one
    # vector and as three columns: both permutation kernels on long row
    # blocks, products on a lens block where it sits, and the layout each
    # gather leaves for the next step.
    for q_big, low, high in ((2, 12, 14), (3, 9, 10)):
        for batch in (1, 3):
            circ = _random_mixed_circuit(int(rng.integers(low, high + 1)), q_big, rng)
            cols = [random_state(circ.n, circ.q, rng) for _ in range(batch)]
            amps = np.stack([s.amps for s in cols], axis=1)
            want = np.stack([_reference_run(circ.steps, s).amps for s in cols], axis=1)
            where = _where(circ, f"batch={batch} ")
            for k in (None, 2, 3, 4, 5):
                fused = circ if k is None else circ.fused(k)
                if batch == 1:
                    got = fused.run(cols[0]).amps[:, None]
                else:
                    got = fused._run_plan(batch, amps)
                fusion.see(float(np.max(np.abs(got - want))), f"{where} k={k or 'default'}")

    # On the identity's batch the planner composes every row move,
    # Gathers and permutation steps alike, into Rows ops.  Runs that start
    # on basis kets (to_gate, run_basis) have their opening Rows, first
    # product and the Rows after it written by the basis fill.
    collapse = CheckResult("identity_plan_collapse", 1e-10)
    rng = np.random.default_rng([seed, 2])
    kets = np.random.default_rng([seed, 3])
    for q_big, low, high in ((2, 7, 8), (3, 5, 5)):
        for _ in range(3):
            circ = _random_mixed_circuit(int(rng.integers(low, high + 1)), q_big, rng)
            want = np.eye(q_big**circ.n, dtype=np.complex128)
            for step in circ.steps:
                want = build_full_matrix(step.lens, step.gate).mat @ want
            where = _where(circ)
            collapse.see(float(np.max(np.abs(circ.to_gate().mat - want))), where)
            for _ in range(3):
                v = tuple(int(x) for x in kets.integers(0, q_big, circ.n))
                got = circ.run_basis(v).amps
                collapse.see(float(np.max(np.abs(got - want[:, tuple_to_index(v, q_big)]))),
                             f"{where} basis={v}")

    # run_basis carries its ket through every op before the second product.
    # On at least 2**14 amplitudes, so that the walk moves indices through
    # long ladders and reversals, a reversal plans Rows across several axes,
    # and a ladder of adders |a, b> -> |a, a + b mod q> (CNOTs at q = 2)
    # one-axis Rows, on middle blocks (A > 1) as well; random steps follow.
    # The text printed from a covered run's support must be the reference's:
    # at least for one product between the ladder and the reversal, whose
    # columns hold an exact 0 and a magnitude below the threshold 0.3.
    basis_run = CheckResult("basis_run_vs_reference", 1e-12)
    text = CheckResult("basis_text_vs_reference", 0.0)
    rng, kets = np.random.default_rng([seed, 4]), np.random.default_rng([seed, 5])
    texts = np.random.default_rng([seed, 6])
    for q_big in (2, 3):
        n = next(k for k in count() if q_big**k >= 2**14)
        a, b = np.divmod(np.arange(q_big**2), q_big)
        swap_q = Gate(np.eye(q_big**2)[b * q_big + a], 2, 2, q_big)
        add_q = Gate(np.eye(q_big**2)[a * q_big + (a + b) % q_big].T, 2, 2, q_big)
        reverse = [circuits.Step(Lens(n, (i, n - 1 - i)), swap_q) for i in range(n // 2)]
        ladder = [circuits.Step(Lens(n, (i, i + 1)), add_q) for i in range(n - 1)]
        for prefix in (reverse, ladder):
            circ = circuits.Circuit(n, (*prefix, *_random_mixed_circuit(n, q_big, rng).steps),
                                    q_big)
            where = _where(circ)
            for v in (tuple(map(int, kets.integers(0, q_big, n))) for _ in range(3)):
                got, want = circ.run_basis(v), _reference_run(circ.steps, ket(v, q_big))
                basis_run.see(got.max_dev(want), f"{where} basis={v}")
                basis_run.see_bool(np.array_equal(got.amps, circ.run(ket(v, q_big)).amps),
                                   f"{where} basis={v}: run_basis differs from run")
                text.see_bool(all(_text_matches(circ, v)), f"{where} basis={v}")
        mat = texts.standard_normal((q_big**2,) * 2) + 1j * texts.standard_normal((q_big**2,) * 2)
        mat[0], mat[1] = 0, 0.2 * np.exp(2j * np.pi * texts.random(q_big**2))
        step = circuits.Step(_random_lens(n, 2, texts), Gate(mat, 2, 2, q_big))
        circ = circuits.Circuit(n, (*ladder, step, *reverse), q_big)
        for v in (tuple(map(int, texts.integers(0, q_big, n))) for _ in range(3)):
            text.see_bool(_text_matches(circ, v) == [True, True],
                          f"n={n} q={q_big} product on {list(step.lens.idx)} basis={v}")

    # Embedding is natural: a circuit embedded along L runs as its collapsed
    # gate focused at L, and embedding twice embeds along the composite.
    embed = CheckResult("embedding_naturality", 1e-10)
    rng = np.random.default_rng([seed, 7])
    for _ in range(trials):
        n = int(rng.integers(2, min(max_wires, 6) + 1))
        k = int(rng.integers(2, n + 1))
        circ = _random_mixed_circuit(k, q, rng)
        lens = _random_lens(n, k, rng)
        if lens.is_sorted():
            lens = Lens(n, lens.idx[::-1])
        outer = _random_lens(int(rng.integers(n, n + 3)), n, rng)
        s = random_state(n, q, rng)
        where = f"{_where(circ)} L={list(lens.idx)}"
        embed.see(circ.embedded(lens).run(s).max_dev(
            focus_apply_reference(lens, circ.to_gate(), s)), where)
        twice = [st.lens for st in circ.embedded(lens).embedded(outer).steps]
        once = [st.lens for st in circ.embedded(outer.compose(lens)).steps]
        embed.see_bool(twice == once, f"{where} L2={list(outer.idx)}")

    return [cancel, fast_ref, basis_step, comp, comp_lens, comm, uni,
            natural, classical, fusion, collapse, basis_run, text, embed]


def _text_matches(circ: circuits.Circuit, v: tuple[int, ...]) -> list[bool]:
    """Whether circ's text from ket(v), printed from its support, is at
    thresholds 0 and 0.3 state_to_text's of the reference run of circ's
    fused steps, whose gates round as its plan's do; [] if not covered."""
    support = circ._basis_support(v)
    if support is None:
        return []
    want = _reference_run(circ._clusters, ket(v, circ.q))
    return [support_to_text(circ.n, circ.q, *support, t) == state_to_text(want, t)
            for t in (0.0, 0.3)]


def _reference_run(steps: Iterable[circuits.Step], s: State) -> State:
    """s after ``steps``, each run by focus_apply_reference."""
    for step in steps:
        s = focus_apply_reference(step.lens, step.gate, s)
    return s


def _where(circ: circuits.Circuit, extra: str = "") -> str:
    """The witness of a law drawn on circ: its size, alphabet and lenses."""
    return f"n={circ.n} q={circ.q} {extra}lenses={[list(st.lens.idx) for st in circ.steps]}"


def _random_cycle(size: int, rng: np.random.Generator) -> np.ndarray:
    """A random permutation of range(size) that is one cycle through every
    element."""
    order = rng.permutation(size)
    perm = np.empty_like(order)
    perm[order] = np.roll(order, 1)
    return perm


def _random_mixed_circuit(n: int, q: int, rng: np.random.Generator) -> circuits.Circuit:
    """Up to 12 steps on random unsorted lenses of 0..3 wires, each a random
    unitary or, one time in three, a random 0/1 permutation."""
    steps = []
    for _ in range(int(rng.integers(1, 13))):
        m = int(rng.integers(0, min(3, n) + 1))
        lens = _random_lens(n, m, rng)
        if rng.random() < 1 / 3:
            gate = Gate(np.eye(q**m)[rng.permutation(q**m)], m, m, q)
        else:
            gate = _random_gate(m, q, rng)
        steps.append(circuits.Step(lens, gate))
    return circuits.Circuit(n, tuple(steps), q)


def unitarity(seed: int = 0, trials: int = 10) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    builtins = CheckResult("builtin_unitarity", 1e-12)
    for name in ("hadamard", "cnot", "toffoli", "swap", "identity(2)"):
        builtins.see(unitarity_defect(builtin(name)), name)

    rand = CheckResult("random_unitary", 1e-12)
    comp = CheckResult("unitary_composition", 1e-10)
    focus_uni = CheckResult("focused_unitarity", 1e-10)
    for _ in range(trials):
        m = int(rng.integers(1, 4))
        f, g = _random_gate(m, 2, rng), _random_gate(m, 2, rng)
        rand.see(unitarity_defect(f), f"m={m}")
        comp.see(unitarity_defect(compose(f, g)), f"m={m}")
        n = m + int(rng.integers(0, 3))
        lens = _random_lens(n, m, rng)
        focus_uni.see(unitarity_defect(focus_as_gate(lens, f)),
                      f"n={n} lens={list(lens.idx)}")
    return [builtins, rand, comp, focus_uni]


def oracle_suite(seed: int = 0, trials: int = 200, max_wires: int = 6,
                 max_support: int = 3) -> list[CheckResult]:
    """Differential test of focusing against the dense kron+permutation build."""
    rng = np.random.default_rng(seed)
    fixed = CheckResult("oracle_builtin_gates", 1e-12)
    named = {1: [hadamard(), identity()], 2: [cnot(), swap()], 3: [toffoli()]}
    for n in range(1, 5):
        for m, gs in named.items():
            if m > n:
                continue
            for lens in all_lenses(n, m):
                for g in gs:
                    fixed.see(assert_equiv(lens, g, trials=2, rng=rng),
                              f"n={n} lens={list(lens.idx)}")

    rand = CheckResult("oracle_random_unitaries", 1e-10)
    for _ in range(trials):
        n = int(rng.integers(1, max_wires + 1))
        m = int(rng.integers(1, min(max_support, n) + 1))
        lens = _random_lens(n, m, rng)
        g = _random_gate(m, 2, rng)
        rand.see(assert_equiv(lens, g, trials=1, rng=rng),
                 f"n={n} lens={list(lens.idx)}")
    return [fixed, rand]


def _monoid_pool(n: int = 4) -> list[FocusedGate]:
    pool = [focused(lens_single(n, i), hadamard()) for i in range(n)]
    pool += [
        focused(lens_pair(n, i, j), cnot())
        for i in range(n)
        for j in range(i + 1, n)
    ]
    return pool


def monoid(seed: int = 0, max_wires: int = 6, trials: int = 20) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    n = 4
    pool = _monoid_pool(n)

    commut = CheckResult("combine_commutativity", 1e-12)
    for a in pool:
        for b in pool:
            commut.see_bool(combine(a, b).isclose(combine(b, a), 1e-12),
                            f"{a.support} vs {b.support}")

    assoc = CheckResult("combine_associativity", 1e-12)
    for a in pool:
        for b in pool:
            ab = combine(a, b)
            for c in pool:
                assoc.see_bool(combine(ab, c).isclose(combine(a, combine(b, c)), 1e-12),
                               f"{a.support},{b.support},{c.support}")

    unit = CheckResult("unit_and_absorption", 0.0)
    one = identity_focused(n)
    err = error_focused(n)
    for a in pool:
        unit.see_bool(combine(one, a).isclose(a, 0.0), f"{a.support}")
        unit.see_bool(combine(a, one).isclose(a, 0.0), f"{a.support}")
        unit.see_bool(combine(err, a).is_err and combine(a, err).is_err, f"{a.support}")

    disj = CheckResult("sequential_vs_parallel_fold", 1e-10)
    for _ in range(trials):
        nn = int(rng.integers(2, max_wires + 1))
        wires = list(rng.permutation(nn))
        family = []
        while wires:
            take = int(rng.integers(1, min(2, len(wires)) + 1))
            support, wires = wires[:take], wires[take:]
            family.append(focused(Lens(nn, tuple(int(w) for w in support)),
                                  _random_gate(take, 2, rng)))
            if rng.random() < 0.3:
                break
        seq = compose_actions([fg.apply for fg in family])
        par = combine_all(nn, family)
        s = random_state(nn, 2, rng)
        disj.see(seq(s).max_dev(par.apply(s)), f"n={nn} k={len(family)}")

    return [commut, assoc, unit, disj]


def example_suite(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    comps = circuits.shor_components()

    bfe_law = CheckResult("bit_flip_encoding", 1e-12)
    for (i, j, k) in all_basis_tuples(3):
        got = comps["bit_flip_enc"].run(ket((i, j, k)))
        bfe_law.see(got.max_dev(ket((i, (i + j) % 2, (i + k) % 2))), f"{(i, j, k)}")

    bft = CheckResult("bit_flip_majority_vote", 1e-10)
    maj = focus_as_gate(Lens(3, (1, 2, 0)), toffoli())
    for v in all_basis_tuples(3):
        roundtrip = comps["bit_flip_dec"].run(comps["bit_flip_enc"].run(ket(v)))
        bft.see(roundtrip.max_dev(maj.apply(ket(v))), f"{v}")

    sft = CheckResult("sign_flip_majority_vote", 1e-9)
    for _ in range(10):
        s = random_state(3, 2, rng)
        roundtrip = comps["sign_flip_dec"].run(comps["sign_flip_enc"].run(s))
        sft.see(roundtrip.max_dev(maj.apply(s)))

    invol = CheckResult("hadamard_layer_involution", 1e-10)
    for _ in range(10):
        s = random_state(3, 2, rng)
        invol.see(comps["hadamard3"].run(comps["hadamard3"].run(s)).max_dev(s))

    shor = CheckResult("shor_roundtrip_identity", 1e-9)
    for i in (0, 1):
        inp = ket((i,) + (0,) * 8)
        out = comps["shor_dec"].run(comps["shor_enc"].run(inp))
        shor.see(out.max_dev(inp), f"i={i}")

    ghz = CheckResult("ghz_preparation", 1e-9)
    for wires in range(1, 17):
        got = circuits.ghz_circuit(wires - 1).run(ket((0,) * wires))
        ghz.see(got.max_dev(circuits.ghz_state(wires)), f"wires={wires}")

    rev = CheckResult("reversal_on_basis", 1e-9)
    for n in range(9):
        circ = circuits.reversal_circuit(n)
        for v in all_basis_tuples(n):
            rev.see(circ.run(ket(v)).max_dev(ket(v[::-1])), f"n={n} v={v}")

    marg = CheckResult("reversal_marginal_invariance", 1e-10)
    for n in range(1, 7):
        circ = circuits.reversal_circuit(n)
        for _ in range(5):
            s = random_state(n, 2, rng)
            rs = circ.run(s)
            for i in range(n):
                want = circuits.marginal(lens_single(n, i), s)
                got = circuits.marginal(lens_single(n, n - 1 - i), rs)
                marg.see(float(np.max(np.abs(got - want), initial=0.0)), f"n={n} i={i}")

    # The example circuits are their definitions from components: GHZ by
    # its recursion, the Shor code by embedding the three-wire codes.
    recursive = CheckResult("recursive_definition", 0.0)
    level = circuits.Circuit(1, (circuits.Step(lens_single(1, 0), hadamard()),))
    for d in range(201):
        if d:
            cx = circuits.Step(lens_pair(d + 1, d - 1, d), cnot())
            level = circuits.Circuit(
                d + 1, level.embedded(lens_single(d + 1, d).complement).steps + (cx,))
        recursive.see_bool(_same_steps(circuits.ghz_circuit(d), level), f"ghz depth={d}")
    sfe = comps["bit_flip_enc"].steps + comps["hadamard3"].steps
    sfd = comps["hadamard3"].steps + comps["bit_flip_dec"].steps
    triples = [Lens(9, (3 * i, 3 * i + 1, 3 * i + 2)) for i in range(3)]
    spread = Lens(9, (0, 3, 6))
    enc = circuits.Circuit(3, sfe).embedded(spread).steps + tuple(
        st for t in triples[::-1] for st in comps["bit_flip_enc"].embedded(t).steps)
    dec = tuple(st for t in triples for st in comps["bit_flip_dec"].embedded(t).steps)
    dec += circuits.Circuit(3, sfd).embedded(spread).steps
    for name, steps in (("shor_enc", enc), ("shor_dec", dec)):
        recursive.see_bool(_same_steps(comps[name], circuits.Circuit(9, steps)), name)

    return [bfe_law, bft, sft, invol, shor, ghz, rev, marg, recursive]


def _same_steps(a: circuits.Circuit, b: circuits.Circuit) -> bool:
    """Whether a and b are the same steps: lenses and gate matrices equal."""
    return (a.n, a.q, len(a.steps)) == (b.n, b.q, len(b.steps)) and all(
        s.lens == t.lens and np.array_equal(s.gate.mat, t.gate.mat)
        for s, t in zip(a.steps, b.steps))


SCOPES = {
    "lens-laws": lambda seed, trials, max_wires: lens_laws(max_wires or 5),
    "focus-laws": lambda seed, trials, max_wires: focus_laws(seed, max_wires or 6,
                                                             max(trials, 20)),
    "unitarity": lambda seed, trials, max_wires: unitarity(seed),
    "oracle": lambda seed, trials, max_wires: oracle_suite(seed, trials,
                                                           max_wires or 6),
    "monoid": lambda seed, trials, max_wires: monoid(seed, max_wires or 6),
    "examples": lambda seed, trials, max_wires: example_suite(seed),
}


def run_scope(scope: str, seed: int = 0, trials: int = 200,
              max_wires: int | None = None) -> list[CheckResult]:
    if scope == "all":
        out: list[CheckResult] = []
        for name in SCOPES:
            out.extend(SCOPES[name](seed, trials, max_wires))
        return out
    return SCOPES[scope](seed, trials, max_wires)
