"""Acceptance suite: one test per release criterion, each printing a verdict line.

Criteria 3-8 run the law suites of `qlens.checks` (the code behind
`qlens check`) and assert every law they return, so each law is coded once.
Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report; plain `pytest` still enforces every bound.
"""

import time

import numpy as np

from qlens import (
    Gate,
    Lens,
    focus_apply,
    ghz_circuit,
    ghz_state,
    ket,
    random_state,
    random_unitary,
    shor_components,
)
from qlens.checks import (
    example_suite,
    focus_laws,
    lens_laws,
    monoid,
    oracle_suite,
    unitarity,
)


def report(criterion: str, max_dev: float, tol: float, elapsed: float | None = None,
           extra: str = "") -> None:
    timing = f" elapsed={elapsed:.3f}s" if elapsed is not None else ""
    extra = f" {extra}" if extra else ""
    print(f"[acceptance] {criterion}: PASS max_dev={max_dev:.3e} "
          f"tol={tol:.1e}{timing}{extra}")


def assert_laws(results) -> tuple[float, float]:
    """Assert that every law passed; return the worst law's (max_dev, tol)."""
    failed = [f"{r.name}: max_dev={r.max_dev:.3e} > tol={r.tol:.1e} {r.detail}"
              for r in results if not r.passed]
    assert not failed, "\n".join(failed)
    worst = max(results, key=lambda r: r.max_dev / r.tol if r.tol else 0.0)
    return worst.max_dev, worst.tol


def test_criterion_1_shor_roundtrip_identity():
    comps = shor_components()
    start = time.perf_counter()
    worst = 0.0
    for i in (0, 1):
        inp = ket((i,) + (0,) * 8)
        assert inp.amps.size == 512
        out = comps["shor_dec"].run(comps["shor_enc"].run(inp))
        worst = max(worst, out.max_dev(inp))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9
    assert elapsed < 1.0
    report("criterion 1 (shor encode/decode identity)", worst, 1e-9, elapsed)


def test_criterion_2_ghz_closed_form():
    worst = 0.0
    for wires in range(1, 17):
        out = ghz_circuit(wires - 1).run(ket((0,) * wires))
        worst = max(worst, out.max_dev(ghz_state(wires)))
    start = time.perf_counter()
    ghz_circuit(15).run(ket((0,) * 16))
    elapsed16 = time.perf_counter() - start
    assert worst <= 1e-9
    assert elapsed16 < 2.0
    report("criterion 2 (ghz preparation, 1..16 wires)", worst, 1e-9, elapsed16,
           extra="(timing is the 16-wire case)")


def test_criterion_3_bit_flip_lemma():
    results = example_suite()
    report("criterion 3 (bit-flip encoding on all basis inputs)",
           *assert_laws(results), extra=f"({len(results)} laws)")


def test_criterion_4_oracle_equivalence():
    start = time.perf_counter()
    results = oracle_suite(20240604, 200, 6, 3)
    elapsed = time.perf_counter() - start
    worst = assert_laws(results)
    assert elapsed < 30.0
    report("criterion 4 (dense oracle vs focusing, 200 random trials)",
           *worst, elapsed, extra=f"({len(results)} laws)")


def test_criterion_5_lens_law_suite():
    start = time.perf_counter()
    results = lens_laws(5)
    elapsed = time.perf_counter() - start
    worst = assert_laws(results)
    assert elapsed < 60.0
    report("criterion 5 (exhaustive lens laws, n <= 5)", *worst, elapsed,
           extra=f"({len(results)} laws)")


def test_criterion_6_focus_algebra():
    results = focus_laws(20240605, 6, 40) + unitarity(20240605)
    report("criterion 6 (focus composition/commutation/unitarity laws)",
           *assert_laws(results), extra=f"({len(results)} laws)")


def test_criterion_7_monoid_laws():
    results = monoid(20240607, 6, 20)
    report("criterion 7 (focused-gate monoid laws + fold agreement)",
           *assert_laws(results), extra=f"({len(results)} laws)")


def test_criterion_8_reversal():
    results = example_suite(20240608)
    report("criterion 8 (reversal: exhaustive basis n<=8, marginals n<=6)",
           *assert_laws(results), extra=f"({len(results)} laws)")


def test_criterion_9_focused_gate_latency():
    try:
        from threadpoolctl import threadpool_limits

        limiter = threadpool_limits(limits=1)
    except ImportError:  # pragma: no cover - fall back to ambient BLAS config
        from contextlib import nullcontext

        limiter = nullcontext()

    rng = np.random.default_rng(20240609)
    state = random_state(20, 2, rng)
    gate = Gate(random_unitary(4, rng))
    lens = Lens(20, (4, 13))
    with limiter:
        focus_apply(lens, gate, state)  # warm up allocator and BLAS
        start = time.perf_counter()
        out = focus_apply(lens, gate, state)
        elapsed = time.perf_counter() - start
    assert out.amps.size == 2**20
    assert elapsed < 0.2
    report("criterion 9 (2-wire gate on 20-wire state, single thread)",
           0.0, 0.0, elapsed)
