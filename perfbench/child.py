"""One benchmark child process: generate inputs, write expectations, or measure.

run.py starts each mode in a fresh interpreter with BLAS threads pinned
through the environment:

    python3 child.py gen      WORKLOAD DIR --seed N
    python3 child.py expect   WORKLOAD DIR
    python3 child.py measure  WORKLOAD DIR --seconds S --result FILE [--trace] [--corrupt]
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
from qlens.focus import CurriedState, curry, uncurry

import tracing
import workloads
from envinfo import blas_threads

MIN_OPS = 3


class Runner:
    """Times operations and checks each output outside the timed region."""

    def __init__(self, work: workloads.Workload, corrupt: bool):
        self.work = work
        self.corrupt = corrupt
        self.attempted = 0
        self.failed = 0

    def one(self) -> float:
        t0 = perf_counter()
        out = self.work.op()
        dt = perf_counter() - t0
        if self.corrupt:
            out = self.work.corrupt(out)
        self.attempted += 1
        self.failed += not self.work.check(out)
        return dt

    def loop(self, seconds: float) -> list[float]:
        samples: list[float] = []
        deadline = perf_counter() + seconds
        while len(samples) < MIN_OPS or perf_counter() < deadline:
            samples.append(self.one())
        return samples


def copy_floor(n: int, reps: int = 21) -> float:
    """Median seconds of one np.copyto of an n-wire complex128 state.

    States here (at most 16 MiB) are far below four times the last-level
    cache, so this is the cost of copying one state, not the machine's
    sustainable memory bandwidth.
    """
    src = np.ones(2**n, dtype=np.complex128)
    dst = np.empty_like(src)
    np.copyto(dst, src)
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        np.copyto(dst, src)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def replay(work: workloads.Workload) -> dict[str, float]:
    """Each step through the public curry, gate.mat @ blocks and uncurry."""
    circ, s = work.replay()
    phases = {"curry": 0.0, "gemm": 0.0, "uncurry": 0.0, "flops": 0.0}
    for step in circ.steps:
        t0 = perf_counter()
        view = curry(step.lens, s)
        t1 = perf_counter()
        blocks = step.gate.mat @ view.blocks
        t2 = perf_counter()
        s = uncurry(step.lens, CurriedState(view.outer, view.inner, view.q, blocks))
        t3 = perf_counter()
        phases["curry"] += t1 - t0
        phases["gemm"] += t2 - t1
        phases["uncurry"] += t3 - t2
        phases["flops"] += 8 * circ.q ** step.lens.m * circ.q ** circ.n
    return phases


def measure_traced(run: Runner, seconds: float, seed: int) -> dict:
    # Traced and untraced operations alternate, so that both see the same
    # load on the machine and their ratio gives the tracing overhead.
    work = run.work
    tracer = tracing.Tracer()
    summary = tracing.OpSummary()
    untraced: list[float] = []
    traced: list[float] = []
    deadline = perf_counter() + 0.8 * seconds
    while len(traced) < MIN_OPS or perf_counter() < deadline:
        untraced.append(run.one())
        tracer.install()
        try:
            traced.append(run.one())
        finally:
            tracer.restore()
        summary.add(tracer.take())

    builds = []
    for _ in range(5):
        t0 = perf_counter()
        work.build(seed)
        builds.append(perf_counter() - t0)

    replays = []
    deadline = perf_counter() + 0.2 * seconds
    while len(replays) < MIN_OPS or perf_counter() < deadline:
        replays.append(replay(work))
    rep = {k: statistics.median(r[k] for r in replays) for k in replays[0]}

    floor = copy_floor(work.n)
    call_p50 = summary.call_p50("all")
    calls = summary.op_median("parallel.combine_calls")
    metrics = {
        "cli.parse_circuit_s": summary.op_median("cli.parse_circuit_s"),
        "cli.main_self_s": summary.op_median("cli.main_self_s"),
        "state.to_text_s": summary.op_median("state.to_text_s"),
        "state.to_text_amps_scanned": summary.op_median("state.to_text_amps"),
        "state.to_text_lines": summary.op_median("state.to_text_lines"),
        "circuits.build_s": statistics.median(builds),
        "circuits.run_s": summary.op_median("circuits.run_s"),
        "circuits.run_self_s": summary.op_median("circuits.run_self_s"),
        "circuits.to_gate_s": summary.op_median("circuits.to_gate_s"),
        "focus.apply_calls": summary.op_median("focus.apply_calls"),
        "focus.apply_s": summary.op_median("focus.apply_s"),
        "focus.apply_call_p50_s": call_p50,
        **{f"focus.apply_{k}_p50_s": summary.call_p50(k)
           for k in ("m1", "m2", "m3", "perm", "dense", "inner", "outer")},
        "focus.over_floor": call_p50 / floor,
        "focus.curry_s": rep["curry"],
        "focus.gemm_s": rep["gemm"],
        "focus.uncurry_s": rep["uncurry"],
        "focus.gemm_gflops": rep["flops"] / rep["gemm"] / 1e9 if rep["gemm"] else 0.0,
        "focus.as_gate_s": summary.op_median("focus.as_gate_s"),
        "parallel.focused_s": summary.op_median("parallel.focused_s"),
        "parallel.combine_s": summary.op_median("parallel.combine_s"),
        "parallel.combine_calls": calls,
        "parallel.err_ratio": summary.op_median("parallel.combine_err") / calls if calls else 0.0,
        "floor.copy_s": floor,
        "trace.overhead_frac": statistics.median(t / u for t, u in zip(traced, untraced)) - 1.0,
    }
    return {"samples": untraced, "traced_samples": traced, "metrics": metrics}


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=("gen", "expect", "measure"))
    p.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    p.add_argument("dir", type=Path)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--result", type=Path)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--corrupt", action="store_true")
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    work = workloads.make(args.workload, args.dir, args.smoke)
    if args.mode == "gen":
        work.generate(args.seed)
        return 0
    if args.mode == "expect":
        work.expect()
        return 0

    work.load()
    run = Runner(work, args.corrupt)
    run.one()  # warm-up: caches, lazy imports, first-touch pages
    if args.trace:
        result = measure_traced(run, args.seconds, args.seed)
    else:
        result = {"samples": run.loop(args.seconds)}
    result.update(
        attempted=run.attempted,
        failed=run.failed,
        maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        blas_threads=blas_threads(),
    )
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
