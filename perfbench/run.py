"""qlens benchmark: end-to-end metrics per workload, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload ghz_cli --seed 1 --seconds 20 --trace 0

Run from the repository root.  The program is imported from ``src/``; the
benchmark itself touches only ``perfbench/_work/``.  Each run:

1. sets up: a fresh interpreter imports qlens, builds the workload's circuit
   from the seed and writes the input files (once untimed, to warm the file
   cache);
2. writes the expected outputs in another interpreter, from paths that share
   no code with the timed one (closed form, reference pipeline, dense
   oracle);
3. with --trace 0, measures in a child with BLAS threads = nproc for
   TWO_THREAD_SHARE of --seconds (run_s, run_s_tail, peak_rss_mb), then in a
   child with BLAS threads = 1 for the rest (run_s_1t); it sets up again
   SETUP_REPEATS times before, between and after them (setup_s: the median);
   with --trace 1, measures one child with BLAS threads = nproc: untraced,
   then with spans around the public qlens names, then a per-phase replay
   of the circuit, then the copy floor.

Every timed output is checked.  The last line of stdout is one JSON object
with keys correct, attempted, failed and metrics; the exit code is 0 only
when every check passed.  The full result, with the environment, is also
written to perfbench/_work/BENCH_<workload>_s<seed>_t<trace>.json.

Layers with no hot-path entry here (qlens.lens, gates, oracle, checks)
show only in setup_s and in the output checks.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from envinfo import environment

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
WORKLOADS = ("ghz_cli", "random_layered", "collapse_small")
SETUP_REPEATS = 3  # three times, before, between and after the timed children
TWO_THREAD_SHARE = 0.7
CHILD_TIMEOUT = 170


def units(kind: str) -> dict[str, str]:
    """Metric name -> unit for "end_to_end" or "per_layer", from BENCHMARK.json."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


class ChildFailed(RuntimeError):
    pass


def child(mode: str, workload: str, dir: Path, threads: int, *extra: str) -> float:
    """Run child.py in a fresh interpreter; returns its wall time in seconds."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    cmd = [sys.executable, str(BENCH / "child.py"), mode, workload, str(dir), *extra]
    t0 = perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT)
    dt = perf_counter() - t0
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} {workload} exited {proc.returncode}:\n{proc.stderr}")
    return dt


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with >= 10 samples beyond it, never below the median.

    Returns (value, percentile, samples beyond it).
    """
    s = sorted(samples)
    k = max(len(s) - 11, len(s) // 2)
    return s[k], 100.0 * (k + 1) / len(s), len(s) - 1 - k


def measure(workload: str, dir: Path, threads: int, seconds: float,
            flags: list[str]) -> dict:
    out = dir / f"result-{threads}t.json"
    child("measure", workload, dir, threads, "--seconds", repr(seconds),
          "--result", str(out), *flags)
    return json.loads(out.read_text())


def run(args: argparse.Namespace) -> tuple[dict, list[str]]:
    """Returns the result record and human-readable report lines."""
    nproc = len(os.sched_getaffinity(0))
    dir = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(dir, ignore_errors=True)
    dir.mkdir(parents=True)
    flags = ["--smoke"] if args.smoke else []
    if args.corrupt:
        flags.append("--corrupt")
    gen = ["--seed", str(args.seed), *flags]
    report: list[str] = []
    setups: list[float] = []

    def setup(repeats: int) -> None:
        setups.extend(child("gen", args.workload, dir, nproc, *gen) for _ in range(repeats))

    try:
        child("gen", args.workload, dir, nproc, *gen)
        child("expect", args.workload, dir, nproc, *flags)
        if args.trace:
            res = measure(args.workload, dir, nproc, args.seconds, flags + ["--trace"])
            runs = {"traced": res}
            metrics = {k: {"value": res["metrics"][k], "unit": u}
                       for k, u in units("per_layer").items()}
            report.append(f"traced {len(res['traced_samples'])} ops, untraced "
                          f"{len(res['samples'])} ops")
        else:
            # Setups are spread over the run so that one busy spell of the
            # machine cannot move their median.
            setup(SETUP_REPEATS)
            two = measure(args.workload, dir, nproc, TWO_THREAD_SHARE * args.seconds, flags)
            setup(SETUP_REPEATS)
            one = measure(args.workload, dir, 1,
                          (1 - TWO_THREAD_SHARE) * args.seconds, flags)
            setup(SETUP_REPEATS)
            runs = {f"{nproc}t": two, "1t": one}
            t_val, t_pct, t_beyond = tail(two["samples"])
            values = {
                "setup_s": statistics.median(setups),
                "run_s": statistics.median(two["samples"]),
                "run_s_tail": t_val,
                "run_s_1t": statistics.median(one["samples"]),
                "peak_rss_mb": two["maxrss_kb"] / 1024.0,
            }
            metrics = {k: {"value": values[k], "unit": u}
                       for k, u in units("end_to_end").items()}
            report.append(f"run_s: median of {len(two['samples'])} ops at "
                          f"{two['blas_threads']} BLAS threads; run_s_tail: "
                          f"p{t_pct:.0f} ({t_beyond} samples beyond it)")
            report.append(f"run_s_1t: median of {len(one['samples'])} ops at "
                          f"{one['blas_threads']} BLAS threads; setup_s: median of "
                          f"{len(setups)} fresh interpreters")
    finally:
        shutil.rmtree(dir, ignore_errors=True)

    attempted = sum(r["attempted"] for r in runs.values())
    failed = sum(r["failed"] for r in runs.values())
    env = environment()
    env["blas_threads_in_effect"] = {k: r["blas_threads"] for k, r in runs.items()}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "environment": env,
        "fail_ratio": failed / attempted, "attempted": attempted, "failed": failed,
        "metrics": metrics,
        "samples": {"setup": setups, **{k: r["samples"] for k, r in runs.items()}},
    }
    report.append(f"fail_ratio: {failed}/{attempted} = {failed / attempted:.4g}")
    report.append("env: " + json.dumps(env))
    return record, report


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="every workload at n <= 8")
    p.add_argument("--corrupt", action="store_true",
                   help="perturb every output before its check (tests the checks)")
    args = p.parse_args(argv)
    if not (SRC / "qlens" / "__init__.py").is_file():
        print(f"error: qlens sources not found under {SRC}", file=sys.stderr)
        return 2
    try:
        record, report = run(args)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    name = f"BENCH_{args.workload}_s{args.seed}_t{args.trace}.json"
    (WORK / name).write_text(json.dumps(record, indent=1) + "\n")
    for line in report:
        print(line)
    for key, m in record["metrics"].items():
        print(f"{key:28s} {m['value']:.6g} {m['unit']}")
    correct = record["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
