"""Smoke test of the benchmark at n <= 8:  python3 -m pytest perfbench/test_smoke.py

Every metric named in BENCHMARK.json is emitted with its unit, and a
deliberately corrupted output raises fail_ratio and the exit code.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int, *extra: str) -> tuple[int, dict, str]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.3", "--trace", str(trace), "--smoke", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_with_unit(workload, trace, kind):
    rc, last, _ = bench(workload, trace)
    assert rc == 0
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: m["unit"] for k, m in last["metrics"].items()} == want
    for m in last["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if kind == "end_to_end":
        assert all(m["value"] > 0 for m in last["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_raises_fail_ratio(workload):
    rc, last, stdout = bench(workload, 0, "--corrupt")
    assert rc != 0
    assert last["correct"] is False
    assert 0 < last["failed"] <= last["attempted"]
    record = json.loads((BENCH / "_work" / f"BENCH_{workload}_s3_t0.json").read_text())
    assert record["fail_ratio"] == last["failed"] / last["attempted"] > 0
    assert "fail_ratio:" in stdout
