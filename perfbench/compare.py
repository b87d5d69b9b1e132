"""Compare two sets of benchmark results; flags any difference of environment.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds BENCH_<workload>_s<seed>_t<trace>.json files written by
run.py (copy perfbench/_work/ aside after measuring each side).  For each
workload and metric, prints the median over seeds on each side and new/base.
Exits 3 when the two sides were measured in different environments.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def load(dir: Path) -> tuple[dict, dict]:
    """(workload, trace) -> metric -> values, and (workload, trace) -> environments."""
    groups: dict[tuple, dict[str, list[float]]] = {}
    envs: dict[tuple, list[dict]] = {}
    for path in sorted(dir.glob("BENCH_*.json")):
        rec = json.loads(path.read_text())
        key = (rec["workload"], rec["trace"])
        envs.setdefault(key, []).append(rec["environment"])
        for name, m in rec["metrics"].items():
            groups.setdefault(key, {}).setdefault(name, []).append(m["value"])
    return groups, envs


def env_differences(base: list[dict], new: list[dict]) -> list[str]:
    out = []
    for key in sorted({k for env in base + new for k in env}):
        a = sorted({json.dumps(e.get(key)) for e in base})
        b = sorted({json.dumps(e.get(key)) for e in new})
        if a != b:
            out.append(f"{key}: {', '.join(a)} vs {', '.join(b)}")
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (base, base_env), (new, new_env) = load(Path(argv[0])), load(Path(argv[1]))
    flagged = False
    for key in sorted(base.keys() & new.keys()):
        print(f"== {key[0]} trace={key[1]}")
        for line in env_differences(base_env[key], new_env[key]):
            print(f"  WARNING environment differs, numbers are not comparable: {line}")
            flagged = True
        for name in base[key]:
            if name not in new[key]:
                continue
            a, b = statistics.median(base[key][name]), statistics.median(new[key][name])
            ratio = f"{b / a:.3f}" if a else "-"
            print(f"  {name:28s} {a:12.6g} {b:12.6g}  new/base {ratio}"
                  f"  (n={len(base[key][name])}/{len(new[key][name])})")
    return 3 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
