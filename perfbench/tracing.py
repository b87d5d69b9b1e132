"""In-memory spans around the public qlens names that callers actually use.

Modules import names directly (``circuits.focus_apply``, ``cli.state_to_text``),
so a span must replace the attribute on the module that calls it, not only
the one that defines it.  Spans live in a list until the benchmark reads
them; nothing is written while an operation runs.
"""

from __future__ import annotations

import statistics
from time import perf_counter

from qlens import circuits, cli, focus, parallel


def line_count(text: str) -> int:
    """len(text.splitlines()) for '\\n'-separated text, without building the list."""
    return text.count("\n") + (bool(text) and not text.endswith("\n"))


# (owner, attribute, span name, attrs taken from the call, attrs taken from the result)
HOOKS = (
    (cli, "main", "cli.main", None, None),
    (cli, "parse_circuit", "cli.parse_circuit", None, None),
    (cli, "state_to_text", "state.to_text",
     lambda a, k: {"amps": a[0].amps.size},
     lambda out: {"lines": line_count(out)}),
    (circuits.Circuit, "run", "circuits.run", None, None),
    (circuits.Circuit, "to_gate", "circuits.to_gate", None, None),
    (circuits, "focus_apply", "focus.apply", lambda a, k: {"lens": a[0], "gate": a[1]}, None),
    (focus, "focus_apply", "focus.apply", lambda a, k: {"lens": a[0], "gate": a[1]}, None),
    (parallel, "focus_apply", "focus.apply", lambda a, k: {"lens": a[0], "gate": a[1]}, None),
    (parallel, "focus_as_gate", "focus.as_gate", None, None),
    (parallel, "focused", "parallel.focused", None, None),
    (parallel, "combine", "parallel.combine", None, lambda out: {"err": out.is_err}),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name: str, parent: int):
        self.name = name
        self.parent = parent
        self.attrs: dict = {}


class Tracer:
    """Records nested spans; install() patches the hooks, restore() undoes it."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, fn, name, call_attrs, result_attrs):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = Span(name, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(rec)
            rec.start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.end = perf_counter()
                stack.pop()
            if call_attrs:
                rec.attrs.update(call_attrs(args, kwargs))
            if result_attrs:
                rec.attrs.update(result_attrs(out))
            return out

        return traced

    def install(self) -> None:
        for owner, attr, name, call_attrs, result_attrs in HOOKS:
            orig = owner.__dict__[attr]
            self._undo.append((owner, attr, orig))
            setattr(owner, attr, self.wrap(orig, name, call_attrs, result_attrs))

    def restore(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a fresh list."""
        out = self.spans[:]
        self.spans.clear()
        return out


def is_permutation(mat) -> bool:
    """True for a 0/1 matrix with exactly one 1 in every row and column."""
    ones = mat == 1
    return bool(((mat == 0) | ones).all() and (ones.sum(0) == 1).all()
                and (ones.sum(1) == 1).all())


class OpSummary:
    """Per-operation totals and pooled per-call focus timings across operations."""

    def __init__(self):
        self.per_op: list[dict[str, float]] = []
        self.calls: dict[str, list[float]] = {k: [] for k in (
            "all", "m1", "m2", "m3", "perm", "dense", "inner", "outer")}
        self._perm: dict[int, tuple] = {}

    def _gate_is_perm(self, gate) -> bool:
        hit = self._perm.get(id(gate))
        if hit is None or hit[0] is not gate:
            hit = (gate, is_permutation(gate.mat))
            self._perm[id(gate)] = hit
        return hit[1]

    def add(self, spans: list[Span]) -> None:
        tot: dict[str, float] = {}
        child_time = [0.0] * len(spans)
        for i, s in enumerate(spans):
            dur = s.end - s.start
            if s.parent >= 0:
                child_time[s.parent] += dur
            # Count a name once when it nests inside itself (combine -> focused).
            p = s.parent
            while p >= 0 and spans[p].name != s.name:
                p = spans[p].parent
            if p < 0:
                tot[s.name + "_s"] = tot.get(s.name + "_s", 0.0) + dur
            tot[s.name + "_calls"] = tot.get(s.name + "_calls", 0) + 1
            for key, val in s.attrs.items():
                if key in ("lens", "gate"):
                    continue
                tot[f"{s.name}_{key}"] = tot.get(f"{s.name}_{key}", 0) + val
            if s.name == "focus.apply":
                lens, gate = s.attrs["lens"], s.attrs["gate"]
                for key in ("all", f"m{lens.m}",
                            "perm" if self._gate_is_perm(gate) else "dense",
                            "inner" if max(lens.idx, default=-1) >= lens.n / 2 else "outer"):
                    if key in self.calls:
                        self.calls[key].append(dur)
        for i, s in enumerate(spans):
            if s.name in ("cli.main", "circuits.run"):
                key = s.name + "_self_s"
                tot[key] = tot.get(key, 0.0) + (s.end - s.start) - child_time[i]
        self.per_op.append(tot)

    def op_median(self, key: str) -> float:
        return statistics.median(op.get(key, 0) for op in self.per_op) if self.per_op else 0.0

    def call_p50(self, key: str) -> float:
        vals = self.calls[key]
        return statistics.median(vals) if vals else 0.0
