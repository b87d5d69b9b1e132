"""Command-line front end: run circuit files, verification suites, examples.

Circuit file format (JSON):

    {
      "qudit_dim": 2,                      # optional, default 2
      "wires": 3,
      "gates": [                           # optional custom gates
        {"name": "u", "wires": 1, "matrix": [[re, im], ...]}   # column-major
      ],
      "ops": [
        {"gate": "cnot", "lens": [0, 1]}
      ]
    }

Custom gate names are unique and may not be builtin gate names.  Exit codes:
0 success, 1 check failure, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path
from typing import Callable

import numpy as np

from . import circuits
from .errors import (
    ArityMismatch,
    ParseError,
    QLensError,
    ShapeMismatch,
    SizeGuardExceeded,
    UnknownExample,
)
from .gates import Gate, builtin, builtin_names, check_dense_size, parametric_wires
from .lens import Lens
from .state import State, check_text_alphabet, state_from_text, state_to_text, support_to_text


def parse_circuit(path: str | Path) -> circuits.Circuit:
    """Load and validate a circuit file; error messages carry field locations."""
    try:
        text = Path(path).read_text()
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in the path
        raise ParseError(f"{path}: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    return circuit_from_spec(doc, where=str(path))


def circuit_from_spec(doc: object, where: str = "circuit") -> circuits.Circuit:
    if not isinstance(doc, dict):
        raise ParseError(f"{where}: top level must be an object")
    q = doc.get("qudit_dim", 2)
    if not isinstance(q, int) or q < 2:
        raise ParseError(f"{where}.qudit_dim: expected an integer >= 2, got {q!r}")
    wires = doc.get("wires")
    if type(wires) is not int or wires < 1:
        raise ParseError(f"{where}.wires: expected a positive integer, got {wires!r}")

    table: dict[str, Gate] = {}
    raw_gates = doc.get("gates", [])
    if not isinstance(raw_gates, list):
        raise ParseError(f"{where}.gates: expected a list")
    for gi, entry in enumerate(raw_gates):
        loc = f"{where}.gates[{gi}]"
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            raise ParseError(f"{loc}: expected an object with a string 'name'")
        name = entry["name"]
        if _is_builtin_name(name):
            raise ParseError(f"{loc}.name: {name!r} is reserved for a builtin gate")
        if name in table:
            raise ParseError(f"{loc}.name: duplicate gate name {name!r}")
        table[name] = _parse_custom_gate(entry, q, loc)

    raw_ops = doc.get("ops")
    if not isinstance(raw_ops, list):
        raise ParseError(f"{where}.ops: expected a list")
    steps = []
    for oi, op in enumerate(raw_ops):
        loc = f"{where}.ops[{oi}]"
        if not isinstance(op, dict):
            raise ParseError(f"{loc}: expected an object")
        name = op.get("gate")
        if not isinstance(name, str):
            raise ParseError(f"{loc}.gate: expected a gate name")
        raw_lens = op.get("lens")
        if not isinstance(raw_lens, list) or any(type(i) is not int for i in raw_lens):
            raise ParseError(f"{loc}.lens: expected an integer array")
        try:
            lens = Lens(wires, tuple(raw_lens))
        except QLensError as exc:
            raise type(exc)(f"{loc}.lens: {exc}") from None
        if name not in table:  # a builtin, built once per file
            table[name] = _resolve_builtin(name, q, lens, loc)
        gate = table[name]
        if gate.wires_in != lens.m:
            raise _arity_mismatch(loc, name, gate.wires_in, lens)
        steps.append(circuits.Step(lens, gate, name))
    return circuits.Circuit(wires, tuple(steps), q)


def _resolve_builtin(name: str, q: int, lens: Lens, loc: str) -> Gate:
    """Build a builtin gate; identity(k) and null(k), bare names with k = 1,
    meet the size guard and the lens arity before their q**k x q**k matrix
    is allocated."""
    k = parametric_wires(name)
    try:
        if k is not None:
            check_dense_size(k, q)
        if k in (None, lens.m):
            return builtin(name, q)
    except QLensError as exc:
        raise type(exc)(f"{loc}.gate: {exc}") from None
    raise _arity_mismatch(loc, name, k, lens)


def _arity_mismatch(loc: str, name: str, wires: int, lens: Lens) -> ArityMismatch:
    return ArityMismatch(f"{loc}: gate {name!r} acts on {wires} wires, lens has {lens.m}")


def _parse_custom_gate(entry: dict, q: int, loc: str) -> Gate:
    wires = entry.get("wires")
    if type(wires) is not int or wires < 0:
        raise ParseError(f"{loc}.wires: expected a non-negative integer")
    try:
        dim = check_dense_size(wires, q)
    except SizeGuardExceeded as exc:
        raise SizeGuardExceeded(f"{loc}.wires: {exc}") from None
    flat = entry.get("matrix")
    if not isinstance(flat, list) or len(flat) != dim * dim:
        raise ParseError(f"{loc}.matrix: expected {dim * dim} [re, im] pairs")
    for k, pair in enumerate(flat):
        if not isinstance(pair, list) or len(pair) != 2 or not all(map(_is_finite, pair)):
            raise ParseError(f"{loc}.matrix[{k}]: expected [re, im] finite numbers")
    # Row j of the (dim, dim) view is column j of the gate (column-major).
    cols = np.array(flat, dtype=np.float64).view(np.complex128).reshape(dim, dim)
    return Gate(cols.T, wires, wires, q)


def _is_finite(x: object) -> bool:
    """A JSON number (bools excluded) that converts to a finite float."""
    try:
        return type(x) in (int, float) and math.isfinite(x)
    except OverflowError:  # an integer beyond the float range
        return False


def _is_builtin_name(name: str) -> bool:
    return name.strip().split("(")[0] in builtin_names()


def circuit_to_spec(circ: circuits.Circuit) -> dict:
    """Inverse of circuit_from_spec for circuits whose steps carry names.

    A step named after a builtin must carry that builtin's matrix; every other
    name is written once under "gates" with its matrix, column-major.
    """
    table: dict[str, Gate] = {}
    ops = []
    for k, step in enumerate(circ.steps):
        name = step.name
        if name is None:
            raise ParseError("circuit step has no gate name; cannot serialize")
        if _is_builtin_name(name):
            known = builtin(name, circ.q)
        else:
            known = table.setdefault(name, step.gate)
        if not np.array_equal(known.mat, step.gate.mat):
            raise ParseError(f"steps[{k}]: gate {name!r} differs from the gate of that "
                             f"name; cannot serialize")
        ops.append({"gate": name, "lens": list(step.lens.idx)})
    doc: dict = {"qudit_dim": circ.q, "wires": circ.n}
    if table:
        doc["gates"] = [
            {"name": name, "wires": gate.wires,
             "matrix": [[float(z.real), float(z.imag)] for z in gate.mat.T.ravel()]}
            for name, gate in table.items()
        ]
    doc["ops"] = ops
    return doc


def _cmd_run(args: argparse.Namespace) -> int:
    """Print the final state of circ run on --input: a basis string, from
    its support if a walk covers the circuit (no state-sized array, no
    scan; with at most one dense step, no fusing and no plan either), else
    run without building its ket; or a state file.  state_to_text gets
    only States (perfbench/tracing.py reads their amps)."""
    circ = parse_circuit(args.circuit)
    check_text_alphabet(circ.q)  # before the run whose output it could not print
    value, symbols = args.input, set("0123456789"[: circ.q])
    if len(value) == circ.n and set(value) <= symbols:
        v = tuple(int(c) for c in value)
        final = circ._basis_support(v) or circ.run_basis(v)
    else:
        try:
            text = Path(value).read_text()
        except (OSError, ValueError):  # ValueError: not UTF-8, or a NUL in the path
            raise ParseError(
                f"--input {value!r} is neither a basis string of {circ.n} digits < {circ.q} "
                f"nor a readable state file"
            ) from None
        final = circ.run(state_from_text(text, circ.q, circ.n))
    text = (state_to_text(final, threshold=args.threshold) if isinstance(final, State)
            else support_to_text(circ.n, circ.q, *final, args.threshold))
    if text:
        print(text)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from . import checks  # here, so that no other command compiles the law suites
    print(f"seed: {args.seed}")
    results = checks.run_scope(args.scope, seed=args.seed, trials=args.trials,
                               max_wires=args.max_wires)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"{status}  {r.name:32s} max_dev={r.max_dev:.3e}  tol={r.tol:.1e}"
        if not r.passed and r.detail:
            line += f"  ({r.detail})"
        print(line)
        failed += 0 if r.passed else 1
    print(f"{len(results)} checks, {len(results) - failed} passed, {failed} failed")
    return 1 if failed else 0


def example_circuit(name: str, n: int | None) -> circuits.Circuit:
    if name == "shor":
        comps = circuits.shor_components()
        return circuits.Circuit(9, comps["shor_enc"].steps + comps["shor_dec"].steps)
    if name == "ghz":
        return circuits.ghz_circuit(2 if n is None else n)
    if name == "reverse":
        if n is not None and n < 1:
            raise ShapeMismatch(f"reverse needs at least one wire, got {n}")
        return circuits.reversal_circuit(5 if n is None else n)
    raise UnknownExample(f"unknown example {name!r}; choose shor, ghz, or reverse")


def _cmd_examples(args: argparse.Namespace) -> int:
    circ = example_circuit(args.name, args.n)
    doc = json.dumps(circuit_to_spec(circ), indent=2)
    if args.out:
        try:
            Path(args.out).write_text(doc + "\n")
        except OSError as exc:
            raise ParseError(f"--out {args.out}: {exc}") from None
    else:
        print(doc)
    return 0


def _int_at_least(low: int) -> Callable[[str], int]:
    """argparse type: an int of at least ``low`` (below it, a usage error)."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


def _magnitude(text: str) -> float:
    """argparse type: a float of at least 0 (NaN or below 0, a usage error)."""
    value = float(text)
    if not value >= 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {text}")
    return value


# sorted(checks.SCOPES) + ["all"], spelt out so that the parser needs no checks import.
_SCOPES = ("examples", "focus-laws", "lens-laws", "monoid", "oracle", "unitarity", "all")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlens",
        description="Lens-focused statevector circuit simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a circuit file on an input state")
    run.add_argument("circuit", help="path to a circuit JSON file")
    run.add_argument("--input", required=True,
                     help="basis digit string or state file path")
    run.add_argument("--threshold", type=_magnitude, default=0.0,
                     help="suppress amplitudes below this magnitude")
    run.set_defaults(func=_cmd_run)

    check = sub.add_parser("check", help="run a verification suite")
    check.add_argument("scope", choices=_SCOPES)
    check.add_argument("--seed", type=_int_at_least(0), default=0)
    check.add_argument("--trials", type=_int_at_least(1), default=200)
    check.add_argument("--max-wires", type=_int_at_least(2), default=None)
    check.set_defaults(func=_cmd_check)

    ex = sub.add_parser("examples", help="emit a named example circuit file")
    ex.add_argument("name", help="shor | ghz | reverse")
    ex.add_argument("--n", type=_int_at_least(0), default=None,
                    help="ghz recursion depth / reverse wire count")
    ex.add_argument("--out", default=None, help="write to a file instead of stdout")
    ex.set_defaults(func=_cmd_examples)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except QLensError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
