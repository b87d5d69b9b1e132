"""Matrix-backed gates: builtins, composition, and the block-action engine.

A gate from m to n wires is a dense q**n x q**m complex matrix whose column j
is the image of the basis tuple with flat index j.  Because the matrix acts
through scalar multiplications and additions only, the same gate can be
applied to vectors of blocks (apply_to_blocks); that block action is what
focusing uses, and commuting with per-block maps is its defining property.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .errors import (
    IndexOutOfRange,
    ShapeMismatch,
    UnknownGate,
    UnsupportedAlphabet,
)
from .state import State, _check_size, _complex_array, _wires_of

# Correctly rounded 1/sqrt(2); sqrt(0.5) is exact to the last ulp while
# 1/sqrt(2) picks up a second rounding.
_SQRT2_INV = math.sqrt(0.5)

# Dense operators are capped at n*log2(q) <= 14 wire-bits.
MAX_DENSE_BITS = 14


def check_dense_size(n: int, q: int) -> int:
    """Validate that a q**n x q**n operator fits the guard; returns q**n."""
    bits = MAX_DENSE_BITS
    return _check_size(n, q, 2**bits,
                       f"dense operator on {{n}} wires with q={{q}} exceeds the 2**{bits} guard")


class Gate:
    """Immutable linear map from states of ``wires_in`` to ``wires_out`` wires."""

    __slots__ = ("mat", "wires_in", "wires_out", "q", "_rows")

    def __init__(
        self,
        mat: np.ndarray,
        wires_in: int | None = None,
        wires_out: int | None = None,
        q: int = 2,
        *,
        _trusted: bool = False,
    ):
        # _trusted: the caller hands over a fresh array of finite entries
        # nobody else holds, so it is kept as is, neither checked nor copied.
        if q < 1:
            raise IndexOutOfRange(f"alphabet size must be positive, got {q}")
        m = mat if _trusted else _complex_array(mat, "gate matrix")
        if m.ndim != 2:
            raise ShapeMismatch(f"gate matrix must be 2-D, got shape {m.shape}")
        rows, cols = m.shape
        out = _wires_of(rows, q, "row") if wires_out is None else wires_out
        inn = _wires_of(cols, q, "column") if wires_in is None else wires_in
        if (q**out, q**inn) != (rows, cols):
            raise ShapeMismatch(
                f"gate matrix {rows}x{cols} does not match q={q} with "
                f"{out} output / {inn} input wires"
            )
        m.setflags(write=False)
        self.mat = m
        self.wires_in = inn
        self.wires_out = out
        self.q = q

    @property
    def is_square(self) -> bool:
        return self.wires_in == self.wires_out

    @property
    def wires(self) -> int:
        """Wire count of a square gate."""
        if not self.is_square:
            raise ShapeMismatch(
                f"gate is {self.wires_in}->{self.wires_out}, not an endomorphism"
            )
        return self.wires_in

    @property
    def rows(self) -> np.ndarray | None:
        """The row map of a square 0/1 permutation matrix, mat[i, rows[i]]
        == 1, else None; computed once, as mat is read-only.

        The nonzero count comes first, so a dense gate is turned away in one
        pass; q**m nonzero entries, each row's first one equal to 1 and no
        column met twice leave nothing but a permutation."""
        if not hasattr(self, "_rows"):
            mat, rows = self.mat, None
            if self.is_square and np.count_nonzero(mat) == len(mat):
                rows = (mat != 0).argmax(axis=1)
                rows.setflags(write=False)
                ones = mat[np.arange(len(mat)), rows] == 1
                if not (ones.all() and np.unique(rows).size == len(rows)):
                    rows = None
            self._rows = rows  # set once, so that no thread reads a half-made value
        return self._rows

    def apply(self, state: State) -> State:
        """Matrix action on an arity-``wires_in`` state."""
        if state.n != self.wires_in or state.q != self.q:
            raise ShapeMismatch(
                f"gate expects ({self.wires_in} wires, q={self.q}), "
                f"got ({state.n}, q={state.q})"
            )
        return State(self.wires_out, self.q, self.mat @ state.amps, _trusted=True)

    def __repr__(self) -> str:
        return f"Gate({self.wires_in}->{self.wires_out}, q={self.q})"


def ket_bra(k: State, b: State) -> np.ndarray:
    """Rank-one matrix summand: entry (w, v) = k(v) * b(w).

    Columns are indexed by k's basis, rows by b's; sums of these blocks build
    gate matrices entrywise (see hadamard).  No conjugation is applied.
    """
    if k.q != b.q:
        raise ShapeMismatch(f"alphabet mismatch: q={k.q} vs q={b.q}")
    return np.outer(b.amps, k.amps)


def hadamard(q: int = 2) -> Gate:
    _require_qubits("hadamard", q)
    return Gate(_SQRT2_INV * np.array([[1, 1], [1, -1]], dtype=np.complex128))


def cnot(q: int = 2) -> Gate:
    _require_qubits("cnot", q)
    mat = np.eye(4, dtype=np.complex128)
    mat[[2, 3]] = mat[[3, 2]]
    return Gate(mat)


def toffoli(q: int = 2) -> Gate:
    _require_qubits("toffoli", q)
    mat = np.eye(8, dtype=np.complex128)
    mat[[6, 7]] = mat[[7, 6]]
    return Gate(mat)


def swap(q: int = 2) -> Gate:
    _require_qubits("swap", q)
    mat = np.eye(4, dtype=np.complex128)
    mat[[1, 2]] = mat[[2, 1]]
    return Gate(mat)


def identity(k: int = 1, q: int = 2) -> Gate:
    return Gate(np.eye(check_dense_size(k, q), dtype=np.complex128), k, k, q, _trusted=True)


def null(k: int = 1, q: int = 2) -> Gate:
    dim = check_dense_size(k, q)
    return Gate(np.zeros((dim, dim), dtype=np.complex128), k, k, q, _trusted=True)


def _require_qubits(name: str, q: int) -> None:
    if q != 2:
        raise UnsupportedAlphabet(f"{name} is only defined for q=2, got q={q}")


_PARAMETRIC = re.compile(r"^(identity|null)(?:\((\d+)\))?$")

_BUILTINS = {
    "hadamard": hadamard,
    "cnot": cnot,
    "toffoli": toffoli,
    "swap": swap,
}


def builtin(name: str, q: int = 2) -> Gate:
    """Resolve a builtin gate name: hadamard | cnot | toffoli | swap |
    identity(k) | null(k).  Bare ``identity``/``null`` mean k=1."""
    name = name.strip()
    if name in _BUILTINS:
        return _BUILTINS[name](q)
    k = parametric_wires(name)
    if k is not None:
        return identity(k, q) if name.startswith("identity") else null(k, q)
    raise UnknownGate(f"unknown gate {name!r}")


def parametric_wires(name: str) -> int | None:
    """k of a parametric builtin name identity(k) | null(k), read without
    building its q**k x q**k matrix; 1 for bare identity | null, None for
    every other name."""
    match = _PARAMETRIC.match(name.strip())
    return int(match.group(2) or 1) if match else None


def builtin_names() -> tuple[str, ...]:
    return tuple(_BUILTINS) + ("identity", "null")


def compose(f: Gate, g: Gate) -> Gate:
    """Sequential composition f after g: (f.g)(s) = f(g(s))."""
    if f.q != g.q:
        raise ShapeMismatch(f"alphabet mismatch: q={f.q} vs q={g.q}")
    if f.wires_in != g.wires_out:
        raise ShapeMismatch(
            f"cannot compose {f.wires_in}<-... after ...->{g.wires_out}"
        )
    return Gate(f.mat @ g.mat, g.wires_in, f.wires_out, f.q, _trusted=True)


def apply_to_blocks(gate: Gate, blocks: np.ndarray) -> np.ndarray:
    """Act with a square gate on a vector of blocks.

    blocks[j] may be any fixed-shape complex array; output block i is
    sum_j mat[i, j] * blocks[j], computed with scalar-times-block products
    and sums only.  This deliberately literal loop is the reference engine
    behind focusing; the optimized path is validated against it.
    """
    dim = gate.q**gate.wires
    arr = _complex_array(blocks, "blocks")
    if arr.shape[0] != dim:
        raise ShapeMismatch(f"expected {dim} blocks, got {arr.shape[0]}")
    mat = gate.mat
    out = np.zeros_like(arr)
    for i in range(dim):
        acc = np.zeros(arr.shape[1:], dtype=np.complex128)
        for j in range(dim):
            coeff = mat[i, j]
            if coeff != 0:
                acc = acc + coeff * arr[j]
        out[i] = acc
    return out


def unitarity_defect(gate: Gate) -> float:
    """Max-entry deviation of conj(M).T @ M from the identity."""
    dim = gate.q**gate.wires
    gram = gate.mat.conj().T @ gate.mat
    return float(np.max(np.abs(gram - np.eye(dim))))
