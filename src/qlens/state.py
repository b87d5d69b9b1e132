"""Quantum states as dense complex amplitude tables indexed by wire tuples.

Storage convention: the amplitude of tuple (i0, .., i(n-1)) sits at flat
position sum(ik * q**(n-1-k)) — wire 0 is most significant.  This is the
C-order ravel of a (q,)*n array and matches the lexicographic ordering of the
computational basis.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import IndexOutOfRange, ParseError, ShapeMismatch, SizeGuardExceeded
from .lens import _integer

# Desk-scale ceiling for dense state allocation (number of amplitudes).
MAX_STATE_ENTRIES = 2**30

# Default absolute tolerance for state comparison; double precision stands in
# for exact complex scalars, so comparisons always carry a tolerance.
DEFAULT_TOL = 1e-9

# Passes that only move or scan amplitudes go chunk by chunk, so that a
# chunk of at most this many bytes stays in cache.  Permutation steps
# (focus): on a 2-vCPU Xeon at n = 20 (16 MiB state), 1 MiB chunks cut an
# in-place CNOT by about a third on most wire pairs (wires (18, 19): 4.1 ->
# 2.6 ms) and a `qlens run` of GHZ-20 from 58 to 38 ms.  state_to_text
# scans magnitudes: at GHZ-20 (median of 41) it took 3.6 ms, against 4.6 ms
# unchunked, 7.1 ms in 64 KiB chunks and 4.2 ms in 4 MiB chunks.
_CHUNK_BYTES = 1 << 20

BasisTuple = tuple[int, ...]


def _check_size(n: int, q: int, limit: int, message: str) -> int:
    """q**n for n >= 0 wires over q >= 1 symbols, else IndexOutOfRange;
    SizeGuardExceeded with ``message`` (formatted with n, q and limit) once
    q**n passes ``limit``."""
    if n < 0:
        raise IndexOutOfRange(f"negative wire count {n}")
    if q < 1:
        raise IndexOutOfRange(f"alphabet size must be positive, got {q}")
    # For q >= 2, q**n >= 2**n > limit once n reaches limit's bit length: that
    # decides it without q**n, which may be too big to compute or to print.
    if (q > 1 and n >= limit.bit_length()) or q**n > limit:
        raise SizeGuardExceeded(message.format(n=n, q=q, limit=limit))
    return q**n


def check_allocation(n: int, q: int) -> int:
    """Validate that a q**n amplitude table fits the guard; returns q**n."""
    return _check_size(n, q, MAX_STATE_ENTRIES, "{q}**{n} amplitudes exceeds guard {limit}")


def _complex_array(values, what: str, ndmin: int = 1) -> np.ndarray:
    """``values`` as a new contiguous complex128 array of finite entries and
    at least ``ndmin`` dimensions, or ShapeMismatch.  Numbers of any numeric
    dtype pass; strings and bytes, which numpy would parse ("1j" -> 1j), do
    not, nor does what numpy cannot convert (a ragged list)."""
    try:
        a = np.asarray(values)
        if a.dtype.kind in "SU" or (a.dtype.kind == "O"
                                    and any(isinstance(x, (str, bytes)) for x in a.flat)):
            raise TypeError
        a = np.array(a, dtype=np.complex128, order="C", ndmin=ndmin)
    except (TypeError, ValueError):
        raise ShapeMismatch(f"{what} must be an array of numbers") from None
    if not np.isfinite(a).all():
        raise ShapeMismatch(f"{what} must be finite")
    return a


def _wires_of(dim: int, q: int, what: str) -> int:
    """Number of wires k with q**k == dim (q >= 1), or ShapeMismatch."""
    k = round(math.log(dim, q)) if q > 1 and dim > 0 else 0
    if q**k != dim:
        raise ShapeMismatch(f"{what} dimension {dim} is not a power of q={q}")
    return k


def check_working_set(arrays: int, entries: int) -> None:
    """Validate that ``arrays`` arrays of ``entries`` amplitudes each fit the
    guard together, before any of them is allocated."""
    if arrays * entries > MAX_STATE_ENTRIES:
        raise SizeGuardExceeded(
            f"{arrays} arrays of {entries} amplitudes exceed guard {MAX_STATE_ENTRIES}"
        )


def tuple_to_index(v: Sequence[int], q: int) -> int:
    """Flat position of a basis tuple of integer symbols (not bools), big-endian."""
    pos = 0
    for x in v:
        x = _integer(x, "symbol")
        if not 0 <= x < q:
            raise IndexOutOfRange(f"symbol {x} outside [0, {q})")
        pos = pos * q + x
    return pos


def index_to_tuple(pos: int, n: int, q: int) -> BasisTuple:
    """Inverse of tuple_to_index."""
    out = [0] * n
    for k in range(n - 1, -1, -1):
        pos, out[k] = divmod(pos, q)
    return tuple(out)


def all_basis_tuples(n: int, q: int = 2) -> Iterator[BasisTuple]:
    """All q**n tuples in lexicographic (= flat index) order."""
    return product(range(q), repeat=n)


class State:
    """Immutable dense state of ``n`` wires over the alphabet {0..q-1}."""

    __slots__ = ("n", "q", "amps")

    def __init__(self, n: int, q: int, amps: np.ndarray, *, _trusted: bool = False):
        dim = check_allocation(n, q)
        if not _trusted:
            amps = _complex_array(amps, "amplitudes")
            if amps.shape != (dim,):
                raise ShapeMismatch(f"expected {dim} amplitudes, got shape {amps.shape}")
        amps.setflags(write=False)
        self.n = n
        self.q = q
        self.amps = amps

    def amplitude(self, v: Sequence[int]) -> complex:
        if len(v) != self.n:
            raise ShapeMismatch(f"expected arity {self.n}, got {len(v)}")
        return complex(self.amps[tuple_to_index(v, self.q)])

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def is_unit(self, tol: float = DEFAULT_TOL) -> bool:
        return abs(self.norm() ** 2 - 1.0) <= tol

    def inner(self, other: State) -> complex:
        """Inner product, conjugate-linear in self."""
        self._check_compatible(other)
        return complex(np.vdot(self.amps, other.amps))

    def decompose(self) -> list[tuple[BasisTuple, complex]]:
        """All (basis tuple, amplitude) pairs; re-summing them rebuilds the state exactly."""
        return [
            (index_to_tuple(i, self.n, self.q), complex(a))
            for i, a in enumerate(self.amps)
        ]

    def allclose(self, other: State, tol: float = DEFAULT_TOL) -> bool:
        return self.max_dev(other) <= tol

    def max_dev(self, other: State) -> float:
        self._check_compatible(other)
        return float(np.max(np.abs(self.amps - other.amps), initial=0.0))

    def _check_compatible(self, other: State) -> None:
        if not isinstance(other, State):
            raise ShapeMismatch(f"expected State, got {type(other).__name__}")
        if other.n != self.n or other.q != self.q:
            raise ShapeMismatch(
                f"state shapes differ: ({self.n} wires, q={self.q}) vs ({other.n}, q={other.q})"
            )

    def __add__(self, other: State) -> State:
        self._check_compatible(other)
        return State(self.n, self.q, self.amps + other.amps, _trusted=True)

    def __sub__(self, other: State) -> State:
        self._check_compatible(other)
        return State(self.n, self.q, self.amps - other.amps, _trusted=True)

    def __mul__(self, scalar: complex) -> State:
        return State(self.n, self.q, self.amps * complex(scalar), _trusted=True)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"State(n={self.n}, q={self.q})"


def ket(v: Sequence[int], q: int = 2) -> State:
    """Basis state with amplitude 1 at tuple v."""
    n = len(v)
    dim = check_allocation(n, q)
    amps = np.zeros(dim, dtype=np.complex128)
    amps[tuple_to_index(v, q)] = 1.0
    return State(n, q, amps, _trusted=True)


def zero_state(n: int, q: int = 2) -> State:
    """State with every amplitude zero."""
    dim = check_allocation(n, q)
    return State(n, q, np.zeros(dim, dtype=np.complex128), _trusted=True)


def from_amplitudes(amps: Iterable[complex], q: int = 2) -> State:
    """Build a state from a flat amplitude list whose length must be q**n."""
    a = _complex_array(amps if isinstance(amps, np.ndarray) else list(amps), "amplitudes")
    return State(_wires_of(a.size, q, "state"), q, a)


def random_state(n: int, q: int = 2, rng: np.random.Generator | None = None) -> State:
    """Haar-ish random unit state (normalized complex Gaussian)."""
    rng = np.random.default_rng() if rng is None else rng
    dim = check_allocation(n, q)
    a = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    a /= np.linalg.norm(a)
    return State(n, q, a, _trusted=True)


def check_text_alphabet(q: int) -> None:
    """Validate that basis digits of alphabet size q fit one character each."""
    if q > 10:
        raise ShapeMismatch(f"text format supports q <= 10, got q={q}")


def state_to_text(state: State, threshold: float = 0.0) -> str:
    """Serialize to the line format ``<digits> <re> <im>``.

    Entries that are exactly zero or below the magnitude threshold are
    omitted; omitted entries read back as zero.  Amplitudes are printed with
    shortest round-trip precision, so parsing the text recovers the state
    bit-exactly.  Requires q <= 10 (single-character digits) and n >= 1.
    """
    amps, step = state.amps, _CHUNK_BYTES // 16
    mag, keep = np.empty(min(step, amps.size)), []
    for lo in range(0, amps.size, step):
        chunk = amps[lo:lo + step]
        part = np.abs(chunk, out=mag[:chunk.size])
        keep.append(lo + np.flatnonzero(~((part == 0.0) | (part < threshold))))
    keep = np.concatenate(keep)
    return support_to_text(state.n, state.q, keep, amps[keep], threshold)


def support_to_text(n: int, q: int, indices: np.ndarray, values: np.ndarray,
                    threshold: float = 0.0) -> str:
    """state_to_text of the n-wire state that holds ``values`` at the
    ascending flat ``indices`` and 0 elsewhere, without building it.  A
    state of no wires has no text form: its line would have no digits."""
    check_text_alphabet(q)
    if n < 1:
        raise ShapeMismatch(f"text format needs at least one wire, got {n}")
    mag = np.abs(values)
    keep = ~((mag == 0.0) | (mag < threshold))
    lines = []
    for i, a in zip(indices[keep].tolist(), values[keep]):
        digits = "".join(str(d) for d in index_to_tuple(i, n, q))
        lines.append(f"{digits} {float(a.real)!r} {float(a.imag)!r}")
    return "\n".join(lines)


def state_from_text(text: str, q: int = 2, n: int | None = None) -> State:
    """Parse the ``<digits> <re> <im>`` line format back into a state, of
    ``n`` wires if given.  A first line beyond the allocation guard raises
    SizeGuardExceeded before its width is compared with ``n``."""
    amps: dict[int, complex] = {}
    arity = n
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"line {lineno}: expected '<digits> <re> <im>', got {raw!r}")
        digits, re_s, im_s = parts
        if not amps:
            # before a huge first line is compared, or read as an index
            check_allocation(len(digits), q)
        if arity is None:
            arity = len(digits)
        if len(digits) != arity:
            raise ParseError(f"line {lineno}: arity {len(digits)} != {arity}")
        if not (digits.isascii() and digits.isdigit()):
            raise ParseError(f"line {lineno}: bad digit string {digits!r}")
        v = tuple(int(c) for c in digits)
        try:
            pos = tuple_to_index(v, q)
        except IndexOutOfRange as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        try:
            re_v, im_v = float(re_s), float(im_s)
        except ValueError:
            raise ParseError(f"line {lineno}: bad amplitude {re_s!r} {im_s!r}") from None
        if not (math.isfinite(re_v) and math.isfinite(im_v)):
            raise ParseError(f"line {lineno}: amplitude {re_s!r} {im_s!r} is not finite")
        if pos in amps:
            raise ParseError(f"line {lineno}: duplicate entry for {digits!r}")
        amps[pos] = complex(re_v, im_v)
    if not amps:
        raise ParseError("state file contains no entries")
    dim = check_allocation(arity, q)
    a = np.zeros(dim, dtype=np.complex128)
    a[list(amps)] = list(amps.values())
    return State(arity, q, a, _trusted=True)
