"""Duplicate-free wire injections and their combinatorial algebra.

A lens embeds the m wires of a subcircuit into the n wires of an enclosing
circuit.  It is stored as a plain index sequence plus the codomain size;
uniqueness and range are validated once at construction and never again, so
the hot paths built on top (extract/merge, currying) stay branch-free.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, permutations
from typing import Iterator, Sequence

from .errors import (
    ArityMismatch,
    DuplicateIndex,
    IndexOutOfRange,
    NotInLens,
)

BasisTuple = tuple[int, ...]


def _integer(value: object, what: str = "wire") -> int:
    """``value`` as an int when it is an integer other than a bool; a float,
    a bool or a string is no wire (int() would truncate 0.9 to wire 0)."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise IndexOutOfRange(f"{what} {value!r} is not an integer")


@dataclass(frozen=True)
class Lens:
    """Injection of ``m`` source wires into ``n`` target wires.

    ``idx[k]`` is the target wire carrying source wire ``k``.  Entries must be
    pairwise distinct and lie in ``[0, n)``.
    """

    n: int
    idx: BasisTuple

    def __post_init__(self):
        object.__setattr__(self, "n", _integer(self.n, "wire count"))
        object.__setattr__(self, "idx", tuple(map(_integer, self.idx)))
        if self.n < 0:
            raise IndexOutOfRange(f"negative wire count {self.n}")
        for i in self.idx:
            if not 0 <= i < self.n:
                raise IndexOutOfRange(f"wire {i} outside [0, {self.n})")
        if len(set(self.idx)) != len(self.idx):
            raise DuplicateIndex(f"repeated wire in {list(self.idx)}")

    @classmethod
    def _trusted(cls, n: int, idx: BasisTuple) -> Lens:
        """A lens whose int indices are distinct and in range by construction;
        skips the validation in __post_init__.  Every outside index sequence
        goes through Lens(...) instead."""
        lens = object.__new__(cls)
        object.__setattr__(lens, "n", n)
        object.__setattr__(lens, "idx", idx)
        return lens

    @property
    def m(self) -> int:
        """Number of source wires."""
        return len(self.idx)

    @cached_property
    def _members(self) -> frozenset[int]:
        return frozenset(self.idx)

    @cached_property
    def complement(self) -> Lens:
        """The lens onto the untouched wires, always sorted ascending.

        Sortedness is normative: merge and currying rely on complement
        entries sitting at sorted complement positions.
        """
        return Lens._trusted(self.n, tuple(i for i in range(self.n) if i not in self._members))

    def extract(self, t: Sequence[int]) -> BasisTuple:
        """Project an n-tuple onto the m selected positions (the get)."""
        if len(t) != self.n:
            raise ArityMismatch(f"expected arity {self.n}, got {len(t)}")
        return tuple(t[i] for i in self.idx)

    def merge(self, v: Sequence[int], c: Sequence[int]) -> BasisTuple:
        """Rebuild an n-tuple from selected entries v and complement entries c (the put)."""
        if len(v) != self.m or len(c) != self.n - self.m:
            raise ArityMismatch(
                f"expected arities ({self.m}, {self.n - self.m}), got ({len(v)}, {len(c)})"
            )
        out = [0] * self.n
        for k, i in enumerate(self.idx):
            out[i] = v[k]
        for k, i in enumerate(self.complement.idx):
            out[i] = c[k]
        return tuple(out)

    def compose(self, inner: Lens) -> Lens:
        """Select along self, then along ``inner``: result.idx[k] = idx[inner.idx[k]]."""
        if inner.n != self.m:
            raise ArityMismatch(f"inner lens codomain {inner.n} != outer arity {self.m}")
        return Lens._trusted(self.n, tuple(self.idx[j] for j in inner.idx))

    def factorize(self) -> tuple[Lens, Lens]:
        """Split into a sorted basis lens and a permutation with basis∘perm = self."""
        order = sorted(self.idx)
        rank = {w: r for r, w in enumerate(order)}
        basis = Lens(self.n, tuple(order))
        perm = Lens(self.m, tuple(rank[w] for w in self.idx))
        return basis, perm

    def position(self, i: int) -> int:
        """Ordinal position of wire ``i`` inside the lens."""
        try:
            return self.idx.index(i)
        except ValueError:
            raise NotInLens(f"wire {i} not in lens {list(self.idx)}") from None

    def contains(self, i: int) -> bool:
        """Membership test; ``i`` must be a valid wire of the codomain."""
        if not 0 <= i < self.n:
            raise IndexOutOfRange(f"wire {i} outside [0, {self.n})")
        return i in self._members

    def disjoint(self, other: Lens) -> bool:
        """True iff the two images share no wire; requires equal codomains."""
        if other.n != self.n:
            raise ArityMismatch(f"codomain mismatch: {self.n} vs {other.n}")
        return not (self._members & other._members)

    def is_sorted(self) -> bool:
        return all(a < b for a, b in zip(self.idx, self.idx[1:]))

    def __repr__(self) -> str:
        return f"Lens({self.n}, {list(self.idx)})"


def lens_pair(n: int, i: int, j: int) -> Lens:
    """Two-wire lens [i, j]; a repeated wire raises DuplicateIndex, as in any lens."""
    return Lens(n, (i, j))


def lens_single(n: int, i: int) -> Lens:
    return Lens(n, (i,))


def lens_empty(n: int) -> Lens:
    return Lens(n, ())


def lens_id(n: int) -> Lens:
    return Lens(n, tuple(range(n)))


def lens_left(p: int, s: int) -> Lens:
    """The first p wires of a p+s wire system."""
    return Lens(p + s, tuple(range(p)))


def lens_right(p: int, s: int) -> Lens:
    """The last s wires of a p+s wire system."""
    return Lens(p + s, tuple(range(p, p + s)))


def all_lenses(n: int, m: int | None = None) -> Iterator[Lens]:
    """Every lens into n wires, optionally restricted to arity m.

    Enumeration order: arity ascending, then index sequences in the order
    produced by combinations × permutations.  Intended for exhaustive law
    checking at small n.
    """
    arities = range(n + 1) if m is None else (m,)
    for k in arities:
        for combo in combinations(range(n), k):
            for perm in permutations(combo):
                yield Lens(n, perm)
