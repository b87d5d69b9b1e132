"""Exception types shared across the library.

Everything derives from QLensError so callers can catch library failures
with a single except clause; the concrete classes distinguish validation
failures the API contracts promise to report.
"""


class QLensError(Exception):
    """Base class for all qlens errors."""


class DuplicateIndex(QLensError):
    """A lens index sequence contains a repeated wire."""


class IndexOutOfRange(QLensError):
    """A wire or symbol index lies outside its declared range."""


class ArityMismatch(QLensError):
    """Tuple or lens arities do not line up."""


class NotInLens(QLensError):
    """A wire index was looked up in a lens that does not contain it."""


class ShapeMismatch(QLensError):
    """State, gate, or block dimensions are inconsistent."""


class UnknownGate(QLensError):
    """A gate name did not resolve to a builtin or file-defined gate."""


class UnsupportedAlphabet(QLensError):
    """A builtin gate was requested for a qudit dimension it does not support."""


class InvalidPermutation(QLensError):
    """A wire permutation is not a bijection of [0, n)."""


class SizeGuardExceeded(QLensError):
    """An allocation would exceed the configured desk-scale ceiling."""


class ParseError(QLensError):
    """A circuit or state file is structurally malformed."""


class UnknownExample(QLensError):
    """An example circuit name did not resolve."""
