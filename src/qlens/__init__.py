"""qlens: statevector circuit simulation by currying states along wire lenses.

A lens picks out which wires of a circuit a gate touches; currying a state
along the lens turns "apply a small gate inside a big circuit" into one small
matrix product on the outer index, with no Kronecker padding.  The dense
padded-matrix semantics survives only in qlens.oracle, as a differential
test of the fast path.
"""

from .circuits import (
    Circuit,
    Step,
    ghz_circuit,
    ghz_state,
    marginal,
    reversal_circuit,
    shor_components,
)
from .errors import (
    ArityMismatch,
    DuplicateIndex,
    IndexOutOfRange,
    InvalidPermutation,
    NotInLens,
    ParseError,
    QLensError,
    ShapeMismatch,
    SizeGuardExceeded,
    UnknownExample,
    UnknownGate,
    UnsupportedAlphabet,
)
from .focus import (
    CurriedState,
    curry,
    focus_apply,
    focus_apply_reference,
    focus_as_gate,
    focus_on_basis,
    map_blocks,
    merge_state,
    uncurry,
)
from .gates import (
    Gate,
    apply_to_blocks,
    builtin,
    cnot,
    compose,
    hadamard,
    identity,
    ket_bra,
    null,
    swap,
    toffoli,
    unitarity_defect,
)
from .lens import (
    Lens,
    all_lenses,
    lens_empty,
    lens_id,
    lens_left,
    lens_pair,
    lens_right,
    lens_single,
)
from .oracle import (
    assert_equiv,
    build_full_matrix,
    perm_matrix,
    random_unitary,
)
from .parallel import (
    FocusedGate,
    combine,
    combine_all,
    compose_actions,
    error_focused,
    focused,
    identity_focused,
    parallel_gate,
)
from .state import (
    State,
    all_basis_tuples,
    from_amplitudes,
    index_to_tuple,
    ket,
    random_state,
    state_from_text,
    state_to_text,
    tuple_to_index,
    zero_state,
)

__version__ = "0.1.0"
