"""
The dense oracle: same operator, textbook construction
======================================================

The classical way to place a gate in a circuit is to pad it with identity
Kronecker factors and conjugate by a wire permutation.  That route explodes
exponentially, so the library keeps it only as a cross-check.  This script
builds both representations and times them against each other.
"""

import time

import numpy as np

from qlens import (
    Gate,
    Lens,
    assert_equiv,
    build_full_matrix,
    cnot,
    focus_apply,
    ket,
    perm_matrix,
    random_state,
    random_unitary,
)

# A CNOT whose control is wire 0 and target wire 2, inside 3 wires.
lens = Lens(3, (0, 2))
dense = build_full_matrix(lens, cnot())
print("dense operator shape:", dense.mat.shape)

# Column j of the dense matrix must equal focusing applied to basis vector j.
for j, v in enumerate([(0, 0, 0), (1, 0, 0), (1, 0, 1)]):
    col = focus_apply(lens, cnot(), ket(v)).amps
    assert np.allclose(dense.apply(ket(v)).amps, col, atol=1e-12)
print("dense columns match focusing")

# Wire permutations are themselves small unitaries with 0/1 entries.
rotate = perm_matrix(3, (1, 2, 0))
print("permutation sends |100> to", end=" ")
moved = rotate.apply(ket((1, 0, 0)))
print([t for t, a in moved.decompose() if a != 0])

# assert_equiv samples random states and reports the worst deviation.
dev = assert_equiv(lens, cnot(), trials=25, rng=np.random.default_rng(1))
print("max deviation over 25 random states:", dev)

# Where the two routes part ways: the dense build scales as 4^n, focusing
# as 2^n.  Compare one 2-wire gate applied on a 10-wire state.
rng = np.random.default_rng(2)
gate = Gate(random_unitary(4, rng))
wide = Lens(10, (3, 9))
state = random_state(10, 2, rng)

start = time.perf_counter()
dense10 = build_full_matrix(wide, gate)
want = dense10.apply(state)
dense_time = time.perf_counter() - start

start = time.perf_counter()
got = focus_apply(wide, gate, state)
focus_time = time.perf_counter() - start

print(f"dense route:   {dense_time * 1e3:8.2f} ms  (builds a 1024x1024 matrix)")
print(f"focused route: {focus_time * 1e3:8.2f} ms  (one 4x256 product)")
print("agreement:", got.max_dev(want))
