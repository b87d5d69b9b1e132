import math
import tracemalloc
from itertools import product

import numpy as np
import pytest

from qlens import (
    Gate,
    IndexOutOfRange,
    ShapeMismatch,
    SizeGuardExceeded,
    UnknownGate,
    UnsupportedAlphabet,
    apply_to_blocks,
    builtin,
    cnot,
    compose,
    hadamard,
    identity,
    ket,
    ket_bra,
    null,
    random_unitary,
    swap,
    toffoli,
    unitarity_defect,
)
from qlens.gates import check_dense_size, parametric_wires

SEED = 1105

# Matrices in the lexicographically ordered standard basis, first wire most
# significant; the tests treat these literals as the ground truth.
CNOT_MATRIX = np.array(
    [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ],
    dtype=complex,
)

TOFFOLI_MATRIX = np.array(
    [
        [1, 0, 0, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 1],
        [0, 0, 0, 0, 0, 0, 1, 0],
    ],
    dtype=complex,
)


class TestConstruction:
    def test_identity_on_one_wire(self):
        g = Gate(np.eye(2))
        assert (g.wires_in, g.wires_out) == (1, 1)
        assert g.wires == 1

    def test_cnot_matrix_matches_builtin(self):
        assert np.array_equal(Gate(CNOT_MATRIX).mat, cnot().mat)

    def test_toffoli_matrix_matches_builtin(self):
        assert np.array_equal(toffoli().mat, TOFFOLI_MATRIX)

    def test_non_power_dimension_rejected(self):
        with pytest.raises(ShapeMismatch):
            Gate(np.zeros((3, 2)))

    @pytest.mark.parametrize("shape, message", [((4,), "2-D"), ((2, 2, 2), "2-D"),
                                                ((0, 0), "row dimension 0")])
    def test_matrix_of_no_wire_count_rejected(self, shape, message):
        # An empty matrix counts no wires: ShapeMismatch, not math.log's
        # domain error.
        with pytest.raises(ShapeMismatch, match=message):
            Gate(np.zeros(shape))

    @pytest.mark.parametrize("q", [0, -2])
    def test_alphabet_below_one_rejected(self, q):
        with pytest.raises(IndexOutOfRange, match="alphabet size"):
            Gate(np.eye(2), q=q)
        with pytest.raises(IndexOutOfRange):
            Gate(np.eye(1), 0, 0, q=q)

    @pytest.mark.parametrize("shape", [(2, 2), (1, 2), (2, 1)])
    def test_unary_alphabet_admits_only_dimension_one(self, shape):
        with pytest.raises(ShapeMismatch, match="q=1"):
            Gate(np.ones(shape), q=1)

    def test_unary_alphabet_zero_wire_gate(self):
        g = Gate(np.eye(1), q=1)
        assert (g.wires_in, g.wires_out, g.q) == (0, 0, 1)

    @pytest.mark.parametrize("mat, message", [
        ([[1, 0], [0, np.nan]], "finite"),
        ([[np.inf, 0], [0, 1]], "finite"),
        ([[1, complex(0, -np.inf)], [0, 1]], "finite"),
        (np.array([["a", "b"], ["c", "d"]], dtype=object), "array of numbers"),
        ([[1, 0], [0]], "array of numbers"),
        ([["0", "1"], ["1", "0"]], "array of numbers"),
        (np.array([["0", "1"], ["1", "0"]]), "array of numbers"),
        (np.array([[b"0", b"1"], [b"1", b"0"]]), "array of numbers"),
        (np.array([[0, "1"], [1, 0]], dtype=object), "array of numbers"),
        (np.array([[0, b"1"], [1, 0]], dtype=object), "array of numbers"),
    ], ids=["nan", "inf", "imaginary_inf", "object_strings", "ragged", "numeric_str_list",
            "numeric_str_array", "numeric_bytes_array", "object_numeric_str",
            "object_numeric_bytes"])
    def test_refuses_what_a_state_refuses(self, mat, message):
        # A NaN gate would print a state as "nan" lines that
        # state_from_text refuses; bad arrays must not escape as ValueError,
        # and strings are not numbers, even where numpy would parse them.
        with pytest.raises(ShapeMismatch, match=message):
            Gate(mat)

    @pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.int64, np.float32, np.float64,
                                       np.complex64, np.complex128])
    def test_accepts_every_numeric_dtype(self, dtype):
        assert np.array_equal(Gate(np.eye(2, dtype=dtype)).mat, np.eye(2))
        assert np.array_equal(Gate([[0, 1], [1.0, 0j]]).mat, [[0, 1], [1, 0]])

    def test_declared_arity_must_match(self):
        with pytest.raises(ShapeMismatch):
            Gate(np.eye(4), wires_in=1, wires_out=1)

    def test_rectangular_gate_allowed(self):
        g = Gate(np.zeros((4, 2)))
        assert (g.wires_in, g.wires_out) == (1, 2)
        assert not g.is_square
        with pytest.raises(ShapeMismatch):
            g.wires

    def test_matrix_is_immutable(self):
        with pytest.raises(ValueError):
            hadamard().mat[0, 0] = 5

    def test_builtin_matrix_held_once(self):
        # identity(11) is a 64 MiB matrix: Gate keeps the fresh array it is
        # handed instead of copying it.
        tracemalloc.start()
        try:
            g = builtin("identity(11)")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.mat.nbytes == 2**26
        assert peak < 1.25 * g.mat.nbytes

    def test_caller_array_is_copied(self):
        a = np.eye(2, dtype=np.complex128)
        g = Gate(a)
        assert not np.shares_memory(g.mat, a)
        a[0, 0] = 5
        assert g.mat[0, 0] == 1


class TestKetBra:
    def test_single_entry(self):
        mat = ket_bra(ket((0,)), ket((0,)))
        assert np.array_equal(mat, [[1, 0], [0, 0]])

    def test_hadamard_from_summands(self):
        k0, k1 = ket((0,)), ket((1,))
        total = math.sqrt(0.5) * (
            ket_bra(k0, k0) + ket_bra(k0, k1) + ket_bra(k1, k0) - ket_bra(k1, k1)
        )
        assert np.array_equal(total, hadamard().mat)

    def test_zero_state_gives_zero_matrix(self):
        from qlens import zero_state

        assert not ket_bra(zero_state(1), ket((0, 1))).any()

    def test_rectangular_summand(self):
        mat = ket_bra(ket((1,)), ket((0, 1)))
        assert mat.shape == (4, 2)
        assert mat[1, 1] == 1.0

    def test_alphabet_mismatch(self):
        with pytest.raises(ShapeMismatch):
            ket_bra(ket((0,), q=2), ket((0,), q=3))


class TestBuiltins:
    @pytest.mark.parametrize("i,j", list(product(range(2), repeat=2)))
    def test_cnot_adds_control_to_target(self, i, j):
        out = cnot().apply(ket((i, j)))
        assert out.allclose(ket((i, i ^ j)), tol=0)

    @pytest.mark.parametrize("i", range(2))
    def test_toffoli_idle_without_controls(self, i):
        out = toffoli().apply(ket((0, 0, i)))
        assert out.allclose(ket((0, 0, i)), tol=0)

    @pytest.mark.parametrize("i,j,k", list(product(range(2), repeat=3)))
    def test_toffoli_flips_on_two_controls(self, i, j, k):
        out = toffoli().apply(ket((i, j, k)))
        assert out.allclose(ket((i, j, k ^ (i & j))), tol=0)

    def test_hadamard_first_column(self):
        out = hadamard().apply(ket((0,)))
        assert np.array_equal(out.amps, [math.sqrt(0.5), math.sqrt(0.5)])

    @pytest.mark.parametrize("i,j", list(product(range(2), repeat=2)))
    def test_swap_exchanges_wires(self, i, j):
        assert swap().apply(ket((i, j))).allclose(ket((j, i)), tol=0)

    def test_identity_and_null_dimensions(self):
        assert identity(2).mat.shape == (4, 4)
        assert not null(2).mat.any()
        assert identity(0).mat.shape == (1, 1)

    def test_name_resolution(self):
        assert np.array_equal(builtin("cnot").mat, cnot().mat)
        assert builtin("identity(3)").wires == 3
        assert builtin("null").wires == 1
        assert not builtin("null(2)").mat.any()

    def test_unknown_name(self):
        with pytest.raises(UnknownGate):
            builtin("grover")

    @pytest.mark.parametrize("name, wires", [("identity", 1), (" null ", 1), ("identity(0)", 0),
                                             ("null(3)", 3), ("identity()", None),
                                             ("hadamard", None), ("identityx", None)])
    def test_parametric_wires_read_from_the_name(self, name, wires):
        # A bare identity or null is the k = 1 case of identity(k), null(k).
        assert parametric_wires(name) == wires

    @pytest.mark.parametrize("q", [2, 3])
    def test_bare_names_build_one_wire(self, q):
        assert np.array_equal(builtin("identity", q).mat, identity(1, q).mat)
        assert np.array_equal(builtin("null", q).mat, null(1, q).mat)

    @pytest.mark.parametrize("kind,k,q", [("identity", 40, 2), ("null", 40, 2),
                                          ("identity", 15, 2), ("null", 9, 3),
                                          ("identity", 20000, 2)])
    def test_parametric_size_guard(self, kind, k, q):
        # dimension q**k above 2**14 raises before numpy allocates anything,
        # and before q**k grows past what an error message can print
        with pytest.raises(SizeGuardExceeded):
            builtin(f"{kind}({k})", q)
        with pytest.raises(SizeGuardExceeded):
            {"identity": identity, "null": null}[kind](k, q)

    @pytest.mark.parametrize("make", [identity, null])
    def test_negative_size_refused(self, make):
        # not read as a dimension: 2**-1 is 0.5
        with pytest.raises(IndexOutOfRange, match="negative wire count"):
            make(-1)

    @pytest.mark.parametrize("n, q, message", [(-1, 2, "negative wire count"),
                                               (1, 0, "alphabet size"),
                                               (0, -3, "alphabet size")])
    def test_dense_guard_needs_wires_and_an_alphabet(self, n, q, message):
        with pytest.raises(IndexOutOfRange, match=message):
            check_dense_size(n, q)

    def test_dense_guard_message(self):
        with pytest.raises(SizeGuardExceeded,
                           match=r"^dense operator on 15 wires with q=2 exceeds the 2\*\*14 guard$"):
            check_dense_size(15, 2)
        assert check_dense_size(14, 2) == 2**14 and check_dense_size(0, 5) == 1

    def test_qutrit_hadamard_unsupported(self):
        with pytest.raises(UnsupportedAlphabet):
            builtin("hadamard", q=3)
        assert builtin("identity(2)", q=3).mat.shape == (9, 9)


class TestRows:
    """Gate.rows: the row map of a square 0/1 permutation matrix, else None."""

    def test_detects_only_zero_one_permutations(self):
        assert cnot().rows.tolist() == [0, 1, 3, 2]
        assert identity(2).rows.tolist() == [0, 1, 2, 3]
        assert Gate(np.array([[0, 1j], [1, 0]])).rows is None
        assert Gate(np.array([[0, -1], [1, 0]])).rows is None
        assert Gate(np.array([[1, 1], [0, 0]])).rows is None
        assert Gate(np.zeros((1, 1))).rows is None
        assert hadamard().rows is None

    def test_qutrit_adder(self):
        # |a, b> -> |a, a + b mod 3>: new row (a, c) is old row (a, c - a).
        a, b = np.divmod(np.arange(9), 3)
        add = Gate(np.eye(9)[a * 3 + (a + b) % 3].T, 2, 2, 3)
        assert add.rows.tolist() == (a * 3 + (b - a) % 3).tolist()
        assert (add.mat[np.arange(9), add.rows] == 1).all()

    def test_non_square_zero_one_gate_is_none(self):
        # One nonzero per row, each a 1, no column twice, yet 1 -> 0 wires.
        assert Gate(np.array([[1, 0]]), 1, 0).rows is None

    def test_computed_once_and_read_only(self, monkeypatch):
        g, h = swap(), hadamard()
        calls = []
        real = np.count_nonzero
        monkeypatch.setattr(np, "count_nonzero", lambda a: calls.append(1) or real(a))
        rows = g.rows
        assert g.rows is rows and h.rows is None and h.rows is None
        assert len(calls) == 2
        with pytest.raises(ValueError):
            rows[0] = 1


class TestCompose:
    def test_hadamard_involution(self):
        assert np.max(np.abs(compose(hadamard(), hadamard()).mat - np.eye(2))) <= 1e-15

    def test_identity_neutral(self):
        g = cnot()
        assert np.array_equal(compose(identity(2), g).mat, g.mat)

    def test_cnot_squares_to_identity(self):
        # independent route: square the literal matrix
        assert np.array_equal(CNOT_MATRIX @ CNOT_MATRIX, np.eye(4))
        assert np.array_equal(compose(cnot(), cnot()).mat, np.eye(4))

    def test_applies_right_operand_first(self):
        lower = Gate([[0, 0], [1, 0]])  # |0> -> |1>, kills |1>
        raiser = Gate([[0, 1], [0, 0]])  # |1> -> |0>, kills |0>
        out = compose(raiser, lower).apply(ket((0,)))
        assert out.amplitude((0,)) == 1.0

    def test_inner_arity_mismatch(self):
        with pytest.raises(ShapeMismatch):
            compose(hadamard(), cnot())

    def test_alphabet_mismatch(self):
        with pytest.raises(ShapeMismatch, match="alphabet"):
            compose(identity(1, 3), hadamard())


class TestBlockAction:
    def test_width_one_blocks_are_matvec(self):
        rng = np.random.default_rng(SEED)
        g = Gate(random_unitary(4, rng))
        vec = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        out = apply_to_blocks(g, vec[:, None])
        assert np.max(np.abs(out[:, 0] - g.mat @ vec)) <= 1e-14

    def test_identity_leaves_blocks(self):
        rng = np.random.default_rng(SEED)
        blocks = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        assert np.array_equal(apply_to_blocks(identity(2), blocks), blocks)

    def test_commutes_with_block_maps(self):
        rng = np.random.default_rng(SEED)
        g = Gate(random_unitary(4, rng))
        for _ in range(10):
            blocks = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
            phi = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
            lhs = apply_to_blocks(g, blocks) @ phi.T
            rhs = apply_to_blocks(g, blocks @ phi.T)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_block_count_checked(self):
        with pytest.raises(ShapeMismatch):
            apply_to_blocks(cnot(), np.zeros((3, 2)))

    def test_ragged_blocks_rejected(self):
        with pytest.raises(ShapeMismatch):
            apply_to_blocks(hadamard(), [np.zeros(2), np.zeros(3)])

    def test_object_blocks_rejected(self):
        # numpy keeps ragged blocks it is handed as objects in an object array
        blocks = np.empty(2, dtype=object)
        blocks[0], blocks[1] = np.zeros(2), np.zeros(3)
        with pytest.raises(ShapeMismatch, match="blocks must be an array of numbers"):
            apply_to_blocks(hadamard(), blocks)

    def test_square_gate_required(self):
        with pytest.raises(ShapeMismatch):
            apply_to_blocks(Gate(np.zeros((4, 2))), np.zeros((2, 2)))

    @pytest.mark.parametrize("blocks", [["1", "1j"], [1.0, np.nan], [[1.0], [np.inf]]],
                             ids=["strings", "nan", "inf"])
    def test_blocks_must_be_finite_numbers(self, blocks):
        # The block action takes what State and CurriedState take: numpy
        # would parse the strings as 1 and 1j, and keep NaN or inf.
        with pytest.raises(ShapeMismatch, match="blocks must be"):
            apply_to_blocks(hadamard(), blocks)


class TestUnitarity:
    def test_hadamard_defect(self):
        assert unitarity_defect(hadamard()) <= 1e-15

    def test_null_defect_is_one(self):
        assert unitarity_defect(null(1)) == 1.0

    def test_qr_unitary(self):
        rng = np.random.default_rng(SEED)
        for dim in (2, 4, 8):
            g = Gate(random_unitary(dim, rng))
            assert unitarity_defect(g) <= 1e-12

    def test_composition_stays_unitary(self):
        rng = np.random.default_rng(SEED)
        f, g = Gate(random_unitary(4, rng)), Gate(random_unitary(4, rng))
        assert unitarity_defect(compose(f, g)) <= 1e-10

    def test_square_required(self):
        with pytest.raises(ShapeMismatch):
            unitarity_defect(Gate(np.zeros((4, 2))))


class TestExtensionality:
    def test_close_matrices_act_identically(self):
        rng = np.random.default_rng(SEED)
        g = Gate(random_unitary(4, rng))
        noise = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        noise *= 1e-13 / np.max(np.abs(noise))
        g2 = Gate(g.mat + noise)
        for v in product(range(2), repeat=2):
            dev = g.apply(ket(v)).max_dev(g2.apply(ket(v)))
            assert dev <= 1e-12

    def test_basis_actions_recover_matrix(self):
        rng = np.random.default_rng(SEED)
        g = Gate(random_unitary(8, rng))
        cols = [g.apply(ket(v)).amps for v in product(range(2), repeat=3)]
        assert np.array_equal(np.column_stack(cols), g.mat)


class TestApply:
    def test_arity_check(self):
        with pytest.raises(ShapeMismatch):
            cnot().apply(ket((0,)))

    def test_alphabet_check(self):
        with pytest.raises(ShapeMismatch):
            identity(1, q=3).apply(ket((0,), q=2))
