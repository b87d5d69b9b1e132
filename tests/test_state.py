import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlens import (
    IndexOutOfRange,
    ParseError,
    QLensError,
    ShapeMismatch,
    SizeGuardExceeded,
    State,
    all_basis_tuples,
    from_amplitudes,
    hadamard,
    index_to_tuple,
    ket,
    random_state,
    state_from_text,
    state_to_text,
    tuple_to_index,
    zero_state,
)
from qlens.state import check_allocation, support_to_text
import qlens.state as state_module

SEED = 20240521


class TestEncoding:
    def test_ground_state(self):
        assert ket((0, 0)).amps.tolist() == [1, 0, 0, 0]

    def test_big_endian(self):
        # first wire is most significant
        assert tuple_to_index((1, 0), 2) == 2
        assert ket((1, 0)).amps[2] == 1.0

    def test_symbol_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            ket((2,), q=2)

    # A symbol is an integer other than a bool, as a lens wire is: a float,
    # a string or a bool is refused, not truncated, indexed or read as 1.
    @pytest.mark.parametrize("symbol", [0.5, 1.0, "1", True, False, None])
    def test_symbol_that_is_no_integer_rejected(self, symbol):
        with pytest.raises(IndexOutOfRange):
            ket((symbol, 0))
        with pytest.raises(IndexOutOfRange):
            ket((0, 1)).amplitude((0, symbol))
        with pytest.raises(IndexOutOfRange):
            tuple_to_index((symbol,), 3)

    def test_integer_like_symbols_accepted(self):
        assert ket((np.int64(1), np.uint8(0))).amps[2] == 1.0
        assert ket((0, 1)).amplitude((np.int32(0), 1)) == 1.0

    @pytest.mark.parametrize("n,q", [(3, 2), (2, 3), (4, 2)])
    def test_lexicographic_order(self, n, q):
        positions = [tuple_to_index(v, q) for v in all_basis_tuples(n, q)]
        assert positions == list(range(q**n))

    @pytest.mark.parametrize("n,q", [(3, 2), (2, 3)])
    def test_roundtrip(self, n, q):
        for i in range(q**n):
            assert tuple_to_index(index_to_tuple(i, n, q), q) == i


class TestInnerProduct:
    def test_self_overlap(self):
        assert ket((0, 1)).inner(ket((0, 1))) == 1.0

    def test_orthogonality(self):
        assert ket((0, 1)).inner(ket((1, 1))) == 0.0

    def test_plus_state_normalized(self):
        # (1/sqrt2)^2 + (1/sqrt2)^2 = 1
        plus = hadamard().apply(ket((0,)))
        assert abs(plus.inner(plus) - 1.0) < 1e-15

    def test_conjugate_symmetry_and_linearity(self):
        rng = np.random.default_rng(SEED)
        for _ in range(20):
            s = random_state(3, 2, rng)
            t = random_state(3, 2, rng)
            u = random_state(3, 2, rng)
            a, b = complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2))
            assert abs(s.inner(t) - np.conj(t.inner(s))) <= 1e-12
            lhs = s.inner(a * t + b * u)
            rhs = a * s.inner(t) + b * s.inner(u)
            assert abs(lhs - rhs) <= 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            ket((0,)).inner(ket((0, 0)))


class TestDecompose:
    def test_basis_state(self):
        entries = dict(ket((0, 1)).decompose())
        assert entries[(0, 1)] == 1.0
        assert sum(1 for a in entries.values() if a != 0) == 1
        assert len(entries) == 4

    def test_bell_amplitudes(self):
        bell = from_amplitudes([math.sqrt(0.5), 0, 0, math.sqrt(0.5)])
        entries = dict(bell.decompose())
        assert entries[(0, 0)] == pytest.approx(math.sqrt(0.5), abs=0)
        assert entries[(1, 1)] == pytest.approx(math.sqrt(0.5), abs=0)

    def test_zero_state(self):
        assert all(a == 0 for _, a in zero_state(3).decompose())

    def test_reconstruction_is_exact(self):
        rng = np.random.default_rng(SEED)
        s = random_state(3, 2, rng)
        rebuilt = zero_state(3)
        for v, a in s.decompose():
            rebuilt = rebuilt + a * ket(v)
        assert np.array_equal(rebuilt.amps, s.amps)


class TestStateValues:
    def test_norm_and_unit(self):
        assert ket((1, 0, 1)).is_unit()
        assert not zero_state(2).is_unit()
        rng = np.random.default_rng(SEED)
        assert random_state(4, 2, rng).is_unit()

    def test_allocation_guard(self, monkeypatch):
        with pytest.raises(SizeGuardExceeded):
            check_allocation(31, 2)
        monkeypatch.setattr(state_module, "MAX_STATE_ENTRIES", 16)
        with pytest.raises(SizeGuardExceeded):
            check_allocation(5, 2)

    @pytest.mark.parametrize("n, q, message", [(-1, 2, "negative wire count"),
                                               (1, 0, "alphabet size"),
                                               (0, -3, "alphabet size")])
    def test_allocation_needs_wires_and_an_alphabet(self, n, q, message):
        with pytest.raises(IndexOutOfRange, match=message):
            check_allocation(n, q)

    def test_amplitude_lookup(self):
        s = ket((1, 0))
        assert s.amplitude((1, 0)) == 1.0
        assert s.amplitude((0, 1)) == 0.0
        with pytest.raises(ShapeMismatch):
            s.amplitude((1, 0, 0))

    def test_wrong_length_rejected(self):
        with pytest.raises(ShapeMismatch):
            State(2, 2, np.zeros(3, dtype=complex))

    def test_non_finite_rejected(self):
        amps = np.zeros(4, dtype=complex)
        amps[1] = np.nan
        with pytest.raises(ShapeMismatch):
            State(2, 2, amps)

    def test_immutable(self):
        s = ket((0,))
        with pytest.raises(ValueError):
            s.amps[0] = 2.0

    def test_arithmetic_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            ket((0,)) + ket((0, 0))

    def test_subtraction(self):
        assert np.array_equal((ket((0,)) - ket((1,))).amps, [1, -1])
        with pytest.raises(ShapeMismatch):
            ket((0,)) - ket((0, 0))

    @pytest.mark.parametrize("other", [np.array([1, 0]), [1, 0], None])
    def test_compared_only_with_a_state(self, other):
        s = ket((0,))
        for compare in (s.max_dev, s.allclose, s.inner):
            with pytest.raises(ShapeMismatch, match="expected State"):
                compare(other)

    def test_allclose_reads_the_largest_deviation(self):
        s, t = ket((0,)), State(1, 2, [1, 1e-3])
        assert s.max_dev(t) == 1e-3
        assert s.allclose(t, tol=1e-3) and not s.allclose(t, tol=9e-4)
        assert not s.allclose(t)

    @pytest.mark.parametrize("make", [lambda amps: State(1, 2, amps), from_amplitudes],
                             ids=["State", "from_amplitudes"])
    @pytest.mark.parametrize("amps", [
        ["1j", "0"],
        np.array(["1", "0"]),
        np.array([b"1", b"0"]),
        np.array(["1", 0], dtype=object),
        np.array([b"1", 0], dtype=object),
    ], ids=["str_list", "str_array", "bytes_array", "object_str", "object_bytes"])
    def test_numeric_strings_rejected(self, make, amps):
        # numpy would parse each of these as numbers
        with pytest.raises(ShapeMismatch, match="array of numbers"):
            make(amps)

    @pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.int64, np.float32, np.float64,
                                       np.complex64, np.complex128])
    def test_numbers_of_every_numeric_dtype_accepted(self, dtype):
        amps = np.array([1, 0], dtype=dtype)
        assert np.array_equal(State(1, 2, amps).amps, [1, 0])
        assert np.array_equal(from_amplitudes(amps).amps, [1, 0])
        assert np.array_equal(from_amplitudes([1, 0.0, 0j, 0]).amps, [1, 0, 0, 0])

    def test_from_amplitudes_rejects_non_power(self):
        with pytest.raises(ShapeMismatch):
            from_amplitudes([1, 0, 0])

    @pytest.mark.parametrize("amps, q", [([], 2), ([], 3), ([1, 0, 0], 2), ([1, 0], 3),
                                         ([1, 0], 1)])
    def test_from_amplitudes_size_error_names_the_dimension(self, amps, q):
        # No amplitudes at all is no power of q either: ShapeMismatch, not
        # math.log's domain error.
        with pytest.raises(ShapeMismatch, match=f"dimension {len(amps)} is not a power of q={q}"):
            from_amplitudes(amps, q)

    @pytest.mark.parametrize("q, n", [(1, 0), (2, 0), (2, 3), (3, 2), (5, 1)])
    def test_from_amplitudes_counts_wires(self, q, n):
        s = from_amplitudes(np.arange(q**n), q)
        assert (s.n, s.q) == (n, q)


class TestTextFormat:
    def test_basis_line(self):
        assert state_to_text(ket((1, 1, 1))) == "111 1.0 0.0"

    def test_roundtrip_exact(self):
        rng = np.random.default_rng(SEED)
        s = random_state(4, 2, rng)
        back = state_from_text(state_to_text(s))
        assert np.array_equal(back.amps, s.amps)

    def test_omitted_entries_are_zero(self):
        s = state_from_text("01 0.5 0.0")
        assert s.amplitude((0, 1)) == 0.5
        assert s.amplitude((1, 0)) == 0.0

    def test_threshold_suppression(self):
        s = from_amplitudes([0.9999999, 1e-9, 0, 0])
        text = state_to_text(s, threshold=1e-6)
        assert text.splitlines() == [f"00 {0.9999999!r} 0.0"]

    def test_zero_wire_state_has_no_text(self):
        # Its one line would have no digits, which state_from_text refuses.
        with pytest.raises(ShapeMismatch, match="at least one wire"):
            state_to_text(State(0, 2, [1]))
        with pytest.raises(ShapeMismatch, match="at least one wire"):
            support_to_text(0, 2, np.array([0]), np.array([1j]))

    def test_qutrit_digits(self):
        s = ket((2, 1), q=3)
        assert state_to_text(s) == "21 1.0 0.0"
        assert np.array_equal(state_from_text("21 1.0 0.0", q=3).amps, s.amps)

    @pytest.mark.parametrize(
        "text",
        [
            "0 0.5",  # missing imaginary part
            "0x 0.5 0.0",  # bad digit
            "2 0.5 0.0",  # symbol out of range for q=2
            "01 0.5 0.0\n0 0.5 0.0",  # inconsistent arity
            "0 abc 0.0",  # bad float
        ],
    )
    def test_parse_errors(self, text):
        with pytest.raises(ParseError):
            state_from_text(text)

    @pytest.mark.parametrize(
        "text,line",
        [
            ("0 nan 0\n1 inf 0", 1),
            ("0 0.5 0\n1 0 -inf", 2),
            ("0 1e400 0", 1),
        ],
    )
    def test_non_finite_amplitude_rejected(self, text, line):
        with pytest.raises(ParseError, match=rf"line {line}: .*not finite"):
            state_from_text(text)

    @pytest.mark.parametrize("digits", ["١٠", "1٠", "１0", "²0"])
    def test_non_ascii_digits_rejected(self, digits):
        # int() reads any Unicode decimal digit: "١٠" parsed as the tuple (1, 0).
        with pytest.raises(ParseError, match=rf"line 2: bad digit string '{digits}'"):
            state_from_text(f"00 0.5 0\n{digits} 0.5 0", 2)

    def test_duplicate_basis_line_rejected(self):
        with pytest.raises(ParseError, match=r"line 3: duplicate entry for '01'"):
            state_from_text("01 0.5 0\n10 0.5 0\n01 0.25 0")

    def test_text_matches_per_amplitude_rule(self):
        # Kept lines follow the rule "drop if |a| == 0 or |a| < threshold",
        # applied one amplitude at a time.
        rng = np.random.default_rng(SEED)
        for q, n in ((2, 4), (3, 3)):
            amps = random_state(n, q, rng).amps.copy()
            amps[rng.random(amps.size) < 0.3] = 0
            amps[::4] *= 1e-3
            s = State(n, q, amps)
            # abs(amps).max() sits exactly on the boundary: that entry is kept.
            for threshold in (0.0, 0.05, 0.2, float(np.abs(amps).max()), math.inf):
                want = [
                    "".join(map(str, index_to_tuple(i, n, q)))
                    + f" {float(a.real)!r} {float(a.imag)!r}"
                    for i, a in enumerate(amps)
                    if not (abs(a) == 0.0 or abs(a) < threshold)
                ]
                assert state_to_text(s, threshold) == "\n".join(want)

    def test_support_text_matches_the_state_text(self):
        # A support may list exact zeros (a gate column's): they are dropped
        # as the scan drops a state's, at every threshold (one of them the
        # largest magnitude).
        rng = np.random.default_rng(SEED)
        for q, n in ((2, 4), (3, 3)):
            amps = random_state(n, q, rng).amps.copy()
            amps[rng.random(amps.size) < 0.3] = 0
            amps[::4] *= 1e-3
            s = State(n, q, amps)
            indices = np.flatnonzero((rng.random(amps.size) < 0.5) | (amps != 0))
            for threshold in (0.0, 0.05, 0.2, float(np.abs(amps).max()), math.inf):
                assert (support_to_text(n, q, indices, amps[indices], threshold)
                        == state_to_text(s, threshold))
        assert support_to_text(3, 2, np.array([], int), np.array([], complex)) == ""
        with pytest.raises(ShapeMismatch, match="q <= 10"):
            support_to_text(1, 11, np.array([0]), np.array([1.0 + 0j]))

    @pytest.mark.parametrize("q, n, chunk", [(2, 4, 64), (3, 3, 64), (2, 17, None)])
    def test_text_scanned_in_chunks_matches_one_pass(self, monkeypatch, q, n, chunk):
        # The magnitude scan runs chunk by chunk: 4 amplitudes split the
        # small states (27 amplitudes leave a partial last chunk), the
        # default chunk splits 2**17 amplitudes in two.  About 40 entries
        # are nonzero, two on each side of every boundary.
        rng = np.random.default_rng(SEED)
        amps = random_state(n, q, rng).amps.copy()
        bounds = np.arange(0, amps.size, (chunk or state_module._CHUNK_BYTES) // 16)
        edges = np.concatenate([bounds - 2, bounds - 1, bounds, bounds + 1]) % amps.size
        amps[(rng.random(amps.size) > 40 / amps.size) & ~np.isin(np.arange(amps.size), edges)] = 0
        s = State(n, q, amps)
        chunk = chunk or state_module._CHUNK_BYTES
        monkeypatch.setattr(state_module, "_CHUNK_BYTES", 16 * s.amps.size)
        want = [state_to_text(s, t) for t in (0.0, 0.001, 0.2, math.inf)]
        monkeypatch.setattr(state_module, "_CHUNK_BYTES", chunk)
        assert [state_to_text(s, t) for t in (0.0, 0.001, 0.2, math.inf)] == want

    def test_huge_basis_line_hits_guard(self):
        # 2**15000 is too big to print; the guard decides from the arity.
        with pytest.raises(SizeGuardExceeded, match=r"2\*\*15000"):
            state_from_text("0" * 15000 + " 1 0\n", 2)

    def test_empty_file_rejected(self):
        with pytest.raises(ParseError):
            state_from_text("")

    def test_comments_and_blanks_ignored(self):
        s = state_from_text("# comment\n\n1 1.0 0.0\n")
        assert s.amplitude((1,)) == 1.0


# Fuzzing state_from_text.  Each token is valid five draws in six and junk
# otherwise; some lines are blank, comments or arbitrary text.  Junk digit
# strings are short or beyond the 2**30 guard: arities 17..30 pass the guard
# but allocate up to 16 GiB.
DIGIT_JUNK = st.sampled_from(["x", "-1", "1.0", "\u0663", "0" * 31, "1" * 15000, "9" * 3, "0 1"])
AMP_JUNK = st.sampled_from(["nan", "-inf", "1e999", "x", "0x1", "1_0", "--1", "1j"])


def token(valid, junk):
    return st.integers(0, 5).flatmap(lambda r: junk if r == 5 else valid)


@st.composite
def state_text(draw):
    q = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 4))
    digits = st.text(alphabet="0123456789"[:q], min_size=n, max_size=n)
    amp = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.integers(0, 9))
        if kind == 8:
            lines.append(draw(st.sampled_from(["", "   ", "# comment"])))
        elif kind == 9:
            lines.append(draw(st.text(max_size=12)))
        else:
            lines.append(" ".join([draw(token(digits, DIGIT_JUNK)),
                                   draw(token(amp, AMP_JUNK)), draw(token(amp, AMP_JUNK))]))
    return "\n".join(lines), q, draw(st.sampled_from([None, n, n + 1]))


@settings(max_examples=300)
@given(state_text())
def test_state_from_text_fuzz(case):
    """Every text parses into a valid state or raises a QLensError."""
    text, q, n = case
    try:
        s = state_from_text(text, q, n)
    except QLensError:
        return
    assert isinstance(s, State) and s.q == q and n in (None, s.n)
    assert s.amps.shape == (q**s.n,) and np.all(np.isfinite(s.amps))
