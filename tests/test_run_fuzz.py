"""Differential fuzz of `qlens run`, end to end.

Each example writes a circuit file (builtins and custom gates, 0/1
permutations among them, on unsorted lenses) and runs cli.main in process
on three inputs: a basis string, the same ket as a state file, and a state
file of a random state with exact zeros and signed zeros.  Its stdout, read
back with state_from_text, must match the dense oracle's product to 1e-10
and the reference pipeline to 1e-12, and the basis string must print the
bytes that its ket from a state file prints.  So each of the run command's
four paths is checked: the support of a walk of the circuit's own steps
(at most one dense step), the support of the walk of the fused plan (its
dense steps fuse to at most one product), run_basis (that walk stops at a
second product) and the dense run of a state file.
"""

import contextlib
import functools
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

import qlens.circuits as circuits_module
from qlens import Gate, Lens, State, build_full_matrix, random_unitary
from qlens.cli import main
from qlens.state import state_from_text
from _helpers import last_step_dropped, reference_run

FUZZ = settings(max_examples=120, suppress_health_check=[HealthCheck.too_slow])


def column_major(mat: np.ndarray) -> list:
    """A circuit file's [re, im] pairs of a matrix, column by column."""
    return [[float(z.real), float(z.imag)] for z in mat.T.ravel()]


def builtins(q: int) -> dict[str, np.ndarray]:
    """The matrices of the builtins of alphabet q, written out here; null is
    left out, as it zeroes every state after it."""
    mats = {"identity": np.eye(q), "identity(2)": np.eye(q * q)}
    if q == 2:
        mats.update(hadamard=np.sqrt(0.5) * np.array([[1, 1], [1, -1]]),
                    cnot=np.eye(4)[[0, 1, 3, 2]], swap=np.eye(4)[[0, 2, 1, 3]],
                    toffoli=np.eye(8)[[0, 1, 2, 3, 4, 5, 7, 6]])
    return mats


@st.composite
def custom_gate(draw, q: int, n: int) -> np.ndarray:
    """A unitary on 1-3 wires, or a 0/1 permutation."""
    dim = q ** draw(st.integers(1, min(3, n)))
    if draw(st.booleans()):
        return np.eye(dim)[draw(st.permutations(range(dim)))]
    return random_unitary(dim, np.random.default_rng(draw(st.integers(0, 2**32))))


@st.composite
def run_case(draw) -> dict:
    """A circuit document, its (lens, gate) steps, and two inputs: a basis
    tuple, and the amplitudes of a random state."""
    q = draw(st.sampled_from([2, 3]))
    # The oracle builds q**n x q**n matrices: at 3**6 a step takes 57 ms.
    n = draw(st.integers(1, 8 if q == 2 else 5))
    table = {name: Gate(mat, q=q) for name, mat in builtins(q).items()}
    customs = {name: Gate(draw(custom_gate(q, n)), q=q)
               for name in ("u", "v", "w")[:draw(st.integers(0, 3))]}
    table.update(customs)
    names = sorted(name for name, gate in table.items() if gate.wires <= n)
    ops = []
    for _ in range(draw(st.integers(0, 20))):
        name = draw(st.sampled_from(names))
        k = table[name].wires
        ops.append((name, draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k,
                                        unique=True))))
    doc = {"qudit_dim": q, "wires": n,
           "gates": [{"name": name, "wires": gate.wires, "matrix": column_major(gate.mat)}
                     for name, gate in customs.items()],
           "ops": [{"gate": name, "lens": lens} for name, lens in ops]}
    v = tuple(draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    amps = rng.standard_normal(q**n) + 1j * rng.standard_normal(q**n)
    amps /= np.linalg.norm(amps)
    amps[rng.random(q**n) < 0.2] = 0
    amps.real[rng.random(q**n) < 0.2] = -0.0
    amps.imag[rng.random(q**n) < 0.2] = -0.0
    steps = [(Lens(n, tuple(lens)), table[name]) for name, lens in ops]
    return {"q": q, "n": n, "doc": doc, "steps": steps, "basis": v, "amps": amps}


def run_cli(circuit: str, value: str) -> str:
    """stdout of `qlens run circuit --input value`, in process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["run", circuit, "--input", value]) == 0
    return out.getvalue()


def state_file(path: Path, n: int, q: int, amps: np.ndarray) -> str:
    """Every entry, zeros included, one line each, written without
    state_to_text."""
    lines = [f"{np.base_repr(i, q).zfill(n)} {float(a.real)!r} {float(a.imag)!r}"
             for i, a in enumerate(amps)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def check_case(case: dict) -> None:
    """Run the circuit on the basis string, on the same ket from a state
    file, and on the random state from a state file."""
    q, n = case["q"], case["n"]
    ket = np.zeros(q**n, dtype=complex)
    ket[int("".join(map(str, case["basis"])), q)] = 1
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        circuit = tmp / "circuit.json"
        circuit.write_text(json.dumps(case["doc"]))
        run = functools.partial(run_cli, str(circuit))
        basis = run("".join(map(str, case["basis"])))
        assert basis == run(state_file(tmp / "ket.txt", n, q, ket))
        dense = run(state_file(tmp / "state.txt", n, q, case["amps"]))
    inputs = np.stack([ket, case["amps"]], axis=1)
    got = np.stack([state_from_text(text, q, n).amps if text else np.zeros(q**n)
                    for text in (basis, dense)], axis=1)
    want = inputs
    for lens, gate in case["steps"]:
        want = build_full_matrix(lens, gate).mat @ want
    assert np.max(np.abs(got - want)) <= 1e-10
    for col in range(2):
        ref = reference_run(case["steps"], State(n, q, inputs[:, col])).amps
        assert np.max(np.abs(got[:, col] - ref)) <= 1e-12


@FUZZ
@given(run_case())
def test_run_matches_oracle_and_reference(case):
    check_case(case)


def support_sort_skipped(monkeypatch):
    # The support path prints the walk's indices in the order the walk
    # found them: Circuit._basis_support skips its sort.
    class NoSort:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def argsort(a, axis=None):
            return np.arange(np.size(a))

    monkeypatch.setattr(circuits_module, "np", NoSort())


@pytest.mark.parametrize("plant", [support_sort_skipped, last_step_dropped],
                         ids=lambda plant: plant.__name__)
def test_planted_fault_fails_the_fuzz(monkeypatch, plant):
    plant(monkeypatch)

    @settings(FUZZ, phases=[Phase.generate], database=None, report_multiple_bugs=False)
    @given(run_case())
    def fuzz(case):
        check_case(case)

    with pytest.raises(AssertionError):
        fuzz()
