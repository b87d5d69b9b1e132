import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlens import (
    ArityMismatch,
    Circuit,
    DuplicateIndex,
    IndexOutOfRange,
    Lens,
    ParseError,
    QLensError,
    SizeGuardExceeded,
    Step,
    UnknownGate,
    builtin,
    hadamard,
    ket,
    state_to_text,
)
from qlens.cli import (
    _build_parser,
    circuit_from_spec,
    circuit_to_spec,
    example_circuit,
    main,
    parse_circuit,
)
import qlens.circuits as circuits_module
import qlens.cli as cli_module
import qlens.state as state_module
from qlens.gates import builtin_names
from _helpers import random_gate, random_lens

BIT_FLIP_ENC = {
    "wires": 3,
    "ops": [
        {"gate": "cnot", "lens": [0, 1]},
        {"gate": "cnot", "lens": [0, 2]},
    ],
}


def count_allocations(monkeypatch) -> list[int]:
    """Record the size of every np.empty and np.zeros array from now on."""
    sizes = []
    for name in ("empty", "zeros"):
        real = getattr(np, name)

        def counted(shape, *a, _real=real, **k):
            out = _real(shape, *a, **k)
            sizes.append(out.size)
            return out

        monkeypatch.setattr(np, name, counted)
    return sizes


@pytest.fixture
def circuit_file(tmp_path):
    def write(doc, name="circuit.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return write


class TestParseCircuit:
    def test_bit_flip_file(self, circuit_file):
        circ = parse_circuit(circuit_file(BIT_FLIP_ENC))
        assert circ.n == 3
        assert [s.name for s in circ.steps] == ["cnot", "cnot"]
        assert [s.lens.idx for s in circ.steps] == [(0, 1), (0, 2)]
        out = circ.run(ket((1, 0, 0)))
        assert np.array_equal(out.amps, ket((1, 1, 1)).amps)

    def test_duplicate_lens_entry(self, circuit_file):
        doc = {"wires": 3, "ops": [{"gate": "cnot", "lens": [0, 0]}]}
        with pytest.raises(DuplicateIndex, match=r"ops\[0\]"):
            parse_circuit(circuit_file(doc))

    def test_lens_out_of_range(self, circuit_file):
        doc = {"wires": 2, "ops": [{"gate": "hadamard", "lens": [2]}]}
        with pytest.raises(IndexOutOfRange, match=r"ops\[0\]"):
            parse_circuit(circuit_file(doc))

    def test_gate_lens_arity_mismatch(self, circuit_file):
        doc = {"wires": 3, "ops": [{"gate": "cnot", "lens": [0]}]}
        with pytest.raises(ArityMismatch, match=r"ops\[0\]"):
            parse_circuit(circuit_file(doc))

    def test_unknown_gate(self, circuit_file):
        doc = {"wires": 2, "ops": [{"gate": "nope", "lens": [0]}]}
        with pytest.raises(UnknownGate, match="nope"):
            parse_circuit(circuit_file(doc))

    def test_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            parse_circuit(str(path))

    def test_missing_file(self):
        with pytest.raises(ParseError):
            parse_circuit("/nonexistent/circuit.json")

    @pytest.mark.parametrize(
        "doc",
        [
            [],
            {"ops": []},
            {"wires": 0, "ops": []},
            {"wires": 2, "ops": {}},
            {"wires": 2, "ops": [{"gate": "cnot"}]},
            {"wires": 2, "ops": [{"gate": "cnot", "lens": "01"}]},
            {"wires": 2, "qudit_dim": 1, "ops": []},
            {"wires": 2, "ops": [3]},
        ],
    )
    def test_structural_errors(self, circuit_file, doc):
        with pytest.raises(ParseError):
            parse_circuit(circuit_file(doc))

    def test_custom_gate_column_major(self, circuit_file):
        # column 0 holds the image of |0>: matrix maps |0> -> |1>, kills |1>
        doc = {
            "wires": 1,
            "gates": [
                {"name": "lower", "wires": 1,
                 "matrix": [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}
            ],
            "ops": [{"gate": "lower", "lens": [0]}],
        }
        circ = parse_circuit(circuit_file(doc))
        out = circ.run(ket((0,)))
        assert out.amplitude((1,)) == 1.0
        assert not circ.run(ket((1,))).amps.any()

    def test_custom_gate_bad_matrix_length(self, circuit_file):
        doc = {
            "wires": 1,
            "gates": [{"name": "u", "wires": 1, "matrix": [[0.0, 0.0]]}],
            "ops": [],
        }
        with pytest.raises(ParseError, match=r"gates\[0\]"):
            parse_circuit(circuit_file(doc))

    @pytest.mark.parametrize("entry", [
        [float("nan"), 0.0], [0.0, float("inf")], [True, 0.0], [0.0, False],
        [10**400, 0.0], ["1", 0.0]])
    def test_custom_gate_entry_must_be_finite_number(self, circuit_file, entry):
        # json.dumps writes NaN / Infinity, which json.loads accepts by default
        doc = {
            "wires": 1,
            "gates": [{"name": "u", "wires": 1,
                       "matrix": [[1.0, 0.0], entry, [0.0, 0.0], [1.0, 0.0]]}],
            "ops": [],
        }
        with pytest.raises(ParseError, match=r"gates\[0\]\.matrix\[1\]"):
            parse_circuit(circuit_file(doc))

    @pytest.mark.parametrize("name", ["hadamard", " cnot", "identity(2)", "null"])
    def test_custom_gate_may_not_shadow_builtin(self, circuit_file, name):
        doc = {
            "wires": 1,
            "gates": [{"name": name, "wires": 1,
                       "matrix": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]}],
            "ops": [{"gate": name, "lens": [0]}],
        }
        with pytest.raises(ParseError, match=r"gates\[0\]\.name"):
            parse_circuit(circuit_file(doc))

    def test_builtin_built_once_per_file(self, circuit_file):
        # Ops naming one builtin share its Gate, identity(2) and identity(3)
        # being two builtins; each custom gate is one Gate, as declared.
        flip = {"name": "u", "wires": 1,
                "matrix": [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 0.0]]}
        ops = [("cnot", [0, 1]), ("identity(2)", [2, 3]), ("u", [0]), ("cnot", [2, 1]),
               ("identity(3)", [0, 1, 3]), ("identity(2)", [1, 0]), ("u", [3])]
        doc = {"wires": 4, "gates": [flip],
               "ops": [{"gate": name, "lens": lens} for name, lens in ops]}
        path = circuit_file(doc)
        gates = [step.gate for step in parse_circuit(path).steps]
        assert gates[0] is gates[3] and gates[1] is gates[5] and gates[2] is gates[6]
        assert len({id(g) for g in gates}) == 4
        assert gates[1].wires == 2 and gates[4].wires == 3
        assert np.array_equal(gates[2].mat, [[0, 1], [1, 0]])
        assert parse_circuit(path).steps[0].gate is not gates[0]

    @pytest.mark.parametrize("name, lens, wires", [("cnot", [0], 2),
                                                   ("identity(3)", [0, 1], 3),
                                                   ("identity", [0, 1], 1),
                                                   ("null", [], 1)])
    def test_builtin_arity_checked_on_every_op(self, name, lens, wires):
        # The same message whether the op names the builtin first or again.
        ok, bad = {"gate": name, "lens": list(range(wires))}, {"gate": name, "lens": lens}
        for k, ops in enumerate(([bad], [ok, bad])):
            with pytest.raises(ArityMismatch) as err:
                circuit_from_spec({"wires": 4, "ops": ops})
            assert str(err.value) == (f"circuit.ops[{k}]: gate {name!r} acts on {wires} "
                                      f"wires, lens has {len(lens)}")

    def test_duplicate_custom_gate_name(self, circuit_file):
        gate = {"name": "u", "wires": 1,
                "matrix": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]}
        doc = {"wires": 1, "gates": [gate, gate], "ops": []}
        with pytest.raises(ParseError, match=r"gates\[1\]\.name"):
            parse_circuit(circuit_file(doc))

    @pytest.mark.parametrize("name", ["identity(40)", "null(40)"])
    def test_oversized_parametric_builtin(self, circuit_file, name):
        doc = {"wires": 2, "ops": [{"gate": name, "lens": [0]}]}
        with pytest.raises(SizeGuardExceeded, match=r"ops\[0\]\.gate"):
            parse_circuit(circuit_file(doc))

    def test_parametric_arity_checked_before_allocation(self):
        # identity(11) would be a 64 MiB matrix; its arity is read from the name.
        doc = {"wires": 1, "ops": [{"gate": "identity(11)", "lens": [0]}]}
        tracemalloc.start()
        try:
            with pytest.raises(ArityMismatch, match=r"ops\[0\]: gate 'identity\(11\)'"):
                circuit_from_spec(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_oversized_custom_gate(self):
        doc = {"wires": 1, "ops": [],
               "gates": [{"name": "u", "wires": 20000, "matrix": [[1.0, 0.0]]}]}
        with pytest.raises(SizeGuardExceeded, match=r"gates\[0\]\.wires"):
            circuit_from_spec(doc)

    @pytest.mark.parametrize("doc,field", [
        ({"wires": True, "ops": []}, r"circuit\.wires"),
        ({"wires": 2, "ops": [{"gate": "hadamard", "lens": [True]}]}, r"ops\[0\]\.lens"),
        ({"wires": 1, "ops": [],
          "gates": [{"name": "u", "wires": True,
                     "matrix": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]}]},
         r"gates\[0\]\.wires"),
    ], ids=["wires", "lens_entry", "custom_gate_wires"])
    def test_bool_is_not_an_integer(self, doc, field):
        with pytest.raises(ParseError, match=field):
            circuit_from_spec(doc)


def custom_gate_circuit(q, seed=7):
    """Seeded circuit mixing builtins with custom gates, one of them reused."""
    rng = np.random.default_rng(seed)
    n = 4
    gates = {"u": random_gate(1, q, rng), "v": random_gate(2, q, rng), "w": random_gate(0, q, rng)}
    steps = [Step(random_lens(n, gates[name].wires, rng), gates[name], name)
             for name in ("u", "v", "u", "w", "v")]
    if q == 2:
        steps.insert(1, Step(Lens(n, (3, 1)), builtin("cnot"), "cnot"))
    return Circuit(n, tuple(steps), q)


class TestSpecRoundTrip:
    @pytest.mark.parametrize("circ", [
        example_circuit("shor", None), example_circuit("ghz", 3), example_circuit("reverse", 6),
        custom_gate_circuit(2), custom_gate_circuit(3),
    ], ids=["shor", "ghz", "reverse", "custom_q2", "custom_q3"])
    def test_reproduces_every_step(self, circ):
        doc = json.loads(json.dumps(circuit_to_spec(circ)))
        back = circuit_from_spec(doc)
        assert (back.n, back.q, len(back.steps)) == (circ.n, circ.q, len(circ.steps))
        for got, want in zip(back.steps, circ.steps):
            assert got.lens.idx == want.lens.idx
            assert got.name == want.name
            assert np.array_equal(got.gate.mat, want.gate.mat)

    def test_custom_gates_written_once(self):
        doc = circuit_to_spec(custom_gate_circuit(2))
        assert [g["name"] for g in doc["gates"]] == ["u", "v", "w"]
        assert "gates" not in circuit_to_spec(example_circuit("ghz", 3))

    def test_conflicting_matrix_for_a_name(self):
        rng = np.random.default_rng(3)
        lens = Lens(2, (1,))
        twice = Circuit(2, (Step(lens, random_gate(1, 2, rng), "u"),
                            Step(lens, random_gate(1, 2, rng), "u")))
        fake = Circuit(2, (Step(lens, random_gate(1, 2, rng), "hadamard"),))
        for circ in (twice, fake):
            with pytest.raises(ParseError, match="cannot serialize"):
                circuit_to_spec(circ)
        assert circuit_to_spec(Circuit(2, (Step(lens, hadamard(), "hadamard"),)))

    def test_unnamed_step_cannot_serialize(self):
        circ = Circuit(2, (Step(Lens(2, (1,)), hadamard()),))
        with pytest.raises(ParseError, match="no gate name"):
            circuit_to_spec(circ)


class TestRunCommand:
    def test_bit_flip_instance(self, circuit_file, capsys):
        path = circuit_file(BIT_FLIP_ENC)
        assert main(["run", path, "--input", "100"]) == 0
        assert capsys.readouterr().out.strip() == "111 1.0 0.0"

    def test_bare_identity_is_one_wire(self, circuit_file, capsys):
        ops = [{"gate": "identity", "lens": [1]}, {"gate": "cnot", "lens": [0, 1]}]
        assert main(["run", circuit_file({"wires": 2, "ops": ops}), "--input", "10"]) == 0
        assert capsys.readouterr().out == "11 1.0 0.0\n"
        ops = [{"gate": "identity", "lens": [0, 1]}]
        assert main(["run", circuit_file({"wires": 2, "ops": ops}), "--input", "10"]) == 2
        assert "acts on 1 wires, lens has 2" in capsys.readouterr().err

    def test_ghz_amplitudes(self, tmp_path, capsys):
        ghz_path = str(tmp_path / "ghz.json")
        assert main(["examples", "ghz", "--n", "2", "--out", ghz_path]) == 0
        capsys.readouterr()
        assert main(["run", ghz_path, "--input", "000"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == [
            "000 0.7071067811865476 0.0",
            "111 0.7071067811865476 0.0",
        ]

    def test_threshold_suppression(self, tmp_path, capsys):
        ghz_path = str(tmp_path / "ghz.json")
        main(["examples", "ghz", "--n", "2", "--out", ghz_path])
        capsys.readouterr()
        assert main(["run", ghz_path, "--input", "000", "--threshold", "0.9"]) == 0
        assert capsys.readouterr().out.strip() == ""

    @pytest.mark.parametrize("value", ["nan", "-0.5", "-inf"])
    def test_threshold_not_a_magnitude_is_a_usage_error(self, tmp_path, capsys, value):
        # NaN and negative thresholds suppress nothing; they used to run as 0.
        ghz_path = str(tmp_path / "ghz.json")
        main(["examples", "ghz", "--n", "2", "--out", ghz_path])
        capsys.readouterr()
        assert main(["run", ghz_path, "--input", "000", f"--threshold={value}"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "must be at least 0" in err

    def test_state_file_input(self, circuit_file, tmp_path, capsys):
        path = circuit_file(BIT_FLIP_ENC)
        state_path = tmp_path / "input.state"
        state_path.write_text(state_to_text(ket((1, 0, 0))))
        assert main(["run", path, "--input", str(state_path)]) == 0
        assert capsys.readouterr().out.strip() == "111 1.0 0.0"

    @pytest.mark.parametrize("circuit", ["cnot", "reverse"])
    def test_permutation_relabels_exactly_at_every_size(self, circuit_file, tmp_path, capsys,
                                                       circuit):
        # Wires 0-3 of 4 sit at wires 0, 5, 8, 13 of 14, which reversal-14
        # swaps as reversal-4 swaps wires 0-3; the other wires stay 0.  A
        # relabelling moves each amplitude as it is, -0.0 included, on a
        # state of 2**4 amplitudes as on one of 2**14.
        at = {4: (0, 1, 2, 3), 14: (0, 5, 8, 13)}

        def spread(bits, n):
            wide = ["0"] * n
            for b, w in zip(bits, at[n]):
                wide[w] = b
            return "".join(wide)

        texts = []
        for n in (4, 14):
            doc = ({"wires": n, "ops": [{"gate": "cnot", "lens": list(at[n][:2])}]}
                   if circuit == "cnot" else circuit_to_spec(example_circuit("reverse", n)))
            state = tmp_path / f"s{n}.txt"
            state.write_text(f"{spread('1000', n)} 0.6 -0.0\n{spread('0110', n)} -0.0 0.8\n")
            assert main(["run", circuit_file(doc, f"c{n}.json"), "--input", str(state)]) == 0
            texts.append(capsys.readouterr().out)
        narrow, wide = texts
        assert wide == "".join(f"{spread(line[:4], 14)}{line[4:]}\n"
                               for line in narrow.splitlines())
        want = {"cnot": "0110 -0.0 0.8\n1100 0.6 -0.0\n",
                "reverse": "0001 0.6 -0.0\n0110 -0.0 0.8\n"}
        assert narrow == want[circuit]

    def test_input_arity_mismatch(self, circuit_file, capsys):
        path = circuit_file(BIT_FLIP_ENC)
        assert main(["run", path, "--input", "10"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_parse_failure_exit_code(self, circuit_file, capsys):
        path = circuit_file({"wires": 3, "ops": [{"gate": "cnot", "lens": [0, 0]}]})
        assert main(["run", path, "--input", "000"]) == 2

    def test_oversized_builtin_exit_code(self, circuit_file, capsys):
        path = circuit_file({"wires": 2, "ops": [{"gate": "identity(40)", "lens": [0]}]})
        assert main(["run", path, "--input", "00"]) == 2
        assert "guard" in capsys.readouterr().err

    def test_huge_state_file_exit_code(self, circuit_file, tmp_path, capsys):
        path = circuit_file(BIT_FLIP_ENC)
        state_path = tmp_path / "huge.state"
        state_path.write_text("0" * 15000 + " 1 0\n")
        assert main(["run", path, "--input", str(state_path)]) == 2
        assert "guard" in capsys.readouterr().err

    def test_wider_state_file_refused_before_its_table(self, circuit_file, tmp_path,
                                                        monkeypatch, capsys):
        # A 25-wire line fits the guard, so only its width against the
        # circuit's 3 wires refuses it, before 2**25 amplitudes are allocated.
        path = circuit_file(BIT_FLIP_ENC)
        state_path = tmp_path / "wide.state"
        state_path.write_text("0" * 25 + " 1 0\n")
        sizes = count_allocations(monkeypatch)
        assert main(["run", path, "--input", str(state_path)]) == 2
        assert "arity 25 != 3" in capsys.readouterr().err
        assert 2**25 not in sizes

    def test_empty_state_file_exit_code(self, circuit_file, tmp_path, capsys):
        path = circuit_file(BIT_FLIP_ENC)
        state_path = tmp_path / "empty.state"
        state_path.write_text("# no entries\n")
        assert main(["run", path, "--input", str(state_path)]) == 2
        assert "no entries" in capsys.readouterr().err

    def test_directory_input_exit_code(self, circuit_file, tmp_path, capsys):
        path = circuit_file(BIT_FLIP_ENC)
        assert main(["run", path, "--input", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_state_file_not_utf8_exit_code(self, circuit_file, tmp_path, capsys):
        path = circuit_file(BIT_FLIP_ENC)
        state_path = tmp_path / "bad.state"
        state_path.write_bytes(b"\xff")
        assert main(["run", path, "--input", str(state_path)]) == 2
        assert "nor a readable state file" in capsys.readouterr().err

    def test_missing_input_keeps_its_message(self, circuit_file, tmp_path, capsys):
        path = circuit_file(BIT_FLIP_ENC)
        missing = str(tmp_path / "missing.state")
        for value in (missing, "no\0such"):
            assert main(["run", path, "--input", value]) == 2
            assert capsys.readouterr().err == (
                f"error: --input {value!r} is neither a basis string of 3 digits < 2 "
                f"nor a readable state file\n")

    def test_circuit_file_not_utf8_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"wires": 1, "ops": [], "x": "\xff"}')
        assert main(["run", str(path), "--input", "0"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    def test_alphabet_beyond_text_refused_before_run(self, circuit_file, monkeypatch, capsys):
        # Neither the input (here no basis string and no file) is read nor
        # the circuit run: the text format could not print the result.
        path = circuit_file({"qudit_dim": 11, "wires": 1, "ops": []})
        runs = []
        monkeypatch.setattr(Circuit, "run", lambda *a: runs.append(a))
        assert main(["run", path, "--input", "no-such-input"]) == 2
        assert "text format supports q <= 10, got q=11" in capsys.readouterr().err
        assert runs == []

    @pytest.mark.parametrize("wires", [17, 20])
    def test_ghz_run_allocates_no_state_sized_array(self, tmp_path, monkeypatch, capsys,
                                                    wires):
        # No input ket is built and no op runs as a pass: the basis walk
        # carries the ket through the plan's one Gemm and the Rows after
        # it, and the text is printed from the support it ends with.
        ghz_path = str(tmp_path / "ghz.json")
        assert main(["examples", "ghz", "--n", str(wires - 1), "--out", ghz_path]) == 0
        capsys.readouterr()
        sizes = count_allocations(monkeypatch)
        assert main(["run", ghz_path, "--input", "0" * wires]) == 0
        assert sizes.count(2**wires) == 0
        assert capsys.readouterr().out.split() == ["0" * wires, "0.7071067811865476", "0.0",
                                                    "1" * wires, "0.7071067811865476", "0.0"]

    def test_basis_run_with_two_products_runs_dense(self, tmp_path, monkeypatch, capsys):
        # A dense gate after the GHZ ladder is the plan's second Gemm, which
        # the basis walk does not cover: the run falls back to run_basis,
        # whose fill and second product each write a state-sized buffer, and
        # prints what the same ket from a state file prints.
        path = tmp_path / "ghz_u.json"
        assert main(["examples", "ghz", "--n", "16", "--out", str(path)]) == 0
        doc = json.loads(path.read_text())
        doc["gates"] = [{"name": "u", "wires": 1,
                         "matrix": [[0.6, 0.0], [0.8, 0.0], [0.8, 0.0], [-0.6, 0.0]]}]
        doc["ops"].append({"gate": "u", "lens": [16]})
        path.write_text(json.dumps(doc))
        state_path = tmp_path / "input.state"
        state_path.write_text(state_to_text(ket((0,) * 17)))
        capsys.readouterr()
        sizes = count_allocations(monkeypatch)
        assert main(["run", str(path), "--input", "0" * 17]) == 0
        assert sizes.count(2**17) == 2
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 4
        assert main(["run", str(path), "--input", str(state_path)]) == 0
        assert capsys.readouterr().out == out

    @pytest.mark.parametrize("extra_gate", [False, True], ids=["covered", "fallback"])
    def test_run_plans_once(self, tmp_path, monkeypatch, capsys, extra_gate):
        # GHZ has one dense step: the step walk covers it, unfused and
        # unplanned.  A second Hadamard sends the run to the fused walk,
        # which stops at the second product; run_basis then reuses the
        # walk's plan.
        path = tmp_path / "ghz.json"
        assert main(["examples", "ghz", "--n", "14", "--out", str(path)]) == 0
        if extra_gate:
            doc = json.loads(path.read_text())
            doc["ops"].append({"gate": "hadamard", "lens": [14]})
            path.write_text(json.dumps(doc))
        calls = []
        real = circuits_module._plan
        monkeypatch.setattr(circuits_module, "_plan",
                            lambda *a: calls.append(a[3]) or real(*a))
        fusions = []
        real_fused = Circuit.fused
        monkeypatch.setattr(Circuit, "fused",
                            lambda self, k: fusions.append(k) or real_fused(self, k))
        covered = []
        real_support = Circuit._basis_support

        def support(self, v):
            out = real_support(self, v)
            covered.append(out is not None)
            return out

        monkeypatch.setattr(Circuit, "_basis_support", support)
        capsys.readouterr()
        assert main(["run", str(path), "--input", "0" * 15]) == 0
        assert calls == ([None] if extra_gate else [])
        assert len(fusions) == extra_gate
        assert covered == [not extra_gate]
        assert len(capsys.readouterr().out.splitlines()) == (4 if extra_gate else 2)

    def test_ghz_20_text_from_the_support_equals_the_dense_text(self, tmp_path, capsys):
        ghz_path = str(tmp_path / "ghz.json")
        assert main(["examples", "ghz", "--n", "19", "--out", ghz_path]) == 0
        for digits in ("0" * 20, "1011" * 5):
            state_path = tmp_path / "input.state"
            state_path.write_text(f"{digits} 1.0 0.0\n")
            capsys.readouterr()
            assert main(["run", ghz_path, "--input", digits]) == 0
            sparse = capsys.readouterr().out
            assert main(["run", ghz_path, "--input", str(state_path)]) == 0
            assert capsys.readouterr().out == sparse
            assert len(sparse.splitlines()) == 2

    def test_run_past_the_working_set_guard_exit_code(self, circuit_file, tmp_path,
                                                      monkeypatch, capsys):
        # A basis string starts the run with no input array: its two
        # buffers (2 * 2**10 amplitudes) must fit.  A state file is the
        # run's input beside its two buffers (3 * 2**10).
        path = circuit_file({"wires": 10, "ops": [{"gate": "hadamard", "lens": [0]}]})
        state_path = tmp_path / "input.state"
        state_path.write_text(state_to_text(ket((0,) * 10)))
        for limit, basis_code, file_code in ((2**10, 2, 2), (2 * 2**10 - 1, 2, 2),
                                             (2 * 2**10, 0, 2), (3 * 2**10 - 1, 0, 2),
                                             (3 * 2**10, 0, 0)):
            monkeypatch.setattr(state_module, "MAX_STATE_ENTRIES", limit)
            assert main(["run", path, "--input", "0" * 10]) == basis_code
            assert main(["run", path, "--input", str(state_path)]) == file_code
            out, err = capsys.readouterr()
            assert ("guard" in err) == (2 in (basis_code, file_code))


class TestExamplesCommand:
    def test_deep_ghz_builds(self, capsys):
        # 1500 levels of the recursive definition, past the interpreter stack.
        assert main(["examples", "ghz", "--n", "1500"]) == 0
        assert len(json.loads(capsys.readouterr().out)["ops"]) == 1501

    def test_out_in_missing_directory_exit_code(self, tmp_path, capsys):
        out = tmp_path / "missing" / "dir" / "x.json"
        assert main(["examples", "ghz", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: --out {out}: ")
        assert not out.parent.exists()

    def test_ghz_structure(self):
        circ = example_circuit("ghz", 4)
        assert circ.n == 5
        names = [s.name for s in circ.steps]
        assert names.count("hadamard") == 1
        assert names.count("cnot") == 4

    def test_reverse_structure(self):
        circ = example_circuit("reverse", 5)
        assert [s.lens.idx for s in circ.steps] == [(0, 4), (1, 3)]
        assert all(s.name == "swap" for s in circ.steps)

    def test_shor_structure(self):
        circ = example_circuit("shor", None)
        assert circ.n == 9
        assert len(circ.steps) == 26

    def test_roundtrip_through_file(self, tmp_path):
        for name, n in (("ghz", 3), ("reverse", 6), ("shor", None)):
            out = tmp_path / f"{name}.json"
            args = ["examples", name, "--out", str(out)]
            if n is not None:
                args += ["--n", str(n)]
            assert main(args) == 0
            circ = example_circuit(name, n)
            reparsed = parse_circuit(str(out))
            assert circuit_to_spec(reparsed) == circuit_to_spec(circ)

    @pytest.mark.parametrize("name", ["ghz", "reverse", "shor"])
    @pytest.mark.parametrize("n", [None, 0, 1, 2, 3])
    def test_written_file_parses_or_exit_2(self, tmp_path, capsys, name, n):
        # reverse --n 0 used to write "wires": 0, which run then refused.
        out = tmp_path / f"{name}.json"
        args = ["examples", name, "--out", str(out)] + ([] if n is None else ["--n", str(n)])
        code = main(args)
        assert code in (0, 2)
        if code == 0:
            circ = parse_circuit(str(out))
            assert main(["run", str(out), "--input", "0" * circ.n]) == 0
        else:
            assert not out.exists() and "error:" in capsys.readouterr().err
        assert (code == 2) == (name == "reverse" and n == 0)

    def test_negative_n_is_a_usage_error(self, capsys):
        assert main(["examples", "ghz", "--n", "-1"]) == 2
        assert "must be at least 0" in capsys.readouterr().err

    def test_unknown_example(self, capsys):
        assert main(["examples", "teleport"]) == 2
        assert "teleport" in capsys.readouterr().err

    def test_stdout_emission(self, capsys):
        assert main(["examples", "ghz", "--n", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["wires"] == 2


class TestCheckCommand:
    def test_passing_scope_exit_zero(self, capsys):
        assert main(["check", "unitarity", "--seed", "11"]) == 0
        out = capsys.readouterr().out
        assert "seed: 11" in out
        assert "FAIL" not in out

    def test_deterministic_given_seed(self, capsys):
        main(["check", "focus-laws", "--seed", "4", "--trials", "5"])
        first = capsys.readouterr().out
        main(["check", "focus-laws", "--seed", "4", "--trials", "5"])
        second = capsys.readouterr().out
        assert first == second

    def test_oracle_flag_is_a_usage_error(self, capsys):
        # The oracle suite runs as its own scope, and within "all".
        assert main(["check", "all", "--oracle"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--oracle" in err

    def test_usage_error_exit_code(self, capsys):
        assert main(["check", "not-a-scope"]) == 2

    def test_scope_choices_are_the_suites(self):
        from qlens import checks

        names = sorted(checks.SCOPES) + ["all"]
        assert list(cli_module._SCOPES) == names
        assert [_build_parser().parse_args(["check", name]).scope for name in names] == names

    def test_cli_import_leaves_the_suites_out(self):
        path = [str(Path(__file__).resolve().parent.parent / "src"),
                os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, qlens.cli; print('qlens.checks' in sys.modules)"],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_parser_built_once_keeps_calls_apart(self, tmp_path, capsys):
        assert _build_parser() is _build_parser()
        ghz_path = str(tmp_path / "ghz.json")
        assert main(["examples", "ghz", "--n", "2", "--out", ghz_path]) == 0
        for _ in range(2):
            assert main(["check", "not-a-scope"]) == 2
            assert main(["run", ghz_path, "--input", "000", "--threshold", "-1"]) == 2
        capsys.readouterr()
        assert main(["run", ghz_path, "--input", "000", "--threshold", "0.9"]) == 0
        assert capsys.readouterr().out == ""
        assert main(["run", ghz_path, "--input", "000"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2

    @pytest.mark.parametrize("argv", [
        ["focus-laws", "--max-wires", "-3"],
        ["monoid", "--max-wires", "1"],
        ["lens-laws", "--max-wires", "-1"],
        ["lens-laws", "--max-wires", "0"],
        ["oracle", "--trials", "0"],
        ["unitarity", "--seed", "-1"],
    ], ids=["focus_laws_negative_wires", "monoid_one_wire", "lens_laws_negative_wires",
            "zero_wires_not_the_default", "oracle_no_trials", "negative_seed"])
    def test_numeric_option_below_its_floor_is_a_usage_error(self, argv, capsys):
        # Exit 1 would mean a law failed; no law may run, so none may pass
        # vacuously either.
        assert main(["check", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "must be at least" in err

    def test_smallest_numeric_options_run(self, capsys):
        assert main(["check", "all", "--max-wires", "2", "--trials", "1"]) == 0
        assert "FAIL" not in capsys.readouterr().out


# Fuzzing circuit_from_spec.  Every field is valid five draws in six and
# junk of another JSON type otherwise.  Lenses and matrices are drawn to fit
# the document, so most documents get as far as the gate and lens checks.
# Wire counts of dense gates skip 7..14: those pass the 2**14 dense guard at
# q = 2 but allocate up to 4 GiB each.
JUNK = st.sampled_from([True, None, False, -1, 1.5, float("nan"), "2", [], [True]])
GATE_NAMES = st.one_of(
    st.sampled_from(builtin_names() + ("u", "v")),
    st.builds("{}({})".format, st.sampled_from(["identity", "null"]),
              st.sampled_from([0, 1, 2, 3, 15, 40, 20000])),
)


def field(valid):
    return st.integers(0, 5).flatmap(lambda r: JUNK if r == 5 else valid)


def arity(name):
    if name.endswith(")"):
        return int(name[name.index("(") + 1:-1])
    return {"cnot": 2, "swap": 2, "toffoli": 3}.get(name, 1)


@st.composite
def spec_doc(draw):
    wires = draw(field(st.sampled_from([3, 1, 2, 4, 5, 6])))
    q = draw(field(st.sampled_from([2, 3])))
    # sizes follow the integer a junk value stands for (true is 1)
    n = wires if isinstance(wires, int) and wires > 0 else 1
    dim = q if isinstance(q, int) and q > 1 else 2
    gates = []
    for name in draw(st.lists(st.sampled_from(["u", "v", "cnot"]), max_size=2)):
        k = draw(field(st.sampled_from([0, 1, 15, 20000])))
        matrix = [draw(field(st.lists(field(st.floats(-2, 2)), min_size=2, max_size=2)))
                  for _ in range(dim ** (2 * k) if k in (0, 1) else 1)]
        gates.append({"name": draw(field(st.just(name))), "wires": k,
                      "matrix": draw(field(st.just(matrix)))})
    ops = []
    for _ in range(draw(st.sampled_from([2, 1, 3, 0, 4]))):
        name = draw(GATE_NAMES)
        order = draw(st.permutations(range(n)))
        lens = [draw(field(st.just(i))) for i in order[:arity(name)]]
        ops.append({"gate": draw(field(st.just(name))), "lens": draw(field(st.just(lens)))})
    doc = {"wires": wires, "ops": draw(field(st.just(ops)))}
    if q != 2 or draw(st.booleans()):
        doc["qudit_dim"] = q
    if gates or draw(st.booleans()):
        doc["gates"] = draw(field(st.just(gates)))
    return doc


@settings(max_examples=300)
@given(field(spec_doc()))
def test_circuit_from_spec_fuzz(doc):
    """Every document parses into a valid circuit or raises a QLensError."""
    try:
        circ = circuit_from_spec(doc)
    except QLensError:
        return
    assert isinstance(circ, Circuit) and type(circ.n) is int and 1 <= circ.n <= 6
    assert all(type(i) is int for op in doc["ops"] for i in op["lens"])
    assert all(type(g["wires"]) is int for g in doc.get("gates", []))
