"""The workloads: input generation, the timed operation, and output checks.

Every expectation comes from a path that shares no code with the one timed:
a closed form, the naive reference pipeline, or the dense kron+permutation
oracle.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

from qlens import circuits, cli, focus, gates, oracle, parallel, state
from qlens.lens import Lens

# Sizes keep one operation near 0.2-0.5 s on a 2-core Xeon, so that a 30 s
# run holds at least 20 samples at nproc BLAS threads (run_s_tail needs 10
# beyond the median).  At n = 20 a step's few 16 MiB buffers fit a 105 MiB
# L3; at n = 21 they do not and an operation takes three times as long.
SIZES = {
    "ghz_cli": {"n": 20},
    "random_layered": {"n": 20, "per_arity": 10},
    "collapse_small": {"par_n": 8, "code": "shor"},
}
# Every workload at n <= 8, for the smoke test.
SMOKE_SIZES = {
    "ghz_cli": {"n": 6},
    "random_layered": {"n": 6, "per_arity": 2},
    "collapse_small": {"par_n": 4, "code": "sign_flip"},
}


def write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc) + "\n")


def custom_circuit_doc(circ: circuits.Circuit) -> dict:
    """Circuit JSON with one custom gate per step (column-major [re, im] pairs)."""
    gate_docs, ops = [], []
    for k, step in enumerate(circ.steps):
        flat = step.gate.mat.T.ravel()
        gate_docs.append({"name": f"u{k}", "wires": step.lens.m,
                          "matrix": [[float(z.real), float(z.imag)] for z in flat]})
        ops.append({"gate": f"u{k}", "lens": list(step.lens.idx)})
    return {"qudit_dim": circ.q, "wires": circ.n, "gates": gate_docs, "ops": ops}


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def max_dev(a: np.ndarray, b: np.ndarray, chunk: int = 1 << 16) -> float:
    """max |a - b| in chunks, so the check adds no state-sized temporaries."""
    if a.shape != b.shape:
        return math.inf
    a, b = a.reshape(-1), b.reshape(-1)
    return max((float(np.max(np.abs(a[i:i + chunk] - b[i:i + chunk])))
                for i in range(0, a.size, chunk)), default=0.0)


class Workload:
    """One workload; files live in ``dir``.  load() must precede op()."""

    def __init__(self, size: dict, dir: Path):
        self.size = size
        self.dir = dir

    def expect(self) -> None:
        """Write the expected outputs (run once, outside setup_s)."""


class GhzCli(Workload):
    """qlens run of GHZ-n from the all-zero basis string; two output lines."""

    def __init__(self, size, dir):
        super().__init__(size, dir)
        self.n = size["n"]

    def build(self, seed: int) -> circuits.Circuit:
        return circuits.ghz_circuit(self.n - 1)

    def generate(self, seed: int) -> None:
        write_json(self.dir / "circuit.json", cli.circuit_to_spec(self.build(seed)))

    def load(self) -> None:
        self.argv = ["run", str(self.dir / "circuit.json"), "--input", "0" * self.n]

    def op(self):
        return run_cli(self.argv)

    def check(self, out) -> bool:
        rc, text = out
        lines = [line.split() for line in text.splitlines()]
        if rc != 0 or [p[:1] for p in lines] != [["0" * self.n], ["1" * self.n]]:
            return False
        try:
            return all(abs(float(re_s) - math.sqrt(0.5)) <= 1e-12 and abs(float(im_s)) <= 1e-12
                       for _, re_s, im_s in lines)
        except ValueError:
            return False

    @staticmethod
    def corrupt(out):
        rc, text = out
        return rc, "\n".join(text.splitlines()[:-1])

    def replay(self):
        return cli.parse_circuit(self.dir / "circuit.json"), state.ket((0,) * self.n)


class RandomLayered(Workload):
    """Circuit.run of seeded dense 1-3 wire unitaries on unsorted lenses."""

    def __init__(self, size, dir):
        super().__init__(size, dir)
        self.n = size["n"]

    def build(self, seed: int) -> circuits.Circuit:
        rng = np.random.default_rng(seed)
        steps = []
        for m in map(int, rng.permutation(np.repeat([1, 2, 3], self.size["per_arity"]))):
            idx = tuple(int(w) for w in rng.choice(self.n, m, replace=False))
            gate = gates.Gate(oracle.random_unitary(2**m, rng), m, m, 2)
            steps.append(circuits.Step(Lens(self.n, idx), gate))
        return circuits.Circuit(self.n, tuple(steps))

    def generate(self, seed: int) -> None:
        write_json(self.dir / "circuit.json", custom_circuit_doc(self.build(seed)))
        rng = np.random.default_rng([seed, 1])
        np.save(self.dir / "state.npy", state.random_state(self.n, 2, rng).amps)

    def load(self) -> None:
        self.circ = cli.parse_circuit(self.dir / "circuit.json")
        self.input = state.State(self.n, 2, np.load(self.dir / "state.npy"))
        want = self.dir / "expect.npy"
        self.want = np.load(want) if want.exists() else None

    def expect(self) -> None:
        self.load()
        s = self.input
        for step in self.circ.steps:
            s = focus.focus_apply_reference(step.lens, step.gate, s)
        np.save(self.dir / "expect.npy", s.amps)

    def op(self):
        return self.circ.run(self.input)

    def check(self, out) -> bool:
        drift = abs(float(np.vdot(out.amps, out.amps).real) - 1.0)
        return max_dev(out.amps, self.want) <= 1e-12 and drift <= 1e-10

    @staticmethod
    def corrupt(out):
        amps = out.amps.copy()
        amps[0] += 1e-6
        return state.State(out.n, out.q, amps)

    def replay(self):
        return self.circ, self.input


class CollapseSmall(Workload):
    """Circuit.to_gate of a code circuit, plus focused/combine_all on unsorted pairs."""

    def __init__(self, size, dir):
        super().__init__(size, dir)
        self.par_n = size["par_n"]
        self.n = max(self.par_n, 9 if size["code"] == "shor" else 3)

    def build(self, seed: int) -> tuple[circuits.Circuit, circuits.Circuit]:
        if self.size["code"] == "shor":
            code = cli.example_circuit("shor", None)
        else:
            code = circuits.Circuit(3, circuits.sign_flip_encoder().steps
                                    + circuits.sign_flip_decoder().steps)
        # Seeded wire pairs, each listed high wire first, and the pair holding
        # the top wire first: then every focused() and every combine() after
        # the first meets an unsorted lens and collapses it through
        # focus_as_gate, so the work done is the same for every seed.
        rng = np.random.default_rng(seed)
        wires = rng.permutation(self.par_n).reshape(-1, 2)
        pairs = sorted((sorted(map(int, p), reverse=True) for p in wires), reverse=True)
        pairs = [pairs[0]] + [pairs[k] for k in rng.permutation(range(1, len(pairs)))]
        steps = [circuits.Step(Lens(self.par_n, tuple(p)),
                               gates.Gate(oracle.random_unitary(4, rng), 2, 2, 2))
                 for p in pairs]
        return code, circuits.Circuit(self.par_n, tuple(steps))

    def generate(self, seed: int) -> None:
        code, pairs = self.build(seed)
        write_json(self.dir / "code.json", cli.circuit_to_spec(code))
        write_json(self.dir / "pairs.json", custom_circuit_doc(pairs))

    def load(self) -> None:
        self.code = cli.parse_circuit(self.dir / "code.json")
        self.pairs = cli.parse_circuit(self.dir / "pairs.json")
        want = self.dir / "expect.npz"
        if want.exists():
            with np.load(want) as z:
                self.want_code, self.want_pairs = z["code"], z["pairs"]

    @staticmethod
    def dense_product(circ: circuits.Circuit) -> np.ndarray:
        mat = np.eye(circ.q**circ.n, dtype=np.complex128)
        for step in circ.steps:
            mat = oracle.build_full_matrix(step.lens, step.gate).mat @ mat
        return mat

    def expect(self) -> None:
        self.load()
        np.savez(self.dir / "expect.npz", code=self.dense_product(self.code),
                 pairs=self.dense_product(self.pairs))

    def op(self):
        g = self.code.to_gate()
        items = [parallel.focused(s.lens, s.gate) for s in self.pairs.steps]
        return g, parallel.combine_all(self.pairs.n, items)

    def check(self, out) -> bool:
        g, fg = out
        if fg.is_err:
            return False
        if fg.lens.idx == tuple(range(fg.n)):
            got = fg.gate.mat
        else:
            got = oracle.build_full_matrix(fg.lens, fg.gate).mat
        return (max_dev(g.mat, self.want_code) <= 1e-10
                and gates.unitarity_defect(g) <= 1e-10
                and max_dev(got, self.want_pairs) <= 1e-10
                and gates.unitarity_defect(fg.gate) <= 1e-10)

    @staticmethod
    def corrupt(out):
        g, fg = out
        return gates.Gate(g.mat + 1e-6, g.wires_in, g.wires_out, g.q), fg

    def replay(self):
        return self.code, state.ket((0,) * self.code.n)


WORKLOADS = {
    "ghz_cli": GhzCli,
    "random_layered": RandomLayered,
    "collapse_small": CollapseSmall,
}


def make(name: str, dir: Path, smoke: bool = False) -> Workload:
    return WORKLOADS[name]((SMOKE_SIZES if smoke else SIZES)[name], dir)
