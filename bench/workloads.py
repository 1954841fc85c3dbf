"""Seeded inputs, timed operations and correctness checks of the benchmark workloads.

Every workload is a closed loop with one client: the next op starts only
when the previous one returns.  The inputs are generated here from the seed;
the program only receives circuit text, states, bit pairs and integer seeds.

Ops call qmarket through module attributes (``compiler.parse_circuit``, not a
local import), so the outside-in tracer, which rebinds those attributes,
sees every call an op makes.

Each workload's op list is one *cycle*, built from blocks whose composition is
fixed and whose contents are seeded (see the generators), so that any run
that stops part-way through the cycle still sees the intended mix.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from qmarket import cli, compiler, densecoding, gadgets, pauliframe
from qmarket.algebra import named_gate
from qmarket.statevec import StateVector

# Acceptance tolerances; never loosened.
VERIFY_TOL = 1e-9
GADGET_TOL = 1e-10

WORKLOAD_NAMES = ("verify-narrow", "gadgets")


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _draw_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63))


def _sha(*parts: bytes) -> bytes:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.digest()


def program_shape(json_lines: str) -> tuple[int, int]:
    """(meters, peak live wires) of a serialized program, walked from outside.

    Counts Pauli and G meters, and tracks live wires as n_logical plus one per
    prepare and minus one per retire.
    """
    records = [json.loads(line) for line in json_lines.splitlines()]
    live = peak = records[0]["n_logical"]
    meters = 0
    for rec in records[1:]:
        kind = rec["kind"]
        if kind in ("measure", "measure_g"):
            meters += 1
        elif kind == "prepare":
            live += 1
            peak = max(peak, live)
        elif kind == "retire":
            live -= 1
    return meters, peak


# ---------------------------------------------------------------------------
# verify-narrow: the `qmarket verify` command in-process, stdout captured


@dataclass(frozen=True)
class VerifyOp:
    path: str
    text: str
    mode: str
    base_seed: int


class VerifyWorkload:
    """`qmarket verify` on each op's circuit file: parse, compile_to_measurements
    and check_equivalence, with the trial records and summary written to stdout."""

    def __init__(self, name: str, ops: list[VerifyOp], trials: int, block: int, tmp_dir: Path):
        self.name = name
        self.ops = ops
        self.trials = trials
        self.block = block
        self.tmp_dir = tmp_dir

    def run(self, op: VerifyOp):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["verify", op.path, "--mode", op.mode, "--trials", str(self.trials),
                             "--tol", repr(VERIFY_TOL), "--seed", str(op.base_seed)])
        return code, buf.getvalue()

    def check(self, op: VerifyOp, out) -> bool:
        code, text = out
        records = [json.loads(line) for line in text.splitlines()]
        fidelities = [r["fidelity"] for r in records if r["record"] == "trial"]
        summary = records[-1]
        return (
            code == 0
            and summary["record"] == "summary"
            and summary["passed"] is True
            and len(fidelities) == self.trials
            and min(fidelities) >= 1.0 - VERIFY_TOL
        )

    def digest(self, out) -> bytes:
        code, text = out
        return _sha(str(code).encode(), text.encode())

    def program_shapes(self) -> list[tuple[int, int]]:
        shapes = []
        for text, mode in dict.fromkeys((op.text, op.mode) for op in self.ops):
            program = compiler.compile_to_measurements(compiler.parse_circuit(text), mode)
            shapes.append(program_shape(program.to_json_lines()))
        return shapes

    def close(self) -> None:
        shutil.rmtree(self.tmp_dir, ignore_errors=True)


_NARROW_GATES = ("h", "t", "cnot", "x", "xp", "xpp")


def _acceptance7_gates(catalogue_seed: int) -> tuple[int, list[str]]:
    """Qubit count and gate names drawn by the strict-universality generator:
    2-4 qubits, 4-8 gates uniform over _NARROW_GATES."""
    rng = np.random.default_rng(catalogue_seed)
    n = int(rng.integers(2, 5))
    names = []
    for _ in range(int(rng.integers(4, 9))):
        gate = _NARROW_GATES[rng.integers(len(_NARROW_GATES))]
        names.append(gate)
        if gate == "cnot":
            rng.choice(n, 2, replace=False)
        else:
            rng.integers(n)
    return n, names


def _circuit_text(rng: np.random.Generator, n: int, names: list[str]) -> str:
    lines = [f"qubits {n}"]
    for name in names:
        if name in ("cnot", "ch"):
            a, b = rng.choice(n, 2, replace=False)
            lines.append(f"{name} {a} {b}")
        else:
            lines.append(f"{name} {int(rng.integers(n))}")
    return "\n".join(lines) + "\n"


# The shapes (qubit count, gate names) of acceptance circuits 7000-7031.  The
# benchmark seed draws each op's qubit targets, gate order, position within
# its block and trial seeds; the shapes stay fixed, so every seed sees the same
# mix of op costs and the figures do not move with the draw of circuit sizes.
_NARROW_SHAPES = tuple(_acceptance7_gates(7000 + i) for i in range(32))
# Shapes at these block positions also carry one `ch` (one strict, one extended).
_NARROW_CH = (2, 5)


def build_verify_narrow(seed: int, tmp_dir: Path) -> VerifyWorkload:
    """Blocks of 8 ops over the 32 shapes in order, four shapes per mode.

    Modes alternate strict/extended starting with strict.  Shape 0 of each
    block stays at position 0, so the warm-up op (op 0) is the same plain
    circuit shape for every seed; the other shapes of a mode are permuted.
    """
    rng = _rng(seed, 1)
    tmp_dir.mkdir(parents=True, exist_ok=True)
    ops = []
    for block in range(32):
        shapes = _NARROW_SHAPES[(block % 4) * 8:(block % 4 + 1) * 8]
        # Shape 2i goes to even position even[i], shape 2i+1 to odd position odd[i].
        even = [0, *(2 * int(k) for k in 1 + rng.permutation(3))]
        odd = [2 * int(k) + 1 for k in rng.permutation(4)]
        slots = sorted(range(8), key=lambda j: (even if j % 2 == 0 else odd)[j // 2])
        for pos, j in enumerate(slots):
            n, names = shapes[j]
            names = [str(g) for g in rng.permutation(names)]
            if j in _NARROW_CH:
                names.insert(int(rng.integers(len(names) + 1)), "ch")
            mode = "strict" if pos % 2 == 0 else "extended"
            text = _circuit_text(rng, n, names)
            path = tmp_dir / f"v{len(ops)}.qc"
            path.write_text(text, encoding="utf-8")
            ops.append(VerifyOp(str(path), text, mode, _draw_seed(rng)))
    return VerifyWorkload("verify-narrow", ops, trials=32, block=8, tmp_dir=tmp_dir)


def ceiling_probe(tmp_dir: Path) -> dict:
    """Compile 15- and 16-qubit circuits, which the parser accepts, and try to
    run one trial of each program.  Reports how many compile but cannot run.

    Every op on these sizes would fail, so no workload times them; this probe
    keeps that defect visible in the output of each verify-narrow run.
    """
    tmp_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for n in (15, 16):
        text = f"qubits {n}\nh 0\ncnot 0 1\n"
        path = tmp_dir / f"ceiling{n}.qc"
        path.write_text(text, encoding="utf-8")
        for mode in ("extended", "strict"):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["compile", str(path), "--mode", mode])
            try:
                circuit = compiler.parse_circuit(text)
                compiler.check_equivalence(circuit, compiler.compile_to_measurements(circuit, mode),
                                           trials=1, tol=VERIFY_TOL)
                runs = True
            except ValueError:
                runs = False
            rows.append({"qubits": n, "mode": mode, "compile_exit": code, "runs": runs})
    return {"record": "ceiling_probe", "programs": rows,
            "unrunnable": sum(1 for r in rows if r["compile_exit"] == 0 and not r["runs"])}


# Reference circuits whose exact program cost every verify-narrow run records.
REFERENCE_CIRCUITS = {
    "bell": "qubits 2\nh 0\ncnot 0 1\n",
    "eight_gate": "qubits 3\nh 0\nt 0\ncnot 0 1\nh 1\nt 2\ncnot 1 2\nh 2\nt 1\n",
    "ch": "qubits 2\nch 0 1\n",
    "ghz14": "qubits 14\nh 0\n" + "".join(f"cnot {i} {i + 1}\n" for i in range(13)),
}

# Strict-mode costs stated by the roadmap baseline; a mismatch is recorded, not fixed.
ROADMAP_STRICT_COSTS = {
    "eight_gate": {"instructions": 95, "meters": 43, "ancillas": 19},
    "ch": {"instructions": 284, "meters": 125},
}


def program_cost(json_lines: str) -> dict:
    """Exact cost of a serialized program: counts, meters by family, peak width."""
    records = [json.loads(line) for line in json_lines.splitlines()]
    header, body = records[0], records[1:]
    meters, peak = program_shape(json_lines)
    families = Counter(r["family"] for r in body if r["kind"] in ("measure", "measure_g"))
    return {
        "instructions": len(body),
        "meters": meters,
        "meters_by_family": dict(sorted(families.items())),
        "ancillas": header["ancillas"],
        "peak_width": peak,
        "t_blocks": header["expansions"].count("sigma_t_tail"),
        "corrects": sum(1 for r in body if r["kind"] == "correct"),
    }


def reference_costs() -> dict:
    rows, mismatches = [], []
    for name, text in REFERENCE_CIRCUITS.items():
        for mode in ("strict", "extended"):
            program = compiler.compile_to_measurements(compiler.parse_circuit(text), mode)
            cost = program_cost(program.to_json_lines())
            rows.append({"circuit": name, "mode": mode, **cost})
            for key, want in ROADMAP_STRICT_COSTS.get(name, {}).items():
                if mode == "strict" and cost[key] != want:
                    mismatches.append({"circuit": name, "field": key, "roadmap": want,
                                       "measured": cost[key]})
    return {"record": "program_costs", "programs": rows, "roadmap_mismatches": mismatches}


# ---------------------------------------------------------------------------
# gadgets: the nine `demo gadgets` kinds, one dense-coding roundtrip, one walk


def _letter_bits(letter: str) -> tuple[int, int]:
    return {"I": (0, 0), "X": (1, 0), "Xp": (0, 1), "Xpp": (1, 1)}[letter]


_GADGET_KINDS = (
    # name, target unitary, qubits, call
    ("sigma_h", "H", 1, lambda st, rng: gadgets.gadget_sigma_h(st, 0, rng)),
    ("sigma_h_swapped", "H", 1, lambda st, rng: gadgets.gadget_sigma_h(st, 0, rng, swapped=True)),
    ("sigma_xx", "I", 1, lambda st, rng: gadgets.gadget_sigma(st, 0, rng, variant="xx")),
    ("sigma_xpxp", "I", 1, lambda st, rng: gadgets.gadget_sigma(st, 0, rng, variant="xpxp")),
    ("sigma_hsandwich", "I", 1, lambda st, rng: gadgets.gadget_sigma(st, 0, rng, variant="hsandwich")),
    ("sigma_t_xprime", "T", 1, lambda st, rng: gadgets.gadget_sigma_t(st, 0, rng, variant="xprime_pair")),
    ("sigma_t_gmeter", "T", 1, lambda st, rng: gadgets.gadget_sigma_t(st, 0, rng, variant="g_meter")),
    ("sigma_g", "G", 1, lambda st, rng: gadgets.gadget_sigma_g(st, 0, rng)),
    ("cnot", "CNOT", 2, lambda st, rng: gadgets.gadget_cnot(st, 0, 1, rng)),
)


@dataclass(frozen=True)
class GadgetOp:
    kind: str  # a _GADGET_KINDS name, "encode_decode" or "walk"
    rng_seed: int
    state: StateVector | None = None
    bits: tuple[int, int] | None = None


class GadgetsWorkload:
    """A fixed cycle of eleven ops repeated 64 times with fresh seeded inputs."""

    name = "gadgets"

    def __init__(self, seed: int):
        rng = _rng(seed, 4)
        self.ops = []
        for _round in range(64):
            for kind, _target, n, _call in _GADGET_KINDS:
                vec = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
                state = StateVector(n, vec / np.linalg.norm(vec))
                self.ops.append(GadgetOp(kind, _draw_seed(rng), state=state))
            bits = (int(rng.integers(2)), int(rng.integers(2)))
            self.ops.append(GadgetOp("encode_decode", _draw_seed(rng), bits=bits))
            self.ops.append(GadgetOp("walk", _draw_seed(rng)))
        self.block = len(_GADGET_KINDS) + 2
        self._calls = {kind: (named_gate(target), call) for kind, target, _n, call in _GADGET_KINDS}

    def run(self, op: GadgetOp):
        rng = np.random.default_rng(op.rng_seed)
        if op.kind == "encode_decode":
            return densecoding.encode_decode(op.bits, rng)
        if op.kind == "walk":
            return pauliframe.random_walk_cleanup("I", "X", rng)
        return self._calls[op.kind][1](op.state, rng)

    def check(self, op: GadgetOp, out) -> bool:
        if op.kind == "encode_decode":
            decoded, _trace = out
            return tuple(decoded) == op.bits
        if op.kind == "walk":
            product = (0, 0)
            for label in out.labels:
                bx, bz = _letter_bits(label)
                product = (product[0] ^ bx, product[1] ^ bz)
            return (out.terminal == "X" and out.steps == len(out.labels)
                    and product == _letter_bits("X"))
        # post == byproduct . U . input up to global phase, with dense matrices.
        unitary = self._calls[op.kind][0]
        if out.post_state.n_qubits != op.state.n_qubits:
            return False
        reference = out.byproduct.to_matrix() @ unitary @ op.state.amplitudes
        overlap = abs(np.vdot(out.post_state.amplitudes, reference))
        return bool(overlap >= 1.0 - GADGET_TOL)

    def digest(self, out) -> bytes:
        if isinstance(out, tuple):  # encode_decode
            decoded, trace = out
            return _sha(repr((tuple(decoded), trace["outcome_a"], trace["outcome_b"])).encode())
        if hasattr(out, "labels"):  # walk
            return _sha(repr(out.labels).encode())
        return _sha(out.post_state.amplitudes.tobytes(), repr(out.eigenvalues).encode(),
                    str(out.byproduct).encode())

    def program_shapes(self) -> list[tuple[int, int]]:
        """(meters, peak wires) per op kind of one cycle.

        A gadget appends one ancilla to its input, the dense-coding roundtrip
        measures two meters on its two wires, and the walk is classical.
        """
        shapes = []
        for op in self.ops[: self.block]:
            out = self.run(op)
            if op.kind == "encode_decode":
                _decoded, trace = out
                shapes.append((sum(1 for key in trace if key.startswith("outcome_")),
                               trace["encoded"].n_qubits))
            elif op.kind == "walk":
                shapes.append((0, 0))
            else:
                shapes.append((len(out.outcomes), op.state.n_qubits + 1))
        return shapes

    def close(self) -> None:
        pass


def build(name: str, seed: int, tmp_dir: Path):
    if name == "verify-narrow":
        return build_verify_narrow(seed, tmp_dir)
    if name == "gadgets":
        return GadgetsWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")
