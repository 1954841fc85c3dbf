"""Compile small unitary circuits into measurement-only programs and run them.

Circuit text format (line based):

    qubits N          # first significant line
    h 0               # then one op per line: gate name + qubit indices
    cnot 0 1          # gates: h t cnot ch x xp xpp g
    # comments start with '#'; blank lines are ignored

Lowering replaces every gate by a gadget block: a fresh |0> ancilla, a fixed
meter sequence, a retire step that drops the consumed wire (relabeling the
surviving wire back to its logical slot), and a feedforward rule that folds
the outcome-dependent byproduct into the Pauli frame.  Pauli gates never
measure anything; they are pure frame updates.  T is non-Clifford, so its
block first discharges the frame's demand (X') component on the wire with a
classically-controlled correction, then runs the {X, XxX', G} tail.

Primitive meter sets:
    extended: single-qubit X, X', X'', G and any two-qubit conjugated parity
    strict:   single-qubit X, single-qubit G, and the XxX' pair only; X'
              meters are expanded through the derived construction
              (X on a fresh ancilla, then XxX' on the pair).

Program serialization is JSON-lines, one instruction per line; field names
are documented in the README.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .algebra import PauliString, named_gate, pauli_mul
from .gadgets import GADGETS
from .pauliframe import PauliFrame, frame_absorb_right, frame_update, push_through
from .statevec import (
    MAX_QUBITS,
    StateVector,
    append_qubit,
    apply_gate,
    apply_pauli,
    fidelity,
    measure_hermitian,
    measure_pauli,
    permute_qubits,
    random_state,
    remove_qubit,
)

Wire = int | str  # logical index or ancilla token "aN"

PARSEABLE_GATES = {"h", "t", "cnot", "ch", "x", "xp", "xpp", "g"}
_GATE_ARITY = {"h": 1, "t": 1, "x": 1, "xp": 1, "xpp": 1, "g": 1, "i": 1, "cnot": 2, "ch": 2}
_GATE_NAMES = {
    "h": "H", "t": "T", "cnot": "CNOT", "ch": "CH",
    "x": "X", "xp": "Xp", "xpp": "Xpp", "g": "G", "i": "I",
}
COMPILABLE_GATES = {"h", "t", "cnot", "ch", "x", "xp", "xpp", "i"}

# Time-ordered expansion of controlled-H into {T, H, CNOT}; uses
# CH = (S+ H T+) CX (T H S) with S = T^2, T+ = T^7, S+ = T^6.
_CH_GATE_SEQUENCE = ["t", "t", "h", "t", "cnot", "t", "t", "t", "t", "t", "t", "t", "h",
                     "t", "t", "t", "t", "t", "t"]


class ParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class CompileError(ValueError):
    pass


class ProgramError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Circuit IR


@dataclass(frozen=True)
class GateOp:
    name: str  # lowercase mnemonic
    targets: tuple[int, ...]


@dataclass(frozen=True)
class MeasureOp:
    observable: PauliString


@dataclass(frozen=True)
class PrepareOp:
    qubit: int
    bit: int


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    ops: tuple


def parse_circuit(text: str) -> Circuit:
    """Parse the line format above; errors carry the offending line number."""
    n_qubits = None
    ops: list[GateOp] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if n_qubits is None:
            if parts[0] != "qubits" or len(parts) != 2:
                raise ParseError("expected header 'qubits N'", line_no)
            try:
                n_qubits = int(parts[1])
            except ValueError:
                raise ParseError(f"bad qubit count {parts[1]!r}", line_no) from None
            if n_qubits < 1 or n_qubits > 16:
                raise ParseError(f"qubit count {n_qubits} out of range 1..16", line_no)
            continue
        name = parts[0]
        if name not in PARSEABLE_GATES:
            raise ParseError(f"unknown gate {name!r}", line_no)
        try:
            targets = tuple(int(p) for p in parts[1:])
        except ValueError:
            raise ParseError(f"bad qubit index in {line!r}", line_no) from None
        if len(targets) != _GATE_ARITY[name]:
            raise ParseError(
                f"{name} takes {_GATE_ARITY[name]} qubit(s), got {len(targets)}", line_no
            )
        if len(set(targets)) != len(targets):
            raise ParseError(f"duplicate qubit in {line!r}", line_no)
        if any(t < 0 or t >= n_qubits for t in targets):
            raise ParseError(f"qubit index out of range in {line!r}", line_no)
        ops.append(GateOp(name, targets))
    if n_qubits is None:
        raise ParseError("empty circuit: missing 'qubits N' header", 1)
    return Circuit(n_qubits, tuple(ops))


def simulate_circuit(
    circuit: Circuit,
    input_state: StateVector | None = None,
    rng: np.random.Generator | None = None,
):
    """Direct state-vector simulation; returns (state, measurement outcomes)."""
    from .statevec import new_basis_state

    state = input_state or new_basis_state(circuit.n_qubits, "0" * circuit.n_qubits)
    if state.n_qubits != circuit.n_qubits:
        raise ValueError("input state size does not match circuit")
    outcomes = []
    for op in circuit.ops:
        if isinstance(op, GateOp):
            state = apply_gate(state, named_gate(_GATE_NAMES[op.name]), list(op.targets))
        elif isinstance(op, MeasureOp):
            outcome, state = measure_pauli(state, op.observable, rng)
            outcomes.append(outcome)
        elif isinstance(op, PrepareOp):
            outcome, state = measure_pauli(
                state, PauliString.single(state.n_qubits, op.qubit, "Xp"), rng
            )
            measured_bit = (1 - outcome.eigenvalue) // 2
            if measured_bit != op.bit:
                state = apply_gate(state, named_gate("X"), [op.qubit])
        else:
            raise ValueError(f"unknown circuit op {op!r}")
    return state, outcomes


# ---------------------------------------------------------------------------
# Measurement-program IR


@dataclass(frozen=True)
class Prepare:
    wire: str  # ancilla token; always prepared |0>


@dataclass(frozen=True)
class MeasurePauliInstr:
    letters: tuple[str, ...]
    wires: tuple[Wire, ...]
    register: str
    family: str


@dataclass(frozen=True)
class MeasureGInstr:
    wire: Wire
    register: str
    family: str = "G"


@dataclass(frozen=True)
class Correct:
    """Classically-controlled discharge of one frame component on a wire.

    component "x" applies X when the frame letter has an X factor;
    component "z" applies X' when it has an X' factor.  Needed only ahead
    of T blocks, whose target does not normalize the full Pauli group.
    """

    wire: int
    component: str  # "x" or "z"


@dataclass(frozen=True)
class Retire:
    """Drop a consumed wire (it is disentangled, in a known meter eigenstate).

    `promote` relabels the named ancilla into this wire's logical slot.
    `residue_basis`/`residue_registers` identify the eigenstate the wire was
    left in: the eigenvalue is the product of the named registers.
    """

    wire: Wire
    promote: str | None
    residue_basis: str  # "Xp", "X", or "G"
    residue_registers: tuple[str, ...]


@dataclass(frozen=True)
class ByproductTerm:
    letter: str
    wire: int
    registers: tuple[str, ...]  # exponent bit = XOR of b(values); empty = always


@dataclass(frozen=True)
class Feedforward:
    push: tuple[str, tuple[int, ...]] | None  # Clifford conjugation of the frame
    byproduct: tuple[ByproductTerm, ...]


Instruction = Prepare | MeasurePauliInstr | MeasureGInstr | Correct | Retire | Feedforward


@dataclass(frozen=True)
class MeasurementProgram:
    n_logical: int
    instructions: tuple[Instruction, ...]
    primitive_set: str  # "extended" or "strict"
    expansions: tuple[str, ...]

    @property
    def measurements(self) -> list[Instruction]:
        return [
            ins
            for ins in self.instructions
            if isinstance(ins, (MeasurePauliInstr, MeasureGInstr))
        ]

    @property
    def ancilla_count(self) -> int:
        return sum(1 for ins in self.instructions if isinstance(ins, Prepare))

    def validate_structure(self) -> None:
        """Enforce the primitive meter set for this program's mode."""
        for ins in self.measurements:
            if isinstance(ins, MeasureGInstr):
                continue
            if self.primitive_set == "strict":
                if ins.letters not in (("X",), ("X", "Xp")):
                    raise CompileError(
                        f"strict program measures {ins.letters}, outside {{X, G, XxX'}}"
                    )
            else:
                if not all(letter in ("X", "Xp", "Xpp") for letter in ins.letters):
                    raise CompileError(f"bad extended meter {ins.letters}")
                if len(ins.letters) > 2:
                    raise CompileError("meters act on at most two qubits")

    def to_json_lines(self) -> str:
        lines = [
            json.dumps(
                {
                    "record": "program",
                    "n_logical": self.n_logical,
                    "primitive_set": self.primitive_set,
                    "ancillas": self.ancilla_count,
                    "expansions": list(self.expansions),
                },
                sort_keys=True,
            )
        ]
        for ins in self.instructions:
            lines.append(json.dumps(_instruction_record(ins), sort_keys=True))
        return "\n".join(lines) + "\n"


def _instruction_record(ins: Instruction) -> dict:
    if isinstance(ins, Prepare):
        return {"kind": "prepare", "wire": ins.wire, "state": "0"}
    if isinstance(ins, MeasurePauliInstr):
        return {
            "kind": "measure",
            "letters": list(ins.letters),
            "wires": list(ins.wires),
            "register": ins.register,
            "family": ins.family,
        }
    if isinstance(ins, MeasureGInstr):
        return {"kind": "measure_g", "wire": ins.wire, "register": ins.register,
                "family": ins.family}
    if isinstance(ins, Correct):
        return {"kind": "correct", "wire": ins.wire, "component": ins.component}
    if isinstance(ins, Retire):
        return {
            "kind": "retire",
            "wire": ins.wire,
            "promote": ins.promote,
            "residue_basis": ins.residue_basis,
            "residue_registers": list(ins.residue_registers),
        }
    if isinstance(ins, Feedforward):
        return {
            "kind": "feedforward",
            "push": None if ins.push is None else {"gate": ins.push[0], "wires": list(ins.push[1])},
            "byproduct": [
                {"letter": t.letter, "wire": t.wire, "registers": list(t.registers)}
                for t in ins.byproduct
            ],
        }
    raise TypeError(f"unknown instruction {ins!r}")


# ---------------------------------------------------------------------------
# Lowering


class _Builder:
    MAX_DEPTH = 3

    def __init__(self, n_logical: int, mode: str):
        self.n_logical = n_logical
        self.mode = mode
        self.instructions: list[Instruction] = []
        self.expansions: list[str] = []
        self._ancillas = 0
        self._registers = 0
        self._depth = 0

    def prepare(self) -> str:
        token = f"a{self._ancillas}"
        self._ancillas += 1
        self.instructions.append(Prepare(token))
        return token

    def measure(self, letters: tuple[str, ...], wires: tuple[Wire, ...]) -> str:
        reg = f"m{self._registers}"
        self._registers += 1
        if letters == ("G",):
            self.instructions.append(MeasureGInstr(wires[0], reg))
        else:
            family = "x".join(letters) if len(letters) > 1 else letters[0]
            self.instructions.append(MeasurePauliInstr(letters, wires, reg, family))
        return reg

    def note(self, tag: str) -> None:
        self.expansions.append(tag)

    def enter(self):
        self._depth += 1
        if self._depth > self.MAX_DEPTH:
            raise RuntimeError(f"expansion depth exceeded bound {self.MAX_DEPTH}")

    def leave(self):
        self._depth -= 1


def _emit_xprime_meter(b: _Builder, wire: Wire) -> list[str]:
    """Measure X' on `wire`; returns the registers whose product is the outcome."""
    if b.mode == "extended":
        return [b.measure(("Xp",), (wire,))]
    b.enter()
    b.note("derived_xprime")
    anc = b.prepare()
    r_j = b.measure(("X",), (anc,))
    r_k = b.measure(("X", "Xp"), (anc, wire))
    b.instructions.append(Retire(anc, None, "X", (r_j,)))
    b.leave()
    return [r_j, r_k]


# Source gate -> (GADGETS kind, expansion tag, Clifford pushed through the frame).
_LOWERINGS = {
    "h": ("sigma_h", "sigma_h", "H"),
    "t": ("sigma_t_gmeter", "sigma_t_tail", "H"),
    "cnot": ("cnot", "cnot", "CNOT"),
}


def _emit_gadget(b: _Builder, gate: str, targets: tuple[int, ...]) -> None:
    """Emit the gadget block for `gate`: prepare, meters, retire, feedforward.

    A gadget with a pre-gate gets it as its own block, followed by a frame
    discharge.  For T that block is an H transfer and the tail meters then
    implement T.H, so the composite is T; the prior frame's X' component must
    be cleared first because conjugating it through the block would drag a
    non-Pauli S factor out of T.
    """
    kind, tag, push = _LOWERINGS[gate]
    spec = GADGETS[kind]
    wires: dict[str, Wire] = dict(zip(spec.roles, targets))
    b.enter()
    if spec.pre is not None:
        _emit_gadget(b, spec.pre.lower(), (wires["d"],))
        b.instructions.append(Correct(wires["d"], "z"))
    b.note(tag)
    wires["a"] = b.prepare()
    regs: list[list[str]] = []
    for letters, roles in spec.meters:
        on = tuple(wires[role] for role in roles)
        if letters == ("Xp",):
            regs.append(_emit_xprime_meter(b, on[0]))
        else:
            regs.append([b.measure(letters, on)])
    promote = None if spec.retired == "a" else wires["a"]
    b.instructions.append(
        Retire(wires[spec.retired], promote, spec.meters[-1][0][0], tuple(regs[-1]))
    )
    terms = tuple(
        ByproductTerm(letter, wires[role], tuple(r for i in indices for r in regs[i]))
        for letter, role, indices in spec.byproduct
    )
    b.instructions.append(Feedforward(push=(push, targets), byproduct=terms))
    b.leave()


def compile_to_measurements(circuit: Circuit, mode: str = "extended") -> MeasurementProgram:
    """Lower a {H, T, CNOT, Pauli, CH} circuit to a measurement-only program."""
    if mode not in ("extended", "strict"):
        raise ValueError(f"mode must be 'extended' or 'strict', got {mode!r}")
    b = _Builder(circuit.n_qubits, mode)
    for op in circuit.ops:
        if not isinstance(op, GateOp):
            raise CompileError("only unitary gate circuits are compilable")
        if op.name not in COMPILABLE_GATES:
            raise CompileError(f"gate {op.name!r} is not in the compilable set")
        if op.name in _LOWERINGS:
            _emit_gadget(b, op.name, op.targets)
        elif op.name == "ch":
            for gate in _CH_GATE_SEQUENCE:
                _emit_gadget(b, gate, op.targets if gate == "cnot" else op.targets[1:])
        elif op.name in ("x", "xp", "xpp"):
            b.instructions.append(
                Feedforward(None, (ByproductTerm(_GATE_NAMES[op.name], op.targets[0], ()),))
            )
        # "i": nothing to emit
    live = peak = circuit.n_qubits
    for ins in b.instructions:
        if isinstance(ins, Prepare):
            live += 1
            peak = max(peak, live)
        elif isinstance(ins, Retire):
            live -= 1
    if peak > MAX_QUBITS:
        raise CompileError(
            f"program needs {peak} live wires, above the simulator ceiling of {MAX_QUBITS}"
        )
    program = MeasurementProgram(
        circuit.n_qubits, tuple(b.instructions), mode, tuple(b.expansions)
    )
    program.validate_structure()
    return program


# ---------------------------------------------------------------------------
# Executor


@dataclass(frozen=True)
class RunRecord:
    final_state: StateVector
    frame: PauliFrame
    outcomes: dict[str, int]
    seed: int
    # one (wire, eigenvalue bit) entry per retired wire, in retirement order
    ancilla_residues: tuple[tuple[str, str], ...] = ()


_RESIDUE_EIGENVECTORS = {
    ("Xp", 0): np.array([1, 0], dtype=complex),
    ("Xp", 1): np.array([0, 1], dtype=complex),
    ("X", 0): np.array([1, 1], dtype=complex) / np.sqrt(2),
    ("X", 1): np.array([1, -1], dtype=complex) / np.sqrt(2),
}
_g_vals, _g_vecs = np.linalg.eigh(named_gate("G"))
_RESIDUE_EIGENVECTORS[("G", 0)] = _g_vecs[:, int(np.argmax(_g_vals))]
_RESIDUE_EIGENVECTORS[("G", 1)] = _g_vecs[:, int(np.argmin(_g_vals))]


def execute(program: MeasurementProgram, input_state: StateVector, seed: int) -> RunRecord:
    """Run a measurement program, threading one seeded generator throughout.

    The Pauli frame is carried classically; the RunRecord invariant is that
    applying the frame to final_state reproduces the source circuit's output
    up to a global phase.
    """
    if input_state.n_qubits != program.n_logical:
        raise ValueError("input state size does not match program")
    rng = np.random.default_rng(seed)
    state = input_state
    positions: dict[Wire, int] = {i: i for i in range(program.n_logical)}
    registers: dict[str, int] = {}
    residues: list[tuple[str, str]] = []
    frame = PauliFrame.identity(program.n_logical)

    def reg_values(names) -> int:
        prod = 1
        for name in names:
            if name not in registers:
                raise ProgramError(f"register {name!r} referenced before set")
            prod *= registers[name]
        return prod

    for ins in program.instructions:
        if isinstance(ins, Prepare):
            state = append_qubit(state, "0")
            positions[ins.wire] = state.n_qubits - 1
        elif isinstance(ins, MeasurePauliInstr):
            obs = PauliString.identity(state.n_qubits)
            for letter, wire in zip(ins.letters, ins.wires):
                obs = pauli_mul(obs, PauliString.single(state.n_qubits, positions[wire], letter))
            outcome, state = measure_pauli(state, obs, rng)
            registers[ins.register] = outcome.eigenvalue
        elif isinstance(ins, MeasureGInstr):
            outcome, state = measure_hermitian(
                state, named_gate("G"), [positions[ins.wire]], rng
            )
            registers[ins.register] = outcome.eigenvalue
        elif isinstance(ins, Correct):
            letter = frame.letter_on(ins.wire)
            has = letter in (("X", "Xpp") if ins.component == "x" else ("Xp", "Xpp"))
            if has:
                pauli_name = "X" if ins.component == "x" else "Xp"
                state = apply_gate(state, named_gate(pauli_name), [positions[ins.wire]])
                frame = frame_absorb_right(
                    frame, PauliString.single(program.n_logical, ins.wire, pauli_name)
                )
        elif isinstance(ins, Retire):
            eig = reg_values(ins.residue_registers)
            bit = (1 - eig) // 2
            pos = positions.pop(ins.wire)
            state, removed = remove_qubit(state, pos)
            expected = _RESIDUE_EIGENVECTORS[(ins.residue_basis, bit)]
            if abs(np.vdot(expected, removed)) < 1.0 - 1e-8:
                raise ProgramError(
                    f"retired wire {ins.wire} not in the recorded {ins.residue_basis} eigenstate"
                )
            residues.append((str(ins.wire), format(bit, "b")))
            for wire, p in positions.items():
                if p > pos:
                    positions[wire] = p - 1
            if ins.promote is not None:
                if not isinstance(ins.wire, int):
                    raise ProgramError("can only promote into a logical slot")
                positions[ins.wire] = positions.pop(ins.promote)
        elif isinstance(ins, Feedforward):
            if ins.push is not None:
                frame = push_through(frame, ins.push[0], list(ins.push[1]))
            for term in ins.byproduct:
                if term.registers:
                    apply_bit = (1 - reg_values(term.registers)) // 2
                else:
                    apply_bit = 1
                if apply_bit:
                    frame = frame_update(
                        frame, PauliString.single(program.n_logical, term.wire, term.letter)
                    )
        else:
            raise ProgramError(f"unknown instruction {ins!r}")

    if state.n_qubits != program.n_logical:
        raise ProgramError("program finished with ancillas still attached")
    # Promotions can leave the physical wire order permuted; restore logical order.
    order = [positions[i] for i in range(program.n_logical)]
    if order != list(range(program.n_logical)):
        state = permute_qubits(state, order)
    return RunRecord(state, frame, registers, seed, tuple(residues))


# ---------------------------------------------------------------------------
# Equivalence checking


@dataclass(frozen=True)
class EquivalenceReport:
    trials: int
    tol: float
    fidelities: tuple[float, ...]
    min_fidelity: float
    passed: bool
    failing_trials: tuple[int, ...]
    outcome_counts: dict[str, dict[str, int]]


def trial_seed(base_seed: int, trial: int, stream: int) -> int:
    """Stable per-trial seed derivation (order-insensitive across trials)."""
    return int(np.random.SeedSequence((base_seed, trial, stream)).generate_state(1)[0])


def check_equivalence(
    circuit: Circuit,
    program: MeasurementProgram,
    trials: int = 200,
    tol: float = 1e-10,
    base_seed: int = 0,
) -> EquivalenceReport:
    """Compare program execution against direct circuit simulation on random
    inputs: fidelity |<reference | frame . final>| per trial.
    """
    if circuit.n_qubits != program.n_logical:
        raise ValueError("circuit and program qubit counts differ")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 < tol < 1:
        raise ValueError(f"tol must be in (0, 1), got {tol}")
    fidelities = []
    failing = []
    counts: dict[str, dict[str, int]] = {}
    for t in range(trials):
        input_state = random_state(
            circuit.n_qubits, np.random.default_rng(trial_seed(base_seed, t, 0))
        )
        record = execute(program, input_state, trial_seed(base_seed, t, 1))
        reference, _ = simulate_circuit(circuit, input_state)
        corrected = apply_pauli(record.final_state, record.frame.element)
        f = fidelity(reference, corrected)
        fidelities.append(f)
        if f < 1.0 - tol:
            failing.append(t)
        for reg, value in record.outcomes.items():
            slot = counts.setdefault(reg, {"+1": 0, "-1": 0})
            slot["+1" if value == 1 else "-1"] += 1
    return EquivalenceReport(
        trials=trials,
        tol=tol,
        fidelities=tuple(fidelities),
        min_fidelity=min(fidelities),
        passed=not failing,
        failing_trials=tuple(failing),
        outcome_counts=counts,
    )
