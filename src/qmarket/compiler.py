"""Compile small unitary circuits into measurement-only programs and run them.

Circuit text format (line based):

    qubits N          # first significant line
    h 0               # then one op per line: gate name + qubit indices
    cnot 0 1          # gates: h t cnot ch x xp xpp g i
    # comments start with '#'; blank lines are ignored

Each gate's arity, reference matrix and lowering are one row of
`_SOURCE_GATES`, read by the parser, the reference simulation and `_lower`.
Lowering replaces H, T and CNOT by a gadget block: a fresh |0> ancilla, a
fixed meter sequence, a retire step that drops the consumed wire (relabeling
the surviving wire back to its logical slot), and a feedforward rule that
folds the outcome-dependent byproduct into the Pauli frame.  CH and I are
sequences of those gates; Pauli gates are pure frame updates.  T is non-Clifford, so its
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
import re
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

from .algebra import (
    _CODES,
    _PHASE_VALUES,
    _check_conjugator,
    _frame_word,
    _multiply,
    _push,
    PAULI_LETTERS,
    PauliString,
    named_gate,
)
from .gadgets import _SPECS, _XPRIME_KIND, GadgetSpec
from .pauliframe import PauliFrame
from .seeding import _words, generators, trial_seeds
from .statevec import (
    MAX_QUBITS,
    ZERO_BRANCH,
    StateVector,
    _act,
    _apply_matrix,
    _normalized_rows,
    _pauli_slices,
    _random_rows,
    apply_gate,
    measure_pauli,
    new_basis_state,
)

Wire = int | str  # logical index or ancilla token "aN"


class _Block(NamedTuple):
    kind: str  # the `_SPECS` row
    tag: str  # its `expansions` entry
    push: str  # the Clifford its feedforward conjugates the frame through


class _SourceGate(NamedTuple):
    arity: int
    matrix: str  # the `named_gate` the reference simulation applies
    # a block, a Pauli frame letter, a sequence of other source gates, or
    # None for a gate that simulates but does not compile
    lowering: _Block | str | tuple[str, ...] | None


# Time-ordered expansion of controlled-H into {T, H, CNOT}; uses
# CH = (S+ H T+) CX (T H S) with S = T^2, T+ = T^7, S+ = T^6.
_CH_GATE_SEQUENCE = ("t", "t", "h", "t", "cnot", "t", "t", "t", "t", "t", "t", "t", "h",
                     "t", "t", "t", "t", "t", "t")

# The one map from a circuit gate name to its arity, matrix and lowering.
_SOURCE_GATES = {
    "h": _SourceGate(1, "H", _Block("sigma_h", "sigma_h", "H")),
    "t": _SourceGate(1, "T", _Block("sigma_t_gmeter", "sigma_t_tail", "H")),
    "cnot": _SourceGate(2, "CNOT", _Block("cnot", "cnot", "CNOT")),
    "ch": _SourceGate(2, "CH", _CH_GATE_SEQUENCE),
    "x": _SourceGate(1, "X", "X"),
    "xp": _SourceGate(1, "Xp", "Xp"),
    "xpp": _SourceGate(1, "Xpp", "Xpp"),
    "i": _SourceGate(1, "I", ()),
    "g": _SourceGate(1, "G", None),
}
# A qubit count or index: ASCII digits, with a sign only to name a negative.
_INTEGER = re.compile(r"-?[0-9]+").fullmatch


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
            if not _INTEGER(parts[1]):
                raise ParseError(f"bad qubit count {parts[1]!r}", line_no)
            n_qubits = int(parts[1])
            if n_qubits < 1 or n_qubits > MAX_QUBITS:
                raise ParseError(f"qubit count {n_qubits} out of range 1..{MAX_QUBITS}", line_no)
            continue
        name = parts[0]
        if name not in _SOURCE_GATES:
            raise ParseError(f"unknown gate {name!r}", line_no)
        if not all(map(_INTEGER, parts[1:])):
            raise ParseError(f"bad qubit index in {line!r}", line_no)
        targets = tuple(int(p) for p in parts[1:])
        _check_targets(name, targets, n_qubits, line, partial(ParseError, line=line_no))
        ops.append(GateOp(name, targets))
    if n_qubits is None:
        raise ParseError("empty circuit: missing 'qubits N' header", 1)
    return Circuit(n_qubits, tuple(ops))


def _check_targets(name: str, targets, n_qubits: int, where, error) -> None:
    """Raise `error(message)` unless `targets` are as many distinct wires of
    `n_qubits` as the `_SOURCE_GATES` row `name` takes; the message shows the
    repr of `where`, the offending line or op."""
    arity = _SOURCE_GATES[name].arity
    if len(targets) != arity:
        raise error(f"{name} takes {arity} qubit(s), got {len(targets)}")
    if len(set(targets)) != len(targets):
        raise error(f"duplicate qubit in {where!r}")
    if any(t < 0 or t >= n_qubits for t in targets):
        raise error(f"qubit index out of range in {where!r}")


def _check_gate_ops(circuit: Circuit) -> None:
    """The parser's checks, as ValueError, on every gate op of a circuit that
    may have been built without it."""
    for op in circuit.ops:
        if isinstance(op, GateOp):
            if op.name not in _SOURCE_GATES:
                raise ValueError(f"unknown gate {op.name!r}")
            _check_targets(op.name, op.targets, circuit.n_qubits, op, ValueError)


def simulate_circuit(
    circuit: Circuit,
    input_state: StateVector | None = None,
    rng: np.random.Generator | None = None,
):
    """Direct state-vector simulation; returns (state, measurement outcomes)."""
    state = input_state or new_basis_state(circuit.n_qubits, "0" * circuit.n_qubits)
    if state.n_qubits != circuit.n_qubits:
        raise ValueError("input state size does not match circuit")
    _check_gate_ops(circuit)
    amplitudes, outcomes = _simulate(circuit, state.amplitudes[None], rng)
    return StateVector(circuit.n_qubits, amplitudes[0]), outcomes


def _simulate(circuit: Circuit, stack: np.ndarray, rng: np.random.Generator | None = None):
    """Run `circuit` on every row of a (B, 2^n) stack of inputs.

    Gates act on all rows through statevec's B-invariant contraction, so a row
    comes out the same whatever B is.  Measurement and preparation ops sample
    one outcome stream and need B = 1.  Returns ((B, 2^n) states, outcomes).
    """
    n = circuit.n_qubits
    psi = stack.reshape((stack.shape[0],) + (2,) * n)
    outcomes = []
    for op in circuit.ops:
        if isinstance(op, GateOp):
            psi = _apply_matrix(psi, named_gate(_SOURCE_GATES[op.name].matrix), list(op.targets))
            continue
        if psi.shape[0] != 1:
            raise ValueError("only gate ops run on a batch of input states")
        state = StateVector(n, psi.reshape(-1))
        if isinstance(op, MeasureOp):
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
        psi = state.tensor()[None]
    return psi.reshape(stack.shape[0], -1), outcomes


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

    @cached_property
    def _planned(self) -> _Plan:
        """The program's one analysis, `_plan`, made on first use and kept.
        A frozen dataclass without slots still has the __dict__ that
        cached_property writes to."""
        return _plan(self)

    def validate_structure(self) -> None:
        """Check the program, its mode's primitive meter set included: plan it."""
        self._planned

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


_RECORD_KINDS = {
    Prepare: "prepare", MeasurePauliInstr: "measure", MeasureGInstr: "measure_g",
    Correct: "correct", Retire: "retire", Feedforward: "feedforward",
}


def _instruction_record(ins: Instruction) -> dict:
    """An instruction's fields plus its kind, with push and terms as fields."""
    if type(ins) not in _RECORD_KINDS:
        raise TypeError(f"unknown instruction {ins!r}")
    record = {"kind": _RECORD_KINDS[type(ins)], **vars(ins)}
    if isinstance(ins, Prepare):
        record["state"] = "0"
    elif isinstance(ins, Feedforward):
        record["push"] = None if ins.push is None else {"gate": ins.push[0], "wires": ins.push[1]}
        record["byproduct"] = [vars(term) for term in ins.byproduct]
    return record


# ---------------------------------------------------------------------------
# Lowering


class _Builder:
    def __init__(self, mode: str):
        self.mode = mode
        self.instructions: list[Instruction] = []
        self.expansions: list[str] = []
        self._ancillas = 0
        self._registers = 0

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


def _lower(b: _Builder, name: str, targets: tuple[int, ...]) -> None:
    """Emit source gate `name` on `targets` as its `_SOURCE_GATES` row says:
    a block and its feedforward, a frame letter, or each gate of a sequence
    on the last targets that gate takes."""
    row = _SOURCE_GATES.get(name)
    if row is None or row.lowering is None:
        raise CompileError(f"gate {name!r} is not in the compilable set")
    lowering = row.lowering
    if isinstance(lowering, _Block):
        spec = _SPECS[lowering.kind]
        wires: dict[str, Wire] = dict(zip(spec.roles, targets))
        regs = _emit_block(b, spec, lowering.tag, wires)
        terms = tuple(
            ByproductTerm(letter, wires[role], tuple(r for i in indices for r in regs[i]))
            for letter, role, indices in spec.byproduct
        )
        b.instructions.append(Feedforward(push=(lowering.push, targets), byproduct=terms))
    elif isinstance(lowering, str):
        b.instructions.append(Feedforward(None, (ByproductTerm(lowering, targets[0], ()),)))
    else:
        for part in lowering:
            _lower(b, part, targets[-_SOURCE_GATES[part].arity:])


def _emit_block(b: _Builder, spec: GadgetSpec, tag: str, wires: dict[str, Wire]) -> list[list[str]]:
    """Emit `spec`'s block on `wires` (role -> wire) and return each meter's
    registers: a strict X' meter is the derived X' block, with two registers.

    A pre-gate is lowered as its own source gate, followed by a frame
    discharge.  For T that gate is H and the tail meters then implement T.H,
    so the composite is T; the prior frame's X' component must be cleared
    first because conjugating it through the block would drag a non-Pauli S
    factor out of T.
    """
    if spec.pre is not None:
        _lower(b, spec.pre.lower(), (wires["d"],))
        b.instructions.append(Correct(wires["d"], "z"))
    b.expansions.append(tag)
    wires["a"] = b.prepare()
    regs: list[list[str]] = []
    for letters, roles in spec.meters:
        on = tuple(wires[role] for role in roles)
        if letters == ("Xp",) and b.mode == "strict":
            derived = _emit_block(b, _SPECS[_XPRIME_KIND], "derived_xprime", {"d": on[0]})
            regs.append([reg for meter in derived for reg in meter])
        else:
            regs.append([b.measure(letters, on)])
    promote = None if spec.retired == "a" else wires["a"]
    i = spec.residue
    b.instructions.append(Retire(wires[spec.retired], promote, spec.meters[i][0][0], tuple(regs[i])))
    return regs


def compile_to_measurements(circuit: Circuit, mode: str = "extended") -> MeasurementProgram:
    """Lower a circuit of compilable `_SOURCE_GATES` to a measurement-only program."""
    if mode not in ("extended", "strict"):
        raise ValueError(f"mode must be 'extended' or 'strict', got {mode!r}")
    b = _Builder(mode)
    for op in circuit.ops:
        if not isinstance(op, GateOp):
            raise CompileError("only unitary gate circuits are compilable")
        if op.name in _SOURCE_GATES:  # `_lower` rejects any other name
            _check_targets(op.name, op.targets, circuit.n_qubits, op, CompileError)
        _lower(b, op.name, op.targets)
    program = MeasurementProgram(
        circuit.n_qubits, tuple(b.instructions), mode, tuple(b.expansions)
    )
    program.validate_structure()
    return program


# ---------------------------------------------------------------------------
# Executor
#
# One executor runs a batch of trials of a program at once.  Wire positions,
# registers and frame pushes depend only on the program, never on outcomes,
# so `_plan` resolves every wire to a state axis and checks the program once,
# and `_execute` applies each step to a (B, 2, ..., 2) stack of states, one row
# per trial.  Every step treats the rows independently, with the same arithmetic
# whatever B is, so a trial's result does not depend on the batch it ran in.
# `execute` is the batch of one.


@dataclass(frozen=True)
class RunRecord:
    final_state: StateVector
    frame: PauliFrame
    outcomes: dict[str, int]
    seed: int
    # one (wire, eigenvalue bit) entry per retired wire, in retirement order
    ancilla_residues: tuple[tuple[str, str], ...] = ()


_g_vals, _g_vecs = np.linalg.eigh(named_gate("G"))
# residue basis -> (2, 2) array whose row b is the eigenvector of eigenvalue (-1)^b
_RESIDUE_EIGENVECTORS = {
    "Xp": np.eye(2, dtype=complex),
    "X": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "G": np.array([_g_vecs[:, int(np.argmax(_g_vals))], _g_vecs[:, int(np.argmin(_g_vals))]]),
}
# residue basis -> what `_retire` reads of eigenvector e = (e0, e1), indexed
# by the bit: (conj e0, conj e1, |e0|^2, |e1|^2, conj(e0) e1), the same
# elementwise products a per-row computation would form.
_RESIDUE_TERMS = {
    basis: (e[:, 0].conj(), e[:, 1].conj(), abs(e[:, 0]) ** 2, abs(e[:, 1]) ** 2,
            e[:, 0].conj() * e[:, 1])
    for basis, e in _RESIDUE_EIGENVECTORS.items()
}
_G = named_gate("G")


def _act_rows(psi: np.ndarray, axis: int, codes) -> np.ndarray:
    """psi, a (B, 2, ..., 2) stack, with row b's letter codes[b] acting on
    `axis`; rows whose code is 0 (I) keep their amplitudes."""
    rows = (len(codes),) + (1,) * (psi.ndim - 1)
    for code in (1, 2, 3):
        holds = codes == code
        if holds.any():
            acted = _act(psi, *_pauli_slices(psi.ndim, ((axis, PAULI_LETTERS[code]),)))
            psi = np.where(holds.reshape(rows), acted, psi)
    return psi


def _apply_frames(stack: np.ndarray, letters, exponents) -> np.ndarray:
    """Every row's frame applied to its row of a (B, 2, ..., 2) stack.  Each
    row gets what `apply_pauli` does to it alone: per axis in order its
    letter's flip and its X' negation or two X'' multiplies, then the phase
    multiply.  Flips only move values, so every element meets the same IEEE
    operations in the same order."""
    for axis, codes in enumerate(letters.T, start=1):
        stack = _act_rows(stack, axis, codes)
    rows = (len(letters),) + (1,) * (stack.ndim - 1)
    return _PHASE_VALUES[exponents % 4].reshape(rows) * stack


@dataclass(frozen=True)
class _Plan:
    steps: tuple[tuple, ...]  # (operation, operands...); state axes count from 1
    registers: tuple[str, ...]  # register names, in the order first set: one per meter
    peak: int  # most wires live at once
    order: tuple[int, ...]  # final position of each logical wire


def _plan(program: MeasurementProgram) -> _Plan:
    """Resolve every wire of `program` to a state axis and check the program:
    a known mode and its primitive meter set, live wires, registers set once
    and before use, known gates, letters, corrections and residue bases, no
    ancilla left attached at the end, and the simulator ceiling.  This is the
    only pass that checks a program; `MeasurementProgram` keeps its result.
    Pauli actions are resolved to their slicing here, so the steps index the
    state directly."""
    if program.primitive_set not in ("extended", "strict"):
        raise ProgramError(f"unknown primitive set {program.primitive_set!r}")
    n = program.n_logical
    if n < 1:
        raise ProgramError(f"a program needs at least one logical wire, got {n}")
    strict = program.primitive_set == "strict"
    live: list[Wire] = list(range(n))  # live[i] is the wire on state axis 1 + i
    registers: dict[str, int] = {}
    steps: list[tuple] = []
    peak = n

    def at(wire) -> int:
        """The index in `live` of a meter, retire or promote wire: an ancilla
        token, or a logical index as an int, so that True is wire 1.  Any
        other value, such as the float 1.0, is not a wire.  The entry found
        is rewritten in that form, so a retire pops and records that form
        however a prepare spelled the wire."""
        if isinstance(wire, (int, np.integer)):
            wire = int(wire)
        elif not isinstance(wire, str):
            raise ProgramError(f"wire {wire!r} is neither a logical index nor an ancilla token")
        if wire not in live:
            raise ProgramError(f"wire {wire!r} is not live")
        index = live.index(wire)
        live[index] = wire
        return index

    def slots(names) -> tuple[int, ...]:
        try:
            return tuple(registers[name] for name in names)
        except KeyError as missing:
            raise ProgramError(f"register {missing.args[0]!r} referenced before set") from None

    for ins in program.instructions:
        if isinstance(ins, Prepare):
            if ins.wire in live:
                raise ProgramError(f"wire {ins.wire!r} is already live")
            live.append(ins.wire)
            peak = max(peak, len(live))
            steps.append(("prepare",))
        elif isinstance(ins, (MeasurePauliInstr, MeasureGInstr)):
            if isinstance(ins, MeasureGInstr):
                step = ("measure_g", [at(ins.wire)])
            else:
                if strict and ins.letters not in (("X",), ("X", "Xp")):
                    raise CompileError(
                        f"strict program measures {ins.letters}, outside {{X, G, XxX'}}"
                    )
                if not ins.letters or not set(ins.letters) <= {"X", "Xp", "Xpp"}:
                    raise CompileError(f"bad extended meter {ins.letters}")
                if len(ins.letters) > 2:
                    raise CompileError("meters act on at most two qubits")
                if not len(set(ins.wires)) == len(ins.wires) == len(ins.letters):
                    raise ProgramError(f"bad meter {ins.letters} on {ins.wires}")
                placed = tuple((1 + at(w), l) for l, w in zip(ins.letters, ins.wires))
                step = ("measure", *_pauli_slices(1 + len(live), placed))
            if ins.register in registers:
                raise ProgramError(f"register {ins.register!r} set twice")
            registers[ins.register] = len(registers)
            steps.append(step + (registers[ins.register],))
        elif isinstance(ins, Correct):
            if (ins.component not in ("x", "z") or not isinstance(ins.wire, (int, np.integer))
                    or not 0 <= ins.wire < n):
                raise ProgramError(f"bad correct {ins.component!r} on wire {ins.wire!r}")
            # In algebra's x + 2z encoding a letter's code is also its mask:
            # X = 1 is the x bit and X' = 2 the z bit, so the executor tests
            # the frame's component with `&`.
            code = _CODES["X" if ins.component == "x" else "Xp"]
            steps.append(("correct", 1 + at(ins.wire), int(ins.wire), code))
        elif isinstance(ins, Retire):
            if ins.residue_basis not in _RESIDUE_TERMS:
                raise ProgramError(f"unknown residue basis {ins.residue_basis!r}")
            residue = slots(ins.residue_registers)
            if len(live) < 2:
                raise ProgramError("cannot remove the last qubit")
            pos = at(ins.wire)
            # The axis order that brings the retired wire next to the batch axis.
            order = (0, 1 + pos, *(a for a in range(1, 1 + len(live)) if a != 1 + pos))
            retired = live.pop(pos)
            steps.append(("retire", order, str(retired), ins.residue_basis, residue))
            if ins.promote is not None:
                if not isinstance(retired, int):
                    raise ProgramError("can only promote into a logical slot")
                live[at(ins.promote)] = retired
        elif isinstance(ins, Feedforward):
            if ins.push is not None:
                gate, wires = ins.push
                steps.append(("push", gate, tuple(_check_conjugator(gate, list(wires), n))))
            for term in ins.byproduct:
                _check_term(term.wire, term.letter, n)
                code = _CODES[term.letter]
                steps.append(("byproduct", code, int(term.wire), slots(term.registers)))
        else:
            raise ProgramError(f"unknown instruction {ins!r}")
    if peak > MAX_QUBITS:
        raise CompileError(
            f"program needs {peak} live wires, above the simulator ceiling of {MAX_QUBITS}"
        )
    if len(live) > n:
        raise ProgramError("program finished with ancillas still attached")
    if set(live) != set(range(n)):
        raise ProgramError("program finished without all of its logical wires")
    return _Plan(tuple(steps), tuple(registers), peak, tuple(live.index(i) for i in range(n)))


def _check_term(wire, letter: str, n: int) -> None:
    """Reject a byproduct term `PauliString.single(n, wire, letter)` would
    reject, with its exceptions and messages: the wire is an integer and the
    letter a Pauli letter.  The wire must also satisfy 0 <= wire < n; a
    negative one, which a list index would count from the end, is out of
    range too."""
    if not isinstance(wire, (int, np.integer)):
        raise TypeError(f"list indices must be integers or slices, not {type(wire).__name__}")
    if not 0 <= wire < n:
        raise IndexError("list assignment index out of range")
    if letter not in _CODES:
        raise ValueError(f"unknown Pauli letter {letter!r}")


def _run(plan: _Plan, stack: np.ndarray, seeds: Sequence[int]):
    """`_execute` with row b drawing its outcomes from default_rng(seeds[b]):
    `seeding.generators` derives every row's generator in one pass, with the
    same streams."""
    return _execute(plan, stack, generators(seeds))


def _execute(plan: _Plan, stack: np.ndarray, rngs: Sequence[np.random.Generator]):
    """Run a planned program on a (B, 2^n) stack of inputs, row b drawing its
    outcomes from rngs[b].

    Returns the final states in logical wire order (B, 2^n), the frame letters
    (B, n) and phase exponents (B,; not reduced mod 4), one (B,) bool array of
    outcome bits (True for -1) per register, and one (wire, (B,) bits) entry
    per retire.
    """
    batch, n = stack.shape[0], len(plan.order)
    psi = stack.reshape((batch,) + (2,) * n)
    # One uniform per meter and trial, the values `random()` would return one
    # at a time; a row's cursor moves only when its branch is stochastic.
    uniforms = np.array([rng.random(len(plan.registers)) for rng in rngs])
    cursor = np.zeros(batch, dtype=np.intp)
    rows = np.arange(batch)
    bits: list = [None] * len(plan.registers)
    letters = np.zeros((batch, n), dtype=np.intp)
    exponents = np.zeros(batch, dtype=np.intp)
    residues = []

    def parity(registers) -> np.ndarray:
        if not registers:
            return np.zeros(batch, dtype=bool)
        out = bits[registers[0]]
        for slot in registers[1:]:
            out = out ^ bits[slot]
        return out

    for step in plan.steps:
        kind = step[0]
        if kind == "prepare":
            grown = np.zeros(psi.shape + (2,), dtype=complex)
            grown[..., 0] = psi
            psi = grown
        elif kind == "measure" or kind == "measure_g":
            if kind == "measure":
                acted = _act(psi, step[1], step[2])
            else:
                acted = _apply_matrix(psi, _G, step[1])
            # Both projections unhalved, (1 + P) psi and (1 - P) psi.  Halving
            # is exact, so it moves into the weights (/4) and the divisor
            # (2 sqrt(p)): the same floats as halving first, in fewer passes.
            both = np.empty((2,) + psi.shape, dtype=complex)
            np.add(psi, acted, out=both[0])
            np.subtract(psi, acted, out=both[1])
            both = both.reshape(2, batch, -1)
            weights = _row_weights(both.reshape(2 * batch, -1)).reshape(2, batch) / 4
            zero_plus, zero_minus = weights < ZERO_BRANCH
            minus = zero_plus | ~(zero_minus | (uniforms[rows, cursor] < weights[0]))
            cursor += ~(zero_plus | zero_minus)
            chosen = minus.astype(np.intp)
            branch = both[chosen, rows] / (2 * np.sqrt(weights[chosen, rows]))[:, None]
            psi = branch.reshape(psi.shape)
            bits[step[-1]] = minus
        elif kind == "correct":
            _, axis, wire, code = step
            mask = (letters[:, wire] & code) != 0
            if mask.any():
                psi = _act_rows(psi, axis, mask * code)
                _multiply(letters, exponents, wire, code, mask, left=False)
        elif kind == "retire":
            _, order, wire, basis, registers = step
            bit = parity(registers)
            psi = _retire(psi, order, basis, bit.astype(np.intp), wire)
            residues.append((wire, bit))
        elif kind == "push":
            _push(letters, exponents, step[1], step[2])
        else:  # byproduct
            _, code, wire, registers = step
            mask = parity(registers) if registers else True
            _multiply(letters, exponents, wire, code, mask, left=True)

    # Promotions can leave the physical wire order permuted; restore logical order.
    psi = np.transpose(psi, (0,) + tuple(1 + p for p in plan.order))
    return psi.reshape(batch, -1), letters, exponents, bits, residues


def _row_weights(rows: np.ndarray) -> np.ndarray:
    """Squared norm of each row of a (B, N) complex array whose last axis is
    contiguous.

    The reduction then runs along that axis, summing each row by itself in
    the same order, so a row's weight does not depend on how many rows share
    the array (a BLAS dot product, as in `statevec`, gives no such promise).
    """
    return np.square(rows.view(np.float64)).sum(axis=1)


def _retire(psi, order: tuple[int, ...], basis: str, bit: np.ndarray, wire: str) -> np.ndarray:
    """Drop the wire that `order` moves next to the batch axis, contracting
    it with each row's recorded residue eigenvector e (row b: the basis's
    eigenvector number bit[b]), once the wire is shown to hold e and to be
    unentangled with the rest."""
    batch = psi.shape[0]
    pair = np.ascontiguousarray(psi.transpose(order)).reshape(batch, 2, -1)
    m0, m1 = pair[:, 0], pair[:, 1]
    # The wire's reduced density matrix rho = M M+, M the 2 x rest matrix of a row.
    r00, r11 = _row_weights(pair.reshape(2 * batch, -1)).reshape(batch, 2).T
    r01 = (m0 * m1.conj()).sum(axis=1)
    e0, e1, c0, c1, c01 = (terms[bit] for terms in _RESIDUE_TERMS[basis])
    held = c0 * r00 + c1 * r11 + 2 * (c01 * r01).real  # <e|rho|e>
    total = r00 + r11
    # Sufficient pre-check: total - held is the weight of e-perp, and it bounds
    # both checks.  rho's second eigenvalue is at most that weight (Rayleigh),
    # and 1 - overlap^2 = (high - held) / split <= (total - held) / split.  So
    # with total - held <= 1e-13 and 0.5 <= total <= 2, both checks pass with
    # margins far above rounding, and the eigen-analysis is skipped.
    if np.count_nonzero((total - held > 1e-13) | (abs(total - 1.25) > 0.75)):
        _check_residue(r00, r11, r01, total, held, wire, basis)
    rest = e0[:, None] * m0 + e1[:, None] * m1
    return (rest / np.sqrt(held)[:, None]).reshape((batch,) + (2,) * (psi.ndim - 2))


def _check_residue(r00, r11, r01, total, held, wire: str, basis: str) -> None:
    """Raise unless every row's rho = [[r00, r01], [r01*, r11]] has a second
    eigenvalue of at most 1e-12 and a top eigenvector within 1e-8 of the
    residue eigenvector e, where held = <e|rho|e> and total = r00 + r11."""
    split = np.sqrt((r00 - r11) ** 2 + 4 * (r01.real**2 + r01.imag**2))
    low = (total - split) / 2  # second eigenvalue: the weight of entanglement
    if (low > 1e-12).any():
        row = int(np.argmax(low))
        raise ProgramError(
            f"retired wire {wire} is entangled with the rest (residual weight {low[row]:.2e})"
        )
    # <e|rho|e> = high |<e|u0>|^2 + low |<e|u1>|^2, u0 the top eigenvector, so
    # |<e|u0>| is the overlap the removed wire has with e.
    overlap = np.sqrt(np.maximum(held - low, 0.0) / split)
    if (overlap < 1.0 - 1e-8).any():
        raise ProgramError(f"retired wire {wire} not in the recorded {basis} eigenstate")


def _record(plan: _Plan, run, row: int, seed: int) -> RunRecord:
    states, letters, exponents, bits, residues = run
    n = len(plan.order)
    return RunRecord(
        StateVector(n, states[row]),
        PauliFrame(_frame_word(letters[row], exponents[row])),
        {name: -1 if bits[slot][row] else 1 for slot, name in enumerate(plan.registers)},
        seed,
        tuple((wire, "1" if bit[row] else "0") for wire, bit in residues),
    )


def execute(program: MeasurementProgram, input_state: StateVector, seed: int) -> RunRecord:
    """Run a measurement program, its meters drawing from one seeded generator.

    The Pauli frame is carried classically; the RunRecord invariant is that
    applying the frame to final_state reproduces the source circuit's output
    up to a global phase.  This is the executor's batch of one: the trial
    gives the same bytes when `check_equivalence` runs it among others.
    """
    if input_state.n_qubits != program.n_logical:
        raise ValueError("input state size does not match program")
    plan = program._planned
    # The seed checks `seeding.generators` makes: default_rng alone would take
    # None as a request for fresh entropy.
    _words(seed)
    run = _execute(plan, input_state.amplitudes[None], [np.random.default_rng(seed)])
    return _record(plan, run, 0, seed)


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
    """Stable per-trial seed derivation (order-insensitive across trials);
    `seeding.trial_seeds` computes the same integers for a batch."""
    return int(np.random.SeedSequence((base_seed, trial, stream)).generate_state(1)[0])


# check_equivalence runs trials in chunks of at most this many amplitudes per
# state array: one trial at a time at 16 live wires, 1,024 at 6.  Wide rows
# gain little from batching and would multiply the memory of every temporary.
# Rows do not affect one another, so the chunk size changes no output.
_CHUNK_AMPLITUDES = 2**16


def check_equivalence(
    circuit: Circuit,
    program: MeasurementProgram,
    trials: int = 200,
    tol: float = 1e-10,
    base_seed: int = 0,
) -> EquivalenceReport:
    """Compare program execution against direct circuit simulation on random
    inputs: fidelity |<reference | frame . final>| per trial.

    Trials run together, in chunks, through the same executor and reference
    simulation as `execute` and `simulate_circuit`; each trial's fidelity is
    the one those would give it alone.  Inputs, the norm rule and the overlaps
    are whole-chunk passes that give every row the floats `random_state`,
    `StateVector` and `fidelity` give it alone.
    """
    if circuit.n_qubits != program.n_logical:
        raise ValueError("circuit and program qubit counts differ")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 < tol < 1:
        raise ValueError(f"tol must be in (0, 1), got {tol}")
    _check_gate_ops(circuit)
    plan = program._planned
    n = circuit.n_qubits
    chunk = max(1, _CHUNK_AMPLITUDES >> plan.peak)
    fidelities = []
    minus_counts = [0] * len(plan.registers)
    for first in range(0, trials, chunk):
        ids = range(first, min(trials, first + chunk))
        # Trial t's inputs draw from default_rng(trial_seed(base_seed, t, 0)),
        # its meters from default_rng(trial_seed(base_seed, t, 1)); one hash
        # derives both, and their generators alternate by trial.
        rngs = generators(trial_seeds(base_seed, ids, (0, 1)).reshape(-1))
        inputs = _normalized_rows(_random_rows(n, rngs[0::2]))
        states, letters, exponents, bits, _ = _execute(plan, inputs, rngs[1::2])
        reference, _ = _simulate(circuit, inputs)
        # fidelity(StateVector(reference), apply_pauli(StateVector(state), frame))
        # per row, through the same operations without building the wrappers.
        finals = _normalized_rows(states)
        corrected = _apply_frames(finals.reshape((-1,) + (2,) * n), letters, exponents)
        overlaps = np.vecdot(_normalized_rows(reference),
                             _normalized_rows(corrected.reshape(len(ids), -1)))
        fidelities.extend(abs(overlap) for overlap in overlaps.tolist())
        for slot, outcome_bits in enumerate(bits):
            minus_counts[slot] += int(np.count_nonzero(outcome_bits))
    failing = [t for t, f in enumerate(fidelities) if f < 1.0 - tol]
    return EquivalenceReport(
        trials=trials,
        tol=tol,
        fidelities=tuple(fidelities),
        min_fidelity=min(fidelities),
        passed=not failing,
        failing_trials=tuple(failing),
        outcome_counts={
            name: {"+1": trials - m, "-1": m}
            for name, m in zip(plan.registers, minus_counts)
        },
    )
