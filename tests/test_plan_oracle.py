"""The executor's plan against a copy of the position-map `_plan` it replaced.

`_plan` keeps the live wires in one list, a wire's index being its state
axis after the batch axis.  The copy below is the earlier version, verbatim:
a dict from wire to position, shifted by hand after each retire, a width
counter beside it, `_wire_key` and a meter count.  On compiled programs of
random circuits over every compilable `_SOURCE_GATES` row, in both modes,
on single-instruction mutations of them (drop, duplicate, swap neighbours,
a meter, retire or promote wire given as True, a numpy integer, 1.0 or an
unknown token) and on prepares of live wires, both must return the same
steps, registers, peak and order, or raise the same exception type and
message.  The copy's meter count is always the number of registers, which
is what the executor now sizes its uniforms by.

One difference is intended: `_plan` rejects, at the prepare, a prepare of a
wire that is not live and not an ancilla token, which the copy planned as a
new wire.  A prepare of a live wire keeps the copy's `already live` error.
"""
from __future__ import annotations

import random
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest

from qmarket import compiler
from qmarket.algebra import _CODES, _check_conjugator
from qmarket.compiler import (
    _RESIDUE_TERMS,
    _SOURCE_GATES,
    Circuit,
    CompileError,
    Correct,
    Feedforward,
    GateOp,
    MeasureGInstr,
    MeasurementProgram,
    MeasurePauliInstr,
    Prepare,
    ProgramError,
    Retire,
    Wire,
    _Block,
    _check_term,
    compile_to_measurements,
)
from qmarket.statevec import MAX_QUBITS, _pauli_slices


class _Plan(NamedTuple):
    steps: tuple
    registers: tuple
    meters: int
    peak: int
    order: tuple


# ---------------------------------------------------------------------------
# The earlier `_plan` and `_wire_key`, verbatim.


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
    positions: dict[Wire, int] = {i: i for i in range(n)}
    registers: dict[str, int] = {}
    steps: list[tuple] = []
    width = peak = n
    meters = 0

    def at(wire) -> int:
        wire = _wire_key(wire)
        if wire not in positions:
            raise ProgramError(f"wire {wire!r} is not live")
        return positions[wire]

    def slots(names) -> tuple[int, ...]:
        for name in names:
            if name not in registers:
                raise ProgramError(f"register {name!r} referenced before set")
        return tuple(registers[name] for name in names)

    for ins in program.instructions:
        if isinstance(ins, Prepare):
            if ins.wire in positions:
                raise ProgramError(f"wire {ins.wire!r} is already live")
            positions[ins.wire] = width
            width += 1
            peak = max(peak, width)
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
                step = ("measure", *_pauli_slices(1 + width, placed))
            if ins.register in registers:
                raise ProgramError(f"register {ins.register!r} set twice")
            registers[ins.register] = len(registers)
            meters += 1
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
            if width < 2:
                raise ProgramError("cannot remove the last qubit")
            retired = _wire_key(ins.wire)
            pos = at(retired)
            del positions[retired]
            # The axis order that brings the retired wire next to the batch axis.
            order = (0, 1 + pos, *(a for a in range(1, 1 + width) if a != 1 + pos))
            steps.append(("retire", order, str(retired), ins.residue_basis, residue))
            width -= 1
            for wire, p in positions.items():
                if p > pos:
                    positions[wire] = p - 1
            if ins.promote is not None:
                if not isinstance(retired, int):
                    raise ProgramError("can only promote into a logical slot")
                positions[retired] = at(ins.promote)
                del positions[ins.promote]
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
    if width > n:
        raise ProgramError("program finished with ancillas still attached")
    if set(positions) != set(range(n)):
        raise ProgramError("program finished without all of its logical wires")
    order = tuple(positions[i] for i in range(n))
    return _Plan(tuple(steps), tuple(registers), meters, peak, order)


def _wire_key(wire) -> Wire:
    """A meter, retire or promote wire as the plan keys it: an ancilla token,
    or a logical index as an int, so that True is wire 1 and records "1".
    Any other value, such as the float 1.0, is not a wire."""
    if isinstance(wire, str):
        return wire
    if isinstance(wire, (int, np.integer)):
        return int(wire)
    raise ProgramError(f"wire {wire!r} is neither a logical index nor an ancilla token")


# ---------------------------------------------------------------------------

COMPILABLE = sorted(name for name, row in _SOURCE_GATES.items() if row.lowering is not None)
BLOCKS = sorted(name for name, row in _SOURCE_GATES.items() if isinstance(row.lowering, _Block))
SEEDS = range(len(COMPILABLE))


def random_program(seed: int, mode: str) -> MeasurementProgram:
    """A compiled circuit of two to three gates: row COMPILABLE[seed], so
    that the seeds cover every row, then any row, then a block, so that the
    program has ancillas."""
    rng = random.Random(seed)
    names = [COMPILABLE[seed], *rng.choices(COMPILABLE, k=rng.randint(0, 1)), rng.choice(BLOCKS)]
    n = max(_SOURCE_GATES[name].arity for name in names) + rng.randint(0, 1)
    ops = tuple(GateOp(name, tuple(rng.sample(range(n), _SOURCE_GATES[name].arity)))
                for name in names)
    return compile_to_measurements(Circuit(n, ops), mode)


def wire_values(wire) -> list:
    """What a meter, retire or promote wire is replaced by."""
    values = [True, np.int64(1), 1.0, "zz"]
    if isinstance(wire, int):
        values.append(np.int64(wire))
    return values


def wire_mutations(ins) -> list:
    """`ins` with one meter, retire or promote wire replaced."""
    if isinstance(ins, MeasurePauliInstr):
        return [replace(ins, wires=ins.wires[:i] + (value,) + ins.wires[i + 1:])
                for i, wire in enumerate(ins.wires) for value in wire_values(wire)]
    if isinstance(ins, MeasureGInstr):
        return [replace(ins, wire=value) for value in wire_values(ins.wire)]
    if isinstance(ins, Retire):
        return ([replace(ins, wire=value) for value in wire_values(ins.wire)]
                + [replace(ins, promote=value) for value in wire_values(ins.promote)])
    return []


def mutations(program: MeasurementProgram, rng: random.Random, count: int):
    """`count` programs that each differ from `program` in one instruction,
    then five with a prepare of a live wire inserted."""
    instructions = program.instructions
    out = []
    for _ in range(count):
        i = rng.randrange(len(instructions))
        kind = rng.choice(("drop", "duplicate", "swap", "wire"))
        if kind == "drop":
            changed = instructions[:i] + instructions[i + 1:]
        elif kind == "duplicate":
            changed = instructions[:i + 1] + instructions[i:]
        elif kind == "swap" and i + 1 < len(instructions):
            changed = instructions[:i] + (instructions[i + 1], instructions[i]) + instructions[i + 2:]
        else:
            i = rng.choice([j for j, ins in enumerate(instructions) if wire_mutations(ins)])
            changed = instructions[:i] + (rng.choice(wire_mutations(instructions[i])),) + instructions[i + 1:]
        out.append(replace(program, instructions=changed))
    # Right after the first prepare, its ancilla and logical wire 0 are live.
    at = 1 + next(i for i, ins in enumerate(instructions) if isinstance(ins, Prepare))
    for wire in (0, True, np.int64(0), 0.0, instructions[at - 1].wire):
        out.append(replace(program, instructions=instructions[:at] + (Prepare(wire),) + instructions[at:]))
    return out


def outcome(plan, program):
    try:
        return plan(program)
    except Exception as error:  # the exception itself is compared
        return type(error), str(error)


def old_outcome(program: MeasurementProgram):
    """The copy's outcome, or the error `_plan` now raises at the first
    prepare of a wire that is not a token, if the copy reaches that prepare
    and plans it: the copy's plan up to and including it then fails, if at
    all, only at one of the end-of-program checks, whose messages start
    with "program "."""
    instructions = program.instructions
    for k, ins in enumerate(instructions):
        if isinstance(ins, Prepare) and not isinstance(ins.wire, str):
            head = outcome(_plan, replace(program, instructions=instructions[:k + 1]))
            if isinstance(head, _Plan) or head[1].startswith("program "):
                return ProgramError, f"prepare wire {ins.wire!r} is not an ancilla token"
            break
    return outcome(_plan, program)


def assert_same_plan(program: MeasurementProgram) -> bool:
    """Assert both plans agree on `program`; return whether they planned it."""
    old, new = old_outcome(program), outcome(compiler._plan, program)
    if isinstance(old, tuple) and not isinstance(old, _Plan):
        assert new == old
        return False
    assert old.meters == len(old.registers)
    fields = (new.steps, new.registers, new.peak, new.order)
    # repr as well as ==, so that an int and a numpy integer do not compare equal
    assert fields == (old.steps, old.registers, old.peak, old.order)
    assert repr(fields) == repr((old.steps, old.registers, old.peak, old.order))
    return True


@pytest.mark.parametrize("mode", ["extended", "strict"])
@pytest.mark.parametrize("seed", SEEDS)
def test_plan_matches_the_position_map_plan(seed, mode):
    program = random_program(seed, mode)
    assert assert_same_plan(program)
    planned = [assert_same_plan(changed) for changed in mutations(program, random.Random(seed), 150)]
    # the mutations reach both the plans and the errors
    assert any(planned) and not all(planned)


def test_true_and_numpy_wires_plan_as_their_int():
    """A retire of True records "1"; a numpy integer logical wire can take a
    promote; 1.0 is not a wire."""
    program = compile_to_measurements(Circuit(2, (GateOp("h", (1,)),)), "extended")
    retire = next(i for i, ins in enumerate(program.instructions) if isinstance(ins, Retire))
    for wire in (True, np.int64(1)):
        changed = replace(program, instructions=tuple(
            replace(ins, wire=wire) if i == retire else ins
            for i, ins in enumerate(program.instructions)))
        assert assert_same_plan(changed)
        assert compiler._plan(changed) == compiler._plan(program)
    changed = replace(program, instructions=tuple(
        replace(ins, wire=1.0) if i == retire else ins for i, ins in enumerate(program.instructions)))
    assert not assert_same_plan(changed)
    with pytest.raises(ProgramError, match="neither a logical index nor an ancilla token"):
        compiler._plan(changed)


@pytest.mark.parametrize("wire", [np.int64(1), 1.0, True, [1]], ids=repr)
def test_a_prepare_of_a_non_token_wire_is_rejected(wire):
    """Logical wire 1 retired, then prepared again under a value that is not
    an ancilla token: the prepare raises, where the copy planned it as a new
    wire (or, for the unhashable [1], raised a TypeError)."""
    program = MeasurementProgram(2, (
        MeasurePauliInstr(("X",), (1,), "m0", "X"),
        Retire(1, None, "X", ("m0",)),
        Prepare(wire),
        Prepare("a0"),
        Retire(1, "a0", "Xp", ()),
    ), "extended", ())
    with pytest.raises(ProgramError) as info:
        compiler._plan(program)
    assert str(info.value) == f"prepare wire {wire!r} is not an ancilla token"
    if not isinstance(wire, list):
        assert not assert_same_plan(program)
