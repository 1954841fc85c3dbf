"""`_plan` is the one analysis of a program, and it checks everything.

Frame pushes and byproduct terms are checked without building Pauli words:
a push's gate, arity and targets, and a term's wire and letter, directly.
For the same input it must raise what `conjugate_by` on an identity frame
and `PauliString.single` raise: the same exception type and message.  The
one exception is a negative byproduct wire, which a list index would count
from the end; `_plan` rejects it as out of range.

Malformed hand-built programs, and compiled ones with one instruction
deleted, duplicated or swapped, end in a `ProgramError` or `CompileError`,
never in another exception or a silently wrong run.  The mode's primitive
meter set and the simulator ceiling hold wherever a program runs, and a
compiled program is planned once.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmarket import algebra, compiler
from qmarket.algebra import PauliString, conjugate_by
from qmarket.compiler import (
    ByproductTerm,
    CompileError,
    Correct,
    Feedforward,
    MeasureGInstr,
    MeasurementProgram,
    MeasurePauliInstr,
    Prepare,
    ProgramError,
    Retire,
    check_equivalence,
    compile_to_measurements,
    execute,
    parse_circuit,
)
from qmarket.statevec import MAX_QUBITS, new_basis_state, random_state

CIRCUITS = {
    "bell": "qubits 2\nh 0\ncnot 0 1\n",
    "eight_gate": "qubits 3\nh 0\nt 0\ncnot 0 1\nh 1\nt 2\ncnot 1 2\nh 2\nt 1\n",
    "ch": "qubits 2\nch 0 1\n",
}


def raised(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


def program_of(*feedforwards):
    return MeasurementProgram(2, feedforwards, "extended", ())


@pytest.mark.parametrize(
    "gate, wires, error",
    [
        ("Q", (0,), (ValueError, "unsupported conjugator 'Q'")),
        ("CNOT", (0,), (ValueError, "CNOT conjugates 2 qubit(s), got targets [0]")),
        ("CNOT", (1, 1), (ValueError, "bad targets [1, 1] for 2-qubit Pauli")),
        ("H", (2,), (ValueError, "bad targets [2] for 2-qubit Pauli")),
        ("H", (-1,), (ValueError, "bad targets [-1] for 2-qubit Pauli")),
        ("H", (1.0,), (TypeError, "conjugator targets must be integers, got [1.0]")),
        ("CNOT", (0, "a0"), (TypeError, "conjugator targets must be integers, got [0, 'a0']")),
    ],
    ids=["unknown-gate", "arity", "duplicate", "too-high", "negative", "float", "ancilla-token"],
)
def test_push_is_rejected_as_conjugate_by_rejects_it(gate, wires, error):
    assert raised(lambda: conjugate_by(PauliString.identity(2), gate, list(wires))) == error
    assert raised(lambda: compiler._plan(program_of(Feedforward((gate, wires), ())))) == error


@pytest.mark.parametrize(
    "letter, wire, error",
    [
        ("Q", 0, (ValueError, "unknown Pauli letter 'Q'")),
        ("X", 2, (IndexError, "list assignment index out of range")),
        ("X", -3, (IndexError, "list assignment index out of range")),
        ("X", "a0", (TypeError, "list indices must be integers or slices, not str")),
        ("X", 1.0, (TypeError, "list indices must be integers or slices, not float")),
    ],
    ids=["unknown-letter", "too-high", "too-low", "ancilla-token", "float"],
)
def test_byproduct_is_rejected_as_pauli_single_rejects_it(letter, wire, error):
    assert raised(lambda: PauliString.single(2, wire, letter)) == error
    term = ByproductTerm(letter, wire, ())
    assert raised(lambda: compiler._plan(program_of(Feedforward(None, (term,))))) == error


def test_negative_byproduct_wire_is_rejected():
    term = ByproductTerm("Xp", -1, ())
    error = (IndexError, "list assignment index out of range")
    assert raised(lambda: compiler._plan(program_of(Feedforward(None, (term,))))) == error


X_ON = {wire: Feedforward(None, (ByproductTerm("X", wire, ()),)) for wire in (0, 1)}
BOOL_WIRE_PROGRAMS = {
    "correct": lambda w: (X_ON[1], Correct(w, "x")),
    "byproduct": lambda w: (Feedforward(None, (ByproductTerm("X", w, ()),)),),
    "push": lambda w: (X_ON[1], Feedforward(("H", (w,)), ())),
    "push-pair": lambda w: (X_ON[0], Feedforward(("CNOT", (0, w)), ())),
}


@pytest.mark.parametrize("build", BOOL_WIRE_PROGRAMS.values(), ids=BOOL_WIRE_PROGRAMS.keys())
def test_bool_wire_acts_as_its_integer(build):
    """`PauliString.single` and `conjugate_by` take True as 1, and so does the plan."""
    state = random_state(2, np.random.default_rng(3))
    as_bool = execute(program_of(*build(True)), state, seed=1)
    as_int = execute(program_of(*build(1)), state, seed=1)
    assert as_bool.frame == as_int.frame
    assert as_bool.final_state.amplitudes.tobytes() == as_int.final_state.amplitudes.tobytes()


@pytest.mark.parametrize("n", [0, -1])
def test_program_without_logical_wires_is_rejected(n):
    with pytest.raises(ProgramError, match="at least one logical wire"):
        MeasurementProgram(n, (), "extended", ()).validate_structure()


def test_plan_builds_no_pauli_words(monkeypatch):
    programs = [
        compile_to_measurements(parse_circuit(text), mode)
        for text in ("qubits 2\nch 0 1\n", "qubits 3\nh 0\nt 0\ncnot 0 1\nx 2\nxpp 1\n")
        for mode in ("extended", "strict")
    ]
    built = []
    monkeypatch.setattr(PauliString, "__post_init__", lambda self: built.append(self))
    monkeypatch.setattr(algebra, "conjugate_by", lambda *args: built.append(args))
    for program in programs:
        compiler._plan(program)
    assert built == []


PREPARE = Prepare("a0")
METER = MeasurePauliInstr(("X",), ("a0",), "m0", "X")
RETIRE = Retire("a0", None, "X", ("m0",))


def extended(n, *instructions):
    return MeasurementProgram(n, instructions, "extended", ())


MALFORMED = {
    "meter-on-dead-wire": (extended(1, METER), "wire 'a0' is not live"),
    "g-meter-on-dead-wire": (extended(1, MeasureGInstr("a0", "m0")), "wire 'a0' is not live"),
    "correct-on-dead-wire": (
        extended(1, PREPARE, METER, Retire(0, None, "X", ("m0",)), Correct(0, "z")),
        "wire 0 is not live",
    ),
    "retire-dead-wire": (extended(2, Retire("a0", None, "X", ())), "wire 'a0' is not live"),
    "promote-dead-wire": (
        extended(1, PREPARE, METER, Retire(0, "a1", "X", ("m0",))), "wire 'a1' is not live"
    ),
    "prepare-live-wire": (extended(1, PREPARE, PREPARE), "wire 'a0' is already live"),
    "meter-letters-and-wires-differ": (
        extended(1, PREPARE, MeasurePauliInstr(("X", "Xp"), ("a0",), "m0", "XxXp"), RETIRE),
        "bad meter",
    ),
    "register-set-twice": (extended(1, PREPARE, METER, METER, RETIRE), "register 'm0' set twice"),
    "correct-component": (extended(1, Correct(0, "y")), "bad correct 'y' on wire 0"),
    "correct-on-float-wire": (extended(2, Correct(1.0, "x")), "bad correct 'x' on wire 1.0"),
    "correct-on-ancilla": (
        extended(1, PREPARE, Correct("a0", "x")), "bad correct 'x' on wire 'a0'"
    ),
    "residue-basis": (
        extended(1, PREPARE, METER, Retire("a0", None, "Z", ("m0",))),
        "unknown residue basis 'Z'",
    ),
    "retire-last-wire": (extended(1, Retire(0, None, "X", ())), "cannot remove the last qubit"),
    "logical-wire-left-retired": (
        extended(1, PREPARE, METER, Retire(0, None, "X", ("m0",))),
        "program finished without all of its logical wires",
    ),
    "primitive-set": (MeasurementProgram(1, (), "loose", ()), "unknown primitive set 'loose'"),
}


@pytest.mark.parametrize("program, message", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_program_raises_program_error(program, message):
    n = program.n_logical
    with pytest.raises(ProgramError, match=message):
        execute(program, new_basis_state(n, "0" * n), seed=0)


def test_strict_set_is_enforced_where_a_program_runs():
    program = MeasurementProgram(
        1,
        (PREPARE, MeasurePauliInstr(("Xp",), ("a0",), "m0", "Xp"),
         Retire("a0", None, "Xp", ("m0",))),
        "strict",
        (),
    )
    message = "strict program measures ('Xp',), outside {X, G, XxX'}"
    with pytest.raises(CompileError) as info:
        program.validate_structure()
    assert str(info.value) == message
    with pytest.raises(CompileError) as info:
        execute(program, new_basis_state(1, "0"), seed=0)
    assert str(info.value) == message


def test_ceiling_is_enforced_where_a_program_runs():
    n = MAX_QUBITS
    program = extended(n, PREPARE, METER, RETIRE)
    with pytest.raises(CompileError, match=f"program needs {n + 1} live wires"):
        execute(program, new_basis_state(n, "0" * n), seed=0)


def test_compiled_program_is_planned_once(monkeypatch):
    circuit = parse_circuit(CIRCUITS["eight_gate"])
    program = compile_to_measurements(circuit, "strict")

    def replan(_program):
        raise AssertionError("planned a second time")

    monkeypatch.setattr(compiler, "_plan", replan)
    assert check_equivalence(circuit, program, trials=4, tol=1e-9).passed
    execute(program, random_state(3, np.random.default_rng(2)), seed=5)
    program.validate_structure()


COMPILED = [
    compile_to_measurements(parse_circuit(text), mode)
    for text in CIRCUITS.values()
    for mode in ("extended", "strict")
]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=st.data())
def test_mutated_program_runs_or_raises_a_program_error(data):
    """One instruction deleted, duplicated, or swapped with the next: the run
    returns or raises ProgramError or CompileError, never another exception."""
    program = data.draw(st.sampled_from(COMPILED))
    instructions = list(program.instructions)
    mutation = data.draw(st.sampled_from(["delete", "duplicate", "swap"]))
    i = data.draw(st.integers(0, len(instructions) - 1 - (mutation == "swap")))
    if mutation == "delete":
        del instructions[i]
    elif mutation == "duplicate":
        instructions.insert(i, instructions[i])
    else:
        instructions[i:i + 2] = instructions[i + 1], instructions[i]
    mutated = MeasurementProgram(
        program.n_logical, tuple(instructions), program.primitive_set, program.expansions
    )
    state = random_state(program.n_logical, np.random.default_rng(i))
    try:
        execute(mutated, state, seed=i)
    except (ProgramError, CompileError):
        pass


# Meter, G meter and retire wires on logical wire 1, given as `wire`.
WIRE_PROGRAMS = {
    "meter": lambda w: (MeasurePauliInstr(("X",), (w,), "m0", "X"),),
    "pair-meter": lambda w: (
        Prepare("a0"),
        MeasurePauliInstr(("X",), ("a0",), "m0", "X"),
        MeasurePauliInstr(("X", "Xp"), ("a0", w), "m1", "XxXp"),
        Retire("a0", None, "X", ("m0",)),
    ),
    "measure_g": lambda w: (MeasureGInstr(w, "m0"),),
    "retire": lambda w: (Prepare("a0"), Retire(w, "a0", "Xp", ())),
}


@pytest.mark.parametrize("build", WIRE_PROGRAMS.values(), ids=WIRE_PROGRAMS.keys())
def test_bool_meter_and_retire_wire_act_as_wire_1(build):
    """True is wire 1 wherever a logical wire is read, and a retire records it as "1"."""
    state = new_basis_state(2, "00")
    as_bool = execute(program_of(*build(True)), state, seed=4)
    as_int = execute(program_of(*build(1)), state, seed=4)
    assert as_bool.outcomes == as_int.outcomes
    assert as_bool.ancilla_residues == as_int.ancilla_residues
    assert as_bool.final_state.amplitudes.tobytes() == as_int.final_state.amplitudes.tobytes()


def test_bool_retire_wire_records_its_residue_as_wire_1():
    record = execute(program_of(*WIRE_PROGRAMS["retire"](True)), new_basis_state(2, "00"), 4)
    assert record.ancilla_residues == (("1", "0"),)


@pytest.mark.parametrize("build", WIRE_PROGRAMS.values(), ids=WIRE_PROGRAMS.keys())
@pytest.mark.parametrize("wire", [1.0, None, (1,)])
def test_meter_and_retire_wire_that_is_no_wire_is_rejected(build, wire):
    with pytest.raises(ProgramError, match="neither a logical index nor an ancilla token"):
        program_of(*build(wire)).validate_structure()
