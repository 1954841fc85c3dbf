"""`_plan` checks frame pushes and byproduct terms without building Pauli words.

It checks a push's gate, arity and targets, and a term's wire and letter,
directly.  For the same input it must raise what `conjugate_by` on an
identity frame and `PauliString.single` raise: the same exception type and
message.
"""
import numpy as np
import pytest

from qmarket import algebra, compiler
from qmarket.algebra import PauliString, conjugate_by
from qmarket.compiler import (
    ByproductTerm,
    Feedforward,
    MeasurementProgram,
    compile_to_measurements,
    execute,
    parse_circuit,
)
from qmarket.statevec import random_state


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
    ],
    ids=["unknown-gate", "arity", "duplicate", "too-high", "negative"],
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
    ],
    ids=["unknown-letter", "too-high", "too-low", "ancilla-token"],
)
def test_byproduct_is_rejected_as_pauli_single_rejects_it(letter, wire, error):
    assert raised(lambda: PauliString.single(2, wire, letter)) == error
    term = ByproductTerm(letter, wire, ())
    assert raised(lambda: compiler._plan(program_of(Feedforward(None, (term,))))) == error


def test_negative_wire_in_range_counts_from_the_end_as_before():
    state = random_state(2, np.random.default_rng(1))
    negative = program_of(Feedforward(None, (ByproductTerm("Xp", -1, ()),)))
    positive = program_of(Feedforward(None, (ByproductTerm("Xp", 1, ()),)))
    assert execute(negative, state, 0).frame == execute(positive, state, 0).frame


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
