"""Error paths that no other test reaches, pinned by exception type and message.

`_plan` rejects an extended meter with no letters or a letter outside
{X, X', X''}, a meter on three wires, a promote from a retired ancilla and
an object that is no instruction; `to_json_lines` rejects that object too.
`parse_circuit` rejects a qubit count or index that is not an integer.
`demo gadgets` with a forced pattern whose length fits no gadget is a usage
error.
"""
import contextlib
import io
import os
from unittest import mock

import pytest

from qmarket.cli import EXIT_USAGE, SEED_ENV_VAR, main
from qmarket.compiler import (
    CompileError,
    MeasurementProgram,
    MeasurePauliInstr,
    ParseError,
    Prepare,
    ProgramError,
    Retire,
    parse_circuit,
)


def program(*instructions):
    return MeasurementProgram(1, instructions, "extended", ())


@pytest.mark.parametrize(
    "instructions, error, message",
    [
        ((Prepare("a0"), MeasurePauliInstr((), (), "r", "X")), CompileError, "bad extended meter ()"),
        ((Prepare("a0"), MeasurePauliInstr(("Y",), ("a0",), "r", "X")), CompileError,
         "bad extended meter ('Y',)"),
        ((Prepare("a0"), Prepare("a1"), MeasurePauliInstr(("X", "X", "X"), (0, "a0", "a1"), "r", "X")),
         CompileError, "meters act on at most two qubits"),
        ((Prepare("a0"), Prepare("a1"), Retire("a0", "a1", "X", ())), ProgramError,
         "can only promote into a logical slot"),
        (("bogus",), ProgramError, "unknown instruction 'bogus'"),
    ],
    ids=["no-letters", "letter-Y", "three-wires", "promote-from-ancilla", "not-an-instruction"],
)
def test_plan_rejects(instructions, error, message):
    with pytest.raises(Exception) as info:
        program(*instructions).validate_structure()
    assert (type(info.value), str(info.value)) == (error, message)


def test_json_lines_rejects_an_unknown_instruction():
    with pytest.raises(Exception) as info:
        program("bogus").to_json_lines()
    assert (type(info.value), str(info.value)) == (TypeError, "unknown instruction 'bogus'")


@pytest.mark.parametrize(
    "text, message",
    [
        ("qubits two\n", "line 1: bad qubit count 'two'"),
        ("qubits 2\nh x\n", "line 2: bad qubit index in 'h x'"),
        ("qubits 2\ncnot 0 1.5\n", "line 2: bad qubit index in 'cnot 0 1.5'"),
    ],
)
def test_parse_circuit_rejects_a_non_integer(text, message):
    with pytest.raises(Exception) as info:
        parse_circuit(text)
    assert (type(info.value), str(info.value)) == (ParseError, message)


def test_demo_gadgets_rejects_a_pattern_of_no_gadget_arity():
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        os.environ.pop(SEED_ENV_VAR, None)
        code = main(["demo", "gadgets", "--force-outcomes", "+1,+1"])
    assert (code, out.getvalue(), err.getvalue()) == (
        EXIT_USAGE, "", "error: --force-outcomes length matches no gadget arity\n"
    )
