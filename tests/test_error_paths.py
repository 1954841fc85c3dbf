"""Error paths that no other test reaches, pinned by exception type and message.

`_plan` rejects an extended meter with no letters or a letter outside
{X, X', X''}, a meter on three wires, a promote from a retired ancilla and
an object that is no instruction; `to_json_lines` rejects that object too.
`parse_circuit` rejects a qubit count or index that is not an integer.
`demo gadgets` with a forced pattern whose length fits no gadget is a usage
error.  The library checks on caller input that no other test reaches are
pinned the same way, with the few plain paths (the norm rule's rescale,
`copy`, `repr`, `append_state`, `letter_on`, `PauliFrame.n_qubits`) that no
other test runs.
"""
import contextlib
import io
import os
from unittest import mock

import numpy as np
import pytest

from qmarket.algebra import PauliString, assert_unitary, named_gate
from qmarket.cli import EXIT_USAGE, SEED_ENV_VAR, main
from qmarket.compiler import (
    Circuit,
    CompileError,
    MeasurementProgram,
    MeasureOp,
    MeasurePauliInstr,
    ParseError,
    Prepare,
    ProgramError,
    Retire,
    _simulate,
    parse_circuit,
    simulate_circuit,
)
from qmarket.gadgets import gadget_sigma_t, measure_parity_conjugated, measure_xprime_derived
from qmarket.pauliframe import PauliFrame
from qmarket.seeding import _HashedState
from qmarket.statevec import (
    MeasurementOutcome,
    StateVector,
    append_qubit,
    append_state,
    apply_pauli,
    fidelity,
    measure_hermitian,
    remove_qubit,
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


def raised(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


KET0 = StateVector(1, [1, 0])


def test_state_norm_near_one_is_rescaled_to_exactly_one():
    assert StateVector(1, [1 + 1e-10, 0]).amplitudes.tobytes() == np.array([1, 0], complex).tobytes()
    kept = np.array([1 + 5e-13, 0], dtype=complex)
    assert StateVector(1, kept).amplitudes.tobytes() == kept.tobytes()


def test_state_rejects_an_amplitude_count_of_another_width():
    assert raised(lambda: StateVector(2, [1, 0])) == (ValueError, "amplitude length 2 != 2**2")


def test_state_copy_and_repr():
    copy = KET0.copy()
    assert copy is not KET0 and copy.amplitudes is not KET0.amplitudes
    assert copy.amplitudes.tobytes() == KET0.amplitudes.tobytes()
    assert repr(copy) == "StateVector(n_qubits=1)"


def test_measurement_outcome_rejects_a_bad_eigenvalue_or_probability():
    identity = PauliString.identity(1)
    assert raised(lambda: MeasurementOutcome(0, 0.5, identity)) == (
        ValueError, "eigenvalue must be +/-1, got 0"
    )
    assert raised(lambda: MeasurementOutcome(1, 1.5, identity)) == (
        ValueError, "probability 1.5 outside [0, 1]"
    )


def test_apply_pauli_rejects_a_word_of_another_width():
    assert raised(lambda: apply_pauli(KET0, PauliString.identity(2))) == (
        ValueError, "Pauli word and state sizes differ"
    )


def test_measure_hermitian_rejects_an_observable_that_does_not_fit_its_targets():
    assert raised(lambda: measure_hermitian(KET0, np.eye(4), [0], None)) == (
        ValueError, "observable shape (4, 4) does not fit targets [0]"
    )


@pytest.mark.parametrize(
    "targets, message",
    [
        ([0, 0], "duplicate targets in [0, 0]"),
        ([5], "target out of range in [5] for 2 qubits"),
        ([-1], "target out of range in [-1] for 2 qubits"),
    ],
    ids=["duplicate", "too-high", "negative"],
)
def test_measure_hermitian_rejects_a_bad_target(targets, message):
    g = named_gate("G")
    observable = np.kron(g, g) if len(targets) == 2 else g
    state = StateVector(2, [1, 0, 0, 0])
    assert raised(lambda: measure_hermitian(state, observable, targets, None, force=1)) == (
        ValueError, message
    )


@pytest.mark.parametrize("bits", ["01", "11", ""])
def test_append_qubit_rejects_anything_but_one_bit(bits):
    assert raised(lambda: append_qubit(KET0, bits)) == (
        ValueError, f"appended bit {bits!r} must be '0' or '1'"
    )


def test_fidelity_rejects_states_of_different_widths():
    assert raised(lambda: fidelity(KET0, StateVector(2, [1, 0, 0, 0]))) == (
        ValueError, "states have different qubit counts"
    )


def test_append_state_tensors_the_qubit_onto_the_end():
    grown = append_state(KET0, [0, 1])
    assert grown.n_qubits == 2
    assert grown.amplitudes.tolist() == [0, 1, 0, 0]


def test_remove_qubit_rejects_a_qubit_out_of_range():
    assert raised(lambda: remove_qubit(StateVector(2, [1, 0, 0, 0]), 2)) == (
        ValueError, "qubit 2 out of range"
    )


def test_pauli_string_rejects_a_bad_phase_and_reads_a_letter():
    assert raised(lambda: PauliString(0.5, ("X",))) == (
        ValueError, "phase must be one of +1, -1, +i, -i, got 0.5"
    )
    assert PauliString.from_letters("X", "Xp").letter_on(1) == "Xp"


def test_assert_unitary_rejects_a_non_square_matrix():
    assert raised(lambda: assert_unitary(np.zeros((2, 3)))) == (
        ValueError, "matrix must be square, got shape (2, 3)"
    )


def test_pauli_frame_width():
    assert PauliFrame.identity(3).n_qubits == 3


def test_simulate_circuit_rejects_an_input_of_another_width():
    assert raised(lambda: simulate_circuit(parse_circuit("qubits 2\nh 0\n"), KET0)) == (
        ValueError, "input state size does not match circuit"
    )


def test_simulate_rejects_a_measurement_on_a_batch_and_an_unknown_op():
    measured = Circuit(1, (MeasureOp(PauliString.from_letters("X")),))
    assert raised(lambda: _simulate(measured, np.eye(2, dtype=complex))) == (
        ValueError, "only gate ops run on a batch of input states"
    )
    assert raised(lambda: simulate_circuit(Circuit(1, ("bogus",)))) == (
        ValueError, "unknown circuit op 'bogus'"
    )


def test_gadget_sigma_t_rejects_an_unknown_variant():
    assert raised(lambda: gadget_sigma_t(KET0, 0, variant="bogus")) == (
        ValueError, "variant must be one of ('xprime_pair', 'g_meter'), got 'bogus'"
    )


def test_measure_xprime_derived_rejects_a_pattern_of_one_outcome():
    assert raised(lambda: measure_xprime_derived(KET0, 0, forced_outcomes=[1])) == (
        ValueError, "derived X' takes exactly 2 outcomes"
    )


def test_measure_parity_conjugated_rejects_an_unknown_kind():
    state = StateVector(2, [1, 0, 0, 0])
    assert raised(lambda: measure_parity_conjugated(state, (0, 1), "ZZ")) == (
        ValueError, "kind must be XX or XpXp, got 'ZZ'"
    )


def test_hashed_state_serves_only_the_words_it_hashed():
    words = _HashedState(np.zeros(4, dtype=np.uint64))
    assert raised(lambda: words.generate_state(4, np.uint32)) == (
        ValueError, "only PCG64's generate_state(4, np.uint64) was hashed"
    )
