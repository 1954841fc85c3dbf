"""The block table every gadget call and every lowering reads, its residue
rule, and the norm and forced-outcome checks at the gadget entry points."""
import re

import numpy as np
import pytest

from qmarket.compiler import (
    MeasurePauliInstr,
    Prepare,
    Retire,
    compile_to_measurements,
    parse_circuit,
)
from qmarket.gadgets import (
    _SPECS,
    _XPRIME_KIND,
    _XPRIME_METERS,
    GADGETS,
    gadget_sigma_h,
    measure_g_via_hghgh,
    measure_parity_conjugated,
)
from qmarket.statevec import StateVector, _normalized_rows


def test_specs_are_the_gadgets_and_the_derived_xprime_meter():
    assert list(_SPECS) == [*GADGETS, _XPRIME_KIND]
    assert all(_SPECS[kind] is spec for kind, spec in GADGETS.items())
    assert _SPECS[_XPRIME_KIND].meters == _XPRIME_METERS


@pytest.mark.parametrize("kind", sorted(GADGETS))
def test_residue_is_the_last_meter_of_every_gadget(kind):
    spec = GADGETS[kind]
    assert spec.residue == len(spec.meters) - 1
    assert spec.meters[spec.residue][1] == spec.retired


def test_residue_of_the_derived_xprime_meter_is_its_ancilla_meter():
    spec = _SPECS[_XPRIME_KIND]
    assert spec.residue == 0
    assert spec.meters[0] == (("X",), "a") and spec.retired == "a"


def test_residue_is_computed_once_per_spec():
    spec = GADGETS["cnot"]
    assert spec.residue == 3
    assert vars(spec)["residue"] == 3


def _registers_after(instructions, prepare):
    at = instructions.index(prepare)
    return [ins.register for ins in instructions[at:] if isinstance(ins, MeasurePauliInstr)]


def test_strict_h_retires_the_derived_ancilla_on_its_first_register():
    program = compile_to_measurements(parse_circuit("qubits 1\nh 0\n"), mode="strict")
    instructions = list(program.instructions)
    prepares = [ins for ins in instructions if isinstance(ins, Prepare)]
    derived, gadget = [ins for ins in instructions if isinstance(ins, Retire)]
    assert [p.wire for p in prepares] == ["a0", "a1"]
    first, second = _registers_after(instructions, prepares[1])
    assert derived == Retire("a1", None, "X", (first,))
    # The gadget's own residue is the X' outcome: both derived registers.
    assert gadget == Retire(0, "a0", "Xp", (first, second))
    assert instructions.index(derived) < instructions.index(gadget)
    assert program.expansions == ("sigma_h", "derived_xprime")


def test_state_vector_rejects_a_nan_norm():
    with pytest.raises(ValueError, match="state norm nan too far from 1"):
        StateVector(1, [np.nan, 0])


def test_stack_norm_rule_names_the_first_bad_row_nan_included():
    ok = [1.0, 0.0]
    with pytest.raises(ValueError, match="state norm nan too far from 1"):
        _normalized_rows(np.array([ok, [np.nan, 0.0], [2.0, 0.0]], dtype=complex))
    with pytest.raises(ValueError, match="state norm 2.0 too far from 1"):
        _normalized_rows(np.array([ok, [2.0, 0.0], [np.nan, 0.0]], dtype=complex))
    # Every other row kept as it is: the NaN row alone must not pass.
    with pytest.raises(ValueError, match="state norm nan too far from 1"):
        _normalized_rows(np.array([ok, ok, [0.0, np.nan]], dtype=complex))


def test_gadget_call_rejects_nan_amplitudes_by_the_norm_rule():
    state = StateVector(1, [1, 0])
    state.amplitudes = np.array([np.nan, 0], dtype=complex)
    with pytest.raises(ValueError, match="state norm nan too far from 1"):
        gadget_sigma_h(state, 0, np.random.default_rng(0))


@pytest.mark.parametrize("force", [2, 0, "1"])
def test_g_meter_checks_force_before_negating_it(force):
    state = StateVector(1, [1, 0])
    message = re.escape(f"forced outcome must be +/-1, got {force}")
    with pytest.raises(ValueError, match=message):
        measure_g_via_hghgh(state, 0, None, force=force)
    # The same message the parity meter reports for the same value.
    with pytest.raises(ValueError, match=message):
        measure_parity_conjugated(StateVector(2, [1, 0, 0, 0]), (0, 1), "XX", None, force=force)
