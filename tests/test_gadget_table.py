"""The GADGETS table: its shape, the laws derived from it, and the compiler's
lowering read from it."""
import itertools

import pytest

from qmarket.compiler import (
    Feedforward,
    MeasureGInstr,
    MeasurePauliInstr,
    compile_to_measurements,
    parse_circuit,
)
from qmarket.gadgets import GADGET_TARGET_UNITARIES, GADGETS, predicted_byproduct

KINDS = {
    "sigma_h", "sigma_h_swapped", "sigma_xx", "sigma_xpxp", "sigma_hsandwich",
    "sigma_t", "sigma_t_gmeter", "sigma_g", "cnot",
}


def test_table_holds_the_nine_kinds_and_their_targets():
    assert set(GADGETS) == KINDS
    assert GADGET_TARGET_UNITARIES == {kind: spec.target for kind, spec in GADGETS.items()}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_spec_is_well_formed(kind):
    spec = GADGETS[kind]
    assert spec.prep in ("0", "+")
    for letters, roles in spec.meters:
        assert len(letters) == len(roles) and set(roles) <= set(spec.roles + "a")
    # The last meter acts on the retired wire alone: its eigenstate is the residue.
    assert spec.meters[-1][1] == spec.retired
    for _letter, role, indices in spec.byproduct:
        assert role in spec.roles
        assert all(0 <= i < len(spec.meters) for i in indices)


def test_both_t_forms_share_one_law():
    for pattern in itertools.product((1, -1), repeat=3):
        assert predicted_byproduct("sigma_t_gmeter", list(pattern)) == predicted_byproduct(
            "sigma_t", list(pattern)
        )


def _meter_letters(program):
    return [
        ("G",) if isinstance(ins, MeasureGInstr) else ins.letters
        for ins in program.instructions
        if isinstance(ins, (MeasurePauliInstr, MeasureGInstr))
    ]


@pytest.mark.parametrize(
    "text, kinds",
    [
        ("qubits 1\nh 0\n", ["sigma_h"]),
        ("qubits 2\ncnot 0 1\n", ["cnot"]),
        ("qubits 1\nt 0\n", ["sigma_h", "sigma_t_gmeter"]),
    ],
)
def test_extended_blocks_follow_the_table(text, kinds):
    program = compile_to_measurements(parse_circuit(text), "extended")
    assert _meter_letters(program) == [
        letters for kind in kinds for letters, _roles in GADGETS[kind].meters
    ]
    feedforwards = [ins for ins in program.instructions if isinstance(ins, Feedforward)]
    assert [[t.letter for t in ff.byproduct] for ff in feedforwards] == [
        [letter for letter, _role, _indices in GADGETS[kind].byproduct] for kind in kinds
    ]
