"""The one source-gate table, the record rule, the parser's integer forms and
forced outcomes reported as ints.

`_SOURCE_GATES` is the only map from a circuit gate name to its arity, its
reference matrix and its lowering; these tests hold each row to the others'
meaning of it.  Program records are an instruction's fields plus its kind,
checked against the hand-written record shapes they replaced.
"""
import contextlib
import io
import json
import re

import numpy as np
import pytest

from conftest import haar_state
from qmarket.algebra import PauliString, named_gate
from qmarket.cli import EXIT_USAGE, main
from qmarket.compiler import (
    _SOURCE_GATES,
    Circuit,
    CompileError,
    Correct,
    Feedforward,
    GateOp,
    MeasureGInstr,
    MeasurePauliInstr,
    ParseError,
    Prepare,
    Retire,
    _Block,
    _instruction_record,
    _simulate,
    check_equivalence,
    compile_to_measurements,
    parse_circuit,
)
from qmarket.gadgets import (
    _SPECS,
    gadget_cnot,
    gadget_sigma_h,
    measure_g_via_hghgh,
    measure_parity_conjugated,
    measure_xprime_derived,
)
from qmarket.statevec import measure_hermitian, measure_pauli

COMPILABLE = sorted(name for name, row in _SOURCE_GATES.items() if row.lowering is not None)


# ---------------------------------------------------------------------------
# Table invariants


@pytest.mark.parametrize("name", sorted(_SOURCE_GATES))
def test_matrix_fits_arity(name):
    row = _SOURCE_GATES[name]
    assert named_gate(row.matrix).shape == (2**row.arity, 2**row.arity)


@pytest.mark.parametrize("name", [n for n, r in _SOURCE_GATES.items() if isinstance(r.lowering, _Block)])
def test_block_row_targets_its_matrix(name):
    row = _SOURCE_GATES[name]
    spec = _SPECS[row.lowering.kind]
    assert spec.target == row.matrix
    assert len(spec.roles) == row.arity


@pytest.mark.parametrize("name", [n for n, r in _SOURCE_GATES.items() if isinstance(r.lowering, str)])
def test_letter_row_is_its_matrix(name):
    assert _SOURCE_GATES[name].lowering == _SOURCE_GATES[name].matrix


def _sequence_rows():
    return [n for n, r in _SOURCE_GATES.items() if isinstance(r.lowering, tuple)
            and not isinstance(r.lowering, _Block)]


def test_sequence_rows_include_ch_and_identity():
    assert {"ch", "i"} <= set(_sequence_rows())


@pytest.mark.parametrize("name", _sequence_rows())
def test_sequence_row_multiplies_out_to_its_matrix(name):
    row = _SOURCE_GATES[name]
    wires = tuple(range(row.arity))
    circuit = Circuit(row.arity, tuple(
        GateOp(part, wires[-_SOURCE_GATES[part].arity:]) for part in row.lowering
    ))
    # Row b of the output is the sequence applied to basis state b: column b of U.
    columns, _ = _simulate(circuit, np.eye(2**row.arity, dtype=complex))
    assert np.allclose(columns.T, named_gate(row.matrix), rtol=0, atol=1e-12)


@pytest.mark.parametrize("mode", ["extended", "strict"])
def test_g_parses_and_does_not_compile(mode):
    circuit = parse_circuit("qubits 1\nh 0\ng 0\n")
    assert [op.name for op in circuit.ops] == ["h", "g"]
    with pytest.raises(CompileError, match=r"^gate 'g' is not in the compilable set$"):
        compile_to_measurements(circuit, mode)


def test_unknown_programmatic_gate_is_a_compile_error():
    with pytest.raises(CompileError, match="'bogus' is not in the compilable set"):
        compile_to_measurements(Circuit(1, (GateOp("bogus", (0,)),)))


@pytest.mark.parametrize("mode", ["extended", "strict"])
def test_identity_lines_compile_to_nothing(mode):
    with_i = parse_circuit("qubits 2\ni 0\nh 0\ni 1\ncnot 0 1\ni 0\nt 1\ni 1\n")
    without = parse_circuit("qubits 2\nh 0\ncnot 0 1\nt 1\n")
    assert [op.name for op in with_i.ops].count("i") == 4
    program = compile_to_measurements(with_i, mode)
    assert program == compile_to_measurements(without, mode)
    assert check_equivalence(with_i, program, trials=8, base_seed=3).passed


# ---------------------------------------------------------------------------
# Record oracle: the hand-written record shapes the record rule replaced


def _parent_record(ins) -> dict:
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


def _random_circuit(rng, n: int, length: int) -> str:
    lines = [f"qubits {n}"]
    for _ in range(length):
        name = COMPILABLE[rng.integers(len(COMPILABLE))]
        wires = rng.choice(n, _SOURCE_GATES[name].arity, replace=False)
        lines.append(" ".join([name, *map(str, wires)]))
    return "\n".join(lines)


@pytest.mark.parametrize("mode", ["extended", "strict"])
def test_records_match_the_hand_written_shapes(mode):
    rng = np.random.default_rng(1808)
    kinds = set()
    pauli_feedforwards = 0
    for _ in range(12):
        circuit = parse_circuit(_random_circuit(rng, int(rng.integers(2, 4)), 8))
        program = compile_to_measurements(circuit, mode)
        for ins in program.instructions:
            expected = json.dumps(_parent_record(ins), sort_keys=True)
            assert json.dumps(_instruction_record(ins), sort_keys=True) == expected
            kinds.add(_parent_record(ins)["kind"])
            pauli_feedforwards += isinstance(ins, Feedforward) and ins.push is None
    assert pauli_feedforwards > 0
    assert kinds == {"prepare", "measure", "measure_g", "correct", "retire", "feedforward"}


def test_unknown_instruction_record_is_a_type_error():
    with pytest.raises(TypeError, match=r"^unknown instruction 'bogus'$"):
        _instruction_record("bogus")


# ---------------------------------------------------------------------------
# Parser: qubit counts and indices are ASCII digits


@pytest.mark.parametrize("text, line, message", [
    ("qubits 1_6\n", 1, "bad qubit count '1_6'"),
    ("# header next\nqubits +2\n", 2, "bad qubit count '+2'"),
    ("qubits ٢\n", 1, "bad qubit count"),
    ("qubits 2\nh +0\n", 2, "bad qubit index in 'h +0'"),
    ("qubits 2\nh 0\nh ١\n", 3, "bad qubit index"),
    ("qubits 2\ncnot 0 1_0\n", 2, "bad qubit index"),
])
def test_non_canonical_integers_are_rejected(text, line, message):
    with pytest.raises(ParseError, match=re.escape(message)) as err:
        parse_circuit(text)
    assert err.value.line == line


def test_negative_index_keeps_its_range_message():
    with pytest.raises(ParseError, match=r"^line 2: qubit index out of range in 'h -1'$"):
        parse_circuit("qubits 2\nh -1\n")


def test_leading_zeros_are_still_decimal():
    assert parse_circuit("qubits 03\ncnot 00 02\n") == parse_circuit("qubits 3\ncnot 0 2\n")


@pytest.mark.parametrize("text", ["qubits 1_6\nh 0\n", "qubits 2\nh ١\n", "qubits 2\nh +0\n"])
def test_rejected_integers_exit_2(tmp_path, text):
    path = tmp_path / "c.qc"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["run", str(path)])
    assert code == EXIT_USAGE
    assert out.getvalue() == "" and "line " in err.getvalue()


# ---------------------------------------------------------------------------
# Forced outcomes are reported as ints, whatever value equal to +/-1 forced them

FORCED = [True, 1.0, np.int64(-1)]


def _all_int(values):
    return all(type(v) is int for v in values)


@pytest.mark.parametrize("value", FORCED)
def test_forced_gadget_outcomes_are_ints(value):
    state = haar_state(2, np.random.default_rng(5))
    result = gadget_sigma_h(state, 0, None, [value, value, value])
    assert _all_int(result.eigenvalues)
    assert result.eigenvalues == (int(value),) * 3
    result = gadget_cnot(state, 0, 1, None, [value] * 4)
    assert _all_int(result.eigenvalues)


@pytest.mark.parametrize("value", FORCED)
def test_forced_helper_outcomes_are_ints(value):
    state = haar_state(2, np.random.default_rng(6))
    outcome, _ = measure_g_via_hghgh(state, 0, None, force=value)
    assert type(outcome.eigenvalue) is int and outcome.eigenvalue == value
    outcome, _ = measure_parity_conjugated(state, (0, 1), "XX", None, force=value)
    assert type(outcome.eigenvalue) is int and outcome.eigenvalue == value
    outcome, _ = measure_xprime_derived(state, 1, None, [value, 1])
    assert type(outcome.eigenvalue) is int and outcome.eigenvalue == value


@pytest.mark.parametrize("value", FORCED)
def test_forced_statevec_outcomes_are_ints(value):
    state = haar_state(1, np.random.default_rng(7))
    outcome, _ = measure_pauli(state, PauliString.from_letters("X"), None, force=value)
    assert type(outcome.eigenvalue) is int and outcome.eigenvalue == value
    outcome, _ = measure_hermitian(state, named_gate("G"), [0], None, force=value)
    assert type(outcome.eigenvalue) is int and outcome.eigenvalue == value
