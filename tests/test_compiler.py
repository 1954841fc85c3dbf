import numpy as np
import pytest

from conftest import haar_state
from qmarket.algebra import named_gate
from qmarket.compiler import (
    CompileError,
    Correct,
    Feedforward,
    MeasureGInstr,
    ParseError,
    Prepare,
    ProgramError,
    Retire,
    check_equivalence,
    compile_to_measurements,
    execute,
    parse_circuit,
    simulate_circuit,
    trial_seed,
)
from qmarket.statevec import apply_pauli, new_basis_state

S2 = 1.0 / np.sqrt(2.0)

BELL_SRC = "qubits 2\nh 0\ncnot 0 1\n"


def test_parse_bell():
    circuit = parse_circuit(BELL_SRC)
    assert circuit.n_qubits == 2
    assert [op.name for op in circuit.ops] == ["h", "cnot"]
    assert circuit.ops[1].targets == (0, 1)


def test_parse_comments_and_blanks():
    circuit = parse_circuit("# prep\n\nqubits 1\nh 0  # transfer\n\n")
    assert circuit.n_qubits == 1 and len(circuit.ops) == 1


def test_parse_t_twice_equals_s():
    circuit = parse_circuit("qubits 1\nt 0\nt 0\n")
    # act on both basis columns to reconstruct the circuit unitary
    cols = []
    for bits in ("0", "1"):
        state, _ = simulate_circuit(circuit, new_basis_state(1, bits))
        cols.append(state.amplitudes)
    assert np.allclose(np.column_stack(cols), named_gate("S"), atol=1e-12)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_circuit("qubits 1\nbogus 0\n")
    assert err.value.line == 2

    with pytest.raises(ParseError):
        parse_circuit("h 0\n")  # missing header
    with pytest.raises(ParseError):
        parse_circuit("qubits 1\ncnot 0\n")  # arity
    with pytest.raises(ParseError):
        parse_circuit("qubits 1\nh 4\n")  # range
    with pytest.raises(ParseError):
        parse_circuit("qubits 2\ncnot 1 1\n")  # duplicate
    with pytest.raises(ParseError):
        parse_circuit("qubits 0\n")
    with pytest.raises(ParseError):
        parse_circuit("")


def test_compile_h_extended_is_three_meters_one_ancilla():
    program = compile_to_measurements(parse_circuit("qubits 1\nh 0\n"), "extended")
    assert len(program.measurements) == 3
    assert program.ancilla_count == 1
    assert program.expansions == ("sigma_h",)


def test_compile_h_strict_uses_derived_xprime():
    program = compile_to_measurements(parse_circuit("qubits 1\nh 0\n"), "strict")
    assert len(program.measurements) == 4
    assert program.ancilla_count == 2
    assert program.expansions == ("sigma_h", "derived_xprime")
    program.validate_structure()


def test_compile_pauli_is_pure_frame_update():
    for mode in ("extended", "strict"):
        program = compile_to_measurements(parse_circuit("qubits 1\nx 0\n"), mode)
        assert len(program.measurements) == 0
        assert program.ancilla_count == 0
        record = execute(program, new_basis_state(1, "0"), seed=1)
        assert record.frame.element.letters == ("X",)
        assert np.allclose(record.final_state.amplitudes, [1, 0], atol=1e-12)


def test_compile_rejects_g_and_non_gate_ops():
    with pytest.raises(CompileError):
        compile_to_measurements(parse_circuit("qubits 1\ng 0\n"), "extended")
    with pytest.raises(ValueError):
        compile_to_measurements(parse_circuit(BELL_SRC), "loose")


def test_strict_mode_structural_invariant():
    program = compile_to_measurements(parse_circuit(BELL_SRC), "strict")
    for ins in program.measurements:
        if isinstance(ins, MeasureGInstr):
            continue
        assert ins.letters in (("X",), ("X", "Xp"))


def test_strict_t_program_contains_g_meter_and_correct():
    program = compile_to_measurements(parse_circuit("qubits 1\nt 0\n"), "strict")
    kinds = [type(ins) for ins in program.instructions]
    assert MeasureGInstr in kinds
    assert Correct in kinds
    program.validate_structure()


def test_ch_decomposition_is_exact():
    # the compiled gate sequence for ch must multiply out to CH exactly
    circuit = parse_circuit("qubits 2\nch 0 1\n")
    cols = []
    for bits in ("00", "01", "10", "11"):
        state, _ = simulate_circuit(parse_circuit(
            "qubits 2\n" + "\n".join(
                f"{g} 1" if g != "cnot" else "cnot 0 1"
                for g in __import__("qmarket.compiler", fromlist=["_CH_GATE_SEQUENCE"])._CH_GATE_SEQUENCE
            )
        ), new_basis_state(2, bits))
        cols.append(state.amplitudes)
    assert np.allclose(np.column_stack(cols), named_gate("CH"), atol=1e-12)


def test_execute_empty_program():
    program = compile_to_measurements(parse_circuit("qubits 1\n"), "extended")
    record = execute(program, new_basis_state(1, "0"), seed=0)
    assert np.allclose(record.final_state.amplitudes, [1, 0])
    assert record.frame.element.letters == ("I",)


def test_compiled_h_reproduces_plus_over_many_seeds():
    circuit = parse_circuit("qubits 1\nh 0\n")
    plus = np.array([S2, S2])
    for mode in ("extended", "strict"):
        program = compile_to_measurements(circuit, mode)
        for seed in range(1000):
            record = execute(program, new_basis_state(1, "0"), seed)
            corrected = apply_pauli(record.final_state, record.frame.element)
            assert abs(abs(np.vdot(corrected.amplitudes, plus)) - 1) < 1e-10


def test_compiled_bell_prep():
    circuit = parse_circuit(BELL_SRC)
    bell = np.array([S2, 0, 0, S2])
    for mode in ("extended", "strict"):
        program = compile_to_measurements(circuit, mode)
        for seed in range(60):
            record = execute(program, new_basis_state(2, "00"), seed)
            corrected = apply_pauli(record.final_state, record.frame.element)
            assert abs(abs(np.vdot(corrected.amplitudes, bell)) - 1) < 1e-10


def test_execute_determinism():
    circuit = parse_circuit("qubits 2\nh 0\nt 1\ncnot 1 0\n")
    program = compile_to_measurements(circuit, "strict")
    state = haar_state(2, np.random.default_rng(4))
    a = execute(program, state, seed=12345)
    b = execute(program, state, seed=12345)
    assert a.outcomes == b.outcomes
    assert np.array_equal(a.final_state.amplitudes, b.final_state.amplitudes)
    assert a.frame.element == b.frame.element
    assert a.ancilla_residues == b.ancilla_residues


def test_execute_register_before_set():
    from qmarket.compiler import ByproductTerm, MeasurementProgram

    program = MeasurementProgram(
        1,
        (Feedforward(None, (ByproductTerm("X", 0, ("mzz",)),)),),
        "extended",
        (),
    )
    with pytest.raises(ProgramError):
        execute(program, new_basis_state(1, "0"), seed=0)


def test_execute_wrong_input_size():
    program = compile_to_measurements(parse_circuit("qubits 2\nh 0\n"), "extended")
    with pytest.raises(ValueError):
        execute(program, new_basis_state(1, "0"), seed=0)


def test_execute_rejects_dangling_ancilla():
    from qmarket.compiler import MeasurementProgram

    program = MeasurementProgram(1, (Prepare("a0"),), "extended", ("sigma_h",))
    with pytest.raises(ProgramError):
        execute(program, new_basis_state(1, "0"), seed=0)


def test_execute_rejects_wrong_residue_claim():
    # retire a wire that is entangled / not in the claimed eigenstate
    from qmarket.compiler import MeasurementProgram, MeasurePauliInstr

    program = MeasurementProgram(
        1,
        (
            Prepare("a0"),
            MeasurePauliInstr(("X",), ("a0",), "m0", "X"),
            # claim the ancilla sits in an X' eigenstate; it is in |+-> instead
            Retire("a0", None, "Xp", ("m0",)),
        ),
        "extended",
        ("sigma_h",),
    )
    with pytest.raises(ProgramError):
        execute(program, new_basis_state(1, "0"), seed=0)


def test_check_equivalence_passes_for_h():
    circuit = parse_circuit("qubits 1\nh 0\n")
    program = compile_to_measurements(circuit, "strict")
    report = check_equivalence(circuit, program, trials=50, tol=1e-10, base_seed=1)
    assert report.passed and report.min_fidelity >= 1 - 1e-10
    assert len(report.fidelities) == 50
    for counts in report.outcome_counts.values():
        assert counts["+1"] + counts["-1"] == 50


def test_check_equivalence_detects_mismatch():
    h_circuit = parse_circuit("qubits 1\nh 0\n")
    t_program = compile_to_measurements(parse_circuit("qubits 1\nt 0\n"), "extended")
    report = check_equivalence(h_circuit, t_program, trials=50, tol=1e-10, base_seed=1)
    assert not report.passed
    assert report.min_fidelity < 1 - 1e-10
    assert report.failing_trials


def test_check_equivalence_cnot_strict():
    circuit = parse_circuit("qubits 2\ncnot 0 1\n")
    program = compile_to_measurements(circuit, "strict")
    report = check_equivalence(circuit, program, trials=50, tol=1e-10, base_seed=5)
    assert report.passed


def test_check_equivalence_qubit_mismatch():
    circuit = parse_circuit("qubits 2\nh 0\n")
    program = compile_to_measurements(parse_circuit("qubits 1\nh 0\n"), "extended")
    with pytest.raises(ValueError):
        check_equivalence(circuit, program, trials=5)


def test_ancilla_accounting_and_residues():
    circuit = parse_circuit("qubits 2\nh 0\nt 1\ncnot 0 1\n")
    for mode in ("extended", "strict"):
        program = compile_to_measurements(circuit, mode)
        prepares = sum(1 for ins in program.instructions if isinstance(ins, Prepare))
        assert prepares == len(program.expansions)
        retires = [ins for ins in program.instructions if isinstance(ins, Retire)]
        record = execute(program, haar_state(2, np.random.default_rng(9)), seed=3)
        assert len(record.ancilla_residues) == len(retires)
        assert all(bitchar in "01" for _wire, bitchar in record.ancilla_residues)


def test_program_serialization_roundtrip_fields():
    import json

    program = compile_to_measurements(parse_circuit("qubits 1\nt 0\n"), "strict")
    lines = program.to_json_lines().strip().split("\n")
    header = json.loads(lines[0])
    assert header["record"] == "program"
    assert header["primitive_set"] == "strict"
    kinds = {json.loads(line)["kind"] for line in lines[1:]}
    assert kinds == {"prepare", "measure", "measure_g", "correct", "retire", "feedforward"}


def test_random_circuits_both_modes(rng):
    gates = ["h", "t", "cnot", "x", "xp", "xpp"]
    for trial in range(10):
        n = int(rng.integers(2, 5))
        lines = [f"qubits {n}"]
        for _ in range(6):
            g = gates[rng.integers(len(gates))]
            if g == "cnot":
                a, b = rng.choice(n, 2, replace=False)
                lines.append(f"cnot {a} {b}")
            else:
                lines.append(f"{g} {rng.integers(n)}")
        circuit = parse_circuit("\n".join(lines))
        for mode in ("extended", "strict"):
            program = compile_to_measurements(circuit, mode)
            program.validate_structure()
            report = check_equivalence(circuit, program, trials=8, tol=1e-9, base_seed=trial)
            assert report.passed, ("\n".join(lines), mode, report.min_fidelity)


def test_trial_seed_is_stable():
    assert trial_seed(7, 3, 1) == trial_seed(7, 3, 1)
    assert trial_seed(7, 3, 1) != trial_seed(7, 4, 1)


def test_check_equivalence_is_order_insensitive():
    """Per-trial seeds derive from (base_seed, trial), so computing trials in
    any order must reproduce the sequential report's aggregates."""
    from qmarket.compiler import simulate_circuit as sim
    from qmarket.statevec import apply_pauli as ap, fidelity as fid, random_state

    circuit = parse_circuit("qubits 2\nh 0\ncnot 0 1\n")
    program = compile_to_measurements(circuit, "extended")
    report = check_equivalence(circuit, program, trials=20, tol=1e-10, base_seed=4)

    fidelities = {}
    counts = {}
    for t in reversed(range(20)):
        state = random_state(2, np.random.default_rng(trial_seed(4, t, 0)))
        record = execute(program, state, trial_seed(4, t, 1))
        reference, _ = sim(circuit, state)
        fidelities[t] = fid(reference, ap(record.final_state, record.frame.element))
        for reg, value in record.outcomes.items():
            slot = counts.setdefault(reg, {"+1": 0, "-1": 0})
            slot["+1" if value == 1 else "-1"] += 1
    assert tuple(fidelities[t] for t in range(20)) == report.fidelities
    assert counts == report.outcome_counts


def test_programmatic_measure_op():
    from qmarket.algebra import PauliString
    from qmarket.compiler import Circuit, GateOp, MeasureOp

    circuit = Circuit(
        1, (GateOp("h", (0,)), MeasureOp(PauliString.from_letters("X")))
    )
    state, outcomes = simulate_circuit(circuit, rng=np.random.default_rng(0))
    assert len(outcomes) == 1
    assert outcomes[0].eigenvalue == 1  # |+> is a +1 eigenstate of X
    assert abs(outcomes[0].probability - 1) < 1e-12
    assert np.allclose(state.amplitudes, [S2, S2], atol=1e-12)


def test_programmatic_prepare_op():
    from qmarket.compiler import Circuit, GateOp, PrepareOp

    circuit = Circuit(1, (GateOp("h", (0,)), PrepareOp(0, 1)))
    for seed in range(10):
        state, _ = simulate_circuit(circuit, rng=np.random.default_rng(seed))
        assert np.allclose(np.abs(state.amplitudes), [0, 1], atol=1e-12)


def test_measure_op_circuits_are_not_compilable():
    from qmarket.algebra import PauliString
    from qmarket.compiler import Circuit, MeasureOp

    circuit = Circuit(1, (MeasureOp(PauliString.from_letters("X")),))
    with pytest.raises(CompileError):
        compile_to_measurements(circuit, "extended")
