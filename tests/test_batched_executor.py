"""The batched executor: every trial of a batch is the trial run alone.

`execute` is the executor's batch of one, and `check_equivalence` runs all of
its trials through the same executor in chunks.  These tests pin that a row of
a batch is bit-identical to the same trial run alone, that chunking leaves the
report unchanged, and that the executor's checks hold on every row.  A serial
executor built from the public statevec and frame functions, one instruction
and one `rng.random()` draw at a time, is kept here as the reference for the
outcome streams and the frames.
"""
import numpy as np
import pytest

from qmarket import compiler
from qmarket.algebra import NonPauliResultError, PauliString, named_gate, pauli_mul
from qmarket.compiler import (
    ByproductTerm,
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
    trial_seed,
)
from qmarket.pauliframe import PauliFrame, frame_absorb_right, frame_update, push_through
from qmarket.statevec import (
    StateVector,
    append_qubit,
    apply_gate,
    measure_hermitian,
    measure_pauli,
    new_basis_state,
    permute_qubits,
    random_state,
    remove_qubit,
)

CIRCUITS = {
    "bell": "qubits 2\nh 0\ncnot 0 1\n",
    "eight_gate": "qubits 3\nh 0\nt 0\ncnot 0 1\nh 1\nt 2\ncnot 1 2\nh 2\nt 1\n",
    "ch": "qubits 2\nch 0 1\n",
    "four_qubit": "qubits 4\nh 0\nt 1\ncnot 0 2\nch 1 3\nh 3\nt 2\ncnot 3 0\nt 0\n",
}
CASES = [(name, mode) for name in CIRCUITS for mode in ("extended", "strict")]


def compiled(name, mode):
    circuit = parse_circuit(CIRCUITS[name])
    return circuit, compile_to_measurements(circuit, mode)


def trial_inputs(n, base_seed, trials):
    states = [random_state(n, np.random.default_rng(trial_seed(base_seed, t, 0)))
              for t in range(trials)]
    seeds = [trial_seed(base_seed, t, 1) for t in range(trials)]
    return states, seeds


@pytest.mark.parametrize("name, mode", CASES)
def test_batch_rows_equal_single_runs(name, mode):
    circuit, program = compiled(name, mode)
    states, seeds = trial_inputs(circuit.n_qubits, 3, 32)
    plan = compiler._plan(program)
    run = compiler._run(plan, np.array([s.amplitudes for s in states]), seeds)
    for row, (state, seed) in enumerate(zip(states, seeds)):
        batched = compiler._record(plan, run, row, seed)
        alone = execute(program, state, seed)
        assert np.array_equal(batched.final_state.amplitudes, alone.final_state.amplitudes)
        assert batched.frame == alone.frame
        assert batched.outcomes == alone.outcomes
        assert list(batched.outcomes) == list(alone.outcomes)
        assert batched.ancilla_residues == alone.ancilla_residues


@pytest.mark.parametrize("name, mode", CASES)
def test_chunking_leaves_report_unchanged(name, mode, monkeypatch):
    circuit, program = compiled(name, mode)
    whole = check_equivalence(circuit, program, trials=200, tol=1e-9, base_seed=8)
    # 13 rows per chunk: 16 chunks, the last one short.
    monkeypatch.setattr(compiler, "_CHUNK_AMPLITUDES", 13 << compiler._plan(program).peak)
    chunked = check_equivalence(circuit, program, trials=200, tol=1e-9, base_seed=8)
    assert chunked == whole
    assert whole.passed


def serial_execute(program, input_state, seed):
    """The executor one trial and one instruction at a time, on the public
    statevec and frame functions: an SVD per retire, one draw per stochastic
    meter."""
    rng = np.random.default_rng(seed)
    state = input_state
    positions = {i: i for i in range(program.n_logical)}
    registers = {}
    residues = []
    frame = PauliFrame.identity(program.n_logical)
    n = program.n_logical
    for ins in program.instructions:
        if isinstance(ins, Prepare):
            state = append_qubit(state, "0")
            positions[ins.wire] = state.n_qubits - 1
        elif isinstance(ins, MeasurePauliInstr):
            obs = PauliString.identity(state.n_qubits)
            for letter, wire in zip(ins.letters, ins.wires):
                obs = pauli_mul(obs, PauliString.single(state.n_qubits, positions[wire], letter))
            outcome, state = measure_pauli(state, obs, rng)
            registers[ins.register] = outcome.eigenvalue
        elif isinstance(ins, MeasureGInstr):
            outcome, state = measure_hermitian(state, named_gate("G"), [positions[ins.wire]], rng)
            registers[ins.register] = outcome.eigenvalue
        elif isinstance(ins, Correct):
            letter = frame.letter_on(ins.wire)
            if letter in (("X", "Xpp") if ins.component == "x" else ("Xp", "Xpp")):
                pauli = "X" if ins.component == "x" else "Xp"
                state = apply_gate(state, named_gate(pauli), [positions[ins.wire]])
                frame = frame_absorb_right(frame, PauliString.single(n, ins.wire, pauli))
        elif isinstance(ins, Retire):
            bit = (1 - int(np.prod([registers[r] for r in ins.residue_registers]))) // 2
            pos = positions.pop(ins.wire)
            state, _removed = remove_qubit(state, pos)
            residues.append((str(ins.wire), str(bit)))
            for wire, p in positions.items():
                if p > pos:
                    positions[wire] = p - 1
            if ins.promote is not None:
                positions[ins.wire] = positions.pop(ins.promote)
        else:
            if ins.push is not None:
                frame = push_through(frame, ins.push[0], list(ins.push[1]))
            for term in ins.byproduct:
                if not term.registers or np.prod([registers[r] for r in term.registers]) == -1:
                    frame = frame_update(frame, PauliString.single(n, term.wire, term.letter))
    order = [positions[i] for i in range(n)]
    if order != list(range(n)):
        state = permute_qubits(state, order)
    return state, frame, registers, tuple(residues)


@pytest.mark.parametrize("name, mode", CASES)
def test_executor_matches_serial_reference(name, mode):
    circuit, program = compiled(name, mode)
    states, seeds = trial_inputs(circuit.n_qubits, 5, 8)
    for state, seed in zip(states, seeds):
        record = execute(program, state, seed)
        final, frame, outcomes, residues = serial_execute(program, state, seed)
        assert record.outcomes == outcomes
        assert record.frame == frame
        assert record.ancilla_residues == residues
        # Summation order differs (row sums against BLAS dot products, an
        # eigenvector contraction against an SVD), so states agree to rounding.
        assert abs(np.vdot(record.final_state.amplitudes, final.amplitudes)) > 1 - 1e-12


def test_retire_of_entangled_wire_raises():
    program = MeasurementProgram(
        1,
        (
            Prepare("a0"),
            MeasurePauliInstr(("X", "Xp"), ("a0", 0), "m0", "XxXp"),
            Retire("a0", None, "X", ("m0",)),
        ),
        "extended",
        (),
    )
    plus = StateVector(1, np.array([1, 1]) / np.sqrt(2))
    for seed in range(4):
        with pytest.raises(ProgramError, match="entangled"):
            execute(program, plus, seed)
    # One entangled row fails the whole batch.
    stack = np.array([[1, 0], [1 / np.sqrt(2), 1 / np.sqrt(2)], [1j, 0]], dtype=complex)
    plan = compiler._plan(program)
    with pytest.raises(ProgramError, match="entangled"):
        compiler._run(plan, stack, [1, 2, 3])
    # Without the entangled row every wire retires cleanly.
    compiler._run(plan, stack[[0, 2]], [1, 3])


def test_push_leaving_pauli_group_raises():
    program = MeasurementProgram(
        2,
        (
            Feedforward(None, (ByproductTerm("X", 0, ()),)),
            Feedforward(("CH", (0, 1)), ()),
        ),
        "extended",
        (),
    )
    with pytest.raises(NonPauliResultError):
        execute(program, new_basis_state(2, "00"), seed=0)


def test_deterministic_meters_consume_no_draw():
    # X' on |0> is certain, so the X meter that follows must read the first
    # uniform of the trial's stream, as a serial run with one draw per
    # stochastic meter does.
    program = MeasurementProgram(
        1,
        (
            MeasurePauliInstr(("Xp",), (0,), "m0", "Xp"),
            MeasurePauliInstr(("X",), (0,), "m1", "X"),
        ),
        "extended",
        (),
    )
    for seed in range(20):
        record = execute(program, new_basis_state(1, "0"), seed)
        first = np.random.default_rng(seed).random()
        assert record.outcomes == {"m0": 1, "m1": 1 if first < 0.5 else -1}
