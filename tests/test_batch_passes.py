"""Oracles for `check_equivalence`'s whole-batch passes.

`check_equivalence` draws its inputs, applies the norm rule, takes its
overlaps and writes `verify`'s trial lines for a whole chunk of trials at
once.  Each pass must give every row the bytes the per-row function gives it
alone: `np.vecdot` against `np.vdot` and `statevec._norm`, the batch draw
against `random_state` as it was written per state, the stack norm rule
against `_normalized`, and the trial lines against `json.dumps`.
"""
import json
import re

import numpy as np
import pytest

from qmarket import compiler
from qmarket.cli import _sig, _trial_lines
from qmarket.compiler import (
    check_equivalence,
    compile_to_measurements,
    execute,
    parse_circuit,
    simulate_circuit,
    trial_seed,
)
from qmarket.seeding import generators
from qmarket.statevec import (
    StateVector,
    _norm,
    _normalized,
    _normalized_rows,
    _norms,
    _random_rows,
    apply_pauli,
    fidelity,
    random_state,
)


def _complex_rows(rng, batch, size):
    return rng.normal(size=(batch, size)) + 1j * rng.normal(size=(batch, size))


VECDOT_SHAPES = (
    [(1, 2**k) for k in range(1, 17)]
    + [(batch, 2**k) for batch in (3, 32) for k in range(1, 13)]
)


@pytest.mark.parametrize("batch, size", VECDOT_SHAPES)
def test_vecdot_matches_per_row_dots(batch, size):
    rng = np.random.default_rng(size * 37 + batch)
    x, y = _complex_rows(rng, batch, size), _complex_rows(rng, batch, size)
    overlaps = np.vecdot(x, y)
    norms = _norms(x)
    for b in range(batch):
        assert overlaps[b].tobytes() == np.vdot(x[b], y[b]).tobytes()
        assert norms[b].tobytes() == np.float64(_norm(x[b])).tobytes()
    # The .real and .imag views step over every other float, as `_norm`'s do.
    for part in ("real", "imag"):
        a, c = getattr(x, part), getattr(y, part)
        dots = np.vecdot(a, c)
        for b in range(batch):
            assert dots[b].tobytes() == a[b].dot(c[b]).tobytes()


def test_scalar_abs_matches_numpy_abs():
    """The fidelity is Python's abs of each overlap, where it was numpy's."""
    rng = np.random.default_rng(11)
    values = np.vecdot(_complex_rows(rng, 500, 4), _complex_rows(rng, 500, 4)) / 8
    values = np.concatenate([values, [1 + 0j, 0j, 1e-300 + 1e-300j, -1 + 1e-17j]])
    for value in values:
        assert float(abs(value)) == abs(complex(value))


def _random_state_per_state(n_qubits, rng):
    """`random_state` as it was written for one state: two draws of 2^n normals."""
    vec = rng.normal(size=2**n_qubits) + 1j * rng.normal(size=2**n_qubits)
    return StateVector(n_qubits, vec / _norm(vec))


@pytest.mark.parametrize("n_qubits", range(1, 7))
def test_batch_draw_matches_random_state(n_qubits):
    seeds = list(range(40))
    batch = _normalized_rows(_random_rows(n_qubits, generators(seeds)))
    for seed, row in zip(seeds, batch):
        expected = _random_state_per_state(n_qubits, np.random.default_rng(seed))
        assert row.tobytes() == expected.amplitudes.tobytes()
        state = random_state(n_qubits, np.random.default_rng(seed))
        assert state.amplitudes.tobytes() == expected.amplitudes.tobytes()


def _rows_with_norms(norms, size=8, seed=5):
    rows = _complex_rows(np.random.default_rng(seed), len(norms), size)
    return rows / np.linalg.norm(rows, axis=1)[:, None] * np.array(norms)[:, None]


def test_stack_norm_rule_keeps_and_rescales_as_each_row_alone():
    stack = _rows_with_norms([1.0, 1 + 1e-10, 1 - 1e-10, 1 + 5e-13, 1.0, 1 - 4e-10])
    # A kept row with signed zeros, which a division by 1 would not keep.
    signed = np.zeros(8, dtype=complex)
    signed[:2] = complex(-0.0, 0.6), complex(-0.8, -0.0)
    stack = np.vstack([stack, signed])
    before = stack.copy()
    out = _normalized_rows(stack)
    for row, alone in zip(out, stack):
        assert row.tobytes() == _normalized(alone).tobytes()
    assert stack.tobytes() == before.tobytes()  # the caller's stack is not rescaled in place
    kept = _rows_with_norms([1.0, 1 + 5e-13, 1 - 5e-13])
    assert _normalized_rows(kept) is kept


@pytest.mark.parametrize("norms, first", [
    ([1.0, 1 + 2e-9, 1 - 2e-9], 1),
    ([1 + 1e-10, 1.0, 1 - 2e-9, 1 + 2e-9], 2),
    ([1 - 2e-9], 0),
])
def test_stack_norm_rule_raises_on_the_first_rejected_row(norms, first):
    stack = _rows_with_norms(norms)
    with pytest.raises(ValueError) as alone:
        _normalized(stack[first])
    with pytest.raises(ValueError) as stacked:
        _normalized_rows(stack)
    assert str(stacked.value) == str(alone.value)
    assert "too far from 1" in str(stacked.value)


@pytest.mark.parametrize("value", [
    0.0, 1.0, 0.999999999999, 5e-324, 0.9999999999995, 1 - 1e-9, 0.123456789012345,
    float("nan"), float("inf"), float("-inf"),
])
def test_trial_lines_match_json(value):
    lines = _trial_lines([value, value, 0.5])
    for i, line in enumerate(lines):
        fid = _sig(value if i < 2 else 0.5)
        assert line == json.dumps({"record": "trial", "id": i, "fidelity": fid}, sort_keys=True)


CIRCUITS = {
    "bell": "qubits 2\nh 0\ncnot 0 1\n",
    "ch": "qubits 2\nch 0 1\n",
    "four_qubit": "qubits 4\nh 0\nt 1\ncnot 0 2\nch 1 3\nh 3\nt 2\ncnot 3 0\nt 0\n",
}


@pytest.mark.parametrize("name", CIRCUITS)
@pytest.mark.parametrize("mode", ["extended", "strict"])
def test_fidelities_match_trials_run_alone(name, mode, monkeypatch):
    """Each reported fidelity is the float the public functions give the trial
    alone: `random_state`, `execute`, `simulate_circuit`, `apply_pauli` and
    `fidelity`, with 5-row chunks so the last one is short."""
    circuit = parse_circuit(CIRCUITS[name])
    program = compile_to_measurements(circuit, mode)
    monkeypatch.setattr(compiler, "_CHUNK_AMPLITUDES", 5 << program._planned.peak)
    report = check_equivalence(circuit, program, trials=12, base_seed=21)
    for t, reported in enumerate(report.fidelities):
        state = random_state(circuit.n_qubits, np.random.default_rng(trial_seed(21, t, 0)))
        record = execute(program, state, trial_seed(21, t, 1))
        reference, _ = simulate_circuit(circuit, state)
        corrected = apply_pauli(record.final_state, record.frame.element)
        assert type(reported) is float
        assert reported == fidelity(reference, corrected)


@pytest.mark.parametrize("seed", [None, 1.5, -1, "3"])
def test_execute_rejects_the_seeds_generators_rejects(seed):
    """`execute` seeds `np.random.default_rng` directly, which would take None
    as fresh entropy; it still raises what `seeding.generators` raises."""
    program = compile_to_measurements(parse_circuit(CIRCUITS["bell"]), "extended")
    state = random_state(2, np.random.default_rng(0))
    with pytest.raises((TypeError, ValueError)) as expected:
        generators([seed])
    with pytest.raises(expected.type, match=re.escape(str(expected.value))):
        execute(program, state, seed)
