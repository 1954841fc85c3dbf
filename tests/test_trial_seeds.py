"""Batched trial seeding gives exactly what a SeedSequence per seed gives.

`seeding` runs numpy's SeedSequence hash on uint32 arrays, a whole chunk of
trials at once.  `np.random.SeedSequence` and `np.random.default_rng` are
the reference: every seed, generator stream and verify fidelity must be the
one they give, for base seeds of any size and trial ids of one or more
words.  CI runs this file with warnings as errors, so a uint32 overflow
warning from scalar arithmetic in the hash fails it.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmarket import compiler, seeding
from qmarket.compiler import (
    check_equivalence,
    compile_to_measurements,
    execute,
    parse_circuit,
    simulate_circuit,
    trial_seed,
)
from qmarket.seeding import generators, trial_generators, trial_seeds
from qmarket.statevec import apply_pauli, fidelity, random_state

STREAMS = (0, 1, 7)
BASE_EDGES = (0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**200)


def oracle_seed(base_seed, trial, stream):
    return int(np.random.SeedSequence((base_seed, trial, stream)).generate_state(1)[0])


@settings(max_examples=80, deadline=None)
@given(
    base_seed=st.one_of(st.sampled_from(BASE_EDGES), st.integers(0, 2**200)),
    ids=st.lists(
        st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**80)), min_size=1, max_size=12
    ),
)
def test_trial_seeds_equal_seed_sequence(base_seed, ids):
    seeds = trial_seeds(base_seed, ids, STREAMS)
    assert seeds.dtype == np.uint32
    assert seeds.tolist() == [[oracle_seed(base_seed, t, s) for s in STREAMS] for t in ids]


@pytest.mark.parametrize("base_seed", BASE_EDGES)
def test_ids_of_one_and_more_words_in_one_batch(base_seed):
    ids = [0, 2**32, 5, 2**32 - 1, 2**64 + 1, 2**32 + 9, 7]
    seeds = trial_seeds(base_seed, ids, STREAMS)
    assert seeds.tolist() == [[oracle_seed(base_seed, t, s) for s in STREAMS] for t in ids]
    assert [trial_seed(base_seed, t, 1) for t in ids] == seeds[:, 1].tolist()


@pytest.mark.parametrize("k", [1, 7, 64])
def test_generators_draw_default_rng_streams(k):
    seeds = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**200]
    seeds += trial_seeds(9, range(20), (0, 1)).ravel().tolist()
    for seed, rng in zip(seeds, generators(seeds), strict=True):
        reference = np.random.default_rng(seed)
        assert rng.random(k).tobytes() == reference.random(k).tobytes()
        assert rng.normal(size=k).tobytes() == reference.normal(size=k).tobytes()


def test_trial_generators_cross_chunks_in_order(monkeypatch):
    monkeypatch.setattr(seeding, "_GENERATOR_CHUNK", 3)
    rngs = list(trial_generators(2**40 + 1, 8, 7))
    assert len(rngs) == 8
    for t, rng in enumerate(rngs):
        reference = np.random.default_rng(oracle_seed(2**40 + 1, t, 7))
        assert rng.random(5).tobytes() == reference.random(5).tobytes()


@pytest.mark.parametrize("seed, error", [(-1, ValueError), (1.5, TypeError), ("3", TypeError)])
def test_bad_seed_raises_what_default_rng_raises(seed, error):
    with pytest.raises(error):
        np.random.default_rng(seed)
    with pytest.raises(error):
        generators([seed])
    with pytest.raises(error):
        trial_seeds(seed, [0], [0])


CIRCUITS = {
    "eight_gate": "qubits 3\nh 0\nt 0\ncnot 0 1\nh 1\nt 2\ncnot 1 2\nh 2\nt 1\n",
    "ch": "qubits 2\nch 0 1\n",
    "four_qubit": "qubits 4\nh 0\nt 1\ncnot 0 2\nch 1 3\nh 3\nt 2\ncnot 3 0\nt 0\n",
}


def per_trial_fidelities(circuit, program, trials, base_seed):
    """Each trial alone, seeded by SeedSequence and default_rng, its frame
    applied by `apply_pauli`."""
    fidelities = []
    for t in range(trials):
        state = random_state(circuit.n_qubits, np.random.default_rng(oracle_seed(base_seed, t, 0)))
        record = execute(program, state, oracle_seed(base_seed, t, 1))
        reference, _ = simulate_circuit(circuit, state)
        fidelities.append(fidelity(reference, apply_pauli(record.final_state, record.frame.element)))
    return fidelities


@pytest.mark.parametrize("base_seed", [5, 2**64 + 3])
@pytest.mark.parametrize("mode", ["extended", "strict"])
@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_verify_fidelities_equal_per_trial_default_rng(name, mode, base_seed, monkeypatch):
    circuit = parse_circuit(CIRCUITS[name])
    program = compile_to_measurements(circuit, mode)
    # 7 rows per chunk: 30 trials are four full chunks and a short one.
    monkeypatch.setattr(compiler, "_CHUNK_AMPLITUDES", 7 << program._planned.peak)
    report = check_equivalence(circuit, program, trials=30, tol=1e-9, base_seed=base_seed)
    # The reference executor draws its meters from default_rng itself.
    monkeypatch.setattr(
        compiler, "generators", lambda seeds: [np.random.default_rng(s) for s in seeds]
    )
    expected = per_trial_fidelities(circuit, program, 30, base_seed)
    assert list(report.fidelities) == expected
    assert report.passed
