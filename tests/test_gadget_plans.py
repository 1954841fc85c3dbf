"""The planned gadget runner against a copy of the step-by-step path.

The oracle below is the runner as it was before gadgets were planned: it
rebuilds the wire map, each meter's observable and the byproduct word on
every call, and retires through `remove_qubit` and `permute_qubits` on
StateVectors.  Every gadget kind and the derived X' meter are drawn at
input widths 1-5 (2-5 for cnot) on every valid target tuple, with Haar
inputs and either a seeded rng or a forced outcome pattern.  Several cases
run in one example, so kinds, widths and targets interleave in one process
and a plan cached under the wrong key shows as different bytes.
"""
import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import haar_state
from qmarket.algebra import PauliString, named_gate, pauli_mul
from qmarket.gadgets import (
    _XPRIME_METERS,
    GADGETS,
    T_CONJUGATED_X,
    GadgetResult,
    _run_gadget,
    bit,
    measure_xprime_derived,
)
from qmarket.statevec import (
    MeasurementOutcome,
    StateVector,
    _apply_matrix,
    _branch,
    _check_width,
    _normalized,
    _pauli_action,
)

ANCILLA_STATES = {"0": np.array([1, 0], dtype=complex), "+": np.array([1, 1], dtype=complex) / np.sqrt(2.0)}
DENSE_METERS = {"G": named_gate("G"), "TdXT": T_CONJUGATED_X}
XPRIME = "xprime_derived"
KINDS = sorted(GADGETS) + [XPRIME]


def oracle_remove_qubit(state, qubit, tol=1e-12):
    n = state.n_qubits
    if n < 2:
        raise ValueError("cannot remove the last qubit")
    if qubit < 0 or qubit >= n:
        raise ValueError(f"qubit {qubit} out of range")
    tensor = np.moveaxis(state.tensor(), qubit, 0).reshape(2, -1)
    u, s, vh = np.linalg.svd(tensor, full_matrices=False)
    if s.shape[0] > 1 and s[1] ** 2 > tol:
        raise RuntimeError(
            f"qubit {qubit} is entangled with the rest (residual weight {s[1]**2:.2e})"
        )
    removed = u[:, 0]
    rest = s[0] * vh[0, :]
    return StateVector(n - 1, rest), removed


def oracle_permute_qubits(state, order):
    if sorted(order) != list(range(state.n_qubits)):
        raise ValueError(f"order {order} is not a permutation")
    return StateVector(state.n_qubits, np.transpose(state.tensor(), axes=order).reshape(-1))


def oracle_byproduct_word(spec, eigenvalues, wires, n_qubits):
    word = PauliString.identity(n_qubits)
    for letter, role, indices in spec.byproduct:
        if sum(bit(eigenvalues[i]) for i in indices) % 2:
            word = pauli_mul(word, PauliString.single(n_qubits, wires[role], letter))
    return word


def oracle_run_meters(state, wires, pre, prep, meters, rng, forced):
    width = state.n_qubits + 1
    _check_width(width)
    amps = state.amplitudes
    if pre is not None:
        amps = _normalized(_apply_matrix(state.tensor()[None], named_gate(pre), [wires["d"]]).reshape(-1))
    ancilla = ANCILLA_STATES[prep]
    amps = (amps[:, None] * ancilla[None, :]).reshape(-1)
    outcomes = []
    for (letters, roles), force in zip(meters, forced):
        amps = _normalized(amps)
        on = [wires[role] for role in roles]
        tensor = amps.reshape((2,) * width)
        if letters[0] in DENSE_METERS:
            observable = PauliString.identity(width)
            acted = _apply_matrix(tensor[None], DENSE_METERS[letters[0]], on)
        else:
            word = ["I"] * width
            for wire, letter in zip(on, letters):
                word[wire] = letter
            observable = PauliString.from_letters(*word)
            acted = observable.phase * _pauli_action(tensor, enumerate(observable.letters))
        eig, prob, branch = _branch(amps, acted.reshape(-1), rng, force)
        amps = branch / np.sqrt(prob)
        outcomes.append(MeasurementOutcome(eig, prob, observable))
    return outcomes, StateVector(width, amps)


def oracle_gadget(kind, state, targets, rng, forced_outcomes):
    spec = GADGETS[kind]
    forced = forced_outcomes or [None] * len(spec.meters)
    n = state.n_qubits
    wires = dict(zip(spec.roles, targets), a=n)
    outcomes, work = oracle_run_meters(state, wires, spec.pre, spec.prep, spec.meters, rng, forced)
    retired = wires[spec.retired]
    post, _removed = oracle_remove_qubit(work, retired)
    if spec.retired != "a":
        last = post.n_qubits - 1
        post = oracle_permute_qubits(post, list(range(retired)) + [last] + list(range(retired, last)))
    eigs = [o.eigenvalue for o in outcomes]
    byproduct = oracle_byproduct_word(spec, eigs, wires, n)
    return GadgetResult(tuple(outcomes), byproduct, post, format(bit(eigs[-1]), "b"))


def oracle_xprime(state, target, rng, forced_outcomes):
    forced = forced_outcomes or (None, None)
    n = state.n_qubits
    (o1, o2), work = oracle_run_meters(state, {"d": target, "a": n}, None, "0", _XPRIME_METERS, rng, forced)
    post, _removed = oracle_remove_qubit(work, n)
    reported = MeasurementOutcome(
        o1.eigenvalue * o2.eigenvalue, o2.probability, PauliString.single(n, target, "Xp")
    )
    return reported, post


def outcome_bytes(outcome) -> bytes:
    return repr((outcome.eigenvalue, repr(outcome.probability), repr(outcome.observable))).encode()


def result_bytes(kind, result) -> bytes:
    if kind == XPRIME:
        outcome, post = result
        return outcome_bytes(outcome) + b"|" + post.amplitudes.tobytes()
    parts = [outcome_bytes(o) for o in result.outcomes]
    parts += [repr(result.byproduct).encode(), result.ancilla_residue.encode()]
    parts.append(result.post_state.amplitudes.tobytes())
    return b"|".join(parts)


def n_meters(kind):
    return len(_XPRIME_METERS) if kind == XPRIME else len(GADGETS[kind].meters)


@st.composite
def cases(draw):
    """(kind, input width, targets, input seed, rng seed or None, forced pattern or None)."""
    kind = draw(st.sampled_from(KINDS))
    arity = 1 if kind == XPRIME else len(GADGETS[kind].roles)
    n = draw(st.integers(arity, 5))
    targets = draw(st.sampled_from(list(itertools.permutations(range(n), arity))))
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        return kind, n, targets, seed, draw(st.integers(0, 2**32 - 1)), None
    pattern = draw(st.sampled_from(list(itertools.product((1, -1), repeat=n_meters(kind)))))
    return kind, n, targets, seed, None, list(pattern)


def run_both(kind, n, targets, seed, rng_seed, forced):
    state = haar_state(n, np.random.default_rng(seed))
    rngs = [None if rng_seed is None else np.random.default_rng(rng_seed) for _ in range(2)]
    if kind == XPRIME:
        planned = measure_xprime_derived(state, targets[0], rngs[0], forced)
        oracle = oracle_xprime(state, targets[0], rngs[1], forced)
    else:
        planned = _run_gadget(kind, state, targets, rngs[0], forced)
        oracle = oracle_gadget(kind, state, targets, rngs[1], forced)
    return result_bytes(kind, planned), result_bytes(kind, oracle)


@settings(max_examples=150, deadline=None)
@given(st.lists(cases(), min_size=1, max_size=8))
def test_planned_runner_matches_the_step_by_step_oracle(batch):
    for case in batch:
        planned, oracle = run_both(*case)
        assert planned == oracle, case


def test_every_kind_width_and_target_in_one_sweep():
    """Each (kind, width, targets) once, sampled and under the all -1
    pattern, interleaved so every plan is built among the others."""
    seeds = itertools.count()
    for n in range(1, 6):
        for kind in KINDS:
            arity = 1 if kind == XPRIME else len(GADGETS[kind].roles)
            for targets in itertools.permutations(range(n), arity):
                for forced in (None, [-1] * n_meters(kind)):
                    rng_seed = None if forced else next(seeds)
                    planned, oracle = run_both(kind, n, targets, next(seeds), rng_seed, forced)
                    assert planned == oracle, (kind, n, targets, forced)
