"""Gadget plans without identity rotations, against a copy of the old planner.

A kind that retires its data wire used to end with a rotation into the data
slot even when that wire is the last input wire, where the rotation is the
identity permutation.  `old_plan` and `old_run` below are verbatim copies of
`gadgets._plan` and `gadgets._run` from before that step was dropped.
Every `GADGETS` kind and the derived X' meter run at input widths 1-3 on
every target tuple (every ordered pair for cnot), forced on every outcome
pattern and sampled from seeded generators.  Outcomes, byproduct, residue,
post-state bytes and the generator's state after the call must match.
"""
import functools
import itertools
import math

import numpy as np
import pytest

from conftest import haar_state
from qmarket import gadgets
from qmarket.algebra import PauliString, pauli_mul
from qmarket.gadgets import (
    _ANCILLA_STATES,
    _DENSE_METERS,
    _GATES,
    _SPECS,
    _XPRIME_KIND,
    _pauli_meter,
    _Plan,
)
from qmarket.statevec import (
    MeasurementOutcome,
    StateVector,
    _act,
    _apply_matrix,
    _branch,
    _check_width,
    _factor_out,
    _normalized,
)


@functools.cache
def old_plan(kind: str, n_qubits: int, targets: tuple[int, ...]) -> _Plan:
    """The plan of _SPECS[kind] on `n_qubits` input wires, with `targets` the
    wires of spec.roles, in order."""
    spec = _SPECS[kind]
    width = n_qubits + 1
    _check_width(width)
    wires = dict(zip(spec.roles, targets), a=n_qubits)
    steps = [] if spec.pre is None else [("gate", _GATES[spec.pre], (wires["d"],))]
    steps.append(("join", _ANCILLA_STATES[spec.prep][None, :]))
    observables = []
    for letters, roles in spec.meters:
        on = tuple(wires[role] for role in roles)
        if letters[0] in _DENSE_METERS:
            observable, meter = PauliString.identity(width), ("dense", _DENSE_METERS[letters[0]], on)
        else:
            observable, meter = _pauli_meter(width, zip(on, letters))
        observables.append(observable)
        steps.append(meter)
    retired = wires[spec.retired]
    steps.append(("retire", (retired, *(w for w in range(width) if w != retired))))
    if spec.retired != "a":
        # After removal the ancilla sits at the end; rotate it into the slot.
        last = n_qubits - 1
        steps.append(("rotate", (*range(retired), last, *range(retired, last))))
    byproducts = []
    for pattern in range(2 ** len(spec.meters)):
        word = PauliString.identity(n_qubits)
        for letter, role, indices in spec.byproduct:
            if sum(pattern >> i & 1 for i in indices) % 2:
                word = pauli_mul(word, PauliString.single(n_qubits, wires[role], letter))
        byproducts.append(word)
    label = PauliString.single(n_qubits, wires["d"], "Xp") if kind == _XPRIME_KIND else None
    return _Plan(tuple(steps), tuple(observables), tuple(byproducts), label)


def old_run(plan: _Plan, state: StateVector, rng, forced):
    """The steps of `plan`, on raw amplitudes.

    Every step's result passes StateVector's norm rule once: as the next
    step's input, and the last step's as the returned StateVector.  A meter
    rescales its branch by 1/sqrt(probability).  Returns (outcomes,
    post-state, outcome pattern).
    """
    amps = state.amplitudes
    shape = (2,) * state.n_qubits
    outcomes = []
    pattern = 0
    for at, step in enumerate(plan.steps):
        if at:
            amps = _normalized(amps)
        op = step[0]
        if op == "gate":
            amps = _apply_matrix(amps.reshape(shape)[None], step[1], step[2]).reshape(-1)
        elif op == "join":
            amps = (amps[:, None] * step[1]).reshape(-1)
            shape += (2,)
        elif op == "retire":
            amps = _factor_out(amps.reshape(shape).transpose(step[1]).reshape(2, -1), step[1][0])[0]
            shape = shape[1:]
        elif op == "rotate":
            amps = amps.reshape(shape).transpose(step[1]).reshape(-1)
        else:
            i = len(outcomes)
            if op == "pauli":
                acted = step[1] * _act(amps.reshape(shape), *step[2])
            else:
                acted = _apply_matrix(amps.reshape(shape)[None], step[1], step[2])
            eig, prob, branch = _branch(amps, acted.reshape(-1), rng, forced[i])
            amps = branch / math.sqrt(prob)
            outcomes.append(MeasurementOutcome(eig, prob, plan.observables[i]))
            if eig == -1:
                pattern |= 1 << i
    return outcomes, StateVector(len(shape), amps), pattern


KINDS = sorted(gadgets.GADGETS) + [_XPRIME_KIND]
KEYS = [
    (kind, n, targets)
    for kind in KINDS
    for n in range(1, 4)
    for targets in itertools.permutations(range(n), len(_SPECS[kind].roles))
]


def run_bytes(planner, runner, kind, n, targets, state, rng, forced) -> bytes:
    """Every byte a gadget call reports: outcomes, byproduct, residue, the
    post-state, and the generator's state after the call."""
    spec = _SPECS[kind]
    plan = planner(kind, n, targets)
    try:
        outcomes, post, pattern = runner(plan, state, rng, forced)
    except ValueError as error:  # a forced branch of probability ~0
        return repr(error).encode()
    parts = [repr((o.eigenvalue, repr(o.probability), repr(o.observable))).encode() for o in outcomes]
    parts.append(repr(plan.byproducts[pattern]).encode())
    parts.append(b"1" if pattern >> spec.residue & 1 else b"0")
    parts.append(repr(plan.label).encode())
    parts.append(post.amplitudes.tobytes())
    parts.append(repr(None if rng is None else rng.bit_generator.state).encode())
    return b"|".join(parts)


@pytest.mark.parametrize("kind", KINDS)
def test_every_pattern_and_seed_matches_the_old_plan(kind):
    seeds = itertools.count(1000 * KINDS.index(kind))
    for key in (key for key in KEYS if key[0] == kind):
        n = key[1]
        state = haar_state(n, np.random.default_rng(next(seeds)))
        runs = [(None, list(p)) for p in itertools.product((1, -1), repeat=len(_SPECS[kind].meters))]
        runs += [(next(seeds), None) for _ in range(4)]
        for rng_seed, forced in runs:
            forced = forced or [None] * len(_SPECS[kind].meters)
            rngs = [None if rng_seed is None else np.random.default_rng(rng_seed) for _ in range(2)]
            new = run_bytes(gadgets._plan, gadgets._run, *key, state, rngs[0], forced)
            old = run_bytes(old_plan, old_run, *key, state, rngs[1], forced)
            assert new == old, (key, rng_seed, forced)


def same(a, b) -> bool:
    """Equal steps: tuples item by item, arrays by shape and bytes."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(map(same, a, b))
    return a == b


def is_identity_rotation(step) -> bool:
    return step[0] == "rotate" and step[1] == tuple(range(len(step[1])))


@pytest.mark.parametrize("key", KEYS, ids=[f"{k}-{n}-{''.join(map(str, t))}" for k, n, t in KEYS])
def test_a_plan_rotates_only_when_that_moves_a_wire(key):
    """The new plan is the old one without its identity rotation, if any."""
    new, old = gadgets._plan(*key), old_plan(*key)
    assert same(new.steps, tuple(step for step in old.steps if not is_identity_rotation(step)))
    assert not any(map(is_identity_rotation, new.steps))
    assert (new.observables, new.byproducts, new.label) == (old.observables, old.byproducts, old.label)
    kind, n, targets = key
    moves = _SPECS[kind].retired == "d" and targets[-1] < n - 1
    assert any(step[0] == "rotate" for step in new.steps) == moves
