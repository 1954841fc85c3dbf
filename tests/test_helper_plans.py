"""The planned helper meters against a copy of their step-by-step bodies.

The oracle below is `measure_parity_conjugated` and `measure_g_via_hghgh`
as they were before they ran as cached plans: each call rebuilds its meter
word, slices and label, and runs its gates, meter and retire by hand.  The
parity meter is drawn at widths 2-5 on every ordered pair and both kinds,
the G meter at widths 1-5 on every target, with Haar inputs and either a
seeded rng or a forced outcome.  Several cases run in one example, so
helpers, widths and wires interleave in one process and a plan cached under
the wrong key shows as different bytes.
"""
import itertools
import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmarket.gadgets as gadgets
import qmarket.statevec as statevec
from conftest import haar_state
from qmarket.algebra import PauliString, named_gate, pauli_mul
from qmarket.gadgets import measure_g_via_hghgh, measure_parity_conjugated
from qmarket.statevec import (
    MeasurementOutcome,
    StateVector,
    _act,
    _apply_matrix,
    _branch,
    _check_width,
    _factor_out,
    _normalized,
    _pauli_slices,
)

FIXED_GATES = {name: named_gate(name) for name in ("H", "G", "CH")}
ANCILLA_ZERO = np.array([1, 0], dtype=complex)


def _check_target(state, target):
    if target < 0 or target >= state.n_qubits:
        raise ValueError(f"target {target} out of range for {state.n_qubits} qubits")


class _Meter(NamedTuple):
    observable: PauliString
    slices: tuple | None
    matrix: np.ndarray | None = None
    on: tuple[int, ...] = ()


def _pauli_meter(width, placed):
    word = ["I"] * width
    for wire, letter in placed:
        word[wire] = letter
    observable = PauliString.from_letters(*word)
    return _Meter(observable, _pauli_slices(width, enumerate(observable.letters)))


def _measure(amps, shape, meter, rng, force):
    tensor = amps.reshape(shape)
    if meter.matrix is None:
        acted = meter.observable.phase * _act(tensor, *meter.slices)
    else:
        acted = _apply_matrix(tensor[None], meter.matrix, meter.on)
    eig, prob, branch = _branch(amps, acted.reshape(-1), rng, force)
    return eig, prob, branch / math.sqrt(prob)


def oracle_parity(state, pair, kind, rng=None, force=None):
    a, b = pair
    if a == b:
        raise ValueError("parity measurement needs two distinct qubits")
    _check_target(state, a)
    _check_target(state, b)
    if kind not in ("XX", "XpXp"):
        raise ValueError(f"kind must be XX or XpXp, got {kind!r}")
    n = state.n_qubits
    shape = (2,) * n
    h, on = FIXED_GATES["H"], [b if kind == "XX" else a]
    amps = _normalized(_apply_matrix(state.tensor()[None], h, on).reshape(-1))
    eig, prob, amps = _measure(amps, shape, _pauli_meter(n, ((a, "X"), (b, "Xp"))), rng, force)
    amps = _normalized(amps)
    post = StateVector(n, _apply_matrix(amps.reshape(shape)[None], h, on).reshape(-1))
    letters = ("X", "X") if kind == "XX" else ("Xp", "Xp")
    obs = pauli_mul(PauliString.single(n, a, letters[0]), PauliString.single(n, b, letters[1]))
    return MeasurementOutcome(eig, prob, obs), post


def oracle_g(state, target, rng=None, force=None):
    _check_target(state, target)
    n = state.n_qubits
    anc = n
    width = n + 1
    _check_width(width)
    shape = (2,) * width
    amps = _normalized((state.amplitudes[:, None] * ANCILLA_ZERO[None, :]).reshape(-1))
    for name, on in (("H", [target]), ("H", [anc]), ("G", [target]), ("CH", [anc, target]),
                     ("H", [anc]), ("G", [target]), ("H", [target])):
        amps = _normalized(_apply_matrix(amps.reshape(shape)[None], FIXED_GATES[name], on).reshape(-1))
    meter_force = None if force is None else -force
    eig, prob, amps = _measure(amps, shape, _pauli_meter(width, ((anc, "Xp"),)), rng, meter_force)
    amps = _normalized(amps)
    rest, _removed = _factor_out(np.moveaxis(amps.reshape(shape), anc, 0).reshape(2, -1), anc)
    reported = MeasurementOutcome(-eig, prob, PauliString.single(n, target, "I"))
    return reported, StateVector(n, rest)


HELPERS = {
    "parity": (measure_parity_conjugated, oracle_parity),
    "g": (measure_g_via_hghgh, oracle_g),
}


def keys(helper, n):
    """Every (wires, kind) argument tuple of `helper` at width n."""
    if helper == "parity":
        return [(pair, kind) for pair in itertools.permutations(range(n), 2) for kind in ("XX", "XpXp")]
    return [(target,) for target in range(n)]


def result_bytes(call):
    """The bytes of a call's result, or its exception's type and message."""
    try:
        outcome, post = call()
    except Exception as error:  # noqa: BLE001 - both sides must raise alike
        return repr((type(error), str(error))).encode()
    head = repr((outcome.eigenvalue, repr(outcome.probability), repr(outcome.observable)))
    return head.encode() + b"|" + post.amplitudes.tobytes()


def run_both(helper, n, args, seed, rng_seed, force):
    state = haar_state(n, np.random.default_rng(seed))
    planned, oracle = HELPERS[helper]
    rngs = [None if rng_seed is None else np.random.default_rng(rng_seed) for _ in range(2)]
    return (
        result_bytes(lambda: planned(state, *args, rngs[0], force)),
        result_bytes(lambda: oracle(state, *args, rngs[1], force)),
    )


@st.composite
def cases(draw):
    """(helper, width, arguments, input seed, rng seed or None, forced outcome or None)."""
    helper = draw(st.sampled_from(sorted(HELPERS)))
    n = draw(st.integers(2 if helper == "parity" else 1, 5))
    args = draw(st.sampled_from(keys(helper, n)))
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        return helper, n, args, seed, draw(st.integers(0, 2**32 - 1)), None
    return helper, n, args, seed, None, draw(st.sampled_from((1, -1)))


@settings(max_examples=150, deadline=None)
@given(st.lists(cases(), min_size=1, max_size=8))
def test_planned_helpers_match_the_step_by_step_oracle(batch):
    for case in batch:
        planned, oracle = run_both(*case)
        assert planned == oracle, case


def test_every_helper_width_and_wire_in_one_sweep():
    """Each key once, sampled and under both forced outcomes, interleaved so
    every plan is built among the others."""
    seeds = itertools.count()
    for n in range(1, 6):
        for helper in sorted(HELPERS):
            for args in keys(helper, n):
                for force in (None, 1, -1):
                    rng_seed = None if force else next(seeds)
                    planned, oracle = run_both(helper, n, args, next(seeds), rng_seed, force)
                    assert planned == oracle, (helper, n, args, force)


@pytest.mark.parametrize(
    "helper, args, expected",
    [("parity", ((2, 0), "XX"), 3), ("parity", ((0, 1), "XpXp"), 3), ("g", (1,), 10)],
)
def test_helpers_apply_the_norm_rule_once_per_step(helper, args, expected, monkeypatch):
    """The parity meter: H, the meter, H.  The G meter: the ancilla join,
    seven gates, the meter and the retire."""
    state = haar_state(3, np.random.default_rng(11))
    applied = []
    real = statevec._normalized

    def counted(amplitudes):
        applied.append(amplitudes.shape[0])
        return real(amplitudes)

    monkeypatch.setattr(statevec, "_normalized", counted)
    monkeypatch.setattr(gadgets, "_normalized", counted)
    HELPERS[helper][0](state, *args, np.random.default_rng(12))
    assert len(applied) == expected
