"""Byte-level pins of every gadget's result, dense coding and the derived X'.

Each case hashes the exact bytes a run hands back: eigenvalues, the repr of
each branch probability and observable, the byproduct's repr (phase
included), the residue and the post-state amplitudes.  A change to how the
gadgets are run that moves any of these by one ulp fails here, even when
the contract `post == byproduct . U . input` still holds.
"""
import hashlib
import itertools

import numpy as np
import pytest

from conftest import haar_state
from qmarket.densecoding import encode_decode
from qmarket.gadgets import (
    gadget_cnot,
    gadget_sigma,
    gadget_sigma_g,
    gadget_sigma_h,
    gadget_sigma_t,
    measure_xprime_derived,
)

CALLS = {
    "sigma_h": (1, 3, lambda st, rng, forced: gadget_sigma_h(st, 0, rng, forced)),
    "sigma_h_swapped": (1, 3, lambda st, rng, forced: gadget_sigma_h(st, 0, rng, forced, swapped=True)),
    "sigma_xx": (1, 3, lambda st, rng, forced: gadget_sigma(st, 0, rng, forced, variant="xx")),
    "sigma_xpxp": (1, 3, lambda st, rng, forced: gadget_sigma(st, 0, rng, forced, variant="xpxp")),
    "sigma_hsandwich": (1, 3, lambda st, rng, forced: gadget_sigma(st, 0, rng, forced, variant="hsandwich")),
    "sigma_t": (1, 3, lambda st, rng, forced: gadget_sigma_t(st, 0, rng, forced, variant="xprime_pair")),
    "sigma_t_gmeter": (1, 3, lambda st, rng, forced: gadget_sigma_t(st, 0, rng, forced, variant="g_meter")),
    "sigma_g": (1, 3, lambda st, rng, forced: gadget_sigma_g(st, 0, rng, forced)),
    "cnot": (2, 4, lambda st, rng, forced: gadget_cnot(st, 0, 1, rng, forced)),
}

GADGET_DIGESTS = {
    "sigma_h": "9f16e9d4c13950d9fba8c41ac45987cbc2bf84887a9da8425fe0f5697794f0af",
    "sigma_h_swapped": "a59f107e4a2e3fb114c269047c1657f7818a3584cdc4bd09eb204698f029925d",
    "sigma_xx": "af610a6e157f6af0438cac622f5e4fb9e24366578f7b57516a7f692cfbce6a0e",
    "sigma_xpxp": "dd4e7af6e2fb018f14983cd58c2976545792b44167c44bc8557c87b30336d8a4",
    "sigma_hsandwich": "0db3421d7be27d1fdf9418fca8e8627102e35157b93ee990d21384a409274de5",
    "sigma_t": "1ad446327224bc51d826e1084e814616ffc6ddb91a3c292246f046e0c22cd554",
    "sigma_t_gmeter": "a1af7b801fd64e1b69bbf29bc743d45c0923eadcba18a2f19328c5883d7250c6",
    "sigma_g": "532fa71f42b9db43b5ec96cdba0f6173e3e667e87094e4adf19e7ceff5d305fe",
    "cnot": "296caf12f9b45cad6c14fd6920e7a4e4b3f16e5a7a03e1ed7602ebfcc8771de7",
}
XPRIME_DIGEST = "f2b68ccb49325ff4845805b45b50ce68a64beb2f190eb560744083abf3186bf9"
DENSECODING_DIGEST = "f85eeef3dc57522bae9424a08dbc0ddaa4c22f354191fbca79eb7da79a94bd24"


def _outcome_bytes(outcome) -> bytes:
    return repr((outcome.eigenvalue, repr(outcome.probability), repr(outcome.observable))).encode()


def _result_bytes(result) -> bytes:
    parts = [_outcome_bytes(o) for o in result.outcomes]
    parts.append(repr(result.byproduct).encode())
    parts.append(result.ancilla_residue.encode())
    parts.append(result.post_state.amplitudes.tobytes())
    return b"|".join(parts)


def _inputs(n_qubits, seed):
    rng = np.random.default_rng(seed)
    return [haar_state(n_qubits, rng) for _ in range(16)]


@pytest.mark.parametrize("kind", sorted(CALLS))
def test_gadget_bytes(kind):
    n_qubits, n_meters, call = CALLS[kind]
    h = hashlib.sha256()
    for i, state in enumerate(_inputs(n_qubits, 5150)):
        h.update(_result_bytes(call(state, np.random.default_rng(i), None)))
    state = _inputs(n_qubits, 5151)[0]
    for pattern in itertools.product((1, -1), repeat=n_meters):
        h.update(_result_bytes(call(state, None, list(pattern))))
    assert h.hexdigest() == GADGET_DIGESTS[kind]


def test_derived_xprime_bytes():
    h = hashlib.sha256()
    for i, state in enumerate(_inputs(2, 5152)):
        outcome, post = measure_xprime_derived(state, i % 2, np.random.default_rng(i))
        h.update(_outcome_bytes(outcome) + post.amplitudes.tobytes())
    state = _inputs(2, 5153)[0]
    for pattern in itertools.product((1, -1), repeat=2):
        outcome, post = measure_xprime_derived(state, 1, forced_outcomes=list(pattern))
        h.update(_outcome_bytes(outcome) + post.amplitudes.tobytes())
    assert h.hexdigest() == XPRIME_DIGEST


def test_encode_decode_bytes():
    h = hashlib.sha256()
    rng = np.random.default_rng(5154)
    for _round in range(4):
        for bits in itertools.product((0, 1), repeat=2):
            decoded, trace = encode_decode(bits, rng)
            h.update(repr((decoded, trace["label"], trace["outcome_a"], trace["outcome_b"])).encode())
            h.update(trace["encoded"].amplitudes.tobytes())
    assert h.hexdigest() == DENSECODING_DIGEST
