"""Byte-level pins of the two standalone meter helpers.

`measure_parity_conjugated` and `measure_g_via_hghgh` are hashed over
sampled and forced outcomes, several widths and every target: the outcome's
eigenvalue, the repr of its probability and observable, and the post-state
amplitudes.  A change to how they are run that moves any of these by one
ulp fails here.
"""
import hashlib
import itertools

import numpy as np

from conftest import haar_state
from qmarket.gadgets import measure_g_via_hghgh, measure_parity_conjugated

PARITY_DIGEST = "bb41e737fd5e1985607093fc817c668e42b5996fa93370e5d85bfe073fd73177"
G_DIGEST = "96d201b050d4385c665d1150c51e3aa16ccd8ad1ca210b67a240a401dd6e2fb2"


def _bytes(outcome, post) -> bytes:
    head = repr((outcome.eigenvalue, repr(outcome.probability), repr(outcome.observable)))
    return head.encode() + b"|" + post.amplitudes.tobytes()


def test_parity_conjugated_bytes():
    h = hashlib.sha256()
    rng = np.random.default_rng(7301)
    seeds = itertools.count()
    for n in (2, 3, 4):
        for pair in itertools.permutations(range(n), 2):
            for kind in ("XX", "XpXp"):
                state = haar_state(n, rng)
                sampled = np.random.default_rng(next(seeds))
                h.update(_bytes(*measure_parity_conjugated(state, pair, kind, sampled)))
                for force in (1, -1):
                    h.update(_bytes(*measure_parity_conjugated(state, pair, kind, None, force=force)))
    assert h.hexdigest() == PARITY_DIGEST


def test_g_via_hghgh_bytes():
    h = hashlib.sha256()
    rng = np.random.default_rng(7302)
    for n in (1, 2, 3, 4):
        for target in range(n):
            state = haar_state(n, rng)
            for seed in range(3):
                h.update(_bytes(*measure_g_via_hghgh(state, target, np.random.default_rng(seed))))
            for force in (1, -1):
                h.update(_bytes(*measure_g_via_hghgh(state, target, None, force=force)))
    assert h.hexdigest() == G_DIGEST
