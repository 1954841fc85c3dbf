"""Dense coding from codewords built once, against a copy of the old roundtrip.

`old_encode_decode` below is a verbatim copy of `encode_decode` from before
the codewords were built at import: it runs the dealer circuit on every call
and reads the result out with two `measure_pauli` calls.  The new roundtrip
must report the same decoded bits, label, outcomes and encoded bytes, and
leave the caller's generator where the old one left it.
"""
import itertools

import numpy as np

from qmarket import densecoding
from qmarket.algebra import CANONICAL_TACTICS, PauliString
from qmarket.densecoding import BITS_TO_TACTICS, dealer_state, encode_decode
from qmarket.statevec import measure_pauli

# The read-out meters: X on wire A, X' on wire B.
_READ_A = PauliString.from_letters("X", "I")
_READ_B = PauliString.from_letters("I", "Xp")


def old_encode_decode(bits: tuple[int, int], rng: np.random.Generator):
    """Run one dense-coding roundtrip; decoding is exact.

    Returns (decoded bits, trace) where the trace records the tactics label,
    the encoded state, and both meter outcomes.
    """
    if bits not in BITS_TO_TACTICS:
        raise ValueError(f"bits must be a pair of 0/1, got {bits}")
    label = BITS_TO_TACTICS[bits]
    s, alpha = CANONICAL_TACTICS[label]
    encoded = dealer_state(s, alpha)
    outcome_a, state = measure_pauli(encoded, _READ_A, rng)
    outcome_b, state = measure_pauli(state, _READ_B, rng)
    decoded = ((1 - outcome_a.eigenvalue) // 2, (1 - outcome_b.eigenvalue) // 2)
    trace = {
        "label": label,
        "encoded": encoded,
        "outcome_a": outcome_a.eigenvalue,
        "outcome_b": outcome_b.eigenvalue,
    }
    return decoded, trace


BIT_PAIRS = list(itertools.product((0, 1), repeat=2))


def roundtrip_bytes(roundtrip, bits, rng) -> bytes:
    decoded, trace = roundtrip(bits, rng)
    fields = (decoded, trace["label"], trace["outcome_a"], trace["outcome_b"], trace["encoded"].n_qubits)
    rng_state = None if rng is None else rng.bit_generator.state
    return repr((fields, rng_state)).encode() + b"|" + trace["encoded"].amplitudes.tobytes()


def test_each_codeword_is_its_dealer_state():
    assert sorted(densecoding._CODEWORDS) == sorted(CANONICAL_TACTICS)
    for label, (s, alpha) in CANONICAL_TACTICS.items():
        codeword, built = densecoding._CODEWORDS[label], dealer_state(s, alpha)
        assert codeword.n_qubits == built.n_qubits == 2
        assert codeword.amplitudes.tobytes() == built.amplitudes.tobytes()


def test_roundtrip_matches_the_old_one_over_seeds():
    for seed in range(200):
        for bits in BIT_PAIRS:
            new, old = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])
            assert roundtrip_bytes(encode_decode, bits, new) == roundtrip_bytes(old_encode_decode, bits, old)
    for bits in BIT_PAIRS:  # decoding is deterministic, so no generator is needed
        assert roundtrip_bytes(encode_decode, bits, None) == roundtrip_bytes(old_encode_decode, bits, None)


def test_trace_holds_a_fresh_copy_of_the_codeword():
    for bits in BIT_PAIRS:
        _decoded, trace = encode_decode(bits, None)
        codeword = densecoding._CODEWORDS[trace["label"]]
        assert trace["encoded"] is not codeword
        assert not np.shares_memory(trace["encoded"].amplitudes, codeword.amplitudes)
