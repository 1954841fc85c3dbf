import numpy as np

from qmarket.densecoding import BITS_TO_TACTICS, encode_decode, encoded_states


def test_trace_carries_the_encoded_dealer_state():
    rng = np.random.default_rng(11)
    expected = encoded_states()
    for bits in ((0, 0), (0, 1), (1, 0), (1, 1)):
        _decoded, trace = encode_decode(bits, rng)
        label = BITS_TO_TACTICS[bits]
        assert np.array_equal(trace["encoded"].amplitudes, expected[label].amplitudes)
