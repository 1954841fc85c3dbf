import numpy as np
import pytest

from qmarket.algebra import Strategy, named_gate
from qmarket.densecoding import (
    BITS_TO_TACTICS,
    DEFAULT_POLARIZATION_LABELS,
    TacticsChoice,
    closed_form_dealer_state,
    dealer_state,
    describe_polarization,
    encode_decode,
    encoded_states,
    polarization_state,
    polarization_state_from_closed_form,
)
S2 = 1.0 / np.sqrt(2.0)


def test_dealer_state_alpha_zero_is_plus_zero():
    # cos(0) branch only: |0'>_A |0>_B with |0'> = |+>
    for z in (0, 1, 2.5 - 1j):
        state = dealer_state(Strategy(z), 0.0)
        assert np.allclose(state.amplitudes, [S2, 0, S2, 0], atol=1e-12)


def test_dealer_state_x_tactics():
    # z=1, alpha=pi/2: E = (1,0,0), output i|+,1> (the supply-agreement branch)
    state = dealer_state(Strategy(1), np.pi / 2)
    assert np.allclose(state.amplitudes, [0, 1j * S2, 0, 1j * S2], atol=1e-10)


def test_dealer_state_xprime_tactics():
    # z=0, alpha=pi/2: E = (0,0,1), output i|-,0>
    state = dealer_state(Strategy(0), np.pi / 2)
    assert np.allclose(state.amplitudes, [1j * S2, 0, -1j * S2, 0], atol=1e-10)


def test_closed_form_matches_circuit_for_random_strategies(rng):
    for _ in range(100):
        z = complex(rng.normal(), rng.normal())
        alpha = rng.uniform(0, 2 * np.pi)
        a = dealer_state(Strategy(z), alpha)
        b = closed_form_dealer_state(Strategy(z), alpha)
        assert np.max(np.abs(a.amplitudes - b.amplitudes)) < 1e-10


def test_closed_form_matches_circuit_at_infinity():
    a = dealer_state(Strategy.infinity(), 1.3)
    b = closed_form_dealer_state(Strategy.infinity(), 1.3)
    assert np.max(np.abs(a.amplitudes - b.amplitudes)) < 1e-12


def test_encoded_states_gram_matrix_is_identity():
    states = encoded_states()
    labels = sorted(states)
    gram = np.array(
        [
            [np.vdot(states[a].amplitudes, states[b].amplitudes) for b in labels]
            for a in labels
        ]
    )
    assert np.max(np.abs(gram - np.eye(4))) < 1e-12


@pytest.mark.parametrize("bits", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_encode_decode_deterministic(bits, rng):
    for _ in range(250):
        decoded, trace = encode_decode(bits, rng)
        assert decoded == bits
        assert trace["label"] == BITS_TO_TACTICS[bits]


@pytest.mark.parametrize("bits", [(0, 2), [0, 1]], ids=["tuple-0-2", "list-0-1"])
def test_encode_decode_rejects_bad_bits(bits, rng):
    with pytest.raises(ValueError, match="bits must be a pair of 0/1"):
        encode_decode(bits, rng)


def test_tactics_choice_validation():
    TacticsChoice("X", (0, 1))
    with pytest.raises(ValueError):
        TacticsChoice("X", (1, 1))


def test_polarization_two_paths_agree(rng):
    for _ in range(100):
        z = complex(rng.normal(), rng.normal())
        alpha = rng.uniform(0, 2 * np.pi)
        a = polarization_state(Strategy(z), alpha)
        b = polarization_state_from_closed_form(Strategy(z), alpha)
        assert np.max(np.abs(a.amplitudes - b.amplitudes)) < 1e-10


def test_g_maps_xprime_eigenvectors_to_xpp_eigenvectors():
    g = named_gate("G")
    # conjugation form: G X' G = X'' (eigenvalue-preserving basis exchange)
    assert np.max(np.abs(g @ named_gate("Xp") @ g - named_gate("Xpp"))) < 1e-12
    # and the rays line up: G|0> = |y+> exactly, G|1> = -i |y->
    y_plus = np.array([1, 1j]) * S2
    y_minus = np.array([1, -1j]) * S2
    assert np.max(np.abs(g @ np.array([1, 0]) - y_plus)) < 1e-12
    assert abs(abs(np.vdot(y_minus, g @ np.array([0, 1]))) - 1) < 1e-12


def test_polarization_alpha_zero_matches_direct_computation():
    from qmarket.statevec import apply_gate

    state = dealer_state(Strategy(3j), 0.0)
    expected = apply_gate(state, named_gate("CH"), [1, 0])
    expected = apply_gate(expected, named_gate("G"), [1])
    got = polarization_state(Strategy(3j), 0.0)
    assert np.max(np.abs(got.amplitudes - expected.amplitudes)) < 1e-12


def test_polarization_labels_are_pure_metadata():
    state = dealer_state(Strategy(1j), 0.7)
    default = describe_polarization(state)
    swapped = describe_polarization(state, {0: "demand", 1: "supply"})
    assert [r["probability"] for r in default] == [r["probability"] for r in swapped]
    assert [r["basis"] for r in default] == [r["basis"] for r in swapped]
    assert default[0]["reading"] != swapped[0]["reading"]
    # and the amplitudes themselves never consulted the labels
    again = dealer_state(Strategy(1j), 0.7)
    assert np.array_equal(state.amplitudes, again.amplitudes)
    assert DEFAULT_POLARIZATION_LABELS == {0: "supply", 1: "demand"}
