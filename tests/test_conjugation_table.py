"""conjugate_by, case by case, against the dense U P U^dagger.

Every conjugator, every three-qubit word, all four phases and every ordered
target tuple: the image must be the dense operator with an exact phase, and
NonPauliResultError must be raised exactly when the dense image is not a
phase times a Pauli word.
"""
import itertools

import numpy as np
import pytest
from conftest import dense_pauli, embed_unitary

from qmarket.algebra import NonPauliResultError, PauliString, conjugate_by

N_QUBITS = 3
PHASES = (1 + 0j, -1 + 0j, 1j, -1j)
WORDS = list(itertools.product(("I", "X", "Xp", "Xpp"), repeat=N_QUBITS))
WORD_MATRICES = np.array([dense_pauli(letters) for letters in WORDS])

CASES = [
    (gate, targets)
    for gate, arity in (("H", 1), ("G", 1), ("CNOT", 2), ("CH", 2))
    for targets in itertools.permutations(range(N_QUBITS), arity)
]


def dense_decomposition(matrix):
    """(phase, letters) with matrix == phase * word, or None."""
    coeffs = np.einsum("wij,ij->w", WORD_MATRICES.conj(), matrix) / matrix.shape[0]
    best = int(np.argmax(np.abs(coeffs)))
    if abs(abs(coeffs[best]) - 1.0) > 1e-9:
        return None
    phase = min(PHASES, key=lambda p: abs(p - coeffs[best]))
    assert np.allclose(matrix, phase * WORD_MATRICES[best], atol=1e-12)
    return phase, WORDS[best]


@pytest.mark.parametrize("gate,targets", CASES)
def test_conjugate_by_matches_dense(gate, targets):
    u = embed_unitary(gate, N_QUBITS, list(targets))
    raised = 0
    for letters, phase in itertools.product(WORDS, PHASES):
        pauli = PauliString(phase, letters)
        expected = dense_decomposition(u @ dense_pauli(letters, phase) @ u.conj().T)
        if expected is None:
            with pytest.raises(NonPauliResultError):
                conjugate_by(pauli, gate, list(targets))
            raised += 1
            continue
        out = conjugate_by(pauli, gate, list(targets))
        assert out.letters == expected[1]
        assert out.phase == expected[0]
    # Only CH leaves the Pauli group: 12 of its 16 local words, times the
    # 4 letters on the idle qubit and the 4 phases.
    assert raised == (12 * 4 * 4 if gate == "CH" else 0)
