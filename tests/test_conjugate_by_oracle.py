"""conjugate_by against a verbatim copy of its scalar implementation.

conjugate_by runs the batched frame kernel `_push` on a one-row frame.  The
oracle below is the scalar body it replaced, which formats the result's
phase as the caller's phase times the table's.  Every conjugator, every
ordered target tuple (and the default) on three qubits, all 64 words and
all four phases: the letters, the `repr` of the phase, `str`, and the
exception type and message must all match.  Comparing phases with `==`
cannot tell -1j from (-0-1j); `repr` can.
"""
import itertools

import pytest

from qmarket.algebra import (
    _CODES,
    _CONJUGATION,
    _PHASES,
    PAULI_LETTERS,
    NonPauliResultError,
    PauliString,
    _check_conjugator,
    conjugate_by,
)

N_QUBITS = 3
PHASES = (1 + 0j, -1 + 0j, 1j, -1j)
WORDS = list(itertools.product(PAULI_LETTERS, repeat=N_QUBITS))

CASES = [
    (gate, targets)
    for gate, arity in (("H", 1), ("G", 1), ("CNOT", 2), ("CH", 2))
    for targets in [None, *map(list, itertools.permutations(range(N_QUBITS), arity))]
]


def oracle_conjugate_by(pauli, clifford, targets=None):
    targets = _check_conjugator(clifford, targets, pauli.n_qubits)
    # Conjugation acts only on the support of the gate.
    codes, exponents = _CONJUGATION[clifford]
    flat = 0
    for t in targets:
        flat = flat * 4 + _CODES[pauli.letters[t]]
    image = codes[flat].tolist()
    if image[0] < 0:
        raise NonPauliResultError(
            f"conjugating {pauli} by {clifford} on {targets} gives a non-Pauli operator"
        )
    out = list(pauli.letters)
    for t, code in zip(targets, image):
        out[t] = PAULI_LETTERS[code]
    return PauliString(pauli.phase * _PHASES[exponents.item(flat)], tuple(out))


def outcome(conjugate, pauli, gate, targets):
    try:
        out = conjugate(pauli, gate, targets)
    except Exception as error:
        return type(error), str(error)
    return out.letters, repr(out.phase), str(out)


def test_cases_cover_every_ordered_target_tuple():
    assert sum(targets is not None for _, targets in CASES) * len(WORDS) * len(PHASES) == 4608


@pytest.mark.parametrize("gate,targets", CASES, ids=[f"{g}-{t}" for g, t in CASES])
def test_conjugate_by_matches_the_scalar_oracle(gate, targets):
    for letters, phase in itertools.product(WORDS, PHASES):
        pauli = PauliString(phase, letters)
        expected = outcome(oracle_conjugate_by, pauli, gate, targets)
        assert outcome(conjugate_by, pauli, gate, targets) == expected, (letters, phase)
