"""The executor's batched frame against the scalar Pauli algebra.

`_push` and `_multiply` update a (B, n) array of letter codes and a (B,)
array of phase exponents by indexing the tables `pauli_mul` and
`conjugate_by` read.  For every conjugator and target placement, every
local word and all four phases, `_push` on a batch with random idle letters
gives, row by row, what `conjugate_by` gives, or raises the
NonPauliResultError `conjugate_by` raises for the first row that leaves the
Pauli group.  `_multiply`, on the left and on the right, gives what
`pauli_mul` gives for all 16 letter pairs.  Compiled programs push only H
and CNOT, so G and CH are held here.
"""
import itertools

import numpy as np
import pytest

from qmarket.algebra import (
    PAULI_LETTERS,
    NonPauliResultError,
    PauliString,
    conjugate_by,
    pauli_mul,
)
from qmarket.compiler import _frame_word, _multiply, _push

N_QUBITS = 3
ROWS = 64

CASES = [
    (gate, targets)
    for gate, arity in (("H", 1), ("G", 1), ("CNOT", 2), ("CH", 2))
    for targets in itertools.permutations(range(N_QUBITS), arity)
]


def words(letters, exponents):
    return [_frame_word(row, e) for row, e in zip(letters, exponents)]


@pytest.mark.parametrize("gate, targets", CASES)
def test_push_matches_conjugate_by_row_by_row(gate, targets):
    rng = np.random.default_rng(len(gate) * 100 + sum(targets))
    for local, e in itertools.product(itertools.product(range(4), repeat=len(targets)), range(4)):
        letters = rng.integers(0, 4, size=(ROWS, N_QUBITS))
        letters[:, list(targets)] = local
        # _run never reduces exponents mod 4, so neither does the batch here.
        exponents = e + 4 * rng.integers(0, 3, size=ROWS)
        before = words(letters, exponents)
        try:
            expected = [conjugate_by(word, gate, list(targets)) for word in before]
        except NonPauliResultError as error:
            with pytest.raises(NonPauliResultError) as info:
                _push(letters, exponents, gate, targets)
            assert str(info.value) == str(error)
            continue
        _push(letters, exponents, gate, targets)
        assert words(letters, exponents) == expected


def test_push_reports_the_first_row_that_leaves_the_pauli_group():
    rng = np.random.default_rng(7)
    for _ in range(20):
        letters = rng.integers(0, 4, size=(ROWS, N_QUBITS))
        exponents = rng.integers(0, 4, size=ROWS)
        errors = []
        for word in words(letters, exponents):
            try:
                conjugate_by(word, "CH", [2, 0])
            except NonPauliResultError as error:
                errors.append(str(error))
        with pytest.raises(NonPauliResultError) as info:
            _push(letters, exponents, "CH", (2, 0))
        assert str(info.value) == errors[0]


@pytest.mark.parametrize("left", [True, False], ids=["left", "right"])
def test_multiply_matches_pauli_mul(left):
    wire = 1
    for current, code in itertools.product(range(4), repeat=2):
        # Rows: every phase, each with the mask set and clear.
        letters = np.array([[2, current]] * 8)
        exponents = np.repeat(np.arange(4), 2)
        mask = np.tile([True, False], 4)
        before = words(letters, exponents)
        _multiply(letters, exponents, wire, code, mask, left)
        factor = PauliString.single(2, wire, PAULI_LETTERS[code])
        expected = [
            (pauli_mul(factor, word) if left else pauli_mul(word, factor)) if hit else word
            for word, hit in zip(before, mask)
        ]
        assert words(letters, exponents) == expected
