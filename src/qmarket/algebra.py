"""Gate matrices, the phase-tracked Pauli group, and strategy-parametrized tactics.

Market notation is used throughout: X = sigma_x (supply basis), Xp = X' =
sigma_z (demand basis), Xpp = X'' = sigma_y (polarization basis).  The
involution G = (X' + X'')/sqrt(2) exchanges the X' and X'' eigenbases the
same way H exchanges those of X and X'.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product as _iterproduct

import numpy as np

SQRT2_INV = 1.0 / np.sqrt(2.0)

PAULI_LETTERS = ("I", "X", "Xp", "Xpp")

_LETTER_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Xp": np.array([[1, 0], [0, -1]], dtype=complex),
    "Xpp": np.array([[0, -1j], [1j, 0]], dtype=complex),
}

_PHASES = (1 + 0j, -1 + 0j, 1j, -1j)

_DISPLAY = {"I": "I", "X": "X", "Xp": "X'", "Xpp": "X''"}
_PHASE_DISPLAY = {1 + 0j: "+", -1 + 0j: "-", 1j: "+i", -1j: "-i"}


class NonPauliResultError(ValueError):
    """Conjugation left the Pauli group (e.g. CH on most inputs)."""


@dataclass(frozen=True)
class PauliString:
    """Phase-tracked tensor word over {I, X, X', X''}, one letter per qubit."""

    phase: complex
    letters: tuple[str, ...]

    def __post_init__(self):
        if self.phase not in _PHASES:
            raise ValueError(f"phase must be one of +1, -1, +i, -i, got {self.phase}")
        for letter in self.letters:
            if letter not in PAULI_LETTERS:
                raise ValueError(f"unknown Pauli letter {letter!r}")

    @classmethod
    def from_letters(cls, *letters: str, phase: complex = 1 + 0j) -> "PauliString":
        return cls(complex(phase), tuple(letters))

    @classmethod
    def identity(cls, n_qubits: int) -> "PauliString":
        return cls(1 + 0j, ("I",) * n_qubits)

    @classmethod
    def single(cls, n_qubits: int, qubit: int, letter: str, phase: complex = 1 + 0j) -> "PauliString":
        letters = ["I"] * n_qubits
        letters[qubit] = letter
        return cls(complex(phase), tuple(letters))

    @property
    def n_qubits(self) -> int:
        return len(self.letters)

    @property
    def is_hermitian(self) -> bool:
        return self.phase in (1 + 0j, -1 + 0j)

    def to_matrix(self) -> np.ndarray:
        out = np.array([[self.phase]], dtype=complex)
        for letter in self.letters:
            out = np.kron(out, _LETTER_MATRICES[letter])
        return out

    def letter_on(self, qubit: int) -> str:
        return self.letters[qubit]

    def __str__(self) -> str:
        word = " ".join(_DISPLAY[letter] for letter in self.letters)
        return f"{_PHASE_DISPLAY[self.phase]}{word}"


# The 4 one-qubit and 16 two-qubit words by dimension, built once for _as_pauli.
_WORDS = {
    2**arity: {
        letters: PauliString(1 + 0j, letters).to_matrix()
        for letters in _iterproduct(PAULI_LETTERS, repeat=arity)
    }
    for arity in (1, 2)
}


def _as_pauli(matrix: np.ndarray) -> tuple[complex, tuple[str, ...]] | None:
    """Decompose a one- or two-qubit matrix as phase * word, or None when it
    is not a phase times a Pauli word."""
    dim = matrix.shape[0]
    for letters, word in _WORDS[dim].items():
        coeff = np.trace(word.conj().T @ matrix) / dim
        if abs(abs(coeff) - 1.0) < 1e-9:
            return min(_PHASES, key=lambda p: abs(p - coeff)), letters
    return None


# Single-qubit products a*b -> (phase, (letter,)), e.g. X * Xp = -i Xpp.
_MUL_TABLE = {
    (a, b): _as_pauli(_LETTER_MATRICES[a] @ _LETTER_MATRICES[b])
    for a, b in _iterproduct(PAULI_LETTERS, repeat=2)
}


def pauli_mul(a: PauliString, b: PauliString) -> PauliString:
    """Group product a * b with the phase tracked qubit by qubit."""
    if a.n_qubits != b.n_qubits:
        raise ValueError(f"length mismatch: {a.n_qubits} vs {b.n_qubits}")
    phase = a.phase * b.phase
    letters = []
    for la, lb in zip(a.letters, b.letters):
        ph, word = _MUL_TABLE[(la, lb)]
        phase *= ph
        letters += word
    return PauliString(phase, tuple(letters))


def named_gate(name: str) -> np.ndarray:
    """Exact matrix for a named gate; two-qubit gates use control-first order."""
    try:
        return _GATES[name].copy()
    except KeyError:
        raise ValueError(f"unknown gate name {name!r}") from None


def _controlled(u: np.ndarray) -> np.ndarray:
    out = np.eye(4, dtype=complex)
    out[2:, 2:] = u
    return out


_GATES = {
    "I": np.eye(2, dtype=complex),
    "X": _LETTER_MATRICES["X"].copy(),
    "Xp": _LETTER_MATRICES["Xp"].copy(),
    "Xpp": _LETTER_MATRICES["Xpp"].copy(),
    "H": SQRT2_INV * np.array([[1, 1], [1, -1]], dtype=complex),
    "G": SQRT2_INV * (_LETTER_MATRICES["Xp"] + _LETTER_MATRICES["Xpp"]),
    "T": np.array([[1, 0], [0, (1 + 1j) * SQRT2_INV]], dtype=complex),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "SWAP": np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    ),
}
_GATES["CNOT"] = _controlled(_GATES["X"])
_GATES["CH"] = _controlled(_GATES["H"])
_GATES["CG"] = _controlled(_GATES["G"])


def assert_unitary(matrix: np.ndarray, tol: float = 1e-10) -> None:
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"matrix must be square, got shape {matrix.shape}")
    identity = np.eye(matrix.shape[0])
    if not np.allclose(matrix @ matrix.conj().T, identity, atol=tol):
        raise ValueError("matrix is not unitary within tolerance")


@dataclass(frozen=True)
class Strategy:
    """Trader strategy |z> = |0> + z|1>, with z = infinity meaning |1> itself."""

    z: complex | None  # None encodes the point at infinity

    @classmethod
    def infinity(cls) -> "Strategy":
        return cls(None)

    @property
    def is_infinite(self) -> bool:
        return self.z is None

    def ket(self) -> np.ndarray:
        """The (normalized) strategy state."""
        if self.is_infinite:
            return np.array([0, 1], dtype=complex)
        vec = np.array([1, self.z], dtype=complex)
        return vec / np.linalg.norm(vec)


def bloch_vector(s: Strategy) -> np.ndarray:
    """Expectation values (<X>, <X''>, <X'>) of the strategy, a unit 3-vector."""
    if s.is_infinite:
        return np.array([0.0, 0.0, -1.0])
    z = complex(s.z)
    denom = 1.0 + abs(z) ** 2
    return np.array([2 * z.real / denom, 2 * z.imag / denom, (1 - abs(z) ** 2) / denom])


def u_z_alpha(s: Strategy, alpha: float) -> np.ndarray:
    """Tactics U_{z,alpha} = I cos(alpha) + i (sigma . E_z) sin(alpha)."""
    nx, ny, nz = bloch_vector(s)
    sigma_dot_n = (
        nx * _LETTER_MATRICES["X"]
        + ny * _LETTER_MATRICES["Xpp"]
        + nz * _LETTER_MATRICES["Xp"]
    )
    return np.cos(alpha) * np.eye(2, dtype=complex) + 1j * np.sin(alpha) * sigma_dot_n


# The four pairwise maximally distant tactics used by the dealer protocol,
# realized through u_z_alpha (each equals the corresponding Pauli up to a
# global phase: alpha = pi/2 collapses the formula to i sigma.n).
CANONICAL_TACTICS: dict[str, tuple[Strategy, float]] = {
    "I": (Strategy(0), 0.0),
    "X": (Strategy(1), np.pi / 2),
    "Xp": (Strategy(0), np.pi / 2),
    "Xpp": (Strategy(1j), np.pi / 2),
}


# gate -> local word -> (phase, image word) of gate . word . gate^dagger;
# None where the image leaves the Pauli group (CH on most words).
_CONJUGATION = {
    name: {
        letters: _as_pauli(_GATES[name] @ word @ _GATES[name].conj().T)
        for letters, word in _WORDS[_GATES[name].shape[0]].items()
    }
    for name in ("H", "G", "CNOT", "CH")
}


def conjugate_by(pauli: PauliString, clifford: str, targets: list[int] | None = None) -> PauliString:
    """Return clifford . pauli . clifford^dagger as a PauliString.

    `targets` names the qubit(s) the conjugating gate acts on (defaults to
    the leading qubits).  Raises NonPauliResultError when the result leaves
    the Pauli group, which happens for CH on anything but I/X' controls.
    """
    if clifford not in _CONJUGATION:
        raise ValueError(f"unsupported conjugator {clifford!r}")
    arity = 1 if _GATES[clifford].shape[0] == 2 else 2
    if targets is None:
        targets = list(range(arity))
    if len(targets) != arity:
        raise ValueError(f"{clifford} conjugates {arity} qubit(s), got targets {targets}")
    if len(set(targets)) != arity or any(t < 0 or t >= pauli.n_qubits for t in targets):
        raise ValueError(f"bad targets {targets} for {pauli.n_qubits}-qubit Pauli")

    # Conjugation acts only on the support of the gate.
    image = _CONJUGATION[clifford][tuple(pauli.letters[t] for t in targets)]
    if image is None:
        raise NonPauliResultError(
            f"conjugating {pauli} by {clifford} on {targets} gives a non-Pauli operator"
        )
    phase, letters = image
    out = list(pauli.letters)
    for t, letter in zip(targets, letters):
        out[t] = letter
    return PauliString(pauli.phase * phase, tuple(out))
