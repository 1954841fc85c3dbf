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

# A letter's code is its index here, x + 2z: I = 0, X = 1, X' = 2, X'' = 3.
PAULI_LETTERS = ("I", "X", "Xp", "Xpp")
_CODES = {letter: code for code, letter in enumerate(PAULI_LETTERS)}

_LETTER_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Xp": np.array([[1, 0], [0, -1]], dtype=complex),
    "Xpp": np.array([[0, -1j], [1j, 0]], dtype=complex),
}

# A phase is stored as its exponent e: phase = i^e = _PHASES[e].
_PHASES = (1 + 0j, 1j, -1 + 0j, -1j)

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


# The 4 one-qubit and 16 two-qubit words by dimension, with their codes, in
# flat-code order (c0 * 4 + c1 for two letters).
_WORDS = {
    2**arity: [
        (codes, PauliString(1 + 0j, tuple(PAULI_LETTERS[c] for c in codes)).to_matrix())
        for codes in _iterproduct(range(4), repeat=arity)
    ]
    for arity in (1, 2)
}


def _as_pauli(matrix: np.ndarray) -> tuple[int, tuple[int, ...]] | None:
    """Decompose a one- or two-qubit matrix as i^e * word: (e, the word's
    codes), or None when it is not a phase times a Pauli word."""
    dim = matrix.shape[0]
    for codes, word in _WORDS[dim]:
        coeff = np.trace(word.conj().T @ matrix) / dim
        if abs(abs(coeff) - 1.0) < 1e-9:
            return min(range(4), key=lambda e: abs(_PHASES[e] - coeff)), codes
    return None


def _table(matrices: list) -> tuple[np.ndarray, np.ndarray]:
    """(image codes, phase exponents) of `_as_pauli` of each matrix, indexed
    by flat code; image code -1 where the image is not a Pauli word."""
    images = [_as_pauli(matrix) for matrix in matrices]
    codes = np.full((len(images), len(images[0][1])), -1, dtype=np.intp)
    exponents = np.zeros(len(images), dtype=np.intp)
    for flat, image in enumerate(images):
        if image is not None:
            exponents[flat], codes[flat] = image
    return codes, exponents


# Single-qubit products a * b by flat code a * 4 + b; X * X' = -i X'' is (3,), 3.
_MUL_CODES, _MUL_EXPONENTS = _table([a @ b for (_, a), (_, b) in _iterproduct(_WORDS[2], repeat=2)])


def pauli_mul(a: PauliString, b: PauliString) -> PauliString:
    """Group product a * b with the phase tracked qubit by qubit."""
    if a.n_qubits != b.n_qubits:
        raise ValueError(f"length mismatch: {a.n_qubits} vs {b.n_qubits}")
    phase = a.phase * b.phase
    letters = []
    for la, lb in zip(a.letters, b.letters):
        flat = _CODES[la] * 4 + _CODES[lb]
        phase *= _PHASES[_MUL_EXPONENTS.item(flat)]
        letters.append(PAULI_LETTERS[_MUL_CODES.item(flat)])
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


def _near_identity(product: np.ndarray) -> bool:
    """`np.allclose(product, I, atol=1e-10)` for a square `product`, written
    out: I is finite, so a NaN or infinite entry fails here as it does there."""
    identity = np.eye(product.shape[0])
    return bool((abs(product - identity) <= 1e-10 + 1e-05 * abs(identity)).all())


def assert_unitary(matrix: np.ndarray) -> None:
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"matrix must be square, got shape {matrix.shape}")
    if not _near_identity(matrix @ matrix.conj().T):
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


# gate -> (image codes, phase exponents) of gate . word . gate^dagger, indexed
# by the local word's flat code; image code -1 where the image leaves the
# Pauli group (CH on most words).
_CONJUGATION = {
    name: _table([u @ word @ u.conj().T for _, word in _WORDS[len(u)]])
    for name, u in _GATES.items() if name in ("H", "G", "CNOT", "CH")
}


def _check_conjugator(gate: str, targets, n: int) -> list[int]:
    """Check a conjugation by `gate` of an n-qubit word on `targets` (default:
    the leading qubits), raising TypeError for a target that is not an
    integer and ValueError for any other fault; return the targets as ints."""
    if gate not in _CONJUGATION:
        raise ValueError(f"unsupported conjugator {gate!r}")
    arity = _CONJUGATION[gate][0].shape[1]
    if targets is None:
        targets = list(range(arity))
    if len(targets) != arity:
        raise ValueError(f"{gate} conjugates {arity} qubit(s), got targets {targets}")
    if not all(isinstance(t, (int, np.integer)) for t in targets):
        raise TypeError(f"conjugator targets must be integers, got {targets}")
    if len(set(targets)) != arity or any(t < 0 or t >= n for t in targets):
        raise ValueError(f"bad targets {targets} for {n}-qubit Pauli")
    return [int(t) for t in targets]


# A batch's Pauli frame is a (B, n) array of letter codes and a (B,) array of
# phase exponents (not reduced mod 4), updated in place by indexing the tables.

_PHASE_VALUES = np.array(_PHASES)


def _frame_word(letters: np.ndarray, exponent) -> PauliString:
    """One row of a batch's frame as a PauliString."""
    return PauliString(_PHASES[int(exponent) % 4], tuple(PAULI_LETTERS[c] for c in letters))


def _multiply(letters, exponents, wire: int, code: int, mask, left: bool) -> None:
    """Multiply the letter `code` on `wire` into the frame rows where `mask` is
    set: on the left for a byproduct, which acts after the frame, or on the
    right for a Pauli applied to the state the frame dresses.  Other rows
    multiply by I (code 0), which leaves them as they are."""
    factor = mask * code
    current = letters[:, wire]
    flat = factor * 4 + current if left else current * 4 + factor
    letters[:, wire] = _MUL_CODES[flat, 0]
    exponents += _MUL_EXPONENTS[flat]


def _push(letters, exponents, gate: str, wires) -> None:
    """Conjugate every frame row through `gate` on `wires`: element <- U element U+."""
    codes, phase_exponents = _CONJUGATION[gate]
    flat = letters[:, wires[0]]
    for wire in wires[1:]:
        flat = flat * 4 + letters[:, wire]
    image = codes[flat]
    leaves = image[:, 0] < 0
    if leaves.any():
        row = int(np.argmax(leaves))
        raise NonPauliResultError(
            f"conjugating {_frame_word(letters[row], exponents[row])} by {gate} on "
            f"{list(wires)} gives a non-Pauli operator"
        )
    letters[:, list(wires)] = image
    exponents += phase_exponents[flat]


def conjugate_by(pauli: PauliString, clifford: str, targets: list[int] | None = None) -> PauliString:
    """Return clifford . pauli . clifford^dagger as a PauliString.

    `targets` names the qubit(s) the conjugating gate acts on (defaults to
    the leading qubits).  Raises NonPauliResultError when the result leaves
    the Pauli group, which happens for CH on anything but I/X' controls.
    """
    targets = _check_conjugator(clifford, targets, pauli.n_qubits)
    exponent = _PHASES.index(pauli.phase)
    letters = np.array([[_CODES[letter] for letter in pauli.letters]], dtype=np.intp)
    exponents = np.array([exponent], dtype=np.intp)
    _push(letters, exponents, clifford, targets)
    # The caller's phase times the table's, as a complex product, so the
    # result's phase keeps the form (and repr) the caller's phase gives it.
    image_phase = _PHASES[exponents.item(0) - exponent]
    return PauliString(pauli.phase * image_phase, tuple(PAULI_LETTERS[c] for c in letters[0]))
