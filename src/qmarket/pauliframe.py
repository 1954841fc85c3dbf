"""Classical byproduct bookkeeping and the correction random walk.

Byproducts from measurement gadgets are never applied eagerly; they
accumulate in a PauliFrame that is pushed through Clifford tactics and
applied (or reasoned about) at the end.  Any desired Pauli correction can
also be realized measurement-only by drawing random-Pauli gadgets until
their product hits the wanted letter: a random walk on the four-vertex
graph {I, X, X', X''} whose hit probability is 1/4 per draw.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import _CODES, _MUL_CODES, PAULI_LETTERS, PauliString, conjugate_by, named_gate, pauli_mul


@dataclass(frozen=True)
class PauliFrame:
    """Accumulated byproduct over all logical qubits, phase tracked."""

    element: PauliString

    @classmethod
    def identity(cls, n_qubits: int) -> "PauliFrame":
        return cls(PauliString.identity(n_qubits))

    @property
    def n_qubits(self) -> int:
        return self.element.n_qubits

    def letter_on(self, qubit: int) -> str:
        return self.element.letters[qubit]


def frame_update(frame: PauliFrame, byproduct: PauliString) -> PauliFrame:
    """Compose a fresh byproduct onto the frame (byproduct acts after)."""
    return PauliFrame(pauli_mul(byproduct, frame.element))


def frame_absorb_right(frame: PauliFrame, applied: PauliString) -> PauliFrame:
    """Account for a Pauli physically applied to the state the frame dresses."""
    return PauliFrame(pauli_mul(frame.element, applied))


def push_through(frame: PauliFrame, gate: str, targets: list[int]) -> PauliFrame:
    """Conjugate the frame through a Clifford tactics: element <- U element U+.

    Supported gates: H, G, CNOT, CH (CH only stays in the Pauli group for
    I/X' controls; anything else raises, since CH is not Clifford).
    """
    return PauliFrame(conjugate_by(frame.element, gate, targets))


_WORD_SYMBOLS = ("H", "X", "Xp", "Xpp", "I")


@dataclass(frozen=True)
class ReducedWord:
    """Canonical form of a word over {H, X, X', X'', I}: phase * letter * H^h."""

    letter: str
    with_h: bool
    phase: complex

    def to_matrix(self) -> np.ndarray:
        out = self.phase * named_gate(self.letter)
        if self.with_h:
            out = out @ named_gate("H")
        return out


def reduce_word(symbols: list[str]) -> ReducedWord:
    """Reduce a gate word to `phase * Pauli * H^(0 or 1)` by pushing every H
    to the right; an even number of H's therefore reduces to a pure Pauli.
    """
    if not symbols:
        raise ValueError("word must be nonempty")
    for s in symbols:
        if s not in _WORD_SYMBOLS:
            raise ValueError(f"unknown symbol {s!r}")
    word = PauliString.from_letters("I")
    h_parity = 0
    for s in symbols:
        if s == "H":
            h_parity ^= 1
            continue
        # Append letter s on the right of (word * H^h): commute it left
        # through the pending H's.
        incoming = PauliString.from_letters(s)
        if h_parity:
            incoming = conjugate_by(incoming, "H")
        word = pauli_mul(word, incoming)
    return ReducedWord(word.letters[0], bool(h_parity), word.phase)


@dataclass(frozen=True)
class WalkRecord:
    """Trajectory of the correction walk over the vertices {I, X, X', X''}."""

    steps: int
    trajectory: tuple[str, ...]  # visited vertices, starting vertex first
    labels: tuple[str, ...]      # edge labels drawn, one per step
    terminal: str


class WalkExhaustedError(RuntimeError):
    """The walk failed to reach its target within max_steps draws."""


def random_walk_cleanup(
    start: str,
    target: str,
    rng: np.random.Generator,
    max_steps: int = 200,
    parity: str = "any",
) -> WalkRecord:
    """Draw uniform random Pauli tactics until their running product with
    `start` equals `target`.

    Each draw models one random-Pauli gadget byproduct; the current vertex
    is uniform after every step, so success is geometric with p = 1/4.
    With parity="even" the stop condition is only checked after even step
    counts (tactics-measurement pairs).  Raises WalkExhaustedError after
    max_steps draws; the miss probability is (3/4)^max_steps.
    """
    if start not in PAULI_LETTERS or target not in PAULI_LETTERS:
        raise ValueError(f"start/target must be Pauli letters, got {start!r}, {target!r}")
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    if parity not in ("any", "even"):
        raise ValueError(f"parity must be 'any' or 'even', got {parity!r}")

    # The vertex as a letter code; the drawn label acts on the left, so the
    # next vertex is the product table's entry label * 4 + current.
    current, goal = _CODES[start], _CODES[target]
    trajectory = [start]
    labels: list[str] = []
    for step in range(1, max_steps + 1):
        label = int(rng.integers(0, 4))
        current = _MUL_CODES.item(label * 4 + current)
        trajectory.append(PAULI_LETTERS[current])
        labels.append(PAULI_LETTERS[label])
        if current == goal and (parity == "any" or step % 2 == 0):
            return WalkRecord(step, tuple(trajectory), tuple(labels), trajectory[-1])
    raise WalkExhaustedError(
        f"no hit within {max_steps} steps (miss probability (3/4)^{max_steps})"
    )
