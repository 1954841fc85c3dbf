"""The two-qubit dealer strategy: dense coding and the polarization variant.

Wire A (qubit 0) starts as |0>; wire B (qubit 1) starts as the conjugate
|0'> = |+>, so the opening CNOT (control B) forges the Bell alliance.  The
dealer then applies one of four maximally distant tactics U_{z,alpha} to A
and a closing CNOT (control A).  The four reachable states are pairwise
orthogonal, which is what lets one transmitted qubit carry two bits.

The meters read wire A in the conjugate (X) basis and wire B in the
computational (X') basis, matching the branch structure of the output
superposition; decoding is then deterministic.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import CANONICAL_TACTICS, SQRT2_INV, Strategy, bloch_vector, named_gate, u_z_alpha
from .gadgets import _pauli_meter, _Plan, _run
from .statevec import StateVector, _apply_matrix, apply_gate, new_basis_state

# Which two classical bits each tactics label carries.  Any bijection works
# (the four encoded states are orthogonal); this one reads bit 0 off wire A
# and bit 1 off wire B.
TACTICS_TO_BITS = {"I": (0, 0), "X": (0, 1), "Xp": (1, 0), "Xpp": (1, 1)}
BITS_TO_TACTICS = {bits: label for label, bits in TACTICS_TO_BITS.items()}

# Market reading of the computational basis; pure metadata, never touches
# amplitudes.
DEFAULT_POLARIZATION_LABELS = {0: "supply", 1: "demand"}


@dataclass(frozen=True)
class TacticsChoice:
    label: str
    bits: tuple[int, int]

    def __post_init__(self):
        if TACTICS_TO_BITS.get(self.label) != self.bits:
            raise ValueError(f"label {self.label!r} does not encode bits {self.bits}")


_CNOT = named_gate("CNOT")

# |0>_A (x) |+>_B with the opening CNOT (control B) already applied.  It does
# not depend on the tactics, so it is built once; the public apply_gate
# checks H and _CNOT here, at import.
_PAIR = apply_gate(apply_gate(new_basis_state(2, "00"), named_gate("H"), [1]), _CNOT, [1, 0])

# The read-out, one plan for the gadget runner: X on wire A, then X' on wire B.
_READ_OBSERVABLES, _READ_STEPS = zip(_pauli_meter(2, ((0, "X"),)), _pauli_meter(2, ((1, "Xp"),)))
_READ_OUT = _Plan(_READ_STEPS, _READ_OBSERVABLES)


def dealer_state(s: Strategy, alpha: float) -> StateVector:
    """Output of the dealer circuit: CNOT_B->A, U_{z,alpha} on A, CNOT_A->B."""
    state = apply_gate(_PAIR, u_z_alpha(s, alpha), [0])
    return StateVector(2, _apply_matrix(state.tensor()[None], _CNOT, [0, 1]).reshape(-1))


def closed_form_dealer_state(s: Strategy, alpha: float) -> StateVector:
    """The displayed output superposition, assembled directly from E_z.

    cos(a)|+,0> + i sin(a) (E_x |+,1> + E_z' |-,0>) + sin(a) E_y |-,1>,
    where (E_x, E_y, E_z') is the strategy's expectation vector and the
    branch kets carry the phase convention fixed by the circuit itself.
    """
    nx, ny, nz = bloch_vector(s)
    c, si = np.cos(alpha), np.sin(alpha)
    plus = np.array([1, 1], dtype=complex) * SQRT2_INV
    minus = np.array([1, -1], dtype=complex) * SQRT2_INV
    zero = np.array([1, 0], dtype=complex)
    one = np.array([0, 1], dtype=complex)
    amps = (
        c * np.kron(plus, zero)
        + 1j * si * nx * np.kron(plus, one)
        + 1j * si * nz * np.kron(minus, zero)
        + si * ny * np.kron(minus, one)
    )
    return StateVector(2, amps)


def encoded_states() -> dict[str, StateVector]:
    """The four dealer outputs reachable through the canonical tactics."""
    return {
        label: dealer_state(s, alpha) for label, (s, alpha) in CANONICAL_TACTICS.items()
    }


# The codewords: each canonical tactic's dealer state, built once; the
# public apply_gate checks each tactic matrix here, at import.
_CODEWORDS = encoded_states()


def encode_decode(bits: tuple[int, int], rng: np.random.Generator):
    """Run one dense-coding roundtrip; decoding is exact.

    Returns (decoded bits, trace) where the trace records the tactics label,
    the encoded state, and both meter outcomes.  Decoding is deterministic,
    so `rng` draws nothing.
    """
    try:
        label = BITS_TO_TACTICS[bits]
    except (KeyError, TypeError):  # TypeError: an unhashable argument
        raise ValueError(f"bits must be a pair of 0/1, got {bits}") from None
    encoded = _CODEWORDS[label]
    (outcome_a, outcome_b), _post, _pattern = _run(_READ_OUT, encoded, rng, (None, None))
    decoded = ((1 - outcome_a.eigenvalue) // 2, (1 - outcome_b.eigenvalue) // 2)
    trace = {
        "label": label,
        "encoded": encoded.copy(),
        "outcome_a": outcome_a.eigenvalue,
        "outcome_b": outcome_b.eigenvalue,
    }
    return decoded, trace


def polarization_state(s: Strategy, alpha: float) -> StateVector:
    """Market-polarization variant: meters replaced by controlled-H (control
    B) followed by the involutive tactics G on B."""
    state = dealer_state(s, alpha)
    state = apply_gate(state, named_gate("CH"), [1, 0])
    return apply_gate(state, named_gate("G"), [1])


def polarization_state_from_closed_form(s: Strategy, alpha: float) -> StateVector:
    """Same output computed along the independent path: the closed-form
    dealer superposition with the two extra gates applied to it."""
    state = closed_form_dealer_state(s, alpha)
    state = apply_gate(state, named_gate("CH"), [1, 0])
    return apply_gate(state, named_gate("G"), [1])


def describe_polarization(state: StateVector, labels: dict[int, str] | None = None):
    """Annotate basis probabilities with market labels (metadata only)."""
    labels = DEFAULT_POLARIZATION_LABELS if labels is None else labels
    records = []
    n = state.n_qubits
    probs = np.abs(state.amplitudes) ** 2
    for index, p in enumerate(probs):
        bits = format(index, f"0{n}b")
        records.append(
            {
                "basis": bits,
                "reading": "/".join(labels[int(b)] for b in bits),
                "probability": float(p),
            }
        )
    return records
