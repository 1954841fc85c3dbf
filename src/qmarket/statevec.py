"""Dense state-vector core: preparation, gates, and projective Pauli measurement.

Basis indices are big-endian bitstrings: qubit 0 is the leftmost bit (the top
wire of a circuit diagram), so |10> on two qubits is index 2.  All public
operations return fresh StateVector values; nothing mutates in place.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
# The LAPACK gufunc `np.linalg.svd(..., full_matrices=False)` calls for a
# complex matrix, without the wrapper's conversions and error state.
from numpy.linalg._umath_linalg import svd_s as _svd

from .algebra import PauliString, _near_identity, assert_unitary

MAX_QUBITS = 16
NORM_TOL = 1e-12
# A norm further than this from 1 is an error, not rounding to rescale away.
NORM_REJECT = 1e-9
# Branch probabilities below this are treated as exact zeros and never sampled.
ZERO_BRANCH = 1e-14


def _check_width(n_qubits: int) -> None:
    if n_qubits < 1:
        raise ValueError(f"need at least one qubit, got {n_qubits}")
    if n_qubits > MAX_QUBITS:
        raise ValueError(f"qubit count {n_qubits} exceeds ceiling {MAX_QUBITS}")


def _norm(amplitudes: np.ndarray):
    """`np.linalg.norm` of a complex array, by the same two dot products
    over the same memory-order ravel, without its argument handling.  The
    square root is IEEE's correctly rounded one, as numpy's is, taken on a
    Python float."""
    flat = amplitudes.ravel(order="K")
    re, im = flat.real, flat.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _norms(stack: np.ndarray) -> np.ndarray:
    """`_norm` of every row of a (B, N) complex stack, as the same floats:
    `np.vecdot` runs the same BLAS dot per row, with the row's strides, as
    `re.dot(re)` does on the row alone."""
    re, im = stack.real, stack.imag
    return np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))


def _norm_error(norm: float) -> ValueError:
    """The norm rule's error for a norm more than NORM_REJECT from 1."""
    return ValueError(f"state norm {norm} too far from 1")


def _force_error(force) -> ValueError:
    """The error for a forced outcome that is not +/-1."""
    return ValueError(f"forced outcome must be +/-1, got {force}")


def _normalized(amplitudes: np.ndarray) -> np.ndarray:
    """The norm rule every state passes: reject a norm more than NORM_REJECT
    from 1, rescale one more than NORM_TOL from 1, keep the array otherwise."""
    norm = _norm(amplitudes)
    if not abs(norm - 1.0) <= NORM_REJECT:  # a NaN norm fails too
        raise _norm_error(norm)
    if abs(norm - 1.0) > NORM_TOL:
        amplitudes = amplitudes / norm
    return amplitudes


def _normalized_rows(stack: np.ndarray) -> np.ndarray:
    """The norm rule on every row of a (B, N) complex stack, in one pass: the
    first row `_normalized` would reject raises its error, and the rows it
    would rescale are rescaled, in a copy, by the same division.  A stack
    that needs no rescale comes back as it is."""
    norms = _norms(stack)
    off = abs(norms - 1.0)
    kept = off <= NORM_TOL
    if not kept.all():
        allowed = off <= NORM_REJECT  # a NaN norm fails too
        if not allowed.all():
            raise _norm_error(float(norms[allowed.argmin()]))
        rescale = ~kept
        stack = stack.copy()
        stack[rescale] = stack[rescale] / norms[rescale, None]
    return stack


class StateVector:
    """Normalized complex amplitudes over n qubits."""

    __slots__ = ("n_qubits", "amplitudes")

    def __init__(self, n_qubits: int, amplitudes: np.ndarray):
        _check_width(n_qubits)
        amplitudes = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if amplitudes.shape[0] != 2**n_qubits:
            raise ValueError(
                f"amplitude length {amplitudes.shape[0]} != 2**{n_qubits}"
            )
        self.n_qubits = n_qubits
        self.amplitudes = _normalized(amplitudes)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def tensor(self) -> np.ndarray:
        return self.amplitudes.reshape([2] * self.n_qubits)

    def copy(self) -> "StateVector":
        return StateVector(self.n_qubits, self.amplitudes.copy())

    def __repr__(self) -> str:
        return f"StateVector(n_qubits={self.n_qubits})"


@dataclass(frozen=True)
class MeasurementOutcome:
    eigenvalue: int  # +1 or -1
    probability: float
    observable: PauliString

    def __post_init__(self):
        if self.eigenvalue not in (1, -1):
            raise ValueError(f"eigenvalue must be +/-1, got {self.eigenvalue}")
        if not -NORM_TOL <= self.probability <= 1.0 + NORM_TOL:
            raise ValueError(f"probability {self.probability} outside [0, 1]")


def new_basis_state(n_qubits: int, bits: str) -> StateVector:
    if len(bits) != n_qubits:
        raise ValueError(f"bitstring {bits!r} has length {len(bits)}, expected {n_qubits}")
    if any(b not in "01" for b in bits):
        raise ValueError(f"bitstring {bits!r} must contain only 0/1")
    amplitudes = np.zeros(2**n_qubits, dtype=complex)
    amplitudes[int(bits, 2)] = 1.0
    return StateVector(n_qubits, amplitudes)


def random_state(n_qubits: int, rng: np.random.Generator) -> StateVector:
    return StateVector(n_qubits, _random_rows(n_qubits, [rng])[0])


def _random_rows(n_qubits: int, rngs) -> np.ndarray:
    """A (len(rngs), 2^n) stack of Haar-random amplitudes, row b drawn from
    rngs[b], before the norm rule.  Each generator draws its 2 * 2^n normals
    at once, the same values as drawing the real parts and then the
    imaginary parts, and each row is divided by its norm."""
    size = 2**n_qubits
    draws = np.array([rng.normal(size=2 * size) for rng in rngs])
    vec = draws[:, :size] + 1j * draws[:, size:]
    return vec / _norms(vec)[:, None]


def apply_gate(state: StateVector, gate: np.ndarray, targets: list[int]) -> StateVector:
    """Apply `gate` (dimension 2^len(targets)) to the listed qubits."""
    n = state.n_qubits
    k = len(targets)
    _check_targets(targets, n)
    gate = np.asarray(gate, dtype=complex)
    if gate.shape != (2**k, 2**k):
        raise ValueError(f"gate shape {gate.shape} does not act on {k} qubit(s)")
    assert_unitary(gate)
    return StateVector(n, _apply_matrix(state.tensor()[None], gate, targets).reshape(-1))


def _check_targets(targets: list[int], n_qubits: int) -> None:
    """Raise unless `targets` are distinct wires of an `n_qubits` register."""
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate targets in {targets}")
    if any(t < 0 or t >= n_qubits for t in targets):
        raise ValueError(f"target out of range in {targets} for {n_qubits} qubits")


def _apply_matrix(stack: np.ndarray, matrix: np.ndarray, targets: list[int]) -> np.ndarray:
    """`matrix` acting on the listed qubits of every row of a (B, 2, ..., 2) stack.

    The target axes move next to the batch axis and one stacked matmul
    contracts them, so every row gets the same arithmetic whatever B is
    (tensordot, which folds the batch into one product, does not).  The
    result has the stack's shape, not necessarily its memory layout.
    """
    k = len(targets)
    axes = [1 + t for t in targets]
    order = [0, *axes, *(a for a in range(1, stack.ndim) if a not in axes)]
    moved = stack.transpose(order)
    out = np.matmul(matrix, moved.reshape(stack.shape[0], 2**k, -1)).reshape(moved.shape)
    inverse = [0] * len(order)
    for i, a in enumerate(order):
        inverse[a] = i
    return out.transpose(inverse)


def apply_pauli(state: StateVector, pauli: PauliString) -> StateVector:
    """Apply a PauliString as a unitary (phase included)."""
    if pauli.n_qubits != state.n_qubits:
        raise ValueError("Pauli word and state sizes differ")
    vec = pauli.phase * _pauli_action(state.tensor(), enumerate(pauli.letters))
    return StateVector(state.n_qubits, vec.reshape(-1))


def _pauli_action(tensor: np.ndarray, placed) -> np.ndarray:
    """The Pauli letters of `placed`, (axis, letter) pairs on distinct axes,
    acting on `tensor`.

    Every letter acts along its own axis by flips and sign or phase changes,
    so rows of a batch axis never mix.
    """
    return _act(tensor, *_pauli_slices(tensor.ndim, tuple(placed)))


# Keyed by the whole placement, so bounded: a caller measuring many distinct
# words on wide states would otherwise grow the cache without limit.
@lru_cache(maxsize=1024)
def _pauli_slices(ndim: int, placed) -> tuple[tuple, tuple]:
    """The indexing `_act` needs for the letters of `placed`, a tuple of
    (axis, letter) pairs, on a tensor of `ndim` axes: one index that reverses
    every X and X'' axis, and per X' or X'' letter, in order, (letter, index
    of its |0> half, index of its |1> half)."""
    flip = [slice(None)] * ndim
    phases = []
    for axis, letter in placed:
        if letter == "I":
            continue
        if letter != "Xp":  # X or Xpp
            flip[axis] = slice(None, None, -1)
        if letter != "X":  # Xp or Xpp
            halves = [slice(None)] * ndim, [slice(None)] * ndim
            halves[0][axis], halves[1][axis] = 0, 1
            phases.append((letter, tuple(halves[0]), tuple(halves[1])))
    return tuple(flip), tuple(phases)


def _act(tensor: np.ndarray, flip: tuple, phases: tuple) -> np.ndarray:
    """A Pauli word's action from its `_pauli_slices`: the flips as one view
    (what `np.flip` returns), then the sign and phase changes on a copy."""
    out = tensor[flip]
    if phases:
        out = out.copy()
        for letter, half0, half1 in phases:
            if letter == "Xp":
                out[half1] = -out[half1]
            else:  # Xpp = i X Xp: |0> -> i|1>, |1> -> -i|0>
                out[half1] = 1j * out[half1]
                out[half0] = -1j * out[half0]
    return out


def measure_pauli(
    state: StateVector,
    observable: PauliString,
    rng: np.random.Generator | None,
    force: int | None = None,
) -> tuple[MeasurementOutcome, StateVector]:
    """Projective measurement of a Hermitian PauliString via the Born rule.

    Samples an eigenvalue o in {+1, -1} with probability <psi|P_o|psi>,
    P_o = (I + o*observable)/2, and returns the renormalized projection.
    `force` pins the outcome for deterministic testing (the forced branch
    must have nonzero probability).
    """
    if observable.n_qubits != state.n_qubits:
        raise ValueError("observable and state sizes differ")
    if not observable.is_hermitian:
        raise ValueError(f"observable phase {observable.phase} is not +/-1; not Hermitian")

    acted = observable.phase * _pauli_action(state.tensor(), enumerate(observable.letters))
    return _project(state, acted.reshape(-1), observable, rng, force)


def _project(state, acted, observable, rng, force):
    """Sample (or force) a branch of the involution whose action is `acted`."""
    eig, prob, branch = _branch(state.amplitudes, acted, rng, force)
    post = StateVector(state.n_qubits, branch / np.sqrt(prob))
    return MeasurementOutcome(eig, prob, observable), post


def _branch(amplitudes, acted, rng, force):
    """The Born rule for the involution whose action on `amplitudes` is `acted`.

    Returns (eigenvalue, probability, unnormalized projection).  A branch
    below ZERO_BRANCH is never sampled and consumes no draw; a stochastic
    meter draws one `rng.random()`.
    """
    plus = (amplitudes + acted) / 2.0
    minus = (amplitudes - acted) / 2.0
    p_plus = float(np.vdot(plus, plus).real)
    p_minus = float(np.vdot(minus, minus).real)
    if force is not None:
        if force not in (1, -1):
            raise _force_error(force)
        eig = 1 if force == 1 else -1
        prob = p_plus if eig == 1 else p_minus
        if prob < ZERO_BRANCH:
            raise ValueError(f"forced outcome {force} has probability {prob} ~ 0")
    else:
        if p_plus < ZERO_BRANCH:
            eig = -1
        elif p_minus < ZERO_BRANCH:
            eig = 1
        else:
            if rng is None:
                raise ValueError("rng required for a stochastic measurement")
            eig = 1 if rng.random() < p_plus else -1
        prob = p_plus if eig == 1 else p_minus
    if prob < ZERO_BRANCH:  # pragma: no cover - guarded above
        raise RuntimeError("sampled a zero-probability branch")
    return eig, prob, plus if eig == 1 else minus


def measure_hermitian(
    state: StateVector,
    observable: np.ndarray,
    targets: list[int],
    rng: np.random.Generator | None,
    force: int | None = None,
) -> tuple[MeasurementOutcome, StateVector]:
    """Projective measurement of a Hermitian involution given as a dense matrix.

    Covers the non-Pauli meters the gadgets need (G and the T-conjugated X).
    The returned outcome carries the identity word as its observable.
    """
    _check_targets(targets, state.n_qubits)
    observable = np.asarray(observable, dtype=complex)
    dim = 2 ** len(targets)
    if observable.shape != (dim, dim):
        raise ValueError(f"observable shape {observable.shape} does not fit targets {targets}")
    _check_involution(observable)
    acted = _apply_matrix(state.tensor()[None], observable, targets).reshape(-1)
    return _project(state, acted, PauliString.identity(state.n_qubits), rng, force)


def _check_involution(observable: np.ndarray) -> None:
    """Raise unless the square matrix `observable` is a Hermitian involution."""
    if not np.allclose(observable, observable.conj().T, atol=1e-10):
        raise ValueError("observable is not Hermitian")
    if not _near_identity(observable @ observable):
        raise ValueError("observable is not an involution (eigenvalues must be +/-1)")


def equal_up_to_global_phase(
    a: StateVector, b: StateVector, tol: float = 1e-10
) -> tuple[bool, complex | None]:
    """True iff |<a|b>| >= 1 - tol; also returns the relative phase when true."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("states have different qubit counts")
    overlap = np.vdot(a.amplitudes, b.amplitudes)
    if abs(overlap) >= 1.0 - tol:
        return True, overlap / abs(overlap)
    return False, None


def fidelity(a: StateVector, b: StateVector) -> float:
    """Overlap magnitude |<a|b>| between unit vectors."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("states have different qubit counts")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)))


def append_qubit(state: StateVector, bits: str = "0") -> StateVector:
    """Tensor a fresh qubit in a computational basis state onto the end."""
    if bits not in ("0", "1"):
        raise ValueError(f"appended bit {bits!r} must be '0' or '1'")
    fresh = np.zeros(2, dtype=complex)
    fresh[int(bits, 2)] = 1.0
    return StateVector(state.n_qubits + 1, np.kron(state.amplitudes, fresh))


def append_state(state: StateVector, qubit_state: np.ndarray) -> StateVector:
    """Tensor a fresh qubit in an arbitrary normalized 1-qubit state onto the end."""
    qubit_state = np.asarray(qubit_state, dtype=complex).reshape(-1)
    if qubit_state.shape[0] != 2:
        raise ValueError("appended state must be a single qubit")
    return StateVector(state.n_qubits + 1, np.kron(state.amplitudes, qubit_state))


def remove_qubit(state: StateVector, qubit: int) -> tuple[StateVector, np.ndarray]:
    """Factor out a disentangled qubit, returning (rest, removed 1-qubit state).

    The wire must be in a pure product state with the rest of the register;
    this is asserted via the second singular value of the bipartition.
    """
    n = state.n_qubits
    if n < 2:
        raise ValueError("cannot remove the last qubit")
    if qubit < 0 or qubit >= n:
        raise ValueError(f"qubit {qubit} out of range")
    rest, removed = _factor_out(np.moveaxis(state.tensor(), qubit, 0).reshape(2, -1), qubit)
    return StateVector(n - 1, rest), removed


def _factor_out(pair: np.ndarray, qubit: int) -> tuple[np.ndarray, np.ndarray]:
    """Split a 2 x rest matrix, whose rows are the |0> and |1> halves of
    `qubit`, into (rest, removed): the other wires' amplitudes, not yet put
    through the norm rule, and the wire's 1-qubit state.

    Raises when the wire is entangled: its residual weight, the second
    singular value squared, exceeds 1e-12.  The comparisons are written so
    that a NaN fails them: a non-finite singular value is LAPACK's
    non-convergence, which `np.linalg.svd` reports as LinAlgError.
    """
    u, s, vh = _svd(pair, signature="D->DdD")
    if not s[0] < math.inf:
        raise np.linalg.LinAlgError("SVD did not converge")
    if s.shape[0] > 1 and not s[1] ** 2 <= 1e-12:
        raise RuntimeError(
            f"qubit {qubit} is entangled with the rest (residual weight {s[1]**2:.2e})"
        )
    removed = u[:, 0]
    rest = s[0] * vh[0, :]
    return rest, removed


def permute_qubits(state: StateVector, order: list[int]) -> StateVector:
    """Reorder wires so that new qubit i is old qubit order[i]."""
    if sorted(order) != list(range(state.n_qubits)):
        raise ValueError(f"order {order} is not a permutation")
    return StateVector(state.n_qubits, np.transpose(state.tensor(), axes=order).reshape(-1))
