"""Measurement-only gadget implementations of tactics.

Every gadget appends one fresh ancilla, runs a fixed sequence of projective
measurements, and hands back the surviving wire plus the Pauli byproduct that
the outcomes pin down.  The defining contract, checked throughout the tests:

    post_state  ==  byproduct . target_unitary . input    (up to global phase)

Outcome eigenvalues o in {+1, -1} enter byproduct exponents through the bit
map b(o) = (1 - o)/2, so a correction is applied exactly when the outcome
is -1.  Each gadget's ancilla prep, meter sequence, byproduct law and target
unitary are written once, in the GADGETS table; the gadget functions, the
byproduct laws in predicted_byproduct and the compiler's lowering all read it.

The data wire is consumed (its final meter leaves it in a known eigenstate,
recorded in ancilla_residue) and the ancilla wire is relabeled into the data
slot, so callers always see a stable logical index.
"""
from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .algebra import PauliString, assert_unitary, named_gate, pauli_mul
from .statevec import (
    MeasurementOutcome,
    StateVector,
    _apply_matrix,
    _branch,
    _check_involution,
    _check_width,
    _normalized,
    _pauli_action,
    append_qubit,
    apply_gate,
    measure_pauli,
    permute_qubits,
    remove_qubit,
)

SQRT2_INV = 1.0 / np.sqrt(2.0)

# The meter the sigma_t gadget names "T^-1 X T": (X - X'')/sqrt(2).
T_CONJUGATED_X = (named_gate("X") - named_gate("Xpp")) * SQRT2_INV

PLUS = np.array([1, 1], dtype=complex) * SQRT2_INV


def bit(outcome: int) -> int:
    """Exponent bit b(o) = (1 - o)/2 mapping +1 -> 0 and -1 -> 1."""
    if outcome not in (1, -1):
        raise ValueError(f"outcome must be +/-1, got {outcome}")
    return (1 - outcome) // 2


@dataclass(frozen=True)
class GadgetResult:
    """Outcomes, predicted byproduct, and the post-state on the logical wires."""

    outcomes: tuple[MeasurementOutcome, ...]
    byproduct: PauliString
    post_state: StateVector
    ancilla_residue: str

    @property
    def eigenvalues(self) -> tuple[int, ...]:
        return tuple(o.eigenvalue for o in self.outcomes)


SIGMA_VARIANTS = ("xx", "xpxp", "hsandwich")
SIGMA_T_VARIANTS = ("xprime_pair", "g_meter")


@dataclass(frozen=True)
class GadgetSpec:
    """One measurement gadget, read by the gadget runner and the compiler.

    Wires are named by role: "d" the data wire, "c" a control wire, "a" the
    fresh ancilla.  A meter is (letters, roles), one letter per role; the
    letters are Pauli letters or a dense involution named in _DENSE_METERS.
    A byproduct term (letter, role, indices) applies `letter` on `role` when
    the XOR of b(o) over the outcomes at `indices` is 1.  The retired wire's
    last meter leaves it in a known eigenstate; when the retired wire is not
    the ancilla, the ancilla takes over its logical slot.
    """

    prep: str  # ancilla state: "0" or "+"
    pre: str | None  # gate applied to the data wire before the ancilla joins
    meters: tuple[tuple[tuple[str, ...], str], ...]
    retired: str
    byproduct: tuple[tuple[str, str, tuple[int, ...]], ...]
    target: str

    @property
    def roles(self) -> str:
        """The caller's wires in argument order: control first, then data."""
        return "cd" if any("c" in roles for _letters, roles in self.meters) else "d"


_H_METERS = ((("X",), "a"), (("X", "Xp"), "da"), (("Xp",), "d"))
_H_LAW = (("X", "d", (1,)), ("Xp", "d", (0, 2)))

GADGETS = MappingProxyType({
    "sigma_h": GadgetSpec("0", None, _H_METERS, "d", _H_LAW, "H"),
    "sigma_h_swapped": GadgetSpec(
        "+", None, ((("Xp",), "a"), (("Xp", "X"), "da"), (("X",), "d")), "d",
        (("Xp", "d", (1,)), ("X", "d", (0, 2))), "H",
    ),
    "sigma_xx": GadgetSpec(
        "+", None, ((("Xp",), "a"), (("X", "X"), "da"), (("Xp",), "d")), "d",
        (("X", "d", (0, 2)), ("Xp", "d", (1,))), "I",
    ),
    "sigma_xpxp": GadgetSpec(
        "0", None, ((("X",), "a"), (("Xp", "Xp"), "da"), (("X",), "d")), "d", _H_LAW, "I",
    ),
    # H gate, then the sigma_h meters (H H = I).
    "sigma_hsandwich": GadgetSpec("0", "H", _H_METERS, "d", _H_LAW, "I"),
    "sigma_t": GadgetSpec(
        "0", None, ((("X",), "a"), (("Xp", "Xp"), "da"), (("TdXT",), "d")), "d", _H_LAW, "T",
    ),
    "sigma_t_gmeter": GadgetSpec(
        "0", "H", ((("X",), "a"), (("X", "Xp"), "da"), (("G",), "d")), "d", _H_LAW, "T",
    ),
    "sigma_g": GadgetSpec(
        "+", None, ((("Xp",), "a"), (("Xp", "Xpp"), "da"), (("Xpp",), "d")), "d",
        (("Xp", "d", (1,)), ("Xpp", "d", (0, 2))), "G",
    ),
    "cnot": GadgetSpec(
        "0", None,
        ((("X",), "a"), (("X", "Xp"), "da"), (("X", "Xp"), "ac"), (("Xp",), "a")), "a",
        (("Xp", "c", (3, 1)), ("X", "d", (2, 0))), "CNOT",
    ),
})

GADGET_TARGET_UNITARIES = {kind: spec.target for kind, spec in GADGETS.items()}

_ANCILLA_STATES = {"0": np.array([1, 0], dtype=complex), "+": PLUS}

# The built-in matrices the runner applies without per-call checks.  They
# pass the checks the public apply_gate and measure_hermitian run on caller
# input once, here, at import.
_PRE_GATES = {spec.pre: named_gate(spec.pre) for spec in GADGETS.values() if spec.pre}
_DENSE_METERS = {"G": named_gate("G"), "TdXT": T_CONJUGATED_X}
for _gate in _PRE_GATES.values():
    assert_unitary(_gate)
for _observable in _DENSE_METERS.values():
    _check_involution(_observable)


def _byproduct_word(
    spec: GadgetSpec, eigenvalues: list[int], wires: dict[str, int], n_qubits: int
) -> PauliString:
    word = PauliString.identity(n_qubits)
    for letter, role, indices in spec.byproduct:
        if sum(bit(eigenvalues[i]) for i in indices) % 2:
            word = pauli_mul(word, PauliString.single(n_qubits, wires[role], letter))
    return word


def predicted_byproduct(kind: str, outcomes: list[int]) -> PauliString:
    """Closed-form byproduct for a gadget kind given its outcome eigenvalues."""
    if kind not in GADGETS:
        raise ValueError(f"unknown gadget kind {kind!r}")
    spec = GADGETS[kind]
    if len(outcomes) != len(spec.meters):
        raise ValueError(f"{kind} takes {len(spec.meters)} outcomes, got {len(outcomes)}")
    for o in outcomes:
        bit(o)
    wires = {role: i for i, role in enumerate(spec.roles)}
    return _byproduct_word(spec, outcomes, wires, len(wires))


def _meter(state, letters, wires, rng, force):
    obs = PauliString.identity(state.n_qubits)
    for wire, letter in zip(wires, letters):
        obs = pauli_mul(obs, PauliString.single(state.n_qubits, wire, letter))
    return measure_pauli(state, obs, rng, force=force)


def _check_target(state: StateVector, target: int) -> None:
    if target < 0 or target >= state.n_qubits:
        raise ValueError(f"target {target} out of range for {state.n_qubits} qubits")


def _run_meters(state, wires, pre, prep, meters, rng, forced):
    """The pre-gate, the ancilla join on wire n and the meters, on raw amplitudes.

    Every intermediate amplitude array passes StateVector's norm rule: each
    meter applies it to its input, and the returned (n+1)-wire StateVector,
    the only state built, to the last meter's branch.  Returns (outcomes,
    state).
    """
    width = state.n_qubits + 1
    _check_width(width)
    amps = state.amplitudes
    if pre is not None:
        amps = _normalized(_apply_matrix(state.tensor()[None], _PRE_GATES[pre], [wires["d"]]).reshape(-1))
    ancilla = _ANCILLA_STATES[prep]
    amps = (amps[:, None] * ancilla[None, :]).reshape(-1)
    outcomes = []
    for (letters, roles), force in zip(meters, forced):
        amps = _normalized(amps)
        on = [wires[role] for role in roles]
        tensor = amps.reshape((2,) * width)
        if letters[0] in _DENSE_METERS:
            observable = PauliString.identity(width)
            acted = _apply_matrix(tensor[None], _DENSE_METERS[letters[0]], on)
        else:
            word = ["I"] * width
            for wire, letter in zip(on, letters):
                word[wire] = letter
            observable = PauliString.from_letters(*word)
            acted = observable.phase * _pauli_action(tensor, enumerate(observable.letters))
        eig, prob, branch = _branch(amps, acted.reshape(-1), rng, force)
        amps = branch / np.sqrt(prob)
        outcomes.append(MeasurementOutcome(eig, prob, observable))
    return outcomes, StateVector(width, amps)


def _run_gadget(kind, state, targets, rng, forced_outcomes) -> GadgetResult:
    """Run GADGETS[kind] on the logical wires `targets` (in spec.roles order)."""
    spec = GADGETS[kind]
    for t in targets:
        _check_target(state, t)
    if forced_outcomes is not None and len(forced_outcomes) != len(spec.meters):
        raise ValueError(f"{kind} takes exactly {len(spec.meters)} outcomes")
    forced = forced_outcomes or [None] * len(spec.meters)
    n = state.n_qubits
    wires = dict(zip(spec.roles, targets), a=n)
    outcomes, work = _run_meters(state, wires, spec.pre, spec.prep, spec.meters, rng, forced)

    retired = wires[spec.retired]
    post, _removed = remove_qubit(work, retired)
    if spec.retired != "a":
        # After removal the ancilla sits at the end; rotate it into the slot.
        last = post.n_qubits - 1
        post = permute_qubits(post, list(range(retired)) + [last] + list(range(retired, last)))
    eigs = [o.eigenvalue for o in outcomes]
    byproduct = _byproduct_word(spec, eigs, wires, n)
    return GadgetResult(tuple(outcomes), byproduct, post, format(bit(eigs[-1]), "b"))


def gadget_sigma_h(
    state: StateVector,
    target: int,
    rng: np.random.Generator | None = None,
    forced_outcomes: list[int] | None = None,
    swapped: bool = False,
) -> GadgetResult:
    """Implement H up to a Pauli byproduct via three meters and one ancilla.

    Sequence: X on the ancilla (j), X(x)X' on (data, ancilla) (k), X' on the
    data wire (l); the strategy migrates to the ancilla wire.  `swapped`
    exchanges the supply and demand meters (X <-> X') throughout, which
    implements the same tactics with the conjugate byproduct law.
    """
    kind = "sigma_h_swapped" if swapped else "sigma_h"
    return _run_gadget(kind, state, (target,), rng, forced_outcomes)


def gadget_sigma(
    state: StateVector,
    target: int,
    rng: np.random.Generator | None = None,
    forced_outcomes: list[int] | None = None,
    variant: str = "xx",
) -> GadgetResult:
    """Random Pauli tactics: transfer the strategy while applying only a
    known outcome-dependent Pauli (target unitary I).

    Variants realize the three displayed forms: "xx" measures [X' anc,
    X(x)X pair, X' data], "xpxp" measures [X anc, X'(x)X' pair, X data],
    and "hsandwich" prepends an H gate to the plain transfer.
    """
    if variant not in SIGMA_VARIANTS:
        raise ValueError(f"variant must be one of {SIGMA_VARIANTS}, got {variant!r}")
    return _run_gadget(f"sigma_{variant}", state, (target,), rng, forced_outcomes)


def gadget_sigma_t(
    state: StateVector,
    target: int,
    rng: np.random.Generator | None = None,
    forced_outcomes: list[int] | None = None,
    variant: str = "xprime_pair",
) -> GadgetResult:
    """Implement the phase-shift tactics T up to a Pauli byproduct.

    "xprime_pair": meters [X anc, X'(x)X' pair, T^-1 X T data].
    "g_meter":     H gate on the data wire, then [X anc, X(x)X' pair, G data];
                   equivalent because T^-1 X T = (X - X'')/sqrt(2) and
                   H (X - X'')/sqrt(2) H = G.
    The byproduct is always a pure Pauli; T commutes with X'.
    """
    if variant not in SIGMA_T_VARIANTS:
        raise ValueError(f"variant must be one of {SIGMA_T_VARIANTS}, got {variant!r}")
    kind = "sigma_t" if variant == "xprime_pair" else "sigma_t_gmeter"
    return _run_gadget(kind, state, (target,), rng, forced_outcomes)


def gadget_sigma_g(
    state: StateVector,
    target: int,
    rng: np.random.Generator | None = None,
    forced_outcomes: list[int] | None = None,
) -> GadgetResult:
    """Implement G up to a Pauli byproduct: the sigma_h meters under the
    cyclic replacement X -> X', X' -> X'', X'' -> X.

    Sequence: X' on the ancilla (j), X'(x)X'' on (data, ancilla) (k), X''
    on the data wire (l).
    """
    return _run_gadget("sigma_g", state, (target,), rng, forced_outcomes)


def gadget_cnot(
    state: StateVector,
    control: int,
    target: int,
    rng: np.random.Generator | None = None,
    forced_outcomes: list[int] | None = None,
) -> GadgetResult:
    """Implement CNOT up to a Pauli byproduct using one ancilla and four meters.

    Sequence: X on the ancilla (j), X(x)X' on (target, ancilla) (k),
    X(x)X' on (ancilla, control) (l), X' on the ancilla (m).  Control and
    target keep their wires; the ancilla is consumed.
    """
    if control == target:
        raise ValueError("control and target must differ")
    return _run_gadget("cnot", state, (control, target), rng, forced_outcomes)


# X on a |0> ancilla, then X(x)X' on (ancilla, target).
_XPRIME_METERS = ((("X",), "a"), (("X", "Xp"), "ad"))


def measure_xprime_derived(
    state: StateVector,
    target: int,
    rng: np.random.Generator | None = None,
    forced_outcomes: list[int] | None = None,
) -> tuple[MeasurementOutcome, StateVector]:
    """Measure X' on `target` using only an X meter and an X(x)X' meter.

    A fresh ancilla is measured in X (outcome j), then X(x)X' is measured on
    (ancilla, target) (outcome k).  Because the ancilla is in a definite X
    eigenstate, the pair outcome factorizes and the target's X' eigenvalue
    is j*k; the target collapses exactly as under a direct X' measurement.
    """
    _check_target(state, target)
    if forced_outcomes is not None and len(forced_outcomes) != 2:
        raise ValueError("derived X' takes exactly 2 outcomes")
    forced = forced_outcomes or (None, None)
    n = state.n_qubits
    (o1, o2), work = _run_meters(state, {"d": target, "a": n}, None, "0", _XPRIME_METERS, rng, forced)
    post, _removed = remove_qubit(work, n)
    reported = MeasurementOutcome(
        o1.eigenvalue * o2.eigenvalue,
        o2.probability,
        PauliString.single(n, target, "Xp"),
    )
    return reported, post


def measure_parity_conjugated(
    state: StateVector,
    pair: tuple[int, int],
    kind: str,
    rng: np.random.Generator | None = None,
    force: int | None = None,
) -> tuple[MeasurementOutcome, StateVector]:
    """Measure X(x)X or X'(x)X' as H-conjugated X(x)X' meters.

    kind "XX":   H on the second wire, measure X(x)X', undo the H.
    kind "XpXp": H on the first wire, measure X(x)X', undo the H.
    Statistically identical to the direct parity measurement; needed when the
    two agents sit on the same side of the market.
    """
    a, b = pair
    if a == b:
        raise ValueError("parity measurement needs two distinct qubits")
    _check_target(state, a)
    _check_target(state, b)
    if kind not in ("XX", "XpXp"):
        raise ValueError(f"kind must be XX or XpXp, got {kind!r}")
    h = named_gate("H")
    conj_wire = b if kind == "XX" else a
    work = apply_gate(state, h, [conj_wire])
    outcome, work = _meter(work, ["X", "Xp"], [a, b], rng, force)
    work = apply_gate(work, h, [conj_wire])
    letters = ("X", "X") if kind == "XX" else ("Xp", "Xp")
    obs = pauli_mul(
        PauliString.single(state.n_qubits, a, letters[0]),
        PauliString.single(state.n_qubits, b, letters[1]),
    )
    return MeasurementOutcome(outcome.eigenvalue, outcome.probability, obs), work


def measure_g_via_hghgh(
    state: StateVector,
    target: int,
    rng: np.random.Generator | None = None,
    force: int | None = None,
) -> tuple[MeasurementOutcome, StateVector]:
    """Measure the involution G interferometrically via its HGHGH form.

    An ancilla runs a Hadamard test around a controlled-H: the fixed gates
    H, G on the data wire make the controlled branch apply HGHGH = -G while
    the idle branch collapses to H G G H = I.  The ancilla's X' outcome
    therefore reports the NEGATED G eigenvalue (HGHGH equals G only up to
    the global phase -1, which a controlled circuit exposes); the reported
    outcome flips the sign back, and the target collapses onto the matching
    G eigenspace.
    """
    _check_target(state, target)
    n = state.n_qubits
    anc = n
    h = named_gate("H")
    g = named_gate("G")
    work = append_qubit(state, "0")
    work = apply_gate(work, h, [target])
    work = apply_gate(work, h, [anc])
    work = apply_gate(work, g, [target])
    work = apply_gate(work, named_gate("CH"), [anc, target])
    work = apply_gate(work, h, [anc])
    work = apply_gate(work, g, [target])
    work = apply_gate(work, h, [target])
    meter_force = None if force is None else -force
    outcome, work = _meter(work, ["Xp"], [anc], rng, meter_force)
    post, _removed = remove_qubit(work, anc)
    reported = MeasurementOutcome(
        -outcome.eigenvalue, outcome.probability, PauliString.single(n, target, "I")
    )
    return reported, post

