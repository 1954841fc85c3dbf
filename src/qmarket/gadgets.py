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

The data wire is consumed (its last meter leaves it in a known eigenstate,
recorded in ancilla_residue) and the ancilla wire is relabeled into the data
slot, so callers always see a stable logical index.

A call depends on its input only through the amplitudes: everything else is
fixed by its key, (kind, input width, targets) for a gadget.  The first call
with a given key builds a plan and caches it: a list of steps (gate, ancilla
join, meter, retire, and a rotation into the data slot when that moves a
wire), the observable each meter reports and the byproduct word of every
outcome pattern.  One runner, _run, interprets every plan on raw amplitudes:
the gadgets', read from the table, and those of the derived X' meter, the
conjugated parity meter, the interferometric G meter and the dense-coding
read-out.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .algebra import SQRT2_INV, PauliString, assert_unitary, named_gate, pauli_mul
from .statevec import (
    MeasurementOutcome,
    StateVector,
    _act,
    _apply_matrix,
    _branch,
    _check_involution,
    _check_width,
    _factor_out,
    _force_error,
    _normalized,
    _pauli_slices,
    apply_gate,  # noqa: F401  (unused here; bench/test_smoke.py expects the binding)
)

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
    the XOR of b(o) over the outcomes at `indices` is 1.  The meter at
    `residue` leaves the retired wire in a known eigenstate; when the retired
    wire is not the ancilla, the ancilla takes over its logical slot.
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

    @functools.cached_property
    def residue(self) -> int:
        """The last meter on the retired wire alone, whose eigenstate it keeps."""
        return max(i for i, (_letters, roles) in enumerate(self.meters) if roles == self.retired)


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
_DENSE_METERS = {"G": named_gate("G"), "TdXT": T_CONJUGATED_X}
# The gadgets' pre-gate (H) and the fixed gates of the two helper meters.
_GATES = {name: named_gate(name) for name in ("H", "G", "CH")}
for _observable in _DENSE_METERS.values():
    _check_involution(_observable)
for _gate in _GATES.values():
    assert_unitary(_gate)


def predicted_byproduct(kind: str, outcomes: list[int]) -> PauliString:
    """Closed-form byproduct for a gadget kind given its outcome eigenvalues."""
    if kind not in GADGETS:
        raise ValueError(f"unknown gadget kind {kind!r}")
    spec = GADGETS[kind]
    if len(outcomes) != len(spec.meters):
        raise ValueError(f"{kind} takes {len(spec.meters)} outcomes, got {len(outcomes)}")
    pattern = 0
    for i, o in enumerate(outcomes):
        pattern |= bit(o) << i
    width = len(spec.roles)
    return _plan(kind, width, tuple(range(width))).byproducts[pattern]


def _check_target(state: StateVector, target: int) -> None:
    if target < 0 or target >= state.n_qubits:
        raise ValueError(f"target {target} out of range for {state.n_qubits} qubits")


# X on a |0> ancilla, then X(x)X' on (ancilla, target).
_XPRIME_METERS = ((("X",), "a"), (("X", "Xp"), "ad"))
# Every block the runner and the compiler look up: the public gadgets, and the
# derived X' meter, with no byproduct and its ancilla retired (its target is
# not read: the plan reports the fixed X' label instead).
_XPRIME_KIND = "xprime_derived"
_SPECS = MappingProxyType({
    **GADGETS, _XPRIME_KIND: GadgetSpec("0", None, _XPRIME_METERS, "a", (), "I")})


def _pauli_meter(width: int, placed) -> tuple[PauliString, tuple]:
    """The observable and the meter step of the Pauli letters `placed`,
    (wire, letter) pairs on `width` wires."""
    word = ["I"] * width
    for wire, letter in placed:
        word[wire] = letter
    observable = PauliString.from_letters(*word)
    slices = _pauli_slices(width, tuple(enumerate(observable.letters)))
    return observable, ("pauli", observable.phase, slices)


class _Plan(NamedTuple):
    """Everything a call does that depends only on its key: the steps `_run`
    interprets, the observable each meter reports, the byproduct word of
    each outcome pattern p (whose bit i is b(o_i)), and the label a
    single-outcome helper reports.

    A step is ("gate", matrix, wires), ("join", ancilla row), a meter
    ("pauli", phase, slices) or ("dense", involution, wires), ("retire",
    axis order) or ("rotate", axis order).
    """

    steps: tuple[tuple, ...]
    observables: tuple[PauliString, ...]
    byproducts: tuple[PauliString, ...] = ()
    label: PauliString | None = None


@functools.cache
def _plan(kind: str, n_qubits: int, targets: tuple[int, ...]) -> _Plan:
    """The plan of _SPECS[kind] on `n_qubits` input wires, with `targets` the
    wires of spec.roles, in order."""
    spec = _SPECS[kind]
    width = n_qubits + 1
    _check_width(width)
    wires = dict(zip(spec.roles, targets), a=n_qubits)
    steps = [] if spec.pre is None else [("gate", _GATES[spec.pre], (wires["d"],))]
    steps.append(("join", _ANCILLA_STATES[spec.prep][None, :]))
    observables = []
    for letters, roles in spec.meters:
        on = tuple(wires[role] for role in roles)
        if letters[0] in _DENSE_METERS:
            observable, meter = PauliString.identity(width), ("dense", _DENSE_METERS[letters[0]], on)
        else:
            observable, meter = _pauli_meter(width, zip(on, letters))
        observables.append(observable)
        steps.append(meter)
    retired = wires[spec.retired]
    steps.append(("retire", (retired, *(w for w in range(width) if w != retired))))
    last = n_qubits - 1
    if retired < last:
        # After removal the ancilla sits at the end; rotate it into the slot
        # (a retired last data wire, or the ancilla, leaves nothing to move).
        steps.append(("rotate", (*range(retired), last, *range(retired, last))))
    byproducts = []
    for pattern in range(2 ** len(spec.meters)):
        word = PauliString.identity(n_qubits)
        for letter, role, indices in spec.byproduct:
            if sum(pattern >> i & 1 for i in indices) % 2:
                word = pauli_mul(word, PauliString.single(n_qubits, wires[role], letter))
        byproducts.append(word)
    label = PauliString.single(n_qubits, wires["d"], "Xp") if kind == _XPRIME_KIND else None
    return _Plan(tuple(steps), tuple(observables), tuple(byproducts), label)


@functools.cache
def _parity_plan(n_qubits: int, pair: tuple[int, int], kind: str) -> _Plan:
    """measure_parity_conjugated's plan: X(x)X' on `pair` between two H gates."""
    a, b = pair
    h = ("gate", _GATES["H"], (b if kind == "XX" else a,))
    observable, meter = _pauli_meter(n_qubits, ((a, "X"), (b, "Xp")))
    letter = "X" if kind == "XX" else "Xp"
    label, _meter = _pauli_meter(n_qubits, ((a, letter), (b, letter)))
    return _Plan((h, meter, h), (observable,), label=label)


@functools.cache
def _g_plan(n_qubits: int, target: int) -> _Plan:
    """measure_g_via_hghgh's plan: a |0> ancilla, the Hadamard test's gates,
    X' on the ancilla and its retire."""
    anc = n_qubits
    width = n_qubits + 1
    _check_width(width)
    gates = (("H", (target,)), ("H", (anc,)), ("G", (target,)), ("CH", (anc, target)),
             ("H", (anc,)), ("G", (target,)), ("H", (target,)))
    observable, meter = _pauli_meter(width, ((anc, "Xp"),))
    steps = (
        ("join", _ANCILLA_STATES["0"][None, :]),
        *(("gate", _GATES[name], on) for name, on in gates),
        meter,
        ("retire", (anc, *range(anc))),
    )
    return _Plan(steps, (observable,), label=PauliString.identity(n_qubits))


def _run(plan: _Plan, state: StateVector, rng, forced):
    """The steps of `plan`, on raw amplitudes.

    Every step's result passes StateVector's norm rule once: as the next
    step's input, and the last step's as the returned StateVector.  A meter
    rescales its branch by 1/sqrt(probability).  Returns (outcomes,
    post-state, outcome pattern).
    """
    amps = state.amplitudes
    shape = (2,) * state.n_qubits
    outcomes = []
    pattern = 0
    for at, step in enumerate(plan.steps):
        if at:
            amps = _normalized(amps)
        op = step[0]
        if op == "gate":
            amps = _apply_matrix(amps.reshape(shape)[None], step[1], step[2]).reshape(-1)
        elif op == "join":
            amps = (amps[:, None] * step[1]).reshape(-1)
            shape += (2,)
        elif op == "retire":
            amps = _factor_out(amps.reshape(shape).transpose(step[1]).reshape(2, -1), step[1][0])[0]
            shape = shape[1:]
        elif op == "rotate":
            amps = amps.reshape(shape).transpose(step[1]).reshape(-1)
        else:
            i = len(outcomes)
            if op == "pauli":
                acted = step[1] * _act(amps.reshape(shape), *step[2])
            else:
                acted = _apply_matrix(amps.reshape(shape)[None], step[1], step[2])
            eig, prob, branch = _branch(amps, acted.reshape(-1), rng, forced[i])
            amps = branch / math.sqrt(prob)
            outcomes.append(MeasurementOutcome(eig, prob, plan.observables[i]))
            if eig == -1:
                pattern |= 1 << i
    return outcomes, StateVector(len(shape), amps), pattern


def _run_gadget(kind, state, targets, rng, forced_outcomes) -> GadgetResult:
    """Run _SPECS[kind] on the logical wires `targets` (in spec.roles order)."""
    spec = _SPECS[kind]
    for t in targets:
        _check_target(state, t)
    if forced_outcomes is not None and len(forced_outcomes) != len(spec.meters):
        raise ValueError(f"{kind} takes exactly {len(spec.meters)} outcomes")
    forced = forced_outcomes or [None] * len(spec.meters)
    plan = _plan(kind, state.n_qubits, tuple(map(operator.index, targets)))
    outcomes, post, pattern = _run(plan, state, rng, forced)
    residue = "1" if pattern >> spec.residue & 1 else "0"
    return GadgetResult(tuple(outcomes), plan.byproducts[pattern], post, residue)


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
    plan = _plan(_XPRIME_KIND, state.n_qubits, (operator.index(target),))
    (o1, o2), post, _pattern = _run(plan, state, rng, forced)
    return MeasurementOutcome(o1.eigenvalue * o2.eigenvalue, o2.probability, plan.label), post


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
    plan = _parity_plan(state.n_qubits, (operator.index(a), operator.index(b)), kind)
    (outcome,), post, _pattern = _run(plan, state, rng, (force,))
    return MeasurementOutcome(outcome.eigenvalue, outcome.probability, plan.label), post


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
    if force is not None and force not in (1, -1):
        raise _force_error(force)
    plan = _g_plan(state.n_qubits, operator.index(target))
    (outcome,), post, _pattern = _run(plan, state, rng, (None if force is None else -force,))
    return MeasurementOutcome(-outcome.eigenvalue, outcome.probability, plan.label), post
