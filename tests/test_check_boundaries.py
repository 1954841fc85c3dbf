"""Checks run at the API boundary and on built-in matrices once, at import.

The public apply_gate, measure_pauli and measure_hermitian check every
matrix and outcome a caller hands them.  The gadget runner and the dealer
circuit apply built-in matrices, which pass the same checks once when their
module is imported, and must not repeat them per call.
"""
import importlib.util
import itertools
import sys

import numpy as np
import pytest

import qmarket.densecoding as densecoding
import qmarket.gadgets as gadgets
import qmarket.statevec as statevec
from conftest import haar_state
from qmarket import algebra
from qmarket.densecoding import encode_decode
from qmarket.statevec import MAX_QUBITS, StateVector, apply_gate, measure_hermitian, new_basis_state

from test_gadget_pins import CALLS


def test_apply_gate_rejects_a_non_unitary_matrix():
    with pytest.raises(ValueError, match="not unitary"):
        apply_gate(new_basis_state(1, "0"), np.array([[1, 0], [0, 2]], dtype=complex), [0])


def test_measure_hermitian_rejects_a_non_hermitian_matrix(rng):
    # X' X: squares to -I, so only the Hermitian check can catch it first.
    anti = np.array([[0, 1], [-1, 0]], dtype=complex)
    with pytest.raises(ValueError, match="not Hermitian"):
        measure_hermitian(new_basis_state(1, "0"), anti, [0], rng)


def test_measure_hermitian_rejects_a_non_involution(rng):
    with pytest.raises(ValueError, match="not an involution"):
        measure_hermitian(new_basis_state(1, "0"), np.diag([1.0, 2.0]), [0], rng)


def _every_gadget_call():
    for kind, (n_qubits, n_meters, call) in sorted(CALLS.items()):
        state = haar_state(n_qubits, np.random.default_rng(3))
        call(state, np.random.default_rng(4), None)
        for pattern in itertools.product((1, -1), repeat=n_meters):
            call(state, None, list(pattern))
    state = haar_state(2, np.random.default_rng(5))
    gadgets.measure_xprime_derived(state, 1, np.random.default_rng(6))
    gadgets.measure_xprime_derived(state, 0, forced_outcomes=[1, -1])


@pytest.fixture
def check_calls(monkeypatch):
    """Counts numpy.allclose calls made outside assert_unitary, and records
    the matrix of every assert_unitary call the statevec layer makes."""
    calls = {"allclose": 0, "unitary": []}
    inside = []
    real_allclose = np.allclose
    real_assert_unitary = statevec.assert_unitary

    def allclose(*args, **kwargs):
        if not inside:
            calls["allclose"] += 1
        return real_allclose(*args, **kwargs)

    def assert_unitary(matrix, *args, **kwargs):
        calls["unitary"].append(np.array(matrix))
        inside.append(True)
        try:
            return real_assert_unitary(matrix, *args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(np, "allclose", allclose)
    monkeypatch.setattr(statevec, "assert_unitary", assert_unitary)
    monkeypatch.setattr(algebra, "assert_unitary", assert_unitary)
    return calls


def test_gadgets_run_no_matrix_checks(check_calls):
    _every_gadget_call()
    assert check_calls == {"allclose": 0, "unitary": []}


def test_encode_decode_runs_no_matrix_checks(check_calls):
    """The four codewords, and so their tactic matrices' checks, are built
    at import; a roundtrip only reads one out."""
    rng = np.random.default_rng(7)
    for bits in itertools.product((0, 1), repeat=2):
        encode_decode(bits, rng)
    assert check_calls == {"allclose": 0, "unitary": []}


# Every CALLS row, plus a width-2 sigma_h on wire 0, whose retired data wire
# is not the last input wire.
_NORM_RULE_CALLS = {
    **{kind: (kind, CALLS[kind][0], CALLS[kind][2]) for kind in gadgets.GADGETS},
    "sigma_h-width-2": ("sigma_h", 2, lambda st, rng, forced: gadgets.gadget_sigma_h(st, 0, rng, forced)),
}


@pytest.mark.parametrize("case", sorted(_NORM_RULE_CALLS))
def test_runner_applies_the_norm_rule_to_every_intermediate_state(case, monkeypatch):
    """As many norm-rule applications as states the step-by-step run built:
    after the pre-gate, the ancilla join, each meter, the retire and, when
    it moves a wire, the rotation into the data slot.  Every call acts on
    wire 0, so a retired data wire rotates only on a wider input."""
    kind, n_qubits, call = _NORM_RULE_CALLS[case]
    state = haar_state(n_qubits, np.random.default_rng(8))
    applied = []
    real = statevec._normalized

    def counted(amplitudes):
        applied.append(amplitudes.shape[0])
        return real(amplitudes)

    monkeypatch.setattr(statevec, "_normalized", counted)
    monkeypatch.setattr(gadgets, "_normalized", counted)
    spec = gadgets.GADGETS[kind]
    call(state, np.random.default_rng(9), None)
    rotates = spec.retired == "d" and n_qubits > 1
    expected = (spec.pre is not None) + 1 + len(spec.meters) + 1 + rotates
    assert len(applied) == expected


def test_runner_keeps_the_width_target_outcome_and_rng_checks():
    wide = StateVector(MAX_QUBITS, np.eye(1, 2**MAX_QUBITS, dtype=complex)[0])
    with pytest.raises(ValueError, match="exceeds ceiling"):
        gadgets.gadget_sigma_h(wide, 0, forced_outcomes=[1, 1, 1])
    state = new_basis_state(1, "0")
    with pytest.raises(ValueError, match="out of range"):
        gadgets.gadget_sigma_h(state, 1, np.random.default_rng(0))
    with pytest.raises(ValueError, match="must be"):
        gadgets.gadget_sigma_h(state, 0, forced_outcomes=[1, 0, 1])
    with pytest.raises(ValueError, match="rng required"):
        gadgets.gadget_sigma_h(state, 0)
    # On |0>, with the ancilla at X = +1, the X(x)X' outcome is certainly +1.
    with pytest.raises(ValueError, match="probability"):
        gadgets.measure_xprime_derived(state, 0, forced_outcomes=[1, -1])


def _import_copy(module, monkeypatch):
    """Execute a fresh copy of `module`'s source inside the qmarket package,
    registered under a probe name for the length of the test."""
    name = "qmarket._probe_" + module.__name__.rsplit(".", 1)[1]
    spec = importlib.util.spec_from_file_location(name, module.__file__)
    copy = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, copy)
    spec.loader.exec_module(copy)
    return copy


@pytest.mark.parametrize(
    "module, gate, matrix, message",
    [
        (gadgets, "G", np.diag([1.0, 2.0]).astype(complex), "not an involution"),
        (gadgets, "G", np.array([[0, 1], [-1, 0]], dtype=complex), "not Hermitian"),
        (gadgets, "H", np.diag([1.0, 2.0]).astype(complex), "not unitary"),
        (densecoding, "CNOT", np.diag([1.0, 1.0, 1.0, 2.0]).astype(complex), "not unitary"),
    ],
    ids=["gadgets-G-non-involution", "gadgets-G-non-hermitian", "gadgets-H", "densecoding-CNOT"],
)
def test_import_time_check_rejects_a_bad_builtin(module, gate, matrix, message, monkeypatch):
    _import_copy(module, monkeypatch)  # the shipped matrices pass
    monkeypatch.setitem(algebra._GATES, gate, matrix)
    with pytest.raises(ValueError, match=message):
        _import_copy(module, monkeypatch)


def test_import_time_check_rejects_a_bad_tactic(monkeypatch):
    """The codewords are built at import, so a tactic matrix that is not
    unitary fails there, not in a roundtrip."""
    _import_copy(densecoding, monkeypatch)
    monkeypatch.setattr(algebra, "u_z_alpha", lambda s, alpha: np.diag([1.0, 2.0]).astype(complex))
    with pytest.raises(ValueError, match="not unitary"):
        _import_copy(densecoding, monkeypatch)
