"""Each per-call cut on the gadget, dense-coding and walk paths against the
code it replaced: the retire's bare LAPACK SVD against `np.linalg.svd`, the
written-out unitary predicate against `np.allclose`, the correction walk on
letter codes against the walk on `PauliString`s, and the cached Pauli
slicings against uncached ones, with a gadget plan's rebuild hitting them.  Also the API-boundary checks on gate ops
of circuits built without the parser.
"""
import itertools
import re

import numpy as np
import pytest

from qmarket import gadgets
from qmarket.algebra import (
    PAULI_LETTERS,
    PauliString,
    _near_identity,
    assert_unitary,
    named_gate,
    pauli_mul,
)
from qmarket.compiler import (
    Circuit,
    CompileError,
    GateOp,
    check_equivalence,
    compile_to_measurements,
    simulate_circuit,
)
from qmarket.pauliframe import WalkExhaustedError, WalkRecord, random_walk_cleanup
from qmarket.statevec import _check_involution, _factor_out, _pauli_slices, _svd


def _complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _parent_factor_out(pair, qubit):
    """The retire as it was, through `np.linalg.svd`."""
    u, s, vh = np.linalg.svd(pair, full_matrices=False)
    if s.shape[0] > 1 and s[1] ** 2 > 1e-12:
        raise RuntimeError(
            f"qubit {qubit} is entangled with the rest (residual weight {s[1]**2:.2e})"
        )
    return s[0] * vh[0, :], u[:, 0]


@pytest.mark.parametrize("columns", range(1, 17))
def test_bare_svd_gives_the_bytes_of_np_linalg_svd(columns):
    rng = np.random.default_rng(2000 + columns)
    for _ in range(50):
        pair = _complex(rng, (2, columns))
        ours = _svd(pair, signature="D->DdD")
        theirs = np.linalg.svd(pair, full_matrices=False)
        for a, b in zip(ours, theirs):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("columns", [1, 2, 4, 8, 16])
def test_retire_gives_the_parent_bytes_on_product_pairs(columns):
    rng = np.random.default_rng(3000 + columns)
    for _ in range(50):
        wire, rest = _complex(rng, 2), _complex(rng, columns)
        pair = np.outer(wire, rest)
        pair /= np.linalg.norm(pair)
        for a, b in zip(_factor_out(pair, 0), _parent_factor_out(pair, 0)):
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
@pytest.mark.parametrize("columns", [1, 2, 4])
def test_a_non_finite_pair_is_a_linalg_error(bad, columns):
    pair = np.zeros((2, columns), dtype=complex)
    pair[0, 0] = 1.0
    pair[1, columns - 1] = bad
    # The bare gufunc flags NaN as an invalid value; silence that so the
    # check itself is what raises, as np.linalg.svd's wrapper did.
    with np.errstate(invalid="ignore"):
        with pytest.raises(np.linalg.LinAlgError, match="^SVD did not converge$"):
            _factor_out(pair, 0)


def test_an_entangled_pair_keeps_its_message():
    bell = np.eye(2, dtype=complex) / np.sqrt(2)
    with pytest.raises(RuntimeError, match=r"^qubit 3 is entangled with the rest \(residual weight 5\.00e-01\)$"):
        _factor_out(bell, 3)


def _unitaries():
    rng = np.random.default_rng(41)
    named = [named_gate(name) for name in ("I", "X", "Xpp", "H", "G", "T", "S", "CNOT", "CH", "SWAP")]
    haar = [np.linalg.qr(_complex(rng, (d, d)))[0] for d in (1, 2, 4, 8) for _ in range(5)]
    return named + haar


def _near_misses():
    """Every unitary as it is and with one entry moved by 1e-11 and by 1e-9,
    on and off the diagonal; then NaN and infinite entries."""
    for u in _unitaries():
        yield u
        for delta, (i, j) in itertools.product((1e-11, 1e-9, -1e-9j), ((0, 0), (0, -1))):
            off = u.copy()
            off[i, j] += delta
            yield off
    for bad in (np.nan, np.inf, -np.inf, complex(np.inf, np.nan)):
        m = np.eye(2, dtype=complex)
        m[1, 0] = bad
        yield m


def test_unitary_predicate_agrees_with_allclose():
    verdicts = []
    for m in _near_misses():
        with np.errstate(invalid="ignore"):  # inf * 0 inside the products
            product = m @ m.conj().T
            expected = np.allclose(product, np.eye(m.shape[0]), atol=1e-10)
            assert _near_identity(product) is expected
            if expected:
                assert_unitary(m)
            else:
                with pytest.raises(ValueError, match="^matrix is not unitary within tolerance$"):
                    assert_unitary(m)
        verdicts.append(expected)
    assert any(verdicts) and not all(verdicts)


def test_identity_predicate_agrees_with_allclose_at_the_tolerance_edge():
    """I + delta on one entry, for deltas at the edge of atol (off the
    diagonal) and of atol + rtol (on it), one ulp either side."""
    for i, j, edge in ((0, 1, 1e-10), (1, 1, 1e-10 + 1e-05)):
        for scale in (np.nextafter(1, 0), 1.0, np.nextafter(1, 2)):
            for sign in (1, -1):
                product = np.eye(2, dtype=complex)
                product[i, j] += sign * edge * scale
                expected = np.allclose(product, np.eye(2), atol=1e-10)
                assert _near_identity(product) is expected


@pytest.mark.parametrize("shape", [(2, 3), (2,), (2, 2, 2)])
def test_assert_unitary_keeps_the_non_square_message(shape):
    with pytest.raises(ValueError, match=f"^{re.escape(f'matrix must be square, got shape {shape}')}$"):
        assert_unitary(np.zeros(shape))


@pytest.mark.parametrize("delta", [0.0, 1e-11, 1e-9, 2e-5])
def test_involution_check_agrees_with_allclose(delta):
    observable = np.diag([1.0, 1.0 + delta]).astype(complex)
    if np.allclose(observable @ observable, np.eye(2), atol=1e-10):
        _check_involution(observable)
    else:
        with pytest.raises(ValueError, match="not an involution"):
            _check_involution(observable)


def _parent_walk(start, target, rng, max_steps=200, parity="any"):
    """The correction walk as it was, one PauliString product per draw."""
    if start not in PAULI_LETTERS or target not in PAULI_LETTERS:
        raise ValueError(f"start/target must be Pauli letters, got {start!r}, {target!r}")
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    if parity not in ("any", "even"):
        raise ValueError(f"parity must be 'any' or 'even', got {parity!r}")

    current = start
    trajectory = [start]
    labels: list[str] = []
    for step in range(1, max_steps + 1):
        label = PAULI_LETTERS[rng.integers(0, 4)]
        current = pauli_mul(
            PauliString.from_letters(label), PauliString.from_letters(current)
        ).letters[0]
        trajectory.append(current)
        labels.append(label)
        if current == target and (parity == "any" or step % 2 == 0):
            return WalkRecord(step, tuple(trajectory), tuple(labels), current)
    raise WalkExhaustedError(
        f"no hit within {max_steps} steps (miss probability (3/4)^{max_steps})"
    )


def _outcome(walk, *args, **kwargs):
    try:
        return walk(*args, **kwargs)
    except WalkExhaustedError as error:
        return str(error)


@pytest.mark.parametrize("parity", ["any", "even"])
@pytest.mark.parametrize("start, target", [("I", "X"), ("I", "I"), ("Xp", "Xpp"), ("Xpp", "X")])
def test_walk_on_codes_matches_the_parent_walk(start, target, parity):
    for seed in range(500):
        ours_rng, theirs_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        ours = _outcome(random_walk_cleanup, start, target, ours_rng, parity=parity)
        theirs = _outcome(_parent_walk, start, target, theirs_rng, parity=parity)
        assert ours == theirs
        assert ours_rng.bit_generator.state == theirs_rng.bit_generator.state


@pytest.mark.parametrize("parity", ["any", "even"])
def test_walk_exhaustion_matches_the_parent_walk(parity):
    outcomes = []
    for seed in range(200):
        ours = _outcome(random_walk_cleanup, "I", "Xpp", np.random.default_rng(seed), 2, parity)
        theirs = _outcome(_parent_walk, "I", "Xpp", np.random.default_rng(seed), 2, parity)
        assert ours == theirs
        outcomes.append(ours)
    assert "no hit within 2 steps (miss probability (3/4)^2)" in outcomes
    assert any(isinstance(outcome, WalkRecord) for outcome in outcomes)


@pytest.mark.parametrize("ndim", [1, 2, 3, 4])
def test_cached_slicings_equal_uncached_ones(ndim):
    uncached = _pauli_slices.__wrapped__
    for k in range(ndim + 1):
        for axes in itertools.permutations(range(ndim), k):
            for letters in itertools.product(PAULI_LETTERS, repeat=k):
                placed = tuple(zip(axes, letters))
                expected = uncached(ndim, placed)
                assert _pauli_slices(ndim, placed) == expected
                assert _pauli_slices(ndim, placed) == expected  # from the cache


def test_a_rebuilt_gadget_plan_hits_the_slicing_cache():
    """A gadget plan keys the slicing cache by its placement's contents, so
    rebuilding the plan hits once per Pauli meter and adds no entry."""
    def build() -> int:
        gadgets._plan.cache_clear()
        plans = [gadgets._plan("sigma_h", 3, (target,)) for target in range(3)]
        return sum(step[0] == "pauli" for plan in plans for step in plan.steps)

    build()
    before = _pauli_slices.cache_info()
    meters = build()
    after = _pauli_slices.cache_info()
    assert meters > 0
    assert after.hits - before.hits == meters
    assert (after.misses, after.currsize) == (before.misses, before.currsize)


_BAD_OPS = [
    (GateOp("x", (0, 1)), "x takes 1 qubit(s), got 2"),
    (GateOp("cnot", (0,)), "cnot takes 2 qubit(s), got 1"),
    (GateOp("cnot", (1, 1)), "duplicate qubit in GateOp(name='cnot', targets=(1, 1))"),
    (GateOp("h", (5,)), "qubit index out of range in GateOp(name='h', targets=(5,))"),
    (GateOp("h", (-1,)), "qubit index out of range in GateOp(name='h', targets=(-1,))"),
]


@pytest.mark.parametrize("op, message", _BAD_OPS)
def test_compile_rejects_a_bad_gate_op(op, message):
    with pytest.raises(CompileError) as raised:
        compile_to_measurements(Circuit(2, (GateOp("h", (0,)), op)))
    assert str(raised.value) == message


@pytest.mark.parametrize("op, message", _BAD_OPS + [(GateOp("bogus", (0,)), "unknown gate 'bogus'")])
def test_simulation_and_equivalence_reject_a_bad_gate_op(op, message):
    circuit = Circuit(2, (GateOp("h", (0,)), op))
    with pytest.raises(ValueError) as raised:
        simulate_circuit(circuit)
    assert type(raised.value) is ValueError and str(raised.value) == message
    program = compile_to_measurements(Circuit(2, (GateOp("h", (0,)),)))
    with pytest.raises(ValueError) as raised:
        check_equivalence(circuit, program, trials=2)
    assert type(raised.value) is ValueError and str(raised.value) == message
