"""The executor's retire against a copy of its earlier arithmetic.

`compiler._retire` skips the 2 x 2 eigen-analysis when a sufficient
pre-check on the e-perp weight passes.  The oracle below has no pre-check:
every row goes through the eigen-analysis.
On rows near both thresholds (a second eigenvalue between 1e-14 and 1e-10,
an overlap within about 1e-8 of 1), the retire must raise exactly when the
oracle raises, with the same message, and otherwise return the same bytes.
A row's result must not depend on the rows batched with it.
"""
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qmarket import compiler
from qmarket.compiler import _RESIDUE_EIGENVECTORS, ProgramError, _retire, _row_weights


def oracle_retire(psi, axis, eigenvectors, wire, basis):
    """The retire without the pre-check, given the eigenvector of each row."""
    batch = psi.shape[0]
    pair = np.ascontiguousarray(np.moveaxis(psi, axis, 1)).reshape(batch, 2, -1)
    m0, m1 = pair[:, 0], pair[:, 1]
    r00, r11 = _row_weights(m0), _row_weights(m1)
    r01 = (m0 * m1.conj()).sum(axis=1)
    split = np.sqrt((r00 - r11) ** 2 + 4 * (r01.real**2 + r01.imag**2))
    low = (r00 + r11 - split) / 2
    if (low > 1e-12).any():
        row = int(np.argmax(low))
        raise ProgramError(
            f"retired wire {wire} is entangled with the rest (residual weight {low[row]:.2e})"
        )
    e0, e1 = eigenvectors[:, 0], eigenvectors[:, 1]
    held = (abs(e0) ** 2 * r00 + abs(e1) ** 2 * r11 + 2 * (e0.conj() * e1 * r01).real)
    overlap = np.sqrt(np.maximum(held - low, 0.0) / split)
    if (overlap < 1.0 - 1e-8).any():
        raise ProgramError(f"retired wire {wire} not in the recorded {basis} eigenstate")
    rest = e0.conj()[:, None] * m0 + e1.conj()[:, None] * m1
    return (rest / np.sqrt(held)[:, None]).reshape((batch,) + (2,) * (psi.ndim - 2))


def retire_order(n_wires, axis):
    return (0, axis, *(a for a in range(1, 1 + n_wires) if a != axis))


def run_oracle(psi, axis, basis, bits):
    try:
        return oracle_retire(psi, axis, _RESIDUE_EIGENVECTORS[basis][bits], "w", basis)
    except ProgramError as exc:
        return str(exc)


def run_retire(psi, axis, basis, bits):
    try:
        return _retire(psi, retire_order(psi.ndim - 1, axis), basis, bits, "w")
    except ProgramError as exc:
        return str(exc)


def same(a, b):
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def unit(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def make_row(rng, n_wires, axis, basis, bit, low, tilt, scale):
    """A row whose retired wire has Schmidt weights (1 - low, low), its top
    Schmidt vector f at angle `tilt` from the residue eigenvector e, and
    squared norm `scale`."""
    e = _RESIDUE_EIGENVECTORS[basis][bit]
    e_perp = _RESIDUE_EIGENVECTORS[basis][1 - bit]
    phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
    f = np.cos(tilt) * e + np.sin(tilt) * phase * e_perp
    f_perp = -np.sin(tilt) * np.conj(phase) * e + np.cos(tilt) * e_perp
    rest_dim = 2 ** (n_wires - 1)
    u = unit(rng, rest_dim)
    v = unit(rng, rest_dim)
    v = v - np.vdot(u, v) * u
    v /= np.linalg.norm(v)
    pair = np.sqrt(1 - low) * np.outer(f, u) + np.sqrt(low) * np.outer(f_perp, v)
    tensor = np.sqrt(scale) * pair.reshape((2,) + (2,) * (n_wires - 1))
    return np.moveaxis(tensor, 0, axis - 1)


# (low, tilt) pairs: exact product rows, rows on either side of 1e-12, rows
# on either side of overlap 1 - 1e-8 (tilt ~ sqrt(2e-8)), and clearly bad rows.
lows = st.one_of(st.just(0.0), st.floats(-14, -10).map(lambda x: 10.0**x),
                 st.floats(-4, -1).map(lambda x: 10.0**x))
tilts = st.one_of(st.just(0.0), st.floats(-9, -7).map(lambda x: np.sqrt(2 * 10.0**x)),
                  st.floats(-7, -6.5).map(lambda x: 10.0**x), st.floats(0.01, 1.0))
scales = st.one_of(st.just(1.0), st.floats(1 - 1e-9, 1 + 1e-9), st.floats(0.2, 3.0))
rows = st.tuples(st.integers(0, 1), lows, tilts, scales)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    n_wires=st.integers(2, 5),
    data=st.data(),
    basis=st.sampled_from(sorted(_RESIDUE_EIGENVECTORS)),
    seed=st.integers(0, 2**32 - 1),
    specs=st.lists(rows, min_size=1, max_size=4),
)
def test_retire_matches_oracle_and_ignores_batch(n_wires, data, basis, seed, specs):
    axis = data.draw(st.integers(1, n_wires))
    rng = np.random.default_rng(seed)
    single = []
    for bit, low, tilt, scale in specs:
        psi = make_row(rng, n_wires, axis, basis, bit, low, tilt, scale)[None]
        bits = np.array([bit])
        got = run_retire(psi, axis, basis, bits)
        assert same(got, run_oracle(psi, axis, basis, bits))
        single.append((psi, bits, got))
    for batch in (1, 3, 32):
        picks = [single[i % len(single)] for i in range(batch)]
        stack = np.concatenate([p[0] for p in picks])
        bits = np.concatenate([p[1] for p in picks])
        got = run_retire(stack, axis, basis, bits)
        assert same(got, run_oracle(stack, axis, basis, bits))
        if any(isinstance(p[2], str) for p in picks):
            assert isinstance(got, str)
        else:
            assert not isinstance(got, str)
            for row, (_, _, alone) in enumerate(picks):
                assert got[row].tobytes() == alone[0].tobytes()


def test_pre_check_skips_the_eigen_analysis_only_when_it_is_sufficient(monkeypatch):
    calls = []
    real = compiler._check_residue

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(compiler, "_check_residue", counted)
    rng = np.random.default_rng(3)
    bits = np.array([0])
    # A product row in its eigenstate: the pre-check alone passes it.
    product = make_row(rng, 3, 2, "G", 0, 0.0, 0.0, 1.0)[None]
    _retire(product, retire_order(3, 2), "G", bits, "w")
    assert calls == []
    # e-perp weight 1e-11: under both thresholds, but too much for the pre-check.
    tilted = make_row(rng, 3, 2, "G", 0, 0.0, np.sqrt(1e-11), 1.0)[None]
    assert same(run_retire(tilted, 2, "G", bits), run_oracle(tilted, 2, "G", bits))
    assert len(calls) == 1
    # A row far from unit norm goes through the eigen-analysis too.
    heavy = make_row(rng, 3, 2, "G", 0, 0.0, 0.0, 2.5)[None]
    _retire(heavy, retire_order(3, 2), "G", bits, "w")
    assert len(calls) == 2


@pytest.mark.parametrize(
    "low, tilt, message",
    [
        (1e-11, 0.0, "retired wire w is entangled with the rest (residual weight 1.00e-11)"),
        (0.0, 1e-3, "retired wire w not in the recorded X eigenstate"),
    ],
)
def test_retire_keeps_both_checks_and_messages(low, tilt, message):
    psi = make_row(np.random.default_rng(4), 2, 1, "X", 1, low, tilt, 1.0)[None]
    with pytest.raises(ProgramError) as raised:
        _retire(psi, retire_order(2, 1), "X", np.array([1]), "w")
    assert str(raised.value) == message
