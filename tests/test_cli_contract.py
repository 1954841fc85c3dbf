"""The CLI exit-code contract: fixed cases, then a property over generated input.

Every input ends in a documented exit code (0 success, 1 verification
failure, 2 usage/parse error, 3 I/O error), never an exception, and 1 only
comes from `verify` with failing trials.
"""
import contextlib
import io
import json
import os
import tempfile
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qmarket.cli import DEMO_NAMES, EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VERIFY_FAILED, SEED_ENV_VAR, main

BELL = "qubits 2\nh 0\ncnot 0 1\n"


@contextlib.contextmanager
def seed_env(value):
    """Run with $QMARKET_SEED set to `value`, or unset for None."""
    with mock.patch.dict(os.environ):
        os.environ.pop(SEED_ENV_VAR, None)
        if value is not None:
            os.environ[SEED_ENV_VAR] = value
        yield


def call(argv, env_seed=None):
    out, err = io.StringIO(), io.StringIO()
    with seed_env(env_seed), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def bell_file(tmp_path):
    path = tmp_path / "bell.qc"
    path.write_text(BELL)
    return str(path)


def test_negative_seed_flag_is_usage_error(bell_file):
    code, out, err = call(["verify", bell_file, "--trials", "2", "--seed", "-1"])
    assert code == EXIT_USAGE
    assert "error:" in err and out == ""


@pytest.mark.parametrize("raw", ["abc", "-1", "1.5", "", " 7", "٣"])
def test_bad_seed_env_is_usage_error(bell_file, raw):
    code, out, err = call(["verify", bell_file, "--trials", "2"], env_seed=raw)
    assert code == EXIT_USAGE
    assert SEED_ENV_VAR in err and out == ""


def test_bad_seed_env_ignored_when_flag_given(bell_file):
    code, from_flag, _ = call(["verify", bell_file, "--trials", "2", "--seed", "4"], env_seed="abc")
    assert code == EXIT_OK
    assert call(["verify", bell_file, "--trials", "2"], env_seed="4")[1] == from_flag


def test_non_utf8_circuit_is_parse_error(tmp_path):
    path = tmp_path / "bad.qc"
    path.write_bytes(b"qubits 1\nh 0\n\xff\n")
    code, out, err = call(["run", str(path)])
    assert code == EXIT_USAGE
    assert err.startswith(f"error: {path}: ") and out == ""


@pytest.mark.parametrize("command", ["run", "compile", "verify"])
def test_force_outcomes_rejected_outside_demo(bell_file, command):
    code, out, _ = call([command, bell_file, "--trials", "1", "--force-outcomes", "+1,-1"])
    assert code == EXIT_USAGE and out == ""


GATE_ARITY = {"h": 1, "t": 1, "x": 1, "xp": 1, "xpp": 1, "cnot": 2, "ch": 2}


@st.composite
def circuit_bytes(draw):
    kind = draw(st.sampled_from(["valid", "valid", "tokens", "bytes"]))
    if kind == "bytes":
        return draw(st.binary(max_size=40))
    if kind == "tokens":
        n = draw(st.sampled_from(["-1", "0", "1", "3", "17", "x"]))
        body = draw(st.lists(
            st.lists(st.sampled_from(["h", "g", "cnot", "bogus", "0", "1", "3", "-1", "#"]), max_size=3),
            max_size=3,
        ))
        return "\n".join([f"qubits {n}"] + [" ".join(line) for line in body]).encode()
    n = draw(st.integers(1, 3))
    lines = [f"qubits {n}"]
    for _ in range(draw(st.integers(0, 4))):
        gate = draw(st.sampled_from(sorted(g for g, k in GATE_ARITY.items() if k <= n)))
        qubits = draw(st.permutations(range(n)))[: GATE_ARITY[gate]]
        lines.append(" ".join([gate, *map(str, qubits)]))
    return ("\n".join(lines) + "\n").encode()


# flag -> (accepted values, rejected values)
FLAG_VALUES = {
    "--seed": (["0", "7", str(2**64 + 3)], ["-1", "abc", "+3", ""]),
    "--tol": (["1e-10", "1e-9", "0.5"], ["0", "1", "nan", "inf", "-1e-9", "x"]),
    "--mode": (["extended", "strict"], ["bogus"]),
    "--force-outcomes": (["+1,-1,+1", "-1,-1,+1,+1"], ["+1", "2,1"]),
}


@st.composite
def cli_call(draw):
    """(argv, $QMARKET_SEED): half well-formed, half with any flag and value."""
    command = draw(st.sampled_from(["run", "compile", "verify", "demo"]))
    if command == "demo":
        argv = [command, draw(st.sampled_from([*DEMO_NAMES, "bogus"]))]
    else:
        argv = [command, "{circuit}"]
    well_formed = draw(st.booleans())
    # Always bounded: the default trial counts (200, 1000) are too slow here.
    argv += ["--trials", str(draw(st.integers(1 if well_formed else -1, 3)))]
    for flag, (accepted, rejected) in FLAG_VALUES.items():
        if well_formed and flag == "--force-outcomes" and command != "demo":
            continue
        if draw(st.booleans()):
            argv += [flag, draw(st.sampled_from(accepted if well_formed else accepted + rejected))]
    if (command == "verify" or not well_formed) and draw(st.booleans()):
        argv.append("--corrupt")
    if not well_formed and draw(st.booleans()):
        argv += ["--out", "{missing_dir}/out.jsonl"]
    if well_formed:
        env_seed = draw(st.sampled_from([None, "0", "12"]))
    else:
        env_seed = draw(st.none() | st.text(alphabet="0123456789-+ab ٣", max_size=4))
    return argv, env_seed


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(call_args=cli_call(), circuit=circuit_bytes())
def test_exit_code_contract(call_args, circuit):
    argv, env_seed = call_args
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.qc")
        with open(path, "wb") as fh:
            fh.write(circuit)
        argv = [a.format(circuit=path, missing_dir=os.path.join(tmp, "missing")) for a in argv]
        code, out, err = call(argv, env_seed)
    assert code in (EXIT_OK, EXIT_VERIFY_FAILED, EXIT_USAGE, EXIT_IO)
    assert "Traceback" not in err
    if code == EXIT_VERIFY_FAILED:
        assert argv[0] == "verify"
        assert json.loads(out.strip().split("\n")[-1])["failing_trials"]
