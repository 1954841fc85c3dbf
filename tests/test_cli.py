import json

import pytest

from qmarket.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VERIFY_FAILED, SEED_ENV_VAR, main

BELL = "qubits 2\nh 0\ncnot 0 1\n"


@pytest.fixture
def bell_file(tmp_path):
    path = tmp_path / "bell.qc"
    path.write_text(BELL)
    return str(path)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_bell(bell_file, capsys):
    code, out, _ = run_cli(["run", bell_file], capsys)
    assert code == EXIT_OK
    record = json.loads(out.strip())
    assert record["record"] == "run"
    assert record["amplitudes"] == [
        [0.707106781187, 0.0], [0.0, 0.0], [0.0, 0.0], [0.707106781187, 0.0],
    ]


def test_run_missing_file(capsys):
    code, _, err = run_cli(["run", "/nonexistent/x.qc"], capsys)
    assert code == EXIT_IO
    assert "cannot read" in err


def test_run_unknown_gate(tmp_path, capsys):
    path = tmp_path / "bad.qc"
    path.write_text("qubits 1\nbogus 0\n")
    code, _, err = run_cli(["run", str(path)], capsys)
    assert code == EXIT_USAGE
    assert "line 2" in err


def test_verify_h_strict(tmp_path, capsys):
    path = tmp_path / "h.qc"
    path.write_text("qubits 1\nh 0\n")
    code, out, _ = run_cli(
        ["verify", str(path), "--mode", "strict", "--trials", "25", "--seed", "7"], capsys
    )
    assert code == EXIT_OK
    summary = json.loads(out.strip().split("\n")[-1])
    assert summary["passed"] is True
    assert summary["min_fidelity"] >= 1 - 1e-10


def test_verify_corrupt_hook_fails(tmp_path, capsys):
    path = tmp_path / "h.qc"
    path.write_text("qubits 1\nh 0\n")
    code, out, _ = run_cli(
        ["verify", str(path), "--trials", "15", "--seed", "7", "--corrupt"], capsys
    )
    assert code == EXIT_VERIFY_FAILED
    summary = json.loads(out.strip().split("\n")[-1])
    assert summary["passed"] is False
    assert summary["failing_trials"]


def test_verify_cnot_strict(tmp_path, capsys):
    path = tmp_path / "c.qc"
    path.write_text("qubits 2\ncnot 0 1\n")
    code, out, _ = run_cli(
        ["verify", str(path), "--mode", "strict", "--trials", "20", "--seed", "3"], capsys
    )
    assert code == EXIT_OK


def test_compile_writes_out_file(bell_file, tmp_path, capsys):
    out_path = tmp_path / "program.jsonl"
    code, out, _ = run_cli(
        ["compile", bell_file, "--mode", "strict", "--out", str(out_path)], capsys
    )
    assert code == EXIT_OK and out == ""
    lines = out_path.read_text().strip().split("\n")
    header = json.loads(lines[0])
    assert header["record"] == "program"
    assert header["primitive_set"] == "strict"
    assert all("kind" in json.loads(line) for line in lines[1:])


def test_compile_rejects_g(tmp_path, capsys):
    path = tmp_path / "g.qc"
    path.write_text("qubits 1\ng 0\n")
    code, _, err = run_cli(["compile", str(path)], capsys)
    assert code == EXIT_USAGE
    assert "not in the compilable set" in err


def test_demo_unknown_name(capsys):
    code, _, err = run_cli(["demo", "nope"], capsys)
    assert code == EXIT_USAGE
    assert "unknown demo" in err


def test_demo_densecoding(capsys):
    code, out, _ = run_cli(["demo", "densecoding", "--trials", "50", "--seed", "2"], capsys)
    assert code == EXIT_OK
    summary = json.loads(out.strip().split("\n")[-1])
    assert summary["errors"] == 0 and summary["roundtrips"] == 200


def test_demo_walk(capsys):
    code, out, _ = run_cli(["demo", "walk", "--trials", "4000", "--seed", "2"], capsys)
    assert code == EXIT_OK
    summary = json.loads(out.strip().split("\n")[-1])
    assert abs(summary["mean"] - 4.0) < 4 * (0.75**0.5 / 0.25) / 4000**0.5


def test_demo_gadgets(capsys):
    code, out, _ = run_cli(["demo", "gadgets", "--trials", "10", "--seed", "2"], capsys)
    assert code == EXIT_OK
    records = [json.loads(line) for line in out.strip().split("\n")]
    assert {r["kind"] for r in records} >= {"sigma_h", "cnot", "sigma_g"}
    assert all(r["pass_rate"] == 1.0 for r in records)


def test_demo_gadgets_forced_outcomes(capsys):
    code, out, _ = run_cli(
        ["demo", "gadgets", "--trials", "5", "--seed", "2",
         "--force-outcomes", "+1,-1,+1"], capsys
    )
    assert code == EXIT_OK
    records = [json.loads(line) for line in out.strip().split("\n")]
    # only the three-meter gadgets match the forced arity
    assert all(r["forced"] for r in records)
    assert "cnot" not in {r["kind"] for r in records}
    assert all(r["pass_rate"] == 1.0 for r in records)


def test_force_outcomes_validation(capsys):
    code, _, _ = run_cli(["demo", "gadgets", "--force-outcomes", "2,1"], capsys)
    assert code == EXIT_USAGE


def test_same_seed_byte_identical(bell_file, capsys):
    args = ["verify", bell_file, "--trials", "10", "--seed", "42"]
    _, first, _ = run_cli(args, capsys)
    _, second, _ = run_cli(args, capsys)
    assert first == second

    _, third, _ = run_cli(["verify", bell_file, "--trials", "10", "--seed", "43"], capsys)
    assert third != first


def test_seed_env_var(bell_file, capsys, monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "123")
    _, from_env, _ = run_cli(["verify", bell_file, "--trials", "5"], capsys)
    monkeypatch.delenv(SEED_ENV_VAR)
    _, from_flag, _ = run_cli(["verify", bell_file, "--trials", "5", "--seed", "123"], capsys)
    assert from_env == from_flag
    # flag wins over the environment
    monkeypatch.setenv(SEED_ENV_VAR, "99999")
    _, flag_wins, _ = run_cli(["verify", bell_file, "--trials", "5", "--seed", "123"], capsys)
    assert flag_wins == from_flag


def test_trials_and_tol_validation(bell_file, capsys):
    code, _, _ = run_cli(["run", bell_file, "--trials", "0"], capsys)
    assert code == EXIT_USAGE
    code, _, _ = run_cli(["run", bell_file, "--tol", "0"], capsys)
    assert code == EXIT_USAGE


@pytest.mark.parametrize("command", [["run"], ["verify"], ["verify", "--corrupt"]], ids=" ".join)
def test_out_path_io_error(command, bell_file, tmp_path, capsys):
    """An unwritable --out is exit 3, for a failed verification too: the I/O
    error outranks the result."""
    out = str(tmp_path / "missing" / "r.jsonl")
    code, _, err = run_cli([command[0], bell_file, *command[1:], "--out", out], capsys)
    assert code == EXIT_IO
    assert "error: cannot write" in err
