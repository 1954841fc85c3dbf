"""Requests the simulator cannot honour, or that would verify nothing, are
rejected up front with a usage error instead of failing later."""
import math

import pytest

from qmarket.cli import EXIT_OK, EXIT_USAGE, main
from qmarket.compiler import (
    CompileError,
    check_equivalence,
    compile_to_measurements,
    parse_circuit,
)

BELL = "qubits 2\nh 0\ncnot 0 1\n"


def wide(n):
    return f"qubits {n}\nh 0\ncnot 0 1\n"


@pytest.mark.parametrize("n, mode", [(15, "strict"), (16, "extended")])
def test_compile_rejects_programs_wider_than_the_ceiling(n, mode):
    with pytest.raises(CompileError, match="17 live wires"):
        compile_to_measurements(parse_circuit(wide(n)), mode)


@pytest.mark.parametrize("command", ["compile", "verify"])
def test_cli_wide_program_is_a_usage_error(command, tmp_path, capsys):
    path = tmp_path / "wide.qc"
    path.write_text(wide(15))
    code = main([command, str(path), "--mode", "strict", "--trials", "1"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert "live wires" in captured.err


def test_fifteen_qubit_extended_peaks_at_sixteen_and_verifies():
    circuit = parse_circuit(wide(15))
    program = compile_to_measurements(circuit, "extended")
    report = check_equivalence(circuit, program, trials=2, tol=1e-9)
    assert report.passed


@pytest.mark.parametrize("tol", ["nan", "inf", "1", "5", "abc"])
def test_cli_rejects_tol_outside_open_unit_interval(tol, tmp_path, capsys):
    path = tmp_path / "bell.qc"
    path.write_text(BELL)
    code = main(["verify", str(path), "--tol", tol, "--corrupt", "--trials", "2"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert "--tol" in captured.err


def test_cli_accepts_tol_inside_unit_interval(tmp_path, capsys):
    path = tmp_path / "bell.qc"
    path.write_text(BELL)
    assert main(["verify", str(path), "--tol", "0.5", "--trials", "2"]) == EXIT_OK


@pytest.mark.parametrize("trials, tol", [(0, 1e-10), (-3, 1e-10), (5, 0.0), (5, 1.0),
                                         (5, 5.0), (5, math.nan), (5, math.inf)])
def test_check_equivalence_rejects_vacuous_requests(trials, tol):
    circuit = parse_circuit(BELL)
    program = compile_to_measurements(circuit, "extended")
    with pytest.raises(ValueError):
        check_equivalence(circuit, program, trials=trials, tol=tol)
