"""Each CLI flag is accepted only by the subcommands that act on it.

`--force-outcomes` belongs to `demo gadgets`, `--tol` to `verify`, and
`--mode` to `compile` and `verify`.  Given anywhere else, a flag is a usage
error (exit 2, an `error:` line, nothing on stdout) rather than ignored.
"""
import pytest

from qmarket.cli import EXIT_OK, EXIT_USAGE, main


@pytest.fixture
def bell_file(tmp_path):
    path = tmp_path / "bell.qc"
    path.write_text("qubits 2\nh 0\ncnot 0 1\n")
    return str(path)


def call(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["demo", "walk", "--trials", "3", "--force-outcomes", "+1,-1"],
        ["demo", "densecoding", "--trials", "3", "--force-outcomes", "+1"],
        ["run", "{circuit}", "--tol", "1e-9"],
        ["compile", "{circuit}", "--tol", "1e-9"],
        ["demo", "walk", "--trials", "3", "--tol", "1e-9"],
        ["run", "{circuit}", "--mode", "strict"],
        ["demo", "gadgets", "--trials", "3", "--mode", "strict"],
    ],
    ids=["walk-force", "densecoding-force", "run-tol", "compile-tol", "demo-tol",
         "run-mode", "demo-mode"],
)
def test_flag_outside_its_subcommands_is_a_usage_error(argv, bell_file, capsys):
    code, out, err = call([a.format(circuit=bell_file) for a in argv], capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert "error:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["demo", "gadgets", "--trials", "3", "--force-outcomes", "+1,-1,-1"],
        ["verify", "{circuit}", "--trials", "3", "--tol", "1e-9", "--mode", "strict"],
        ["compile", "{circuit}", "--mode", "strict"],
        ["demo", "walk", "--trials", "3"],
        ["run", "{circuit}", "--trials", "2"],
    ],
    ids=["gadgets-force", "verify-tol-mode", "compile-mode", "walk", "run"],
)
def test_flag_on_its_subcommands_is_accepted(argv, bell_file, capsys):
    code, out, _err = call([a.format(circuit=bell_file) for a in argv], capsys)
    assert code == EXIT_OK
    assert out
