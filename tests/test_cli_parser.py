"""`main` builds its argument parser once per process.

The parser is reused across calls, so these pin that it behaves as a parser
built for each call would: each call reads $QMARKET_SEED as it is at that
call, and a usage error writes the same stderr a freshly built parser writes.
"""
import argparse
import contextlib
import io

import pytest

from qmarket import cli
from qmarket.cli import EXIT_OK, EXIT_USAGE, SEED_ENV_VAR, build_parser, main

BELL = "qubits 2\nh 0\ncnot 0 1\n"


@pytest.fixture
def bell_file(tmp_path):
    path = tmp_path / "bell.qc"
    path.write_text(BELL)
    return str(path)


def call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def fresh_parser_stderr(argv):
    """What a parser built for this call alone writes for `argv`."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit):
        build_parser().parse_args(argv)
    return err.getvalue()


def test_each_call_reads_its_own_seed_env(bell_file, monkeypatch):
    argv = ["verify", bell_file, "--trials", "3"]
    monkeypatch.setenv(SEED_ENV_VAR, "5")
    first = call(argv)
    monkeypatch.setenv(SEED_ENV_VAR, "6")
    second = call(argv)
    monkeypatch.delenv(SEED_ENV_VAR)
    assert first == call([*argv, "--seed", "5"])
    assert second == call([*argv, "--seed", "6"])
    assert first[0] == second[0] == EXIT_OK
    assert first[1] != second[1]
    # Unset again, the default is 0.
    assert call(argv) == call([*argv, "--seed", "0"])


@pytest.mark.parametrize(
    "argv, env_seed",
    [
        ([], None),
        (["bogus"], None),
        (["verify"], None),
        (["verify", "{bell}", "--seed", "x"], None),
        (["verify", "{bell}", "--mode", "bad"], None),
        (["verify", "{bell}", "--tol", "2"], None),
        (["demo", "gadgets", "--force-outcomes", "2"], None),
        (["verify", "{bell}", "--trials", "2"], "abc"),
        (["run", "{bell}"], "-1"),
    ],
    ids=["no-command", "bad-command", "no-circuit", "bad-seed", "bad-mode", "bad-tol",
         "bad-forced", "bad-seed-env", "bad-seed-env-run"],
)
def test_usage_error_stderr_matches_a_fresh_parser(argv, env_seed, bell_file, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    if env_seed is None:
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    else:
        monkeypatch.setenv(SEED_ENV_VAR, env_seed)
    argv = [arg.format(bell=bell_file) for arg in argv]
    # Twice: the second call runs on the parser the first one left behind.
    for _ in range(2):
        code, out, err = call(argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == fresh_parser_stderr(argv)
        assert err.startswith("usage: qmarket")


def test_three_calls_build_one_parser(bell_file, monkeypatch):
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    build_parser()
    per_build = len(built)  # the top-level parser and one per subcommand
    built.clear()
    cli._parser.cache_clear()
    try:
        for seed in ("1", "2", "3"):
            assert call(["verify", bell_file, "--trials", "2", "--seed", seed])[0] == EXIT_OK
    finally:
        cli._parser.cache_clear()
    assert built.count("qmarket") == 1
    assert len(built) == per_build
