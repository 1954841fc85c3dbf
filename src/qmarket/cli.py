"""Command-line front end: run circuits, compile, verify, and demos.

Output is JSON-lines (one record per line) with floats rounded to 12
significant digits, so identical seeds and flags yield byte-identical
output.  Exit codes: 0 success, 1 verification failure, 2 usage/parse
error, 3 I/O error.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import densecoding
from .algebra import named_gate
from .compiler import (
    CompileError,
    ByproductTerm,
    Feedforward,
    MeasurementProgram,
    ParseError,
    check_equivalence,
    compile_to_measurements,
    parse_circuit,
    simulate_circuit,
)
from .gadgets import GADGETS, _run_gadget
from .pauliframe import random_walk_cleanup
from .seeding import trial_generators
from .statevec import apply_gate, apply_pauli, fidelity, random_state

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3

SEED_ENV_VAR = "QMARKET_SEED"

DEMO_NAMES = ("densecoding", "walk", "gadgets")

# GADGETS kind -> demo record name, where they differ; the table's order is
# the demo order, and target, width and arity come from its rows.
_GADGET_RECORD_NAMES = {"sigma_t": "sigma_t_xprime"}


def _sig(x: float) -> float:
    """Round to 12 significant digits for reproducible serialization."""
    if x == 0:
        return 0.0
    return float(f"{x:.12g}")


def _emit(lines: list[str], out_path: str | None) -> int:
    text = "\n".join(lines) + "\n" if lines else ""
    if out_path is None:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {out_path}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _record(**fields) -> str:
    return json.dumps(fields, sort_keys=True)


def _read_circuit(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return None, EXIT_IO
    except UnicodeDecodeError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return None, EXIT_USAGE
    try:
        return parse_circuit(text), EXIT_OK
    except ParseError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return None, EXIT_USAGE


def _amplitude_pairs(state) -> list[list[float]]:
    return [[_sig(a.real), _sig(a.imag)] for a in state.amplitudes]


def cmd_run(args) -> int:
    circuit, code = _read_circuit(args.circuit)
    if circuit is None:
        return code
    # A parsed circuit holds only gates, so the simulation draws nothing: it
    # runs once, and every trial record carries its result.
    state, outcomes = simulate_circuit(circuit)
    amplitudes = _amplitude_pairs(state)
    eigenvalues = [o.eigenvalue for o in outcomes]
    lines = [
        _record(record="run", trial=t, amplitudes=amplitudes, outcomes=eigenvalues)
        for t in range(args.trials)
    ]
    return _emit(lines, args.out)


def _compile(args):
    """Read and compile `args.circuit` in `args.mode`: (circuit, program,
    EXIT_OK), or (None, None, exit code) after reporting the error."""
    circuit, code = _read_circuit(args.circuit)
    if circuit is None:
        return None, None, code
    try:
        return circuit, compile_to_measurements(circuit, args.mode), EXIT_OK
    except CompileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, None, EXIT_USAGE


def cmd_compile(args) -> int:
    _, program, code = _compile(args)
    if program is None:
        return code
    return _emit(program.to_json_lines().rstrip("\n").split("\n"), args.out)


def _corrupt(program: MeasurementProgram) -> MeasurementProgram:
    """Test hook: append an unconditional stray byproduct so verification fails."""
    broken = program.instructions + (
        Feedforward(None, (ByproductTerm("X", 0, ()),)),
    )
    return MeasurementProgram(
        program.n_logical, broken, program.primitive_set, program.expansions
    )


def _trial_lines(fidelities) -> list[str]:
    """`_record(record="trial", id=i, fidelity=_sig(f))` for each fidelity f,
    formatted in one pass: json writes an int as its repr and a finite float
    as `float.__repr__`.  A non-finite value, which json writes as NaN or
    Infinity, goes through `_record` itself."""
    return [
        '{"fidelity": %r, "id": %d, "record": "trial"}' % (value, i)
        if math.isfinite(value) else _record(record="trial", id=i, fidelity=value)
        for i, value in enumerate(map(_sig, fidelities))
    ]


def cmd_verify(args) -> int:
    circuit, program, code = _compile(args)
    if program is None:
        return code
    if args.corrupt:
        program = _corrupt(program)
    report = check_equivalence(circuit, program, args.trials, args.tol, base_seed=args.seed)
    lines = _trial_lines(report.fidelities)
    lines.append(
        _record(
            record="summary",
            trials=report.trials,
            tol=report.tol,
            min_fidelity=_sig(report.min_fidelity),
            passed=report.passed,
            failing_trials=list(report.failing_trials),
            outcome_counts=report.outcome_counts,
        )
    )
    code = _emit(lines, args.out)
    if code != EXIT_OK:
        return code
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def _demo_densecoding(args) -> list[str]:
    rng = np.random.default_rng(args.seed)
    lines = []
    errors = 0
    for bits in ((0, 0), (0, 1), (1, 0), (1, 1)):
        bad = 0
        for _ in range(args.trials):
            decoded, _trace = densecoding.encode_decode(bits, rng)
            bad += decoded != bits
        errors += bad
        lines.append(_record(record="densecoding", bits=list(bits), trials=args.trials, errors=bad))
    lines.append(
        _record(record="densecoding_summary", roundtrips=4 * args.trials, errors=errors)
    )
    return lines


def _demo_walk(args) -> list[str]:
    rng = np.random.default_rng(args.seed)
    stops = []
    for _ in range(args.trials):
        record = random_walk_cleanup("I", "X", rng)
        stops.append(record.steps)
    lines = []
    top = max(stops)
    for s in range(1, min(top, 20) + 1):
        count = sum(1 for v in stops if v == s)
        expected = args.trials * 0.25 * 0.75 ** (s - 1)
        lines.append(
            _record(record="walk_histogram", steps=s, count=count, expected=_sig(expected))
        )
    mean = sum(stops) / len(stops)
    lines.append(
        _record(
            record="walk_summary",
            trials=args.trials,
            mean=_sig(mean),
            expected_mean=4.0,
            max_steps_seen=top,
        )
    )
    return lines


def _demo_gadgets(args) -> list[str]:
    forced = args.force_outcomes
    lines = []
    for kind, spec in GADGETS.items():
        n_qubits = len(spec.roles)
        if forced is not None and len(forced) != len(spec.meters):
            continue
        passes = 0
        for rng in trial_generators(args.seed, args.trials, 7):
            state = random_state(n_qubits, rng)
            result = _run_gadget(kind, state, range(n_qubits), None if forced else rng, forced)
            reference = apply_gate(state, named_gate(spec.target), list(range(n_qubits)))
            reference = apply_pauli(reference, result.byproduct)
            passes += fidelity(result.post_state, reference) >= 1.0 - 1e-10
        lines.append(
            _record(
                record="gadget",
                kind=_GADGET_RECORD_NAMES.get(kind, kind),
                trials=args.trials,
                passes=passes,
                pass_rate=_sig(passes / args.trials),
                forced=forced is not None,
            )
        )
    if not lines:
        raise ValueError("--force-outcomes length matches no gadget arity")
    return lines


def cmd_demo(args) -> int:
    if args.name not in DEMO_NAMES:
        print(f"error: unknown demo {args.name!r} (choose from {', '.join(DEMO_NAMES)})",
              file=sys.stderr)
        return EXIT_USAGE
    if args.force_outcomes is not None and args.name != "gadgets":
        print("error: --force-outcomes applies only to demo gadgets", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.name == "densecoding":
            lines = _demo_densecoding(args)
        elif args.name == "walk":
            lines = _demo_walk(args)
        else:
            lines = _demo_gadgets(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return _emit(lines, args.out)


def _parse_forced(text: str) -> list[int]:
    values = []
    for token in text.split(","):
        token = token.strip()
        if token in ("+1", "1"):
            values.append(1)
        elif token == "-1":
            values.append(-1)
        else:
            raise argparse.ArgumentTypeError(f"forced outcomes must be +/-1, got {token!r}")
    return values


def _parse_seed(text: str) -> int:
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"--seed/${SEED_ENV_VAR} must be a non-negative integer, got {text!r}")
    return int(text)


def _parse_tol(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:
        tol = float("nan")
    if not 0 < tol < 1:  # false for nan
        raise argparse.ArgumentTypeError(f"must be a number in (0, 1), got {text!r}")
    return tol


def build_parser() -> argparse.ArgumentParser:
    return _build()[0]


def _build() -> tuple[argparse.ArgumentParser, tuple[argparse.ArgumentParser, ...]]:
    """The parser and its subcommand parsers, which all take --seed."""
    parser = argparse.ArgumentParser(
        prog="qmarket",
        description="Measurement-only implementation of quantum market tactics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, trials_default):
        # argparse parses a string default only when the flag is absent: the flag wins.
        p.add_argument("--seed", type=_parse_seed, default=os.environ.get(SEED_ENV_VAR, "0"),
                       help=f"RNG seed (default: ${SEED_ENV_VAR} or 0)")
        p.add_argument("--trials", type=int, default=trials_default)
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    def mode(p):
        p.add_argument("--mode", choices=("extended", "strict"), default="extended")

    run_p = sub.add_parser("run", help="simulate a circuit file directly")
    run_p.add_argument("circuit")
    common(run_p, 1)
    run_p.set_defaults(func=cmd_run)

    compile_p = sub.add_parser("compile", help="lower a circuit to a measurement program")
    compile_p.add_argument("circuit")
    common(compile_p, 1)
    mode(compile_p)
    compile_p.set_defaults(func=cmd_compile)

    verify_p = sub.add_parser("verify", help="compile and check equivalence on random inputs")
    verify_p.add_argument("circuit")
    common(verify_p, 200)
    mode(verify_p)
    verify_p.add_argument("--tol", type=_parse_tol, default=1e-10)
    verify_p.add_argument("--corrupt", action="store_true",
                          help="testing hook: corrupt the program to exercise failure")
    verify_p.set_defaults(func=cmd_verify)

    demo_p = sub.add_parser("demo", help="run a built-in demonstration")
    demo_p.add_argument("name", help="one of: " + ", ".join(DEMO_NAMES))
    common(demo_p, 1000)
    demo_p.add_argument("--force-outcomes", type=_parse_forced, default=None,
                        dest="force_outcomes", help="testing hook for demo gadgets: comma list of +/-1")
    demo_p.set_defaults(func=cmd_demo)
    return parser, (run_p, compile_p, verify_p, demo_p)


# main's parser, built on first use and kept for the process.
_parser = functools.cache(_build)


def main(argv: list[str] | None = None) -> int:
    parser, commands = _parser()
    # The --seed default is $QMARKET_SEED as it is at this call.
    seed = os.environ.get(SEED_ENV_VAR, "0")
    for command in commands:
        command.set_defaults(seed=seed)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    if args.trials < 1:
        print("error: --trials must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
