"""Byte-level goldens: compiled programs and CLI output must not drift.

Each case pins the sha256 of the exact bytes a compile or a CLI run emits,
so a refactor that reorders instructions, renames registers or changes an
outcome stream fails here even when every semantic check still passes.
"""
import hashlib

import pytest

from qmarket.cli import EXIT_OK, main
from qmarket.compiler import compile_to_measurements, parse_circuit

BELL = "qubits 2\nh 0\ncnot 0 1\n"
EIGHT_GATE = "qubits 3\nh 0\nt 0\ncnot 0 1\nh 1\nt 2\ncnot 1 2\nh 2\nt 1\n"
CH = "qubits 2\nch 0 1\n"

PROGRAM_DIGESTS = {
    ("bell", "extended"): "bde5b7fce95025011e4509b4af27f4b0261173fccaac0f13c18ac3a403fdeecc",
    ("bell", "strict"): "86bc1df1b84e1675141c3ae426ce02bdb4de21a698aca9be2552a5fd3c5cc153",
    ("eight_gate", "extended"): "ff2e937911299eccb633d654c0d5ea7b98a23f471581d1f66ab4ba2e5dd3edb4",
    ("eight_gate", "strict"): "13d6d7b17b83a1c9851b69786fc9ab6972f08a37381186a7dd342bde2e3028cc",
    ("ch", "extended"): "9f2733869e845626fee7bc6f5976fff6028ff2eb77d947d4397e43c01305b865",
    ("ch", "strict"): "302eaf91c22ea62ec4b14275ba52bd3f42e71cd7adf06db647abd49ee27dee34",
}
CIRCUITS = {"bell": BELL, "eight_gate": EIGHT_GATE, "ch": CH}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name, mode", sorted(PROGRAM_DIGESTS))
def test_program_bytes(name, mode):
    program = compile_to_measurements(parse_circuit(CIRCUITS[name]), mode)
    assert sha256(program.to_json_lines()) == PROGRAM_DIGESTS[(name, mode)]


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["verify", "{circuit}", "--mode", "strict", "--trials", "20", "--seed", "5"],
         "66d153f8050e112f20df0fb06e0e34eb250268782b9b44c1cf0a2cd6d7c73a60"),
        (["demo", "gadgets", "--seed", "3", "--trials", "40"],
         "36147d5f11ee29773606d81c621ef7df59cbde33462b00682c1e0e950247fbe0"),
        (["demo", "gadgets", "--force-outcomes", "+1,-1,-1", "--trials", "5"],
         "a99ce6c947eeeab12741d73493f7c788ca4dfc474bad675bed53997cf057b0ce"),
    ],
    ids=["verify-strict", "demo-gadgets-sampled", "demo-gadgets-forced"],
)
def test_cli_stdout_bytes(argv, digest, tmp_path, capsys):
    circuit = tmp_path / "eight.qc"
    circuit.write_text(EIGHT_GATE)
    code = main([arg.format(circuit=circuit) for arg in argv])
    assert code == EXIT_OK
    assert sha256(capsys.readouterr().out) == digest


@pytest.mark.parametrize(
    "name, digest",
    [
        ("eight_gate", "37e1884448aed55f0bf20928e45e207ffe5f0b46b97d6e342853b07bcdf5667a"),
        ("ch", "3cea33686b2a0d028054eab64f7bcea9e8c5dc23ec4cddcda55e2f1e8e758bd4"),
    ],
)
def test_run_stdout_bytes(name, digest, tmp_path, capsys):
    circuit = tmp_path / f"{name}.qc"
    circuit.write_text(CIRCUITS[name])
    assert main(["run", str(circuit), "--trials", "5", "--seed", "11"]) == EXIT_OK
    assert sha256(capsys.readouterr().out) == digest
