"""Pinned `qmarket verify` output for circuits beyond the golden 8-gate case.

The passing runs pin the sha256 of the whole stdout: every fidelity, every
outcome count.  The corrupted run pins its exit code and its summary without
`min_fidelity` exactly; its per-trial fidelities are far from 1, where the
12th printed digit depends on floating-point summation order, so they are
compared to a relative 1e-11.
"""
import hashlib
import json

import pytest

from qmarket.cli import EXIT_OK, EXIT_VERIFY_FAILED, main

CH = "qubits 2\nch 0 1\n"
RANDOM4 = "qubits 4\nt 1\nxpp 1\nxpp 3\nch 3 0\nx 0\nt 2\nx 3\ncnot 0 3\nt 2\nh 3\n"
GHZ14 = "qubits 14\nh 0\n" + "".join(f"cnot {i} {i + 1}\n" for i in range(13))
CIRCUITS = {"ch": CH, "random4": RANDOM4, "ghz14": GHZ14}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_verify(tmp_path, capsys, name, flags):
    path = tmp_path / f"{name}.qc"
    path.write_text(CIRCUITS[name])
    code = main(["verify", str(path), *flags])
    return code, capsys.readouterr().out


@pytest.mark.parametrize(
    "name, flags, digest",
    [
        ("ch", ["--mode", "strict", "--trials", "32", "--seed", "11"],
         "0d13d375a3bd535d52bb208135ad70e59ee268d5a57f4a4e5cd6cdb8d3b4f7f0"),
        ("ch", ["--mode", "extended", "--trials", "32", "--seed", "12"],
         "f50cd59138b31f57b62f353ae12b2665f4dc94f3f815361f26c3b75a85b7a271"),
        ("random4", ["--mode", "strict", "--trials", "32", "--seed", "13"],
         "0361b649d7ae690e7982fedbbdac73d302f610a7186add1964fdcea143bf2b0b"),
        ("random4", ["--mode", "extended", "--trials", "32", "--seed", "14"],
         "5ef9ae13fec09e65a25fff0e6d188c17974b10768b9ebccf4b1f7fcc893393ce"),
        ("ghz14", ["--mode", "strict", "--trials", "4", "--seed", "15"],
         "d8d4cd857aa6f29569eb7779c647be3dcac21897dbd4f14dc697514f6dc00a87"),
    ],
    ids=["ch-strict", "ch-extended", "random4-strict", "random4-extended", "ghz14-strict"],
)
def test_passing_verify_stdout_bytes(name, flags, digest, tmp_path, capsys):
    code, out = run_verify(tmp_path, capsys, name, flags)
    assert code == EXIT_OK
    assert sha256(out) == digest


CORRUPT_SUMMARY_DIGEST = "c2b35277641c10c3d7ffecbe278447a6ac1911f6a7a66d74af38a68ecfaf2f98"
CORRUPT_FIDELITIES = [
    0.137847811738, 0.0807824769791, 0.0418795976883, 0.108360052573, 0.142583344302,
    0.535041937279, 0.293365131332, 0.0714819884797, 0.30176499807, 0.3212198034,
    0.294214086594, 0.092166686791, 0.0713921505857, 0.415447542023, 0.274999820765,
    0.155059375616, 0.0399398566364, 0.285778394638, 0.28273436291, 0.346119947478,
    0.397216279271, 0.63211411316, 0.0502115153207, 0.215923133383, 0.17687643425,
    0.182196907638, 0.0170015454519, 0.263029720852, 0.0484593873283, 0.0875944951051,
    0.132250446915, 0.0606530105876,
]


def test_corrupted_verify_report(tmp_path, capsys):
    code, out = run_verify(
        tmp_path, capsys, "random4",
        ["--mode", "strict", "--trials", "32", "--seed", "16", "--corrupt"],
    )
    assert code == EXIT_VERIFY_FAILED
    records = [json.loads(line) for line in out.splitlines()]
    summary = records[-1]
    min_fidelity = summary.pop("min_fidelity")
    assert sha256(json.dumps(summary, sort_keys=True)) == CORRUPT_SUMMARY_DIGEST
    fidelities = [r["fidelity"] for r in records[:-1]]
    assert [r["id"] for r in records[:-1]] == list(range(32))
    assert fidelities == pytest.approx(CORRUPT_FIDELITIES, rel=1e-11, abs=0)
    assert min_fidelity == pytest.approx(min(CORRUPT_FIDELITIES), rel=1e-11, abs=0)
