"""Smoke test of the benchmark: a tiny run of every workload, untraced and traced.

Kept out of the tier-1 suite (pytest collects only tests/ by default).  Run with

    python -m pytest bench/test_smoke.py -q
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _no_duplicate_keys(pairs):
    keys = [key for key, _ in pairs]
    assert len(keys) == len(set(keys)), f"duplicate keys in {keys}"
    return dict(pairs)


def run_bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=cwd,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_once_with_its_unit(workload, trace, section):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1], object_pairs_hook=_no_duplicate_keys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    if trace:
        records = [json.loads(line) for line in lines[:-1]]
        (record,) = [r for r in records if r["record"] == "trace"]
        assert record["outputs_identical"] is True


def test_tracer_wraps_every_binding_and_restores_it():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    try:
        import qmarket  # noqa: F401  (loads every qmarket module)
        import tracer
        from qmarket import cli, compiler, gadgets, pauliframe, statevec
    finally:
        del sys.path[:2]

    def snapshot():
        spaces = [m for name, m in sys.modules.items() if name.split(".")[0] == "qmarket"]
        bindings = {(m.__name__, k): v for m in spaces for k, v in vars(m).items()}
        bindings["to_json_lines"] = vars(compiler.MeasurementProgram)["to_json_lines"]
        return bindings

    before = snapshot()
    tr = tracer.Tracer()
    tr.install()
    try:
        for owner in (statevec, compiler, gadgets, cli):
            assert owner.apply_gate is not before[("qmarket.statevec", "apply_gate")]
        assert pauliframe.conjugate_by is not before[("qmarket.algebra", "conjugate_by")]
        assert (vars(compiler.MeasurementProgram)["to_json_lines"]
                is not before["to_json_lines"])
    finally:
        tr.uninstall()
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
