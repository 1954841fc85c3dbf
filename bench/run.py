"""qmarket benchmark: seeded closed-loop workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a qmarket checkout; the package is imported from
``src/`` next to this directory, never from an installed copy.

--trace 0 times ops for S seconds of wall time (and at least 100 ops, up to
1.5 S, so that ten samples lie beyond p90) with no tracing, and reports the
end-to-end metrics.  --trace 1 runs a fixed, seed-determined list of ops
twice, first untraced and then traced, checks that both passes give
byte-identical outputs, and reports the per-layer metrics and the tracing
overhead.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Earlier stdout lines are JSON records describing the run.
"""
from __future__ import annotations

import os

# One BLAS thread: the SVD in remove_qubit would otherwise start a second one
# on a two-core machine and the benchmark would measure the scheduler.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "qmarket" / "__init__.py").is_file():
    sys.exit(f"error: no qmarket sources at {SRC / 'qmarket'}; run inside a qmarket checkout")
sys.path.insert(0, str(SRC))

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import qmarket  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

if not Path(qmarket.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"error: imported qmarket from {qmarket.__file__}, not from {SRC}")

OUT_DIR = ROOT / ".bench_out"
MIN_OPS = 100  # p90 then has at least ten samples beyond it
SETUP_PROBES = 9

# (name, unit, better) of the end-to-end metrics, reported with --trace 0.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("program_meters", "count", "lower"),
    ("program_peak_width", "wires", "lower"),
)

# Traced blocks per second of --seconds: the untraced and the traced pass of a
# trace run then take about S together on a 2-core Xeon.
TRACE_BLOCKS_PER_S = {"verify-narrow": 0.2, "gadgets": 20.0}


def emit(record: dict) -> None:
    print(json.dumps(record, sort_keys=True), flush=True)


def environment() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        l2 = Path("/sys/devices/system/cpu/cpu0/cache/index2/size").read_text().strip()
    except OSError:
        l2 = "unknown"
    return {
        "record": "env",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "l2_per_core": l2,
        "git_sha": git_sha(),
        "blas_threads": {var: os.environ[var] for var in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tmp_dir() -> Path:
    return OUT_DIR / f"tmp-{os.getpid()}"


def warm_up(wl) -> None:
    """Run and check op 0 once, untimed and uncounted; a failure shows in the timed ops."""
    Tally().run(wl, wl.ops[0], wl.run)


def setup_probe(args) -> int:
    """Child side of a set-up measurement: inputs plus one warm-up op, then 'ready'."""
    wl = workloads.build(args.workload, args.seed, tmp_dir())
    try:
        warm_up(wl)
    finally:
        wl.close()
    print("ready", flush=True)
    return 0


def measure_setup(args) -> list[float]:
    """Wall time from spawning a fresh interpreter to its first timed op, SETUP_PROBES times."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            ready = time.perf_counter()
            child.communicate(timeout=60)
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up probe exited {child.returncode} without 'ready'")
        samples.append(ready - start)
    return samples


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: dict[str, int] = {}

    def run(self, wl, op, call):
        """Run one op through call(op), then its check; returns (latency_ns, output, ok)."""
        self.attempted += 1
        out, error = None, None
        start = time.perf_counter_ns()
        try:
            out = call(op)
        except Exception as exc:  # a failed op is counted, never fatal
            error = exc
        latency = time.perf_counter_ns() - start
        if error is None:
            try:
                if not wl.check(op, out):
                    error = AssertionError("check failed")
            except Exception as exc:
                error = exc
        if error is not None:
            self.failed += 1
            key = type(error).__name__
            self.errors[key] = self.errors.get(key, 0) + 1
        return latency, out, error is None


def timed_run(args, wl) -> tuple[dict, Tally, bool]:
    setup = measure_setup(args)
    warm_up(wl)
    tally = Tally()
    latencies: list[int] = []
    ok_ops = i = 0
    gc.collect()
    start = time.perf_counter()
    while True:
        latency, _out, ok = tally.run(wl, wl.ops[i % len(wl.ops)], wl.run)
        latencies.append(latency)
        ok_ops += ok
        i += 1
        wall = time.perf_counter() - start
        if wall >= args.seconds and (i >= MIN_OPS or wall >= 1.5 * args.seconds):
            break
    lat_ms = np.array(latencies, dtype=np.float64) / 1e6
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": ok_ops / (lat_ms.sum() / 1e3),
        "op_p50_ms": float(np.percentile(lat_ms, 50)),
        "op_p90_ms": float(np.percentile(lat_ms, 90)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    shapes = wl.program_shapes()
    values["program_meters"] = statistics.fmean(m for m, _ in shapes)
    values["program_peak_width"] = statistics.fmean(w for _, w in shapes)
    emit({"record": "summary", "workload": wl.name, "ops": i, "timed_s": lat_ms.sum() / 1e3,
          "failed_frac": tally.failed / tally.attempted, "errors": tally.errors,
          "setup_samples_s": setup, "trials_per_op": getattr(wl, "trials", None)})
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}
    return metrics, tally, True


def traced_run(args, wl) -> tuple[dict, Tally, bool]:
    warm_up(wl)
    blocks = max(1, round(args.seconds * TRACE_BLOCKS_PER_S[wl.name]))
    ops = [wl.ops[i % len(wl.ops)] for i in range(blocks * wl.block)]
    tally = Tally()

    gc.collect()
    plain, plain_ns = [], 0
    for op in ops:
        latency, out, _ok = tally.run(wl, op, wl.run)
        plain_ns += latency
        plain.append(None if out is None else wl.digest(out))

    tr = tracer.Tracer()
    tr.install()
    gc.collect()
    traced, traced_ns = [], 0
    try:
        for op_id, op in enumerate(ops):
            latency, out, _ok = tally.run(wl, op, lambda o, i=op_id: tr.run_op(i, wl.run, o))
            traced_ns += latency
            traced.append(None if out is None else wl.digest(out))
    finally:
        tr.uninstall()

    identical = plain == traced
    values = tr.metrics(len(ops))
    values["trace.overhead_frac"] = traced_ns / plain_ns - 1.0
    spans = OUT_DIR / f"spans-{wl.name}.npz"
    tr.write(spans)
    emit({"record": "trace", "workload": wl.name, "ops": len(ops), "untraced_s": plain_ns / 1e9,
          "traced_s": traced_ns / 1e9, "outputs_identical": identical,
          "spans": len(tr.span_name), "spans_file": str(spans.relative_to(ROOT)),
          "failed_frac": tally.failed / tally.attempted, "errors": tally.errors})
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _ in tracer.per_layer_metrics()}
    return metrics, tally, identical


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    emit(environment())
    wl = workloads.build(args.workload, args.seed, tmp_dir())
    try:
        metrics, tally, identical = (traced_run if args.trace else timed_run)(args, wl)
        if wl.name == "verify-narrow":
            emit(workloads.ceiling_probe(tmp_dir()))
            emit(workloads.reference_costs())
    finally:
        wl.close()
    print(json.dumps({
        "correct": tally.failed == 0 and identical,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
