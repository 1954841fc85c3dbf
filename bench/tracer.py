"""Outside-in tracer: spans and counters around qmarket's public functions.

The tracer wraps each listed function in every ``qmarket`` namespace that
binds it by name (``from .statevec import apply_gate`` makes ``compiler``,
``gadgets``, ``densecoding`` and ``cli`` bind it too), and the
``MeasurementProgram.to_json_lines`` method on its class.  ``uninstall``
restores every original binding.

A span is (name, start, end, parent, op id).  Spans are kept in flat integer
arrays while tracing and written out by ``write``.  Self time is a span's
duration minus the time its direct children cover.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# module -> public functions timed per layer.
LAYER_FUNCTIONS = {
    "statevec": ("measure_pauli", "measure_hermitian", "apply_gate", "apply_pauli",
                 "append_qubit", "remove_qubit", "permute_qubits", "random_state", "fidelity"),
    "algebra": ("conjugate_by", "pauli_mul"),
    "pauliframe": ("push_through", "frame_update", "frame_absorb_right", "random_walk_cleanup"),
    "compiler": ("parse_circuit", "compile_to_measurements", "MeasurementProgram.to_json_lines",
                 "execute", "simulate_circuit", "check_equivalence"),
    "gadgets": ("gadget_sigma_h", "gadget_sigma", "gadget_sigma_t", "gadget_sigma_g",
                "gadget_cnot", "predicted_byproduct"),
    "densecoding": ("encode_decode", "encoded_states", "dealer_state"),
    "cli": ("main",),
}

# Compiler IR counts taken from each compile_to_measurements result.
IR_COUNTS = ("instructions", "ancillas", "t_blocks", "corrects", "derived_xprime",
             "meters_pauli", "meters_g")

# A meter whose sampled branch had at least this probability was deterministic.
DETERMINISTIC_BRANCH = 1.0 - 1e-12

OP_SPAN = "bench.op"


def span_names() -> list[str]:
    return [f"{module}.{func}" for module, funcs in LAYER_FUNCTIONS.items() for func in funcs]


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) for every per-layer metric, in report order."""
    out = []
    for name in span_names():
        out.append((f"{name}.calls", "calls/op", "lower"))
        out.append((f"{name}.self_ms", "ms/op", "lower"))
    out += [
        ("statevec.amp_bytes", "computed_B/op", "lower"),
        ("statevec.deterministic_meter_ratio", "ratio", "lower"),
        ("pauliframe.walk_steps", "steps/walk", "lower"),
    ]
    out += [(f"compiler.{count}", "count/op", "lower") for count in IR_COUNTS]
    out.append(("trace.overhead_frac", "ratio", "lower"))
    return out


class Tracer:
    def __init__(self):
        self.names = span_names() + [OP_SPAN]
        self._name_ids = {name: i for i, name in enumerate(self.names)}
        self.active = False
        self.op_id = -1
        self._stack: list[int] = []
        self.span_name = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_op = array("q")
        self._restore: list[tuple[object, str, object]] = []
        self.amp_bytes = 0
        self.meters = 0
        self.deterministic_meters = 0
        self.walks = 0
        self.walk_steps = 0
        self.ir = dict.fromkeys(IR_COUNTS, 0)

    # -- spans ---------------------------------------------------------------

    def _open(self, name_id: int) -> int:
        index = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_op.append(self.op_id)
        self.span_end.append(0)
        self._stack.append(index)
        self.span_start.append(time.perf_counter_ns())
        return index

    def _close(self, index: int) -> None:
        self.span_end[index] = time.perf_counter_ns()
        self._stack.pop()

    def run_op(self, op_id: int, func, *args):
        """Call func(*args) as one op, with tracing on inside it."""
        self.op_id = op_id
        self.active = True
        index = self._open(self._name_ids[OP_SPAN])
        try:
            return func(*args)
        finally:
            self._close(index)
            self.active = False

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        namespaces = [mod for name, mod in sorted(sys.modules.items())
                      if mod is not None and (name == "qmarket" or name.startswith("qmarket."))]
        for module_name, funcs in LAYER_FUNCTIONS.items():
            module = sys.modules[f"qmarket.{module_name}"]
            for func in funcs:
                name_id = self._name_ids[f"{module_name}.{func}"]
                if "." in func:
                    cls_name, method = func.split(".")
                    cls = getattr(module, cls_name)
                    original = vars(cls)[method]
                    self._bind(cls, method, self._wrap(name_id, original, method))
                    continue
                original = getattr(module, func)
                wrapper = self._wrap(name_id, original, func)
                for namespace in namespaces:
                    for attr, value in list(vars(namespace).items()):
                        if value is original:
                            self._bind(namespace, attr, wrapper)

    def _bind(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _wrap(self, name_id: int, original, func: str):
        count = self._COUNTERS.get(func)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            index = self._open(name_id)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index)
            if count is not None:
                count(self, args, result)
            return result

        return wrapper

    # -- counters ------------------------------------------------------------

    def _count_state(self, args, _result) -> None:
        self.amp_bytes += 16 * 2 ** args[0].n_qubits

    def _count_meter(self, args, result) -> None:
        self._count_state(args, result)
        self.meters += 1
        if result[0].probability >= DETERMINISTIC_BRANCH:
            self.deterministic_meters += 1

    def _count_random_state(self, args, _result) -> None:
        self.amp_bytes += 16 * 2 ** args[0]

    def _count_walk(self, _args, result) -> None:
        self.walks += 1
        self.walk_steps += result.steps

    def _count_program(self, _args, program) -> None:
        kinds = [type(ins).__name__ for ins in program.instructions]
        ir = self.ir
        ir["instructions"] += len(kinds)
        ir["ancillas"] += kinds.count("Prepare")
        ir["corrects"] += kinds.count("Correct")
        ir["meters_pauli"] += kinds.count("MeasurePauliInstr")
        ir["meters_g"] += kinds.count("MeasureGInstr")
        ir["t_blocks"] += program.expansions.count("sigma_t_tail")
        ir["derived_xprime"] += program.expansions.count("derived_xprime")

    _COUNTERS = {
        "measure_pauli": _count_meter,
        "measure_hermitian": _count_meter,
        "apply_gate": _count_state,
        "apply_pauli": _count_state,
        "append_qubit": _count_state,
        "remove_qubit": _count_state,
        "permute_qubits": _count_state,
        "fidelity": _count_state,
        "random_state": _count_random_state,
        "random_walk_cleanup": _count_walk,
        "compile_to_measurements": _count_program,
    }

    # -- results -------------------------------------------------------------

    def _columns(self):
        return tuple(np.frombuffer(column, dtype=np.int64).copy()
                     for column in (self.span_name, self.span_start, self.span_end,
                                    self.span_parent, self.span_op))

    def metrics(self, ops: int) -> dict[str, float]:
        """Per-op calls and self time per function, plus the counters."""
        name, start, end, parent, _op = self._columns()
        duration = (end - start).astype(np.float64)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=duration[has_parent],
                                 minlength=len(duration))
        self_ns = duration - child_time
        calls = np.bincount(name, minlength=len(self.names))
        self_total = np.bincount(name, weights=self_ns, minlength=len(self.names))
        out: dict[str, float] = {}
        for i, span in enumerate(self.names[:-1]):  # all but OP_SPAN
            out[f"{span}.calls"] = calls[i] / ops
            out[f"{span}.self_ms"] = self_total[i] / 1e6 / ops
        out["statevec.amp_bytes"] = self.amp_bytes / ops
        out["statevec.deterministic_meter_ratio"] = (
            self.deterministic_meters / self.meters if self.meters else 0.0)
        out["pauliframe.walk_steps"] = self.walk_steps / self.walks if self.walks else 0.0
        for count in IR_COUNTS:
            out[f"compiler.{count}"] = self.ir[count] / ops
        return {key: float(value) for key, value in out.items()}

    def write(self, path: Path) -> None:
        name, start, end, parent, op = self._columns()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), name=name, start_ns=start,
                            end_ns=end, parent=parent, op=op)
