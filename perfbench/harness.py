"""End-to-end measurement: a closed loop of packings through the public API.

One process, one caller: each call starts when the previous one returns.
A step is one packing: ``build_plan``, ``PackedSignal.from_documents``,
then ``convolve``.  Every output is checked against
``direct.oracle_convolve`` outside the timers.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from rubiconv import FilterBank, PackedSignal, build_plan, convolve, count_ops
from rubiconv.direct import oracle_convolve
from workloads import Inputs, Workload

GATE_REL_TOL = 1e-8
MIB = float(1 << 20)
HERE = Path(__file__).resolve().parent

END_TO_END_UNITS = {
    "convolve_ms_p50": "ms",
    "convolve_ms_tail": "ms",
    "tokens_per_s": "tokens/s",
    "setup_s": "s",
    "convolve_peak_mib": "MiB",
    "plan_mib": "MiB",
    "convolve_cmuls": "count",
}


def rel_err(got: np.ndarray, ref: np.ndarray) -> float:
    """Normwise relative error max|got - ref| / max|ref|; NaN on a shape mismatch."""
    got = np.asarray(got)
    if got.shape != ref.shape:
        return float("nan")
    scale = max(float(np.max(np.abs(ref))), 1e-300)
    return float(np.max(np.abs(got - ref))) / scale


class Gate:
    """Checks outputs against the causal oracle, computed once per packing."""

    def __init__(self, inputs: Inputs):
        self.inputs = inputs
        self.checked = 0
        self.failed = 0
        self.max_rel_err: dict[str, float] = {}
        self.oracle_ms: list[float] = []
        self._key: tuple[int, ...] | None = None
        self._ref: np.ndarray | None = None

    def reference(self, lengths: list[int]) -> np.ndarray:
        if tuple(lengths) != self._key:
            pool, taps = self.inputs.pool, self.inputs.taps
            start = time.perf_counter()
            self._ref = np.stack(
                [oracle_convolve(lengths, pool[:, d], taps[:, d]) for d in range(pool.shape[1])],
                axis=1,
            )
            self.oracle_ms.append((time.perf_counter() - start) * 1e3)
            self._key = tuple(lengths)
        return self._ref

    def check(self, label: str, lengths: list[int], valid_values: np.ndarray) -> bool:
        """Gate one output, given as the concatenated valid values (sum L_i, D)."""
        err = rel_err(valid_values, self.reference(lengths))
        self.checked += 1
        self.max_rel_err[label] = max(self.max_rel_err.get(label, 0.0), err)
        if err <= GATE_REL_TOL:
            return True
        self.failed += 1
        print(f"gate: {label} failed, max rel err {err:.3e} > {GATE_REL_TOL:.0e}", flush=True)
        return False


def tail(samples: list[float], beyond: int = 10) -> tuple[float, float]:
    """Highest percentile with at least ``beyond`` samples above it: (value, percentile)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= beyond:
        return ordered[-1], 100.0
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n


def ndarray_bytes(obj) -> int:
    """Bytes of every distinct ndarray reachable through dataclass fields and containers."""
    seen: set[int] = set()
    total = 0
    stack = [obj]
    while stack:
        item = stack.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            if isinstance(item.base, np.ndarray):
                stack.append(item.base)
            else:
                total += item.nbytes
        elif dataclasses.is_dataclass(item) and not isinstance(item, type):
            stack.extend(getattr(item, f.name) for f in dataclasses.fields(item))
        elif isinstance(item, (tuple, list)):
            stack.extend(item)
        elif isinstance(item, dict):
            stack.extend(item.values())
    return total


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_lib = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_lib = "unknown"
    return {
        "nproc": os.cpu_count(),
        "blas": blas_lib,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "byte_counts": "computed from array and index sizes, not measured",
    }


def cold_setup_s(workload: Workload, seed: int, index: int) -> float:
    """Set-up time of packing ``index`` in a fresh interpreter (see setup_probe.py)."""
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "setup_probe.py"),
            json.dumps(workload.to_dict()),
            str(seed),
            str(index),
        ],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def run_end_to_end(
    workload: Workload,
    seed: int,
    seconds: float,
    *,
    convolve_fn=convolve,
    setup_reps: int = 5,
    passes: int = 10,
    min_steps: int = 11,
) -> dict:
    """Closed-loop run; returns metrics, gate counts and details."""
    inputs = Inputs(workload, seed)
    gate = Gate(inputs)
    bank = FilterBank(inputs.taps)

    def step(index: int) -> tuple[list[int], object, PackedSignal, list[float]]:
        lengths = inputs.lengths(index)
        docs = inputs.documents(lengths)
        t0 = time.perf_counter()
        plan = build_plan(lengths, workload.filter_len, workload.k)
        t1 = time.perf_counter()
        sig = PackedSignal.from_documents(plan.layout, docs)
        t2 = time.perf_counter()
        out = convolve_fn(plan, sig, bank)
        t3 = time.perf_counter()
        gate.check("convolve", lengths, out.valid_values())
        return lengths, plan, sig, [t1 - t0, t2 - t1, t3 - t2]

    # Warm-up on packing 0 (also the first cold set-up's packing): lazy BLAS
    # and allocator start-up happen here, untimed.
    step(0)

    plan_ms, conv_ms, step_s = [], [], []
    tokens = 0
    peaks, cmuls, plan_bytes = [], [], []
    n = 0
    passes_s = 0.0  # untimed passes do not use up the measuring time
    start = time.perf_counter()
    while n < min_steps or time.perf_counter() - start - passes_s < seconds:
        n += 1
        lengths, plan, sig, (t_plan, t_sig, t_conv) = step(n)
        plan_ms.append(t_plan * 1e3)
        conv_ms.append(t_conv * 1e3)
        step_s.append(t_plan + t_sig + t_conv)
        tokens += sum(lengths)
        if len(cmuls) < passes and (n == 1 or workload.fresh_packing):
            # Untimed pass on a new packing: counted work, allocation peak
            # and plan footprint, which repeat exactly for a given packing.
            pass_start = time.perf_counter()
            tracemalloc.start()
            try:
                with count_ops() as counts:
                    out = convolve_fn(plan, sig, bank)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            gate.check("convolve", lengths, out.valid_values())
            cmuls.append(counts.complex_muls)
            plan_bytes.append(ndarray_bytes(plan))
            passes_s += time.perf_counter() - pass_start

    # Cold set-ups run last, so that they do not also pay for the machine
    # waking from idle between runs; each is still a fresh interpreter.
    setups = [cold_setup_s(workload, seed, i) for i in range(setup_reps)]

    tail_ms, tail_pct = tail(conv_ms)
    metrics = {
        "convolve_ms_p50": statistics.median(conv_ms),
        "convolve_ms_tail": tail_ms,
        "tokens_per_s": tokens / sum(step_s),
        "convolve_peak_mib": statistics.median(peaks) / MIB,
        "plan_mib": statistics.median(plan_bytes) / MIB,
        "convolve_cmuls": statistics.median(cmuls),
    }
    if setups:
        metrics["setup_s"] = statistics.median(setups)
    return {
        "metrics": metrics,
        "attempted": gate.checked,
        "failed": gate.failed,
        "reported": {
            "plan_ms_p50": statistics.median(plan_ms),
            "failed_frac": gate.failed / gate.checked,
        },
        "details": {
            "steps": n,
            "convolve_ms_tail_percentile": tail_pct,
            "convolve_ms_tail_samples": len(conv_ms),
            "setup_s_samples": setups,
            "max_rel_err": gate.max_rel_err,
        },
    }
