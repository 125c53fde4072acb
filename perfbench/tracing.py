"""Traced run: spans around calls into each module's public functions.

Spans are recorded from outside the library.  While a traced call runs,
the functions ``convolve`` and ``build_plan`` reach through module globals
(``transform_grid``, ``split_dual_real``, ``embed_filter``,
``dft_matrix``, the packing map builders and ``IndexMap.apply`` for the
plan's ``p1``, ``pre_ifft`` and ``p2``) are swapped for wrappers that open
a child span.  An entry point the library no longer has is skipped, and
the metrics it fed are left out.  The reference paths (the k-point GEMM on
its own, per-document ``np.fft``, the radix-2 path) get root spans too.

A span holds name, start, end, parent and step id, plus the ``count_ops``
tallies of the call (inclusive of its children).  Spans stay in memory and
are written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

import rubiconv.packing
import rubiconv.transform
from rubiconv import FilterBank, PackedSignal, build_plan, convolve, count_ops
from rubiconv.cooley_tukey import build_ct_layout, ct_convolve, stage_triples
from rubiconv.linalg import dft_matrix, gemm
from harness import MIB, Gate, environment, ndarray_bytes
from workloads import Inputs, Workload

PER_LAYER_UNITS = {
    "transform.build_plan_ms": "ms",
    "transform.plan_built_elements": "count",
    "transform.plan_bytes_per_pos": "B/pos",
    "linalg.dft_matrix_ms": "ms",
    "packing.build_maps_ms": "ms",
    "packing.load_ms": "ms",
    "packing.reorder_ms": "ms",
    "packing.unload_ms": "ms",
    "packing.moved_mib": "MiB",
    "transform.split_ms": "ms",
    "transform.grid_fwd_ms": "ms",
    "transform.grid_inv_ms": "ms",
    "linalg.kgemm_ms": "ms",
    "linalg.kgemm_gflops": "GFLOP/s",
    "linalg.kgemm_flop_per_byte": "flop/B",
    "signal.from_documents_ms": "ms",
    "signal.embed_filter_ms": "ms",
    "transform.grid_cmuls": "count",
    "transform.split_cmuls": "count",
    "transform.convolve_ms": "ms",
    "trace.coverage": "ratio",
    "trace.overhead_pct": "%",
    "ref.npfft_ms": "ms",
    "direct.oracle_ms": "ms",
    "direct.max_rel_err": "ratio",
    "cooley_tukey.setup_ms": "ms",
    "cooley_tukey.ct_convolve_ms": "ms",
    "cooley_tukey.ct_cmuls": "count",
}

# Per-step metrics summed from spans: metric -> (span names, span field).
SPAN_SUMS = {
    "transform.build_plan_ms": (("transform.build_plan",), "ms"),
    "transform.plan_built_elements": (("transform.build_plan",), "built_elements"),
    "linalg.dft_matrix_ms": (("linalg.dft_matrix",), "ms"),
    "packing.build_maps_ms": (
        ("packing.build_p1", "packing.build_p2", "packing.build_pre_ifft_map"),
        "ms",
    ),
    "packing.load_ms": (("packing.load",), "ms"),
    "packing.reorder_ms": (("packing.reorder",), "ms"),
    "packing.unload_ms": (("packing.unload",), "ms"),
    "packing.moved_mib": (("packing.load", "packing.reorder", "packing.unload"), "mib"),
    "transform.split_ms": (("transform.split",), "ms"),
    "transform.grid_fwd_ms": (("transform.grid_fwd",), "ms"),
    "transform.grid_inv_ms": (("transform.grid_inv",), "ms"),
    "signal.from_documents_ms": (("signal.from_documents",), "ms"),
    "signal.embed_filter_ms": (("signal.embed_filter",), "ms"),
    "transform.grid_cmuls": (("transform.grid_fwd", "transform.grid_inv"), "complex_muls"),
    "transform.split_cmuls": (("transform.split",), "complex_muls"),
    "transform.convolve_ms": (("transform.convolve",), "ms"),
    "linalg.kgemm_ms": (("linalg.kgemm",), "ms"),
    "ref.npfft_ms": (("ref.npfft",), "ms"),
    "cooley_tukey.setup_ms": (("cooley_tukey.setup",), "ms"),
    "cooley_tukey.ct_convolve_ms": (("cooley_tukey.ct_convolve",), "ms"),
    "cooley_tukey.ct_cmuls": (("cooley_tukey.ct_convolve",), "complex_muls"),
}


class Tracer:
    """In-memory span recorder; one instance per run."""

    def __init__(self):
        self.spans: list[dict] = []
        self.step: int | None = None
        self.map_names: dict[int, str] = {}
        self._stack: list[dict] = []
        self._calls: dict[tuple, int] = {}
        self._counts = None

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "step": self.step,
        }
        self.spans.append(rec)
        # One counter per root span; children record deltas of it, because
        # nested count_ops blocks with equal tallies unregister each other.
        with count_ops() if not self._stack else nullcontext(self._counts) as counts:
            self._counts = counts
            self._stack.append(rec)
            before = (counts.complex_muls, counts.real_muls, counts.built_elements)
            rec["start_ns"] = time.perf_counter_ns()
            try:
                yield rec
            finally:
                rec["end_ns"] = time.perf_counter_ns()
                self._stack.pop()
                rec["complex_muls"] = counts.complex_muls - before[0]
                rec["real_muls"] = counts.real_muls - before[1]
                rec["built_elements"] = counts.built_elements - before[2]

    def nth_call(self, fn_name: str) -> int:
        """How many times ``fn_name`` was already called under the current span."""
        key = (self._stack[-1]["id"] if self._stack else None, fn_name)
        n = self._calls.get(key, 0)
        self._calls[key] = n + 1
        return n

    def wrap(self, fn, name):
        """``fn`` inside a span; ``name`` is a string or a callable returning one."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name() if callable(name) else name):
                return fn(*args, **kwargs)

        return wrapper

    def wrap_map_apply(self, apply):
        """IndexMap.apply, named after the plan field it belongs to, with bytes moved."""

        @functools.wraps(apply)
        def wrapper(index_map, values, *args, **kwargs):
            with self.span(self.map_names.get(id(index_map), "packing.apply")) as rec:
                out = apply(index_map, values, *args, **kwargs)
                lead = len(getattr(index_map, "dst_shape", out.shape))
                row_bytes = out.itemsize * int(np.prod(out.shape[lead:], dtype=np.int64))
                src = getattr(index_map, "src_flat", None)
                dst = getattr(index_map, "dst_flat", None)
                if src is not None and dst is not None:
                    # Gather read, zero fill, scatter write, both index arrays.
                    rec["bytes_computed"] = (
                        (len(src) + len(dst)) * row_bytes + out.nbytes + src.nbytes + dst.nbytes
                    )
                return out

        return wrapper


@contextmanager
def instrument(tracer: Tracer):
    """Swap the library's internal entry points for span-opening wrappers."""
    span_names = {
        # convolve runs the grid transform twice: forward, then inverse.
        "transform_grid": lambda: (
            "transform.grid_fwd" if tracer.nth_call("transform_grid") == 0 else "transform.grid_inv"
        ),
        "split_dual_real": "transform.split",
        "embed_filter": "signal.embed_filter",
        "dft_matrix": "linalg.dft_matrix",
        "build_p1": "packing.build_p1",
        "build_p2": "packing.build_p2",
        "build_pre_ifft_map": "packing.build_pre_ifft_map",
    }
    saved = []
    for attr, name in span_names.items():
        fn = getattr(rubiconv.transform, attr, None)
        if callable(fn):
            saved.append((rubiconv.transform, attr, fn))
            setattr(rubiconv.transform, attr, tracer.wrap(fn, name))
    index_map = getattr(rubiconv.packing, "IndexMap", None)
    if index_map is not None and callable(getattr(index_map, "apply", None)):
        saved.append((index_map, "apply", index_map.apply))
        index_map.apply = tracer.wrap_map_apply(index_map.apply)
    try:
        yield
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def npfft_convolve(lengths: list[int], docs: list[np.ndarray], taps: np.ndarray) -> np.ndarray:
    """Per-document rfft/irfft convolution: the plain single-threaded baseline."""
    out = []
    for doc, length in zip(docs, lengths):
        n_taps = min(len(taps), length)
        n = 1 << (length + n_taps - 2).bit_length()
        spectrum = np.fft.rfft(doc, n, axis=0) * np.fft.rfft(taps[:n_taps], n, axis=0)
        out.append(np.fft.irfft(spectrum, n, axis=0)[:length])
    return np.concatenate(out, axis=0)


def _duration_ms(span: dict) -> float:
    return (span["end_ns"] - span["start_ns"]) / 1e6


def step_sums(spans: list[dict]) -> dict[str, float]:
    """Per-step values of SPAN_SUMS, plus the summed stage self time under convolve."""
    by_name: dict[str, list[dict]] = {}
    child_ms: dict[int, float] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
        if s["parent"] is not None:
            child_ms[s["parent"]] = child_ms.get(s["parent"], 0.0) + _duration_ms(s)
    out = {}
    for metric, (names, field) in SPAN_SUMS.items():
        found = [s for name in names for s in by_name.get(name, [])]
        if field == "ms":
            values = [_duration_ms(s) for s in found]
        elif field == "mib":
            found = [s for s in found if "bytes_computed" in s]
            values = [s["bytes_computed"] / MIB for s in found]
        else:
            values = [s[field] for s in found]
        if found:
            out[metric] = float(sum(values))
    # The self times of all spans below convolve sum to the durations of its
    # direct children.
    roots = [s["id"] for s in by_name.get("transform.convolve", []) if s["id"] in child_ms]
    if roots:
        out["stage_self_ms"] = sum(child_ms[r] for r in roots)
    return out


def run_traced(
    workload: Workload,
    seed: int,
    seconds: float,
    span_path: Path | None = None,
    *,
    min_steps: int = 5,
) -> dict:
    """Traced closed loop plus one-off reference paths; returns per-layer metrics."""
    inputs = Inputs(workload, seed)
    gate = Gate(inputs)
    bank = FilterBank(inputs.taps)
    tracer = Tracer()
    k = workload.k
    m1 = dft_matrix(k)

    per_step: list[dict[str, float]] = []
    plain_ms, kgemm_widths, bytes_per_pos = [], [], []
    n = 0
    start = time.perf_counter()
    while n < min_steps or time.perf_counter() - start < seconds:
        lengths = inputs.lengths(n + 1)
        docs = inputs.documents(lengths)
        tracer.step = n
        first_span = len(tracer.spans)
        with instrument(tracer):
            with tracer.span("transform.build_plan"):
                plan = build_plan(lengths, workload.filter_len, k)
            with tracer.span("signal.from_documents"):
                sig = PackedSignal.from_documents(plan.layout, docs)
        tracer.map_names = {
            id(getattr(plan, field)): f"packing.{name}"
            for field, name in (("p1", "load"), ("pre_ifft", "reorder"), ("p2", "unload"))
            if hasattr(plan, field)
        }
        # Untraced and traced convolve, alternating which runs first.
        for traced in ((False, True) if n % 2 == 0 else (True, False)):
            if traced:
                with instrument(tracer), tracer.span("transform.convolve"):
                    out = convolve(plan, sig, bank)
            else:
                t0 = time.perf_counter()
                out = convolve(plan, sig, bank)
                plain_ms.append((time.perf_counter() - t0) * 1e3)
            gate.check("convolve", lengths, out.valid_values())
            del out
        bytes_per_pos.append(ndarray_bytes(plan) / plan.layout.total_padded)

        # The k-point stage's GEMM shape: (k, k) @ (k, m_total * D).
        grid = np.full((k, plan.layout.total_cols * workload.model_dim), 1 + 1j)
        with tracer.span("linalg.kgemm"):
            gemm(m1, grid)
        kgemm_widths.append(grid.shape[1])
        del grid

        with tracer.span("ref.npfft"):
            ref_out = npfft_convolve(lengths, docs, inputs.taps)
        gate.check("ref.npfft", lengths, ref_out)
        del ref_out

        if n == 0:
            # The radix-2 path costs seconds per call: once per run.
            with tracer.span("cooley_tukey.setup"):
                layout = build_ct_layout(lengths, workload.filter_len)
                stage_triples(layout)
                ct_sig = PackedSignal.from_documents(layout, docs)
            with tracer.span("cooley_tukey.ct_convolve"):
                ct_out = ct_convolve(ct_sig, bank, layout)
            gate.check("cooley_tukey", lengths, ct_out.valid_values())
            del ct_sig, ct_out
        per_step.append(step_sums(tracer.spans[first_span:]))
        del plan, sig
        n += 1

    metrics = {}
    for metric in SPAN_SUMS:
        values = [s[metric] for s in per_step if metric in s]
        if values:
            metrics[metric] = statistics.median(values)
    metrics["transform.plan_bytes_per_pos"] = statistics.median(bytes_per_pos)
    plain = statistics.median(plain_ms)
    stage_self = [s["stage_self_ms"] for s in per_step if "stage_self_ms" in s]
    if stage_self:
        metrics["trace.coverage"] = statistics.median(stage_self) / plain
    if "transform.convolve_ms" in metrics:
        metrics["trace.overhead_pct"] = 100.0 * (metrics["transform.convolve_ms"] / plain - 1.0)

    width = statistics.median(kgemm_widths)
    flops = 8.0 * k * k * width  # a complex multiply-add is 8 real flops
    metrics["linalg.kgemm_gflops"] = flops / (metrics["linalg.kgemm_ms"] * 1e-3) / 1e9
    metrics["linalg.kgemm_flop_per_byte"] = flops / (16.0 * (k * k + 2 * k * width))
    metrics["direct.oracle_ms"] = statistics.median(gate.oracle_ms)
    metrics["direct.max_rel_err"] = gate.max_rel_err["convolve"]

    if span_path is not None:
        span_path.parent.mkdir(parents=True, exist_ok=True)
        span_path.write_text(
            json.dumps({"workload": workload.to_dict(), "seed": seed, "env": environment(), "spans": tracer.spans})
        )
    return {
        "metrics": metrics,
        "attempted": gate.checked,
        "failed": gate.failed,
        "reported": {"failed_frac": gate.failed / gate.checked},
        "details": {
            "steps": n,
            "untraced_convolve_ms_p50": plain,
            "max_rel_err": gate.max_rel_err,
            "spans": len(tracer.spans),
        },
    }
