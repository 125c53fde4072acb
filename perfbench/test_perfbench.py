"""Tests of the benchmark itself: input generator, oracle gate, tracer, metric names.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import harness  # noqa: E402
import tracing  # noqa: E402
from rubiconv import FilterBank, PackedSignal, build_plan, convolve, count_ops  # noqa: E402
from workloads import WORKLOADS, Inputs, Workload  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = Workload("tiny", 512, 2, 16, 8, geometric_mean=24)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_for_a_fixed_seed(name):
    workload = WORKLOADS[name]
    a, b, other = Inputs(workload, 7), Inputs(workload, 7), Inputs(workload, 8)
    assert np.array_equal(a.pool, b.pool)
    assert np.array_equal(a.taps, b.taps)
    assert not np.array_equal(a.pool, other.pool)
    for index in range(3):
        lengths = a.lengths(index)
        assert lengths == b.lengths(index)
        assert sum(lengths) == workload.seq_len
        assert min(lengths) >= 1
    assert (a.lengths(1) != a.lengths(2)) == workload.fresh_packing


def test_workload_names_match_benchmark_json():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in BENCHMARK["workloads"])


def leaky_convolve(plan, sig, bank):
    """One whole-buffer circular FFT convolution: documents bleed into each other."""
    n = sig.values.shape[0]
    taps = np.zeros((n, bank.channels))
    taps[: min(n, bank.filter_len)] = bank.taps[:n]
    full = np.fft.irfft(np.fft.rfft(sig.values, axis=0) * np.fft.rfft(taps, axis=0), n, axis=0)
    values = np.zeros_like(sig.values)
    for off, length in zip(plan.layout.span_offsets, plan.layout.doc_lengths):
        values[off : off + length] = full[off : off + length]
    return PackedSignal(values, plan.layout)


def test_leaking_convolution_is_caught():
    result = harness.run_end_to_end(
        TINY, 0, 0.0, convolve_fn=leaky_convolve, setup_reps=0, passes=1, min_steps=3
    )
    assert result["failed"] > 0
    assert result["reported"]["failed_frac"] > 0
    assert result["details"]["max_rel_err"]["convolve"] > harness.GATE_REL_TOL


def _expected(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_end_to_end_metrics_match_benchmark_json():
    assert harness.END_TO_END_UNITS == _expected("end_to_end")
    result = harness.run_end_to_end(TINY, 0, 0.0, setup_reps=1, passes=1, min_steps=3)
    assert result["failed"] == 0
    assert result["attempted"] >= 3
    assert set(result["metrics"]) == set(harness.END_TO_END_UNITS)
    assert all(value > 0 for value in result["metrics"].values())


def test_per_layer_metrics_match_benchmark_json(tmp_path):
    assert tracing.PER_LAYER_UNITS == _expected("per_layer")
    span_file = tmp_path / "spans.json"
    result = tracing.run_traced(TINY, 0, 0.0, span_file, min_steps=2)
    assert result["failed"] == 0
    assert set(result["metrics"]) == set(tracing.PER_LAYER_UNITS)
    spans = json.loads(span_file.read_text())["spans"]
    assert {s["step"] for s in spans} == {0, 1}
    assert all(s["end_ns"] >= s["start_ns"] for s in spans)


def test_traced_convolve_spans_and_counts():
    inputs = Inputs(TINY, 3)
    lengths = inputs.lengths(0)
    plan = build_plan(lengths, TINY.filter_len, TINY.k)
    sig = PackedSignal.from_documents(plan.layout, inputs.documents(lengths))
    bank = FilterBank(inputs.taps)
    with count_ops() as counts:
        expected = convolve(plan, sig, bank)

    tracer = tracing.Tracer()
    tracer.map_names = {id(plan.p1): "packing.load", id(plan.pre_ifft): "packing.reorder", id(plan.p2): "packing.unload"}
    with tracing.instrument(tracer), tracer.span("transform.convolve") as root:
        got = convolve(plan, sig, bank)
    assert np.array_equal(got.values, expected.values)
    assert root["complex_muls"] == counts.complex_muls
    children = [s["name"] for s in tracer.spans if s["parent"] == root["id"]]
    assert children == [
        "signal.embed_filter",
        "packing.load",
        "transform.grid_fwd",
        "transform.split",
        "packing.reorder",
        "transform.grid_inv",
        "packing.unload",
    ]
    # The wrappers are removed again.
    assert not hasattr(convolve.__globals__["transform_grid"], "__wrapped__")


def test_ndarray_bytes_counts_shared_arrays_once():
    @dataclass
    class Holder:
        a: np.ndarray
        b: tuple

    base = np.zeros(100)
    assert harness.ndarray_bytes(Holder(base, (base, base[10:], {"x": np.ones(3)}))) == 800 + 24


def test_tail_has_ten_samples_beyond_it():
    value, pct = harness.tail([float(v) for v in range(40)])
    assert value == 29.0
    assert pct == 75.0


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "mixed-1k", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
