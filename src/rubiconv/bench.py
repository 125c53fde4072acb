"""Benchmark runner: oracle-gated timing and op-count CSV reports.

Every timed configuration is first checked once against the brute-force
causal oracle; a mismatch aborts the run.  Wall-clock means come with
normal-approximation 95% confidence intervals, but the primary
cross-machine metric is the counted multiplication work, recorded in the
``complex_muls`` column (complex multiplications for the transform
algorithms, real multiply-accumulates for the real-valued baselines).

CSV schema:
    algo,L_total,D,L_F,k,n_docs,mean_ms,ci95_ms,complex_muls,pad_ratio,status
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .cooley_tukey import build_ct_layout, ct_convolve
from .counting import count_ops
from .direct import (
    MatrixBudgetExceeded,
    build_operator,
    causal_mac_count,
    oracle_convolve,
)
from .packing import build_layout
from .signal import FilterBank, PackedSignal
from .transform import build_plan, convolve

ALGORITHMS = ("rubiconv", "rubiconv-conv-only", "ct", "full-matrix", "naive")
CSV_COLUMNS = (
    "algo",
    "L_total",
    "D",
    "L_F",
    "k",
    "n_docs",
    "mean_ms",
    "ci95_ms",
    "complex_muls",
    "pad_ratio",
    "status",
)
ORACLE_GATE_TOL = 1e-8
SWEEP_PARAMS = {"seq-len": "seq_len", "model-dim": "model_dim", "filter-len": "filter_len", "k": "k"}


class OracleGateError(RuntimeError):
    """An algorithm's output disagreed with the causal oracle before timing."""

    def __init__(self, algo: str, max_rel_error: float):
        self.algo = algo
        self.max_rel_error = max_rel_error
        super().__init__(
            f"oracle gate failed for {algo!r}: max relative error "
            f"{max_rel_error:.3e} exceeds {ORACLE_GATE_TOL:.1e}"
        )


@dataclass(frozen=True)
class BenchConfig:
    """One benchmark experiment."""

    algo: str
    seq_len: int
    model_dim: int
    filter_len: int
    k: int = 256
    seed: int = 0
    trials: int = 5
    warmup: int = 5
    doclen_source: str = "fixed:8"
    count_only: bool = False

    def __post_init__(self):
        if self.algo not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algo!r}, expected one of {ALGORITHMS}")
        if min(self.seq_len, self.model_dim, self.filter_len, self.k) < 1:
            raise ValueError("all dimensions must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.warmup < 0:
            raise ValueError("warmup must be >= 0")


@dataclass(frozen=True)
class DocLenDistribution:
    """Multiset of document lengths to draw packings from."""

    lengths: tuple[int, ...]

    def __post_init__(self):
        if any(length < 1 for length in self.lengths):
            raise ValueError("all document lengths must be >= 1")

    @classmethod
    def from_file(cls, path: str | Path) -> "DocLenDistribution":
        """Load lengths from a plain-text file, one positive integer per line."""
        values = []
        for line in Path(path).read_text().splitlines():
            line = line.strip()
            if line:
                values.append(int(line))
        return cls(tuple(values))

    @classmethod
    def geometric(cls, mean: float, size: int = 4096, seed: int = 0) -> "DocLenDistribution":
        """Synthesize a multiset from a geometric distribution with the given mean."""
        if mean < 1:
            raise ValueError("geometric mean must be >= 1")
        rng = np.random.default_rng(seed)
        return cls(tuple(int(v) for v in rng.geometric(1.0 / mean, size=size)))


def sample_packing(dist: DocLenDistribution, target_total: int, seed: int = 0) -> list[int]:
    """Greedy fill: draw lengths i.i.d. until the packing reaches target_total.

    The final document is truncated so the lengths sum to target_total
    exactly.  Deterministic for a fixed seed.
    """
    if not dist.lengths:
        raise ValueError("cannot sample from an empty document length distribution")
    if target_total < 1:
        raise ValueError("target_total must be >= 1")
    rng = np.random.default_rng(seed)
    pool = np.asarray(dist.lengths)
    out: list[int] = []
    total = 0
    while total < target_total:
        draw = int(pool[rng.integers(len(pool))])
        draw = min(draw, target_total - total)
        out.append(draw)
        total += draw
    return out


def resolve_doc_lengths(cfg: BenchConfig) -> list[int]:
    """Turn a config's doclen_source into concrete document lengths."""
    source, _, arg = cfg.doclen_source.partition(":")
    if source == "fixed":
        n_docs = int(arg)
        if not 1 <= n_docs <= cfg.seq_len:
            raise ValueError(f"fixed doc count {n_docs} not in [1, {cfg.seq_len}]")
        base, rem = divmod(cfg.seq_len, n_docs)
        return [base + 1] * rem + [base] * (n_docs - rem)
    if source == "file":
        return sample_packing(DocLenDistribution.from_file(arg), cfg.seq_len, cfg.seed)
    if source == "geometric":
        dist = DocLenDistribution.geometric(float(arg), seed=cfg.seed)
        return sample_packing(dist, cfg.seq_len, cfg.seed)
    raise ValueError(f"unknown doclen source {cfg.doclen_source!r}")


def make_inputs(
    doc_lengths: Sequence[int], model_dim: int, filter_len: int, seed: int
) -> tuple[list[np.ndarray], np.ndarray]:
    """Random documents and filter taps; identical across algorithms per seed."""
    rng = np.random.default_rng(seed)
    docs = [rng.standard_normal((length, model_dim)) for length in doc_lengths]
    taps = rng.standard_normal((filter_len, model_dim))
    return docs, taps


def _run_oracle(doc_lengths, docs, taps) -> np.ndarray:
    packed = np.concatenate(docs, axis=0)
    return np.stack(
        [oracle_convolve(doc_lengths, packed[:, d], taps[:, d]) for d in range(packed.shape[1])],
        axis=1,
    )


def _pad_ratio(span_lengths, doc_lengths, filter_len) -> float:
    causal = sum(length + min(length, filter_len) - 1 for length in doc_lengths)
    return sum(span_lengths) / causal


def _make_runner(cfg: BenchConfig, doc_lengths, docs, taps) -> tuple[Callable[[], np.ndarray], float]:
    """Build the timed callable and the padding ratio for one config."""
    bank = FilterBank(taps)
    if cfg.algo == "rubiconv":
        layout = build_layout(doc_lengths, cfg.filter_len, cfg.k)
        ratio = _pad_ratio(layout.span_lengths, doc_lengths, cfg.filter_len)

        def run() -> np.ndarray:
            plan = build_plan(doc_lengths, cfg.filter_len, cfg.k)
            sig = PackedSignal.from_documents(plan.layout, docs)
            return convolve(plan, sig, bank).valid_values()

        return run, ratio

    if cfg.algo == "rubiconv-conv-only":
        plan = build_plan(doc_lengths, cfg.filter_len, cfg.k)
        sig = PackedSignal.from_documents(plan.layout, docs)
        ratio = _pad_ratio(plan.layout.span_lengths, doc_lengths, cfg.filter_len)
        return lambda: convolve(plan, sig, bank).valid_values(), ratio

    if cfg.algo == "ct":
        layout = build_ct_layout(doc_lengths, cfg.filter_len)
        sig = PackedSignal.from_documents(layout, docs)
        ratio = _pad_ratio(layout.span_lengths, doc_lengths, cfg.filter_len)
        return lambda: ct_convolve(sig, bank, layout).valid_values(), ratio

    if cfg.algo == "full-matrix":
        operators = [build_operator(doc_lengths, taps[:, d]) for d in range(cfg.model_dim)]
        packed = np.concatenate(docs, axis=0)

        def run() -> np.ndarray:
            return np.stack(
                [op.apply(packed[:, d]) for d, op in enumerate(operators)], axis=1
            )

        return run, 1.0

    # naive: iterate documents, direct causal convolution per channel.
    return lambda: _run_oracle(doc_lengths, docs, taps), 1.0


def _analytic_count(cfg: BenchConfig, doc_lengths) -> int:
    """Closed-form op count of one run; must track what the counters record.

    ``test_bench`` pins each formula against a counted run, so count-only
    sweep rows stay honest without executing large configurations.
    """
    if cfg.algo == "naive":
        per_channel = sum(causal_mac_count(length, cfg.filter_len) for length in doc_lengths)
        return per_channel * cfg.model_dim
    if cfg.algo == "full-matrix":
        return sum(length * length for length in doc_lengths) * cfg.model_dim
    if cfg.algo == "ct":
        layout = build_ct_layout(doc_lengths, cfg.filter_len)
        # Three masked transforms at 3*N per stage, plus the point-wise product.
        per_channel = layout.total_padded * (9 * layout.max_log2 + 1)
        return per_channel * cfg.model_dim
    # rubiconv / rubiconv-conv-only: a forward grid transform over D
    # channels (dual-real packing), a paired inverse over ceil(D/2), and
    # 3 muls per cell and channel for the conjugate-symmetry recovery and
    # the point-wise product.
    layout = build_layout(doc_lengths, cfg.filter_len, cfg.k)
    k, m_total, d = cfg.k, layout.total_cols, cfg.model_dim
    transform = k * k * m_total + k * sum(m * m for m in layout.cols_per_doc) + k * m_total
    return (d + (d + 1) // 2) * transform + 3 * k * m_total * d


def run_config(cfg: BenchConfig) -> dict:
    """Run one configuration: oracle gate, counts, timing.  Returns a CSV row."""
    doc_lengths = resolve_doc_lengths(cfg)
    row = {
        "algo": cfg.algo,
        "L_total": cfg.seq_len,
        "D": cfg.model_dim,
        "L_F": cfg.filter_len,
        "k": cfg.k,
        "n_docs": len(doc_lengths),
        "mean_ms": "",
        "ci95_ms": "",
        "complex_muls": "",
        "pad_ratio": "",
        "status": "ok",
    }

    if cfg.count_only:
        if cfg.algo in ("rubiconv", "rubiconv-conv-only"):
            layout = build_layout(doc_lengths, cfg.filter_len, cfg.k)
            ratio = _pad_ratio(layout.span_lengths, doc_lengths, cfg.filter_len)
        elif cfg.algo == "ct":
            layout = build_ct_layout(doc_lengths, cfg.filter_len)
            ratio = _pad_ratio(layout.span_lengths, doc_lengths, cfg.filter_len)
        else:
            ratio = 1.0
        row["complex_muls"] = _analytic_count(cfg, doc_lengths)
        row["pad_ratio"] = f"{ratio:.6f}"
        row["status"] = "count-only"
        return row

    docs, taps = make_inputs(doc_lengths, cfg.model_dim, cfg.filter_len, cfg.seed)
    try:
        runner, ratio = _make_runner(cfg, doc_lengths, docs, taps)
    except MatrixBudgetExceeded as exc:
        row["status"] = f"skipped: {exc}".replace(",", ";")
        return row
    row["pad_ratio"] = f"{ratio:.6f}"

    # Oracle gate: one counted run, compared against the direct baseline.
    with count_ops() as counts:
        out = runner()
    reference = _run_oracle(doc_lengths, docs, taps)
    scale = max(float(np.max(np.abs(reference))), 1e-300)
    max_rel = float(np.max(np.abs(out - reference))) / scale
    if max_rel > ORACLE_GATE_TOL:
        raise OracleGateError(cfg.algo, max_rel)
    row["complex_muls"] = (
        counts.complex_muls if cfg.algo in ("rubiconv", "rubiconv-conv-only", "ct") else counts.real_muls
    )

    for _ in range(cfg.warmup):
        runner()
    times_ms = []
    for _ in range(cfg.trials):
        start = time.perf_counter()
        runner()
        times_ms.append((time.perf_counter() - start) * 1e3)
    mean = float(np.mean(times_ms))
    ci95 = 1.96 * float(np.std(times_ms, ddof=1)) / math.sqrt(cfg.trials) if cfg.trials > 1 else 0.0
    row["mean_ms"] = f"{mean:.6f}"
    row["ci95_ms"] = f"{ci95:.6f}"
    return row


def expand_sweep(cfg: BenchConfig, sweep: str | None) -> list[BenchConfig]:
    """Expand ``--sweep param=v1,v2,...`` into one config per value."""
    if not sweep:
        return [cfg]
    param, _, values = sweep.partition("=")
    param = param.strip()
    if param not in SWEEP_PARAMS or not values:
        raise ValueError(
            f"sweep must look like <param>=<v1,v2,...> with param in "
            f"{sorted(SWEEP_PARAMS)}, got {sweep!r}"
        )
    field = SWEEP_PARAMS[param]
    return [replace(cfg, **{field: int(v)}) for v in values.split(",")]


def run_bench(cfg: BenchConfig, sweep: str | None = None) -> list[dict]:
    """Run a config (or a one-parameter sweep of it) and return CSV rows."""
    return [run_config(c) for c in expand_sweep(cfg, sweep)]


def write_rows(rows: Sequence[dict], stream) -> None:
    writer = csv.DictWriter(stream, fieldnames=CSV_COLUMNS)
    writer.writeheader()
    for row in rows:
        writer.writerow(row)


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rubiconv-bench",
        description="Benchmark boundary-respecting packed convolutions.",
    )
    parser.add_argument("--algo", choices=ALGORITHMS, default="rubiconv")
    parser.add_argument("--seq-len", type=int, default=4096, help="packed total length")
    parser.add_argument("--model-dim", type=int, default=8, help="channels D")
    parser.add_argument("--filter-len", type=int, default=128)
    parser.add_argument("--k", type=int, default=256, help="grid row count")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=int, default=5)
    parser.add_argument("--warmup", type=int, default=5)
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--doclens", metavar="PATH", help="length file, one integer per line")
    source.add_argument("--fixed-docs", type=int, metavar="N", help="N near-equal documents")
    source.add_argument(
        "--geometric-mean", type=float, metavar="M", help="geometric lengths with mean M"
    )
    parser.add_argument("--sweep", metavar="PARAM=V1,V2,...", help=f"sweep one of {sorted(SWEEP_PARAMS)}")
    parser.add_argument("--out", default="-", help="CSV output path, '-' for stdout")
    parser.add_argument(
        "--count-only",
        action="store_true",
        help="skip gate and timing, record op counts only",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    if args.doclens is not None:
        source = f"file:{args.doclens}"
    elif args.fixed_docs is not None:
        source = f"fixed:{args.fixed_docs}"
    elif args.geometric_mean is not None:
        source = f"geometric:{args.geometric_mean}"
    else:
        source = "fixed:8"
    try:
        cfg = BenchConfig(
            algo=args.algo,
            seq_len=args.seq_len,
            model_dim=args.model_dim,
            filter_len=args.filter_len,
            k=args.k,
            seed=args.seed,
            trials=args.trials,
            warmup=args.warmup,
            doclen_source=source,
            count_only=args.count_only,
        )
        rows = run_bench(cfg, args.sweep)
    except OracleGateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out == "-":
        write_rows(rows, sys.stdout)
    else:
        with open(args.out, "w", newline="") as handle:
            write_rows(rows, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
