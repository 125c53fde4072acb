import csv
import io
import os
import subprocess
import sys

import numpy as np
import pytest

from rubiconv import bench, build_layout
from rubiconv.bench import (
    BenchConfig,
    DocLenDistribution,
    OracleGateError,
    expand_sweep,
    resolve_doc_lengths,
    run_bench,
    run_config,
    sample_packing,
    write_rows,
)

NON_TIMING = [c for c in bench.CSV_COLUMNS if c not in ("mean_ms", "ci95_ms")]


def small_config(**overrides):
    base = dict(
        algo="rubiconv",
        seq_len=256,
        model_dim=2,
        filter_len=16,
        k=8,
        seed=0,
        trials=2,
        warmup=1,
        doclen_source="fixed:4",
    )
    base.update(overrides)
    return BenchConfig(**base)


def test_sample_packing_exact_fill():
    assert sample_packing(DocLenDistribution((4,)), 12) == [4, 4, 4]


def test_sample_packing_truncates_last_doc():
    assert sample_packing(DocLenDistribution((5,)), 12) == [5, 5, 2]


def test_sample_packing_deterministic():
    dist = DocLenDistribution(tuple(range(1, 50)))
    assert sample_packing(dist, 300, seed=7) == sample_packing(dist, 300, seed=7)


def test_sample_packing_rejects_empty_distribution():
    with pytest.raises(ValueError):
        sample_packing(DocLenDistribution(()), 10)


def test_distribution_rejects_zero_lengths():
    with pytest.raises(ValueError):
        DocLenDistribution((3, 0))


def test_distribution_from_file(tmp_path):
    path = tmp_path / "lengths.txt"
    path.write_text("3\n5\n\n8\n")
    assert DocLenDistribution.from_file(path).lengths == (3, 5, 8)


def test_resolve_fixed_docs_splits_evenly():
    lengths = resolve_doc_lengths(small_config(seq_len=100, doclen_source="fixed:3"))
    assert sum(lengths) == 100 and len(lengths) == 3
    assert max(lengths) - min(lengths) <= 1


def test_resolve_geometric_deterministic():
    cfg = small_config(doclen_source="geometric:20", seq_len=200)
    assert resolve_doc_lengths(cfg) == resolve_doc_lengths(cfg)
    assert sum(resolve_doc_lengths(cfg)) == 200


@pytest.mark.parametrize("algo", bench.ALGORITHMS)
def test_run_config_produces_schema_row(algo):
    row = run_config(small_config(algo=algo))
    assert list(row) == list(bench.CSV_COLUMNS)
    assert row["status"] == "ok"
    assert int(row["complex_muls"]) > 0
    assert float(row["mean_ms"]) > 0


@pytest.mark.parametrize("algo", bench.ALGORITHMS)
def test_non_timing_columns_reproducible(algo):
    cfg = small_config(algo=algo, doclen_source="geometric:30")
    first = run_config(cfg)
    second = run_config(cfg)
    for column in NON_TIMING:
        assert first[column] == second[column]


def test_total_at_least_conv_only(monkeypatch):
    # The total pipeline repeats plan construction and packing on every
    # call, so it does at least the convolution-only work: it builds a plan
    # for the gate run, each warmup and each trial, conv-only builds one.
    built = []
    build_plan = bench.build_plan

    def counted(*args, **kwargs):
        built.append(args)
        return build_plan(*args, **kwargs)

    monkeypatch.setattr(bench, "build_plan", counted)
    common = dict(
        seq_len=2048, model_dim=1, filter_len=16, k=16,
        trials=3, warmup=1, doclen_source="geometric:8",
    )
    run_config(small_config(algo="rubiconv", **common))
    assert len(built) == 1 + 1 + 3
    built.clear()
    run_config(small_config(algo="rubiconv-conv-only", **common))
    assert len(built) == 1


def test_full_matrix_budget_skip_row(monkeypatch):
    from rubiconv import MatrixBudgetExceeded

    def refuse(doc_lengths, taps):
        raise MatrixBudgetExceeded("operator needs 65536 entries (budget 1024)")

    monkeypatch.setattr(bench, "build_operator", refuse)
    row = run_config(small_config(algo="full-matrix"))
    assert row["status"].startswith("skipped:")
    assert row["mean_ms"] == "" and row["complex_muls"] == ""


def test_oracle_gate_failure_raises(monkeypatch):
    original = bench._make_runner

    def corrupted(*args):
        runner = original(*args)
        return lambda: runner() + 1.0

    monkeypatch.setattr(bench, "_make_runner", corrupted)
    with pytest.raises(OracleGateError):
        run_config(small_config())


def test_naive_count_only_row_matches_formula():
    cfg = small_config(algo="naive", seq_len=120, filter_len=1000, model_dim=3, doclen_source="fixed:2", count_only=True)
    row = run_config(cfg)
    assert row["status"] == "count-only"
    assert row["mean_ms"] == ""
    assert int(row["complex_muls"]) == 2 * (60 * 61 // 2) * 3


@pytest.mark.parametrize("algo", bench.ALGORITHMS)
def test_count_only_matches_counted_run(algo):
    # Pins the analytic count-only formulas to what the counters record.
    counted = run_config(small_config(algo=algo, doclen_source="geometric:30"))
    analytic = run_config(small_config(algo=algo, doclen_source="geometric:30", count_only=True))
    assert counted["complex_muls"] == analytic["complex_muls"]
    assert counted["pad_ratio"] == analytic["pad_ratio"]


@pytest.mark.parametrize("algo", ["rubiconv", "rubiconv-conv-only"])
def test_count_only_matches_counted_run_at_a_factored_k(algo):
    # At k = 256 = 16 * 16 convolve runs its k-point stage as two GEMM passes.
    config = dict(algo=algo, seq_len=2048, k=256, filter_len=300, doclen_source="geometric:300")
    cfg = small_config(**config, count_only=True)
    assert max(build_layout(resolve_doc_lengths(cfg), cfg.filter_len, cfg.k).cols_per_doc) > 1
    counted = run_config(small_config(**config, trials=1, warmup=0))
    assert counted["complex_muls"] == run_config(cfg)["complex_muls"]


@pytest.mark.parametrize("model_dim", [1, 3, 5])
@pytest.mark.parametrize("algo", ["rubiconv", "rubiconv-conv-only"])
def test_count_only_matches_counted_run_odd_model_dim(algo, model_dim):
    # An odd channel count pairs its last channel with zero in the inverse.
    config = dict(algo=algo, model_dim=model_dim, doclen_source="geometric:30")
    counted = run_config(small_config(**config))
    analytic = run_config(small_config(**config, count_only=True))
    assert counted["complex_muls"] == analytic["complex_muls"]


def test_pad_ratio_bounds():
    # Grid padding over the causality-padded total: at most 1 + k*n/L_total
    # for the grid transform, at most 2 for the power-of-two variant.
    rng = np.random.default_rng(0)
    for seed in range(8):
        seq_len = int(rng.integers(64, 2048))
        k = int(rng.choice([1, 4, 16, 256]))
        cfg = small_config(
            seq_len=seq_len, k=k, doclen_source="geometric:40",
            seed=seed, count_only=True,
        )
        grid_row = run_config(cfg)
        n_docs = int(grid_row["n_docs"])
        ratio = float(grid_row["pad_ratio"])
        assert ratio <= (seq_len + k * n_docs) / seq_len
        assert ratio <= 2 + k * n_docs / seq_len
        ct_row = run_config(BenchConfig(**{**cfg.__dict__, "algo": "ct"}))
        assert float(ct_row["pad_ratio"]) <= 2.0


def test_sweep_expansion():
    cfgs = expand_sweep(small_config(), "k=4,8,16")
    assert [c.k for c in cfgs] == [4, 8, 16]
    with pytest.raises(ValueError):
        expand_sweep(small_config(), "rows=1,2")


def test_run_bench_k_sweep_emits_row_per_k():
    rows = run_bench(small_config(), "k=4,8,16,32,64")
    assert len(rows) == 5
    assert [int(r["k"]) for r in rows] == [4, 8, 16, 32, 64]
    assert all(r["status"] == "ok" for r in rows)


def test_write_rows_header():
    buffer = io.StringIO()
    write_rows([run_config(small_config())], buffer)
    header = buffer.getvalue().splitlines()[0]
    assert header == "algo,L_total,D,L_F,k,n_docs,mean_ms,ci95_ms,complex_muls,pad_ratio,status"


def _run_cli(*args):
    env = dict(os.environ)
    return subprocess.run(
        [sys.executable, "-m", "rubiconv.bench", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_cli_writes_csv(tmp_path):
    out = tmp_path / "rows.csv"
    proc = _run_cli(
        "--algo", "rubiconv", "--seq-len", "256", "--model-dim", "2",
        "--filter-len", "16", "--k", "8", "--fixed-docs", "4",
        "--trials", "1", "--warmup", "0", "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    with open(out) as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 1 and rows[0]["algo"] == "rubiconv"


def test_cli_doclens_file(tmp_path):
    lengths = tmp_path / "lens.txt"
    lengths.write_text("16\n32\n")
    proc = _run_cli(
        "--algo", "naive", "--seq-len", "128", "--model-dim", "1",
        "--filter-len", "8", "--doclens", str(lengths),
        "--trials", "1", "--warmup", "0",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0].startswith("algo,")


@pytest.mark.parametrize(
    "flags, source",
    [
        (["--doclens", "{lens}"], "file:{lens}"),
        (["--fixed-docs", "3"], "fixed:3"),
        (["--geometric-mean", "20"], "geometric:20"),
        ([], "fixed:8"),
    ],
)
def test_main_source_flags_set_doclen_source(tmp_path, flags, source):
    lens = tmp_path / "lens.txt"
    lens.write_text("5\n17\n30\n")
    out = tmp_path / "rows.csv"
    common = dict(seq_len=96, model_dim=2, filter_len=9, k=8, trials=1, warmup=0)
    argv = [f"--{name.replace('_', '-')}={value}" for name, value in common.items()]
    argv += [flag.format(lens=lens) for flag in flags] + ["--out", str(out)]
    assert bench.main(argv) == 0
    with open(out) as handle:
        (written,) = list(csv.DictReader(handle))
    expected = run_config(BenchConfig("rubiconv", doclen_source=source.format(lens=lens), **common))
    for column in NON_TIMING:
        assert written[column] == str(expected[column])


def test_cli_sweep_stdout():
    proc = _run_cli(
        "--algo", "ct", "--seq-len", "128", "--model-dim", "1", "--filter-len", "4",
        "--fixed-docs", "2", "--trials", "1", "--warmup", "0",
        "--sweep", "seq-len=128,256",
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 3  # header + 2 rows


def test_cli_rejects_unknown_algo():
    proc = _run_cli("--algo", "winograd")
    assert proc.returncode == 2


def test_cli_rejects_bad_dimensions():
    proc = _run_cli("--seq-len", "0")
    assert proc.returncode == 2
    assert "error" in proc.stderr


def test_main_returns_nonzero_on_gate_failure(monkeypatch, capsys):
    def explode(cfg, sweep=None):
        raise bench.OracleGateError("rubiconv", 0.5)

    monkeypatch.setattr(bench, "run_bench", explode)
    assert bench.main(["--algo", "rubiconv"]) == 1
    assert "oracle gate failed" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--doclens", "--out"])
def test_main_exits_2_on_a_file_it_cannot_read_or_write(tmp_path, capsys, flag):
    # A path that cannot be read or written is a bad flag, not a gate failure.
    missing = tmp_path / "no-such-dir" / "file"
    assert bench.main(["--count-only", "--seq-len", "64", flag, str(missing)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not missing.parent.exists()


def test_main_leaves_other_io_errors_of_the_run_as_they_are(monkeypatch):
    # Only --doclens and --out are flags; an I/O error inside the run is not.
    def fail(cfg, sweep=None):
        raise OSError("disk went away")

    monkeypatch.setattr(bench, "run_bench", fail)
    with pytest.raises(OSError, match="disk went away"):
        bench.main(["--count-only"])
