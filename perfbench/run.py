"""rubiconv benchmark: convolve latency, plan cost and memory per packing regime.

Run from the repository root:

    python3 perfbench/run.py --workload mixed-1k --seed 1 --seconds 28 --trace 0

``--trace 0`` runs the untraced closed loop and prints the end-to-end
metrics; ``--trace 1`` runs the traced loop and prints the per-layer
metrics, and writes the spans to ``perfbench/out/``.  Every output is
checked against the direct causal oracle.  Human-readable lines come
first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The benchmark imports the library from ``src/`` of the same checkout and
exits with status 2, printing no result, when it is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
# Printed and recorded, but not bounded metrics of BENCHMARK.json: a failure
# share is 0 when all is well, and build_plan medians move by more than any
# allowed bound with the speed of the machine (plan cost still reaches
# tokens_per_s and setup_s).
REPORTED_UNITS = {"plan_ms_p50": "ms", "failed_frac": "ratio"}
LOAD = "closed loop: one process, one caller, each call starts when the previous returns"


def blas_threads() -> int:
    """One BLAS thread per core, at most two."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(2, cores or 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rubiconv" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    # The thread count must be fixed before numpy is first imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(blas_threads())
    sys.path.insert(0, str(SRC))

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}, one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    from harness import END_TO_END_UNITS, environment, run_end_to_end
    from tracing import PER_LAYER_UNITS, run_traced

    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        result = run_traced(workload, args.seed, args.seconds, OUT / f"spans-{tag}.json")
        units = PER_LAYER_UNITS
    else:
        result = run_end_to_end(workload, args.seed, args.seconds)
        units = END_TO_END_UNITS
    metrics = {
        name: {"value": result["metrics"][name], "unit": units[name]}
        for name in units
        if name in result["metrics"]
    }

    env = environment()
    record = {"workload": workload.to_dict(), "seed": args.seed, "load": LOAD, "env": env}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{tag}.json").write_text(json.dumps({**record, **result, "metrics": metrics}, indent=1))
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}, {LOAD}")
    print("env " + json.dumps(env))
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    for name, value in result["reported"].items():
        print(f"  {name:32s} {value:.6g} {REPORTED_UNITS[name]} (reported, no bound)")
    print("details " + json.dumps(result["details"]))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
