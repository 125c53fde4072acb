"""Cold set-up time of one packing, measured in a fresh interpreter.

Usage: setup_probe.py WORKLOAD_JSON SEED INDEX

Times what a user pays before the first steady call: importing
``rubiconv``, wrapping the taps, the first ``build_plan``, the first
``PackedSignal.from_documents`` and the first (cold) ``convolve``.  Input
generation happens before the timer starts.  Prints {"setup_s": ...}.
The parent process sets the BLAS thread count and gates the same packing.
"""

import json
import sys
import time
from pathlib import Path

from workloads import Inputs, Workload


def main(argv: list[str]) -> int:
    workload = Workload(**json.loads(argv[0]))
    inputs = Inputs(workload, int(argv[1]))
    lengths = inputs.lengths(int(argv[2]))
    docs = inputs.documents(lengths)
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

    start = time.perf_counter()
    import rubiconv

    bank = rubiconv.FilterBank(inputs.taps)
    plan = rubiconv.build_plan(lengths, workload.filter_len, workload.k)
    sig = rubiconv.PackedSignal.from_documents(plan.layout, docs)
    rubiconv.convolve(plan, sig, bank)
    elapsed = time.perf_counter() - start
    print(json.dumps({"setup_s": elapsed}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
