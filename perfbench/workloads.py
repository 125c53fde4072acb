"""Benchmark workloads and their input generator.

The generator lives here, not in the library, so that no change to
``rubiconv`` can change what the benchmark feeds it: the library only ever
receives the arrays built below.  Everything is a pure function of the
workload and the ``--seed`` argument.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    """One fixed packing regime.

    Exactly one of ``geometric_mean`` (i.i.d. geometric document lengths,
    a fresh packing every step) and ``equal_docs`` (that many equal
    documents, the same packing every step) is set.
    """

    name: str
    seq_len: int  # L, tokens in the packed buffer
    model_dim: int  # D, channels
    filter_len: int  # L_F
    k: int  # grid rows
    geometric_mean: float | None = None
    equal_docs: int | None = None

    def __post_init__(self):
        if (self.geometric_mean is None) == (self.equal_docs is None):
            raise ValueError("set exactly one of geometric_mean and equal_docs")
        if min(self.seq_len, self.model_dim, self.filter_len, self.k) < 1:
            raise ValueError("all dimensions must be >= 1")

    @property
    def fresh_packing(self) -> bool:
        return self.geometric_mean is not None

    def to_dict(self) -> dict:
        return asdict(self)


WORKLOADS = {
    w.name: w
    for w in (
        # The library's baseline config.  About 30 documents, so Python
        # per-document loops are cheap and the time goes to data movement
        # and the k-point GEMM.  Control for short-docs.
        Workload("mixed-1k", 16384, 64, 1024, 256, geometric_mean=512),
        # About 1000 tiny documents: per-document Python work (plan
        # building, the block loop) dominates and the buffer load is small.
        # Control for mixed-1k.
        Workload("short-docs", 32768, 8, 64, 64, geometric_mean=32),
        # Four equal documents with a full-length (Hyena-style) filter:
        # bound by GEMM.  The only workload whose packing repeats every
        # step, as when training on fixed-length chunks, so a plan cache
        # can only show a gain here.
        Workload("long-docs", 65536, 16, 65536, 256, equal_docs=4),
    )
}


def sample_lengths(rng: np.random.Generator, total: int, mean: float) -> list[int]:
    """Greedy geometric fill: draw lengths until they reach ``total``.

    The last document is cut so that the lengths sum to ``total`` exactly.
    """
    draws: list[int] = []
    filled = 0
    chunk = max(16, int(2 * total / mean))
    while filled < total:
        for d in rng.geometric(1.0 / mean, size=chunk).tolist():
            draws.append(min(d, total - filled))
            filled += draws[-1]
            if filled == total:
                break
    return draws


class Inputs:
    """All inputs of one run: packings, document values and filter taps.

    Packing ``i`` is drawn from its own stream, so any packing can be
    regenerated on its own (the cold set-up probes run in other processes).
    Document values are slices of one (L, D) pool, so every packing of a
    run covers the same tokens with different boundaries.
    """

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = int(seed)
        rng = np.random.default_rng([self.seed, 0])
        self.pool = rng.standard_normal((workload.seq_len, workload.model_dim))
        self.taps = rng.standard_normal((workload.filter_len, workload.model_dim))

    def lengths(self, index: int) -> list[int]:
        w = self.workload
        if not w.fresh_packing:
            base, rem = divmod(w.seq_len, w.equal_docs)
            return [base + 1] * rem + [base] * (w.equal_docs - rem)
        rng = np.random.default_rng([self.seed, 1, int(index)])
        return sample_lengths(rng, w.seq_len, w.geometric_mean)

    def documents(self, lengths: list[int]) -> list[np.ndarray]:
        """Per-document (L_i, D) views of the pool."""
        return np.split(self.pool, np.cumsum(lengths)[:-1])
