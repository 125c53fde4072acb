"""Multiplication counters, attributed per thread and per task.

Wall-clock numbers do not transfer between machines; multiplication counts
do.  Every compute kernel in this package reports its semantic cost here so
benchmarks and scaling tests can compare algorithms by counted work.
Counting is a no-op unless a ``count_ops`` block is active in the calling
context: each thread (and each asyncio task) sees only the blocks it opened
itself, so concurrent callers never tally each other's work.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterator


@dataclass
class OpCounts:
    """Tallies recorded while a ``count_ops`` block is active.

    complex_muls: scalar complex multiplications (one per product inside a
        GEMM or Hadamard step).
    real_muls: real multiplications; a complex product contributes 4 in
        standard mode and 3 in karatsuba mode, a real multiply-accumulate
        in the direct baselines contributes 1.
    built_elements: elements written while constructing layout-adaptive
        structures (twiddles, block DFT matrices, the maps' column blocks).
    """

    complex_muls: int = 0
    real_muls: int = 0
    built_elements: int = 0


_ACTIVE: ContextVar[tuple[OpCounts, ...]] = ContextVar("rubiconv_active_counts", default=())


@contextmanager
def count_ops() -> Iterator[OpCounts]:
    """Collect operation counts for everything this context executes inside the block."""
    counts = OpCounts()
    _ACTIVE.set(_ACTIVE.get() + (counts,))
    try:
        yield counts
    finally:
        # By identity: OpCounts compare by value, and a nested block's
        # tallies can equal its parent's.
        _ACTIVE.set(tuple(c for c in _ACTIVE.get() if c is not counts))


def add_complex_muls(n: int, real_muls_each: int = 4) -> None:
    active = _ACTIVE.get()
    if active:
        n = int(n)
        for counts in active:
            counts.complex_muls += n
            counts.real_muls += n * real_muls_each


def add_real_muls(n: int) -> None:
    active = _ACTIVE.get()
    if active:
        n = int(n)
        for counts in active:
            counts.real_muls += n


def add_built_elements(n: int) -> None:
    active = _ACTIVE.get()
    if active:
        n = int(n)
        for counts in active:
            counts.built_elements += n
