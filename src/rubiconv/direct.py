"""Exact quadratic baselines: block-diagonal operators and the causal oracle.

These anchor every tolerance in the repository.  Inputs and filters are
real, and the baselines stay in the real field so they cannot mask bugs in
the complex transform paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import counting
from .linalg import _whole

# Sum of block entries above which operator construction refuses to run.
DEFAULT_MATRIX_BUDGET = 2**28


class MatrixBudgetExceeded(RuntimeError):
    """Raised when sum(L_b^2) block entries would exceed the memory budget."""


def causal_mac_count(length: int, filter_len: int) -> int:
    """Multiply-accumulates of the direct causal convolution on one document."""
    taps = min(filter_len, length)
    return taps * (taps - 1) // 2 + (length - taps + 1) * taps


@dataclass(frozen=True, eq=False)
class BlockDiagOperator:
    """diag(A_1, ..., A_B): one dense convolution matrix per document.

    The operator cannot mix documents by construction; block b acts only on
    the input segment of document b.
    """

    blocks: tuple[np.ndarray, ...]
    doc_lengths: tuple[int, ...]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Per-document matvec, y = Ax, at cost sum(L_b^2) real MACs."""
        x = np.asarray(x, dtype=np.float64)
        total = sum(self.doc_lengths)
        if x.shape != (total,):
            raise ValueError(f"expected a packed vector of length {total}, got {x.shape}")
        out = np.empty(total, dtype=np.float64)
        pos = 0
        for block, length in zip(self.blocks, self.doc_lengths):
            out[pos : pos + length] = block @ x[pos : pos + length]
            pos += length
        counting.add_real_muls(sum(length * length for length in self.doc_lengths))
        return out


def build_operator(
    doc_lengths: Sequence[int],
    taps: np.ndarray,
    max_entries: int = DEFAULT_MATRIX_BUDGET,
) -> BlockDiagOperator:
    """Materialize one convolution matrix per document for a single channel.

    Each block is the lower-triangular banded Toeplitz matrix of the causal
    linear convolution.
    """
    lengths = tuple(_whole(x, "document length") for x in doc_lengths)
    taps = np.asarray(taps, dtype=np.float64).ravel()
    if any(length < 1 for length in lengths):
        raise ValueError("document lengths must be >= 1")
    entries = sum(length * length for length in lengths)
    if entries > max_entries:
        raise MatrixBudgetExceeded(
            f"operator needs {entries} entries (budget {max_entries})"
        )
    blocks = []
    for length in lengths:
        block = np.zeros((length, length), dtype=np.float64)
        for tau in range(min(len(taps), length)):
            rows = np.arange(tau, length)
            block[rows, rows - tau] = taps[tau]
        blocks.append(block)
    counting.add_built_elements(entries)
    return BlockDiagOperator(blocks=tuple(blocks), doc_lengths=lengths)


def oracle_convolve(doc_lengths: Sequence[int], x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Ground truth: y[t] = sum_{tau <= min(t, L_F-1)} f[tau] * x[t - tau] per document.

    Direct summation in O(L * L_F); taps beyond a document's length never
    enter the sum.
    """
    lengths = tuple(_whole(v, "document length") for v in doc_lengths)
    x = np.asarray(x, dtype=np.float64)
    taps = np.asarray(taps, dtype=np.float64).ravel()
    total = sum(lengths)
    if x.shape != (total,):
        raise ValueError(f"expected a packed vector of length {total}, got {x.shape}")
    out = np.empty(total, dtype=np.float64)
    pos = 0
    for length in lengths:
        n_taps = min(len(taps), length)
        out[pos : pos + length] = np.convolve(x[pos : pos + length], taps[:n_taps])[:length]
        counting.add_real_muls(causal_mac_count(length, len(taps)))
        pos += length
    return out
