"""Geometry of a packed batch: padded lengths and the grid's index maps.

A packed batch lays n variable-length documents end to end in one buffer.
Each document is first extended by min(L_i, L_F) - 1 zeros so that a
frequency-domain product yields a linear (non-circular) causal convolution,
then padded to the next multiple of k.  The padded batch is viewed as a
k x m_total grid in which document i owns m_i = L_i'/k whole columns, so no
grid column ever mixes two documents.

The buffer keeps the documents in the caller's order; the grid does not.
Its column blocks are sorted by width m_i, stably, so documents of equal
width keep their order and every width group is one contiguous run of
columns, which the transform's block stage runs as a few stacked GEMMs.
``width_groups`` lists those runs, each with the rows and columns past
which its documents hold only causal padding.

Data moves between the buffer and the grid through three gathers.  ``p1``
loads the buffer row-major per document block.  A transformed grid is
cell-major: an (m_total, k) array whose column c is one contiguous row, so
each document's spectrum is one contiguous run in natural frequency order.
``pre_ifft`` loads such a spectrum row-major per block, as ``p1`` loads
the buffer, and ``p2`` copies each document's run into its whole padded
span.  Each is an ``IndexMap`` holding one source index per destination
element, so applying it is a single ``take``.  Building them is linear in
the grid size, with no per-document Python loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import counting
from .linalg import _whole

DEFAULT_K = 256  # grid rows, the k-point DFT size, when a caller gives no k


@dataclass(frozen=True)
class PackedLayout:
    """Derived geometry for one packed batch.  Immutable once built.

    padded_lengths[i] = k * ceil((L_i + min(L_i, L_F) - 1) / k), so every
    document occupies cols_per_doc[i] = padded_lengths[i] / k whole columns
    of the k x total_cols grid, starting at column col_offsets[i].  Column
    blocks are in width order (stable in document order), while the span
    of document i in the packed buffer starts at pos_offsets[i], in
    document order.
    """

    doc_lengths: tuple[int, ...]
    filter_len: int
    k: int
    padded_lengths: tuple[int, ...]
    cols_per_doc: tuple[int, ...]
    col_offsets: tuple[int, ...]
    total_cols: int
    total_padded: int
    pos_offsets: tuple[int, ...]

    @property
    def n_docs(self) -> int:
        return len(self.doc_lengths)

    # Span protocol shared with CtLayout: where each document's padded
    # values live inside the flat packed buffer.
    @property
    def span_lengths(self) -> tuple[int, ...]:
        return self.padded_lengths

    @property
    def span_offsets(self) -> tuple[int, ...]:
        return self.pos_offsets


@dataclass(frozen=True, eq=False)
class IndexMap:
    """A gather: flat destination element j takes flat source element src_flat[j].

    Every map the library builds writes each destination exactly once, so
    applying it is one ``take``.  Shapes are recorded so a map can be
    applied to arrays carrying extra trailing (channel) axes.
    """

    src_shape: tuple[int, ...]
    dst_shape: tuple[int, ...]
    src_flat: np.ndarray

    @property
    def dst_flat(self) -> np.ndarray:
        """Destination of each entry: 0, 1, 2, ..., one per destination element."""
        return np.arange(len(self.src_flat), dtype=np.int64)

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Gather ``values`` into a new destination array.

        Leading axes of ``values`` must equal src_shape; any trailing axes
        are carried through unchanged.
        """
        values = np.asarray(values)
        lead = len(self.src_shape)
        if values.shape[:lead] != self.src_shape:
            raise ValueError(
                f"index map expects leading shape {self.src_shape}, "
                f"got {values.shape}"
            )
        tail = values.shape[lead:]
        flat = values.reshape((math.prod(self.src_shape),) + tail)
        return flat.take(self.src_flat, axis=0).reshape(self.dst_shape + tail)


def _causal_spans(
    doc_lengths: Sequence[int], filter_len: int
) -> tuple[tuple[int, ...], int, tuple[int, ...]]:
    """Checked document and filter lengths, and each document's causal span.

    A document of length L needs L + min(L, L_F) - 1 positions for the
    circular product of its span with the filter to be the linear causal
    convolution.  Zero-length documents are rejected: they have no defined
    span and would silently vanish from the buffer.
    """
    lengths = tuple(_whole(x, "document length") for x in doc_lengths)
    filter_len = _whole(filter_len, "filter length")
    if not lengths:
        raise ValueError("a packed batch needs at least one document")
    if any(length < 1 for length in lengths):
        raise ValueError(f"document lengths must be >= 1, got {lengths}")
    if filter_len < 1:
        raise ValueError(f"filter length must be >= 1, got {filter_len}")
    return lengths, filter_len, tuple(n + min(n, filter_len) - 1 for n in lengths)


def build_layout(doc_lengths: Sequence[int], filter_len: int, k: int = DEFAULT_K) -> PackedLayout:
    """Compute the padded/grid geometry for one packed batch."""
    lengths, filter_len, causal = _causal_spans(doc_lengths, filter_len)
    k = _whole(k, "grid row count k")
    if k < 1:
        raise ValueError(f"grid row count k must be >= 1, got {k}")

    padded = tuple(k * -(-span // k) for span in causal)
    cols = tuple(p // k for p in padded)
    # Column blocks in width order; equal widths keep document order.
    widths = np.asarray(cols, dtype=np.int64)
    order = np.argsort(widths, kind="stable")
    col_offsets = np.empty_like(widths)
    col_offsets[order] = np.cumsum(widths[order]) - widths[order]
    pos_offsets = tuple(int(x) for x in np.cumsum((0,) + padded[:-1]))
    return PackedLayout(
        doc_lengths=lengths,
        filter_len=filter_len,
        k=k,
        padded_lengths=padded,
        cols_per_doc=cols,
        col_offsets=tuple(int(x) for x in col_offsets),
        total_cols=sum(cols),
        total_padded=sum(padded),
        pos_offsets=pos_offsets,
    )


class WidthGroup(NamedTuple):
    """One run of equal-width column blocks in the width-sorted grid.

    Besides where the run sits, a group records two bounds that hold for
    every document i in it.  A row-major load puts positions t < L_i in
    rows r < ceil(L_i / m), so rows at and past ``live_rows`` hold only
    padding.  A transformed grid holds time b * k + a at cell (a, b) of a
    block, so times t < L_i sit in columns b < ceil(L_i / k), and columns
    at and past ``live_cols`` hold only padding tails.
    """

    width: int  # m, columns per document
    first_col: int  # grid column where the run starts
    n_docs: int
    live_rows: int  # max ceil(L_i / m) over the run
    live_cols: int  # max ceil(L_i / k) over the run

    @property
    def cols(self) -> slice:
        """The run's grid columns."""
        return slice(self.first_col, self.first_col + self.width * self.n_docs)


def width_groups(layout: PackedLayout) -> tuple[WidthGroup, ...]:
    """The grid's width groups, in grid order."""
    widths = np.asarray(layout.cols_per_doc, dtype=np.int64)
    lengths = np.asarray(layout.doc_lengths, dtype=np.int64)
    order = np.argsort(layout.col_offsets)  # documents in grid order
    widths, lengths = widths[order], lengths[order]
    starts = np.flatnonzero(np.diff(widths, prepend=0))
    counts = np.diff(starts, append=len(order))
    live_rows = np.maximum.reduceat(-(-lengths // widths), starts)
    live_cols = np.maximum.reduceat(-(-lengths // layout.k), starts)
    return tuple(
        WidthGroup(int(widths[s]), layout.col_offsets[doc], int(n), int(r), int(b))
        for s, doc, n, r, b in zip(starts, order[starts], counts, live_rows, live_cols)
    )


def _doc_index(counts: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Owner and local index of every item when document i owns counts[i] items."""
    counts = np.asarray(counts, dtype=np.int64)
    owner = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    starts = np.cumsum(counts) - counts
    return owner, np.arange(len(owner), dtype=np.int64) - starts[owner]


def _span_positions(starts: Sequence[int], counts: Sequence[int]) -> np.ndarray:
    """Positions starts[i] + j for every j < counts[i], document by document."""
    owner, local = _doc_index(counts)
    return np.asarray(starts, dtype=np.int64)[owner] + local


def _span_scale(layout) -> np.ndarray:
    """1 / span length at every position of a packed buffer (the span protocol)."""
    lengths = np.asarray(layout.span_lengths, dtype=np.int64)
    return np.repeat(1.0 / lengths, lengths)


def _row_major_load(
    layout: PackedLayout, starts: Sequence[int], src_shape: tuple[int, ...]
) -> IndexMap:
    """Fill each document's column block row-major from its run at starts[i].

    grid[r, col_offsets[i] + c] = source[starts[i] + r * m_i + c].
    """
    widths = np.asarray(layout.cols_per_doc, dtype=np.int64)
    order = np.argsort(layout.col_offsets)  # documents in grid order
    owner, local = _doc_index(widths[order])
    doc = order[owner]  # each grid column's document
    start = np.asarray(starts, dtype=np.int64)[doc]
    rows = np.arange(layout.k, dtype=np.int64)[:, None]
    src = (rows * widths[doc] + start + local).ravel()
    counting.add_built_elements(len(src))
    return IndexMap(src_shape, (layout.k, layout.total_cols), src)


def build_p1(layout: PackedLayout) -> IndexMap:
    """Load map: packed padded vector -> k x m_total grid.

    Document i's padded span fills its column block in row-major order:
    grid[r, col_offsets[i] + c] = x[pos_offsets[i] + r * m_i + c].
    """
    return _row_major_load(layout, layout.pos_offsets, (layout.total_padded,))


def build_p2(layout: PackedLayout) -> IndexMap:
    """Unload map: cell-major grid -> packed vector.

    Document i's run of k * m_i cells fills its whole padded span, padding
    tail included; callers that need zero tails clear them afterwards.
    Position pos_offsets[i] + j comes from flat cell k * col_offsets[i] + j.
    """
    src = _span_positions(np.multiply(layout.k, layout.col_offsets), layout.padded_lengths)
    counting.add_built_elements(len(src))
    return IndexMap((layout.total_cols, layout.k), (layout.total_padded,), src)


def build_pre_ifft_map(layout: PackedLayout) -> IndexMap:
    """Load a cell-major spectrum onto the grid, row-major per block.

    Frequency f of document i sits at flat cell k * col_offsets[i] + f of
    the forward transform's output.  Feeding the inverse (another forward
    transform on conjugated data) requires frequencies laid out row-major,
    at grid cell (f // m_i, col_offsets[i] + f mod m_i): the load ``p1``
    does, reading from the cell-major run instead of the padded span.
    """
    starts = np.multiply(layout.k, layout.col_offsets)
    return _row_major_load(layout, starts, (layout.total_cols, layout.k))
