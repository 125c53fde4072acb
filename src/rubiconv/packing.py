"""Geometry of a packed batch: padded lengths and the moves between buffer and grid.

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

Data moves between the buffer and the grid in whole blocks of k
positions, as in Bailey's four-step FFT, with no per-position index.  The
padded buffer is m_total such blocks, and document i's span is m_i of them
in a row.  ``p1`` loads the buffer row-major per document block: the span,
read as (k, m_i), is the document's column block, so each run of a width
group's documents that lie end to end in the buffer is one strided view
and one transposing copy (a group of many short runs gathers its
documents in chunks instead).  A transformed grid is cell-major: an
(m_total, k) array whose column c is one contiguous row, so each
document's spectrum is one contiguous run in natural frequency order.
``pre_ifft`` loads such a spectrum row-major per block, as ``p1`` loads
the buffer; a width group's spectra lie end to end, so it is one
transposing copy per group.  ``p2`` copies each document's run into its
whole padded span: grid column c goes to buffer block b[c], one block
scatter.  Each map is an ``IndexMap`` that holds b, one int64 per grid
column, which ``p1`` and ``p2`` share, and its width groups as ints.
"""

from __future__ import annotations

import functools
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

    def __repr__(self) -> str:
        return (
            f"PackedLayout(n_docs={self.n_docs}, k={self.k}, filter_len={self.filter_len}, "
            f"total_cols={self.total_cols}, total_padded={self.total_padded})"
        )

    @functools.cached_property
    def _column_blocks(self) -> np.ndarray:
        """The buffer's block of k positions at each grid column, read-only.

        Column col_offsets[i] + c holds block pos_offsets[i] / k + c.  Built
        once per layout, so the load and unload maps share it.
        """
        order = np.argsort(self.col_offsets)  # documents in grid order
        starts = np.asarray(self.pos_offsets, dtype=np.int64)[order] // self.k
        blocks = _span_positions(starts, np.asarray(self.cols_per_doc, dtype=np.int64)[order])
        counting.add_built_elements(len(blocks))
        blocks.flags.writeable = False
        return blocks

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
    """A move between the packed buffer and the grid in whole blocks of k positions.

    The flat side, a buffer or a cell-major (m_total, k) spectrum, is read
    as m_total blocks of k, and ``blocks[c]`` is the block that grid
    column c holds, or None where that is block c itself.  A map onto the
    (k, m_total) row-major grid is a load: document i's k * m_i positions,
    read as (k, m_i), fill its column block.  ``groups`` holds each width
    group's (m, first column, documents).  A map onto the flat buffer is a
    scatter: row c of the cell-major source fills block ``blocks[c]``.
    Shapes are recorded so a map can be applied to arrays carrying extra
    trailing (channel) axes.
    """

    src_shape: tuple[int, ...]
    dst_shape: tuple[int, ...]
    blocks: np.ndarray | None
    groups: tuple[tuple[int, int, int], ...] = ()

    @property
    def src_flat(self) -> np.ndarray:
        """Flat source element of each flat destination element, built on each read, read-only."""
        src = self._move(np.arange(math.prod(self.src_shape), dtype=np.int64).reshape(self.src_shape))
        src.flags.writeable = False
        return src.reshape(-1)

    @property
    def dst_flat(self) -> np.ndarray:
        """Destination of each entry: 0, 1, 2, ..., one per destination element."""
        return np.arange(math.prod(self.dst_shape), dtype=np.int64)

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Move ``values`` into a new destination array.

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
        return self._move(values)

    def _move(self, values: np.ndarray) -> np.ndarray:
        tail = values.shape[len(self.src_shape) :]
        out = np.empty(self.dst_shape + tail, dtype=values.dtype)
        if len(self.dst_shape) == 1:
            out.reshape(self.src_shape + tail)[self.blocks] = values
        else:
            self._load(values.reshape((-1,) + tail), out)
        return out

    def _load(self, flat: np.ndarray, out: np.ndarray) -> None:
        """Fill the row-major grid ``out`` from the flat source, width group by width group.

        ``spans[:, b]`` views the k * m positions from block b on, read as
        (k, m); the documents of a run lie end to end, every m blocks, so a
        run is one strided view of it.  A group whose runs average fewer
        than _LOAD_RUN_BYTES gathers its documents in chunks of about
        _LOAD_CHUNK_BYTES instead.
        """
        k, tail, (stride, *inner) = out.shape[0], flat.shape[1:], flat.strides
        block_bytes = k * flat[:1].nbytes
        for m, first, n_docs in self.groups:
            cols = out[:, first : first + n_docs * m].reshape((k, n_docs, m) + tail)
            spans = np.lib.stride_tricks.as_strided(
                flat, (k, len(flat) // k - m + 1, m) + tail, (m * stride, k * stride, stride, *inner), writeable=False
            )
            if self.blocks is None:
                cols[...] = spans[:, first : first + n_docs * m : m]
                continue
            starts = self.blocks[first : first + n_docs * m : m]
            cuts = np.flatnonzero(np.diff(starts) != m) + 1
            if cols.nbytes < _LOAD_RUN_BYTES * (len(cuts) + 1):
                step = max(1, _LOAD_CHUNK_BYTES // (m * block_bytes))
                for lo in range(0, n_docs, step):
                    cols[:, lo : lo + step] = spans[:, starts[lo : lo + step]]
                continue
            cuts = [0, *cuts.tolist(), n_docs]
            for lo, hi, block in zip(cuts, cuts[1:], starts[cuts[:-1]].tolist()):
                cols[:, lo:hi] = spans[:, block : block + (hi - lo) * m : m]


# A load copies each run of documents that lie end to end in its source
# with one numpy call of a few microseconds.  short-docs at seed 3 has 1050
# documents in about 520 runs of about 12 KB, and one call per run took
# twice as long as one gather per chunk of 256 KB (a copy of the chunk's
# spans, then one transposing copy into place), while mixed-1k's runs of
# 128 KB and more and long-docs' one run of 16 MB went faster direct.
_LOAD_RUN_BYTES = 1 << 15
_LOAD_CHUNK_BYTES = 1 << 18


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

    Besides where the run sits, a group records its longest document and
    two bounds that follow from it for every document i in it.  A
    row-major load puts positions t < L_i in rows r < ceil(L_i / m), so
    rows at and past ``live_rows`` hold only padding.  A transformed grid
    holds time b * k + a at cell (a, b) of a block, so times t < L_i sit
    in columns b < ceil(L_i / k), and columns at and past ``live_cols``
    hold only padding tails.
    """

    width: int  # m, columns per document
    first_col: int  # grid column where the run starts
    n_docs: int
    live_rows: int  # max ceil(L_i / m) over the run
    live_cols: int  # max ceil(L_i / k) over the run
    longest: int  # max L_i over the run

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
    longest = np.maximum.reduceat(lengths, starts)
    live_rows, live_cols = -(-longest // widths[starts]), -(-longest // layout.k)
    return tuple(
        WidthGroup(int(widths[s]), layout.col_offsets[doc], int(n), int(r), int(b), int(n_max))
        for s, doc, n, r, b, n_max in zip(starts, order[starts], counts, live_rows, live_cols, longest)
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


def build_p1(layout: PackedLayout) -> IndexMap:
    """Load map: packed padded vector -> k x m_total grid.

    Document i's padded span fills its column block in row-major order:
    grid[r, col_offsets[i] + c] = x[pos_offsets[i] + r * m_i + c].
    """
    return IndexMap((layout.total_padded,), (layout.k, layout.total_cols), layout._column_blocks, _group_ints(layout))


def build_p2(layout: PackedLayout) -> IndexMap:
    """Unload map: cell-major grid -> packed vector.

    Document i's run of k * m_i cells fills its whole padded span, padding
    tail included; callers that need zero tails clear them afterwards.
    Position pos_offsets[i] + j comes from flat cell k * col_offsets[i] + j.
    """
    return IndexMap((layout.total_cols, layout.k), (layout.total_padded,), layout._column_blocks)


def build_pre_ifft_map(layout: PackedLayout) -> IndexMap:
    """Load a cell-major spectrum onto the grid, row-major per block.

    Frequency f of document i sits at flat cell k * col_offsets[i] + f of
    the forward transform's output.  Feeding the inverse (another forward
    transform on conjugated data) requires frequencies laid out row-major,
    at grid cell (f // m_i, col_offsets[i] + f mod m_i): the load ``p1``
    does, reading from the cell-major run instead of the padded span.
    """
    return IndexMap((layout.total_cols, layout.k), (layout.k, layout.total_cols), None, _group_ints(layout))


def _group_ints(layout: PackedLayout) -> tuple[tuple[int, int, int], ...]:
    return tuple((g.width, g.first_col, g.n_docs) for g in width_groups(layout))
