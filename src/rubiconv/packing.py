"""Geometry of a packed batch: padded lengths, grid index maps, document ids.

A packed batch lays n variable-length documents end to end in one buffer.
Each document is first extended by min(L_i, L_F) - 1 zeros so that a
frequency-domain product yields a linear (non-circular) causal convolution,
then padded to the next multiple of k.  The padded batch is viewed as a
k x m_total grid in which document i owns m_i = L_i'/k whole columns, so no
grid column ever mixes two documents.

Index maps are materialized as explicit index arrays in destination order,
not permutation matrices; every map a plan holds writes each destination
once, so applying it is a single gather.  Building and applying them is
linear in the number of mapped elements, with no per-document Python loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import counting

DEFAULT_K = 256  # good hardware/padding trade-off for packed totals up to ~32k


@dataclass(frozen=True)
class PackedLayout:
    """Derived geometry for one packed batch.  Immutable once built.

    padded_lengths[i] = k * ceil((L_i + min(L_i, L_F) - 1) / k), so every
    document occupies cols_per_doc[i] = padded_lengths[i] / k whole columns
    of the k x total_cols grid, starting at column col_offsets[i].
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
    """Explicit pairing of flat source and flat destination indices.

    Entry j moves flat source element src_flat[j] to flat destination
    dst_flat[j].  Every destination is written at most once.  Entries are
    kept in destination order, so a map that writes every destination has
    dst_flat = 0, 1, 2, ... and applying it is one gather through src_flat.
    Shapes are recorded so a map can be applied to arrays carrying extra
    trailing (channel) axes.
    """

    src_shape: tuple[int, ...]
    dst_shape: tuple[int, ...]
    src_flat: np.ndarray
    dst_flat: np.ndarray

    def __post_init__(self):
        dst = self.dst_flat
        if np.any(dst[1:] < dst[:-1]):
            order = np.argsort(dst, kind="stable")
            object.__setattr__(self, "src_flat", self.src_flat[order])
            object.__setattr__(self, "dst_flat", dst[order])

    @property
    def dest_rows(self) -> np.ndarray:
        if len(self.dst_shape) != 2:
            raise ValueError("dest_rows is defined for 2-D destinations only")
        return self.dst_flat // self.dst_shape[1]

    @property
    def dest_cols(self) -> np.ndarray:
        if len(self.dst_shape) != 2:
            raise ValueError("dest_cols is defined for 2-D destinations only")
        return self.dst_flat % self.dst_shape[1]

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Move ``values`` into a new destination array, zero where unwritten.

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
        src_size = int(np.prod(self.src_shape, dtype=np.int64))
        dst_size = int(np.prod(self.dst_shape, dtype=np.int64))
        src = self.src_flat
        if lead == 2 and not values.flags.c_contiguous and values.swapaxes(0, 1).flags.c_contiguous:
            # A column-major grid: gather from its memory in place.
            rows, cols = np.divmod(src, self.src_shape[1])
            src = cols * self.src_shape[0] + rows
            values = values.swapaxes(0, 1)
        flat = values.reshape((src_size,) + tail)
        if len(self.dst_flat) == dst_size:
            out = flat.take(src, axis=0)
        else:
            out = np.zeros((dst_size,) + tail, dtype=values.dtype)
            out[self.dst_flat] = flat[src]
        return out.reshape(self.dst_shape + tail)

    def inverse(self) -> "IndexMap":
        """Swap source and destination.  Requires a bijective map."""
        src_size = int(np.prod(self.src_shape, dtype=np.int64))
        dst_size = int(np.prod(self.dst_shape, dtype=np.int64))
        if len(self.src_flat) != src_size or len(self.dst_flat) != dst_size:
            raise ValueError("inverse() requires a bijective index map")
        # In destination order a bijective map has dst_flat = 0, 1, 2, ...,
        # which is also the inverse's; its gather inverts the permutation.
        src = np.empty_like(self.src_flat)
        src[self.src_flat] = self.dst_flat
        return IndexMap(self.dst_shape, self.src_shape, src, self.dst_flat)


def build_layout(doc_lengths: Sequence[int], filter_len: int, k: int = DEFAULT_K) -> PackedLayout:
    """Compute the padded/grid geometry for one packed batch.

    Zero-length documents are rejected: they have no defined padded length
    and would silently vanish from the grid.
    """
    lengths = tuple(int(x) for x in doc_lengths)
    filter_len = int(filter_len)
    k = int(k)
    if not lengths:
        raise ValueError("a packed batch needs at least one document")
    if any(length < 1 for length in lengths):
        raise ValueError(f"document lengths must be >= 1, got {lengths}")
    if filter_len < 1:
        raise ValueError(f"filter length must be >= 1, got {filter_len}")
    if k < 1:
        raise ValueError(f"grid row count k must be >= 1, got {k}")

    padded = tuple(
        k * (-((length + min(length, filter_len) - 1) // -k)) for length in lengths
    )
    cols = tuple(p // k for p in padded)
    col_offsets = tuple(int(x) for x in np.cumsum((0,) + cols[:-1]))
    pos_offsets = tuple(int(x) for x in np.cumsum((0,) + padded[:-1]))
    return PackedLayout(
        doc_lengths=lengths,
        filter_len=filter_len,
        k=k,
        padded_lengths=padded,
        cols_per_doc=cols,
        col_offsets=col_offsets,
        total_cols=sum(cols),
        total_padded=sum(padded),
        pos_offsets=pos_offsets,
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


def _column_geometry(layout: PackedLayout) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per grid column: first column of its document block, local index, width m_i."""
    owner, local = _doc_index(layout.cols_per_doc)
    first = np.asarray(layout.col_offsets, dtype=np.int64)[owner]
    return first, local, np.asarray(layout.cols_per_doc, dtype=np.int64)[owner]


def build_p1(layout: PackedLayout) -> IndexMap:
    """Load map: packed padded vector -> k x m_total grid.

    Document i's padded span fills its column block in row-major order:
    grid[r, col_offsets[i] + c] = x[pos_offsets[i] + r * m_i + c].
    """
    m_total = layout.total_cols
    first, local, width = _column_geometry(layout)
    # Document i's span starts at pos_offsets[i] = k * col_offsets[i].
    rows = np.arange(layout.k, dtype=np.int64)[:, None]
    src = (rows * width + layout.k * first + local).ravel()
    counting.add_built_elements(layout.total_padded)
    return IndexMap(
        src_shape=(layout.total_padded,),
        dst_shape=(layout.k, m_total),
        src_flat=src,
        dst_flat=np.arange(layout.total_padded, dtype=np.int64),
    )


def build_p2(layout: PackedLayout, valid_lengths: Sequence[int] | None = None) -> IndexMap:
    """Unload map: grid -> packed vector, column-major per document block.

    Each document block is flattened in column-major order and sliced to
    its valid output length (the original document length by default, which
    discards the zero-filled padding tail).
    """
    if valid_lengths is None:
        valid_lengths = layout.doc_lengths
    valid = tuple(int(v) for v in valid_lengths)
    if len(valid) != layout.n_docs:
        raise ValueError("valid_lengths must give one length per document")
    for n_valid, padded in zip(valid, layout.padded_lengths):
        if not 0 <= n_valid <= padded:
            raise ValueError(f"valid length {n_valid} outside [0, {padded}]")
    # Column-major per block with whole columns is the grid's global
    # column-major order: packed position t sits at cell (t % k, t // k).
    t = _span_positions(layout.pos_offsets, valid)
    src = (t % layout.k) * layout.total_cols + t // layout.k
    counting.add_built_elements(len(src))
    return IndexMap(
        src_shape=(layout.k, layout.total_cols),
        dst_shape=(len(src),),
        src_flat=src,
        dst_flat=np.arange(len(src), dtype=np.int64),
    )


def build_pre_ifft_map(layout: PackedLayout) -> IndexMap:
    """Reorder a transformed grid from column-major to row-major frequency order.

    The forward grid transform leaves document i's frequency f at cell
    (f mod k, offset_i + f // k).  Feeding the inverse (another forward
    transform on conjugated data) requires frequencies laid out row-major,
    at cell (f // m_i, offset_i + f mod m_i).  This map moves each cell
    accordingly, independently per document block.
    """
    m_total = layout.total_cols
    first, local, width = _column_geometry(layout)
    # Destination cell (r, c) holds frequency f = r * m_i + local column.
    f = np.arange(layout.k, dtype=np.int64)[:, None] * width + local
    src = ((f % layout.k) * m_total + first + f // layout.k).ravel()
    counting.add_built_elements(len(src))
    shape = (layout.k, m_total)
    return IndexMap(
        src_shape=shape, dst_shape=shape, src_flat=src, dst_flat=np.arange(len(src), dtype=np.int64)
    )


def segment_ids(layout: PackedLayout) -> np.ndarray:
    """Document index of every position in the padded packed buffer."""
    return np.repeat(
        np.arange(layout.n_docs, dtype=np.int64), np.asarray(layout.padded_lengths)
    )
