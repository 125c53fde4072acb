"""Packed real signals and depthwise filter banks shared by all variants."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .packing import _span_positions


def _as_channels(values: np.ndarray) -> np.ndarray:
    """A real (n,) or (n, channels) array as float64 (n, channels).

    Complex values are refused rather than cast, which would drop their
    imaginary parts.
    """
    values = np.asarray(values)
    if np.iscomplexobj(values):
        raise ValueError(f"expected a real array, got {values.dtype}")
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        values = values[:, None]
    if values.ndim != 2:
        raise ValueError(f"expected a 1-D or 2-D real array, got shape {values.shape}")
    return values


@dataclass(frozen=True, eq=False)
class FilterBank:
    """Depthwise causal filter taps, one length-L_F column per channel."""

    taps: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "taps", _as_channels(self.taps))
        if self.taps.shape[0] < 1:
            raise ValueError("a filter needs at least one tap")
        if self.taps.shape[1] < 1:
            raise ValueError("a filter bank needs at least one channel")

    @property
    def filter_len(self) -> int:
        return self.taps.shape[0]

    @property
    def channels(self) -> int:
        return self.taps.shape[1]


@dataclass(frozen=True, eq=False)
class PackedSignal:
    """Real packed input of shape (total_padded, channels) plus its layout.

    The layout may be any object exposing the span protocol (doc_lengths,
    span_lengths, span_offsets, total_padded).  Positions past each
    document's original length must be zero; that padding is what turns the
    circular frequency-domain product into a linear causal convolution.
    """

    values: np.ndarray
    layout: object

    def __post_init__(self):
        values = _as_channels(self.values)
        object.__setattr__(self, "values", values)
        if values.shape[0] != self.layout.total_padded:
            raise ValueError(
                f"values have {values.shape[0]} positions, layout expects "
                f"{self.layout.total_padded}"
            )
        # Every padding position of every span, gathered and tested at once.
        starts = np.add(self.layout.span_offsets, self.layout.doc_lengths)
        tail_lengths = np.subtract(self.layout.span_lengths, self.layout.doc_lengths)
        if np.any(values[_span_positions(starts, tail_lengths)]):
            raise ValueError("padding tail of a document must be zero-filled")

    @property
    def channels(self) -> int:
        return self.values.shape[1]

    @classmethod
    def _from_output(cls, values: np.ndarray, layout) -> "PackedSignal":
        """Wrap a library result, zeroing each document's padding tail in place.

        The convolutions unload whole padded spans into a fresh
        (total_padded, channels) float64 array; one slice per document clears
        the tails, and the checks meant for caller input would only cost time.
        """
        for off, length, span in zip(layout.span_offsets, layout.doc_lengths, layout.span_lengths):
            values[off + length : off + span] = 0
        signal = object.__new__(cls)
        object.__setattr__(signal, "values", values)
        object.__setattr__(signal, "layout", layout)
        return signal

    @classmethod
    def from_documents(cls, layout, docs: Sequence[np.ndarray]) -> "PackedSignal":
        """Pack per-document value arrays ((L_i,) or (L_i, channels)) into one buffer."""
        docs = [_as_channels(d) for d in docs]
        if len(docs) != len(layout.doc_lengths):
            raise ValueError(
                f"{len(docs)} document arrays for {len(layout.doc_lengths)} documents"
            )
        channels = docs[0].shape[1]
        values = np.zeros((layout.total_padded, channels), dtype=np.float64)
        for doc, off, length in zip(docs, layout.span_offsets, layout.doc_lengths):
            if doc.shape != (length, channels):
                raise ValueError(
                    f"document array shape {doc.shape} does not match "
                    f"({length}, {channels})"
                )
            values[off : off + length] = doc
        return cls(values, layout)

    def documents(self) -> list[np.ndarray]:
        """Per-document views of the valid (unpadded) values."""
        return [
            self.values[off : off + length]
            for off, length in zip(self.layout.span_offsets, self.layout.doc_lengths)
        ]

    def valid_values(self) -> np.ndarray:
        """Concatenated valid values, shape (sum L_i, channels)."""
        return np.concatenate(self.documents(), axis=0)


def _check_convolution_args(layout, x: PackedSignal, bank: FilterBank) -> None:
    """Reject a signal or a filter bank that does not fit ``layout``."""
    if x.layout != layout:
        raise ValueError("signal layout does not match the convolution's layout")
    if bank.channels != x.channels:
        raise ValueError(
            f"channel count mismatch: signal has {x.channels}, filter has {bank.channels}"
        )
    if bank.filter_len != layout.filter_len:
        raise ValueError(
            f"filter length {bank.filter_len} does not match the layout's "
            f"{layout.filter_len}"
        )


def embed_filter(layout, bank: FilterBank) -> np.ndarray:
    """Lay the filter out per document, zero-padded to each padded span.

    Each document keeps min(L_F, L_i) taps: a causal output at position
    t < L_i only ever reaches taps up to index t, so taps at or beyond L_i
    cannot influence any valid output, and dropping them keeps the padded
    span long enough that the circular product never wraps a live tap onto
    live data.
    """
    out = np.zeros((layout.total_padded, bank.channels), dtype=np.float64)
    for off, length in zip(layout.span_offsets, layout.doc_lengths):
        n_taps = min(bank.filter_len, length)
        out[off : off + n_taps] = bank.taps[:n_taps]
    return out
