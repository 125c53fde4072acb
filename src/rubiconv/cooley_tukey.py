"""Radix-2 transform over packed documents, butterfly by butterfly.

Per-document bit reversal followed by the standard iterative
decimation-in-time stages (Cooley and Tukey, 1965).  Stage m takes every
block of m positions inside a document whose span is at least m, and with
top the block's first m/2 positions and w_j = exp(2 pi i j / m):

    a = y[top];  b = y[top + m/2] * w;  y[top] = a + b;  y[top + m/2] = a - b

Each document is padded to a power of two, so every butterfly pairs two
positions of the same document: no value, not even NaN or inf, ever meets
another document's.  A document shorter than m takes no part in stage m.
Asymptotically optimal, but butterfly updates are memory-bound gathers; the
grid transform is the practical path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import counting
from .packing import _causal_spans, _doc_index
from .signal import FilterBank, PackedSignal, _conj_inverse, _two_transform_convolve


@dataclass(frozen=True)
class CtLayout:
    """Per-document power-of-two spans inside one packed buffer."""

    doc_lengths: tuple[int, ...]
    filter_len: int
    pow2_lengths: tuple[int, ...]
    offsets: tuple[int, ...]
    total_padded: int

    @property
    def n_docs(self) -> int:
        return len(self.doc_lengths)

    @property
    def span_lengths(self) -> tuple[int, ...]:
        return self.pow2_lengths

    @property
    def span_offsets(self) -> tuple[int, ...]:
        return self.offsets

    @property
    def max_log2(self) -> int:
        return max(int(p).bit_length() - 1 for p in self.pow2_lengths)


def _next_pow2(n: int) -> int:
    return 1 << (int(n) - 1).bit_length()


def build_ct_layout(doc_lengths: Sequence[int], filter_len: int) -> CtLayout:
    """Pad each document for causal linear convolution, then to a power of two."""
    lengths, filter_len, causal = _causal_spans(doc_lengths, filter_len)
    pow2 = tuple(_next_pow2(span) for span in causal)
    offsets = tuple(int(x) for x in np.cumsum((0,) + pow2[:-1]))
    return CtLayout(
        doc_lengths=lengths,
        filter_len=filter_len,
        pow2_lengths=pow2,
        offsets=offsets,
        total_padded=sum(pow2),
    )


def _bit_reverse_indices(layout: CtLayout) -> np.ndarray:
    """Global gather indices performing the per-document bit reversal."""
    spans = np.asarray(layout.pow2_lengths, dtype=np.int64)
    bad = (spans < 1) | ((spans & (spans - 1)) != 0)
    if bad.any():
        raise ValueError(f"document span {spans[bad][0]} is not a power of two")
    bits = np.log2(spans).astype(np.int64)  # exact for powers of two
    owner, local = _doc_index(spans)
    # Reverse every local index over the widest span's bits, then drop the
    # low bits a shorter span does not have.
    width = int(bits.max())
    rev = np.zeros_like(local)
    for b in range(width):
        rev = (rev << 1) | ((local >> b) & 1)
    return np.asarray(layout.offsets, dtype=np.int64)[owner] + (rev >> (width - bits)[owner])


def stage_triples(layout: CtLayout) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Yield (half, top, w) for stages m = 2, 4, ..., one stage at a time.

    top is the (n_blocks, half) index of the first half of every m-position
    block inside a document spanning at least m, and w = exp(2 pi i j / m)
    for j < half.  Nothing is cached: each stage's tables are built when it
    is reached and dropped after it.
    """
    spans = np.asarray(layout.pow2_lengths, dtype=np.int64)
    offsets = np.asarray(layout.offsets, dtype=np.int64)
    for s in range(1, layout.max_log2 + 1):
        m, half = 1 << s, 1 << (s - 1)
        live = spans >= m
        owner, block = _doc_index(spans[live] // m)
        top = (offsets[live][owner] + block * m)[:, None] + np.arange(half, dtype=np.int64)
        w = np.exp((2j * np.pi / m) * np.arange(half))
        counting.add_built_elements(top.size + half)
        yield half, top, w


def bit_reverse_permute(y: np.ndarray, layout: CtLayout) -> np.ndarray:
    """Reorder each document span into bit-reversed order; spans never mix."""
    y = np.asarray(y)
    positions = y.shape[0] if y.ndim else 0  # a layout has at least one
    if positions != layout.total_padded:
        raise ValueError(
            f"packed vector has {positions} positions, layout expects "
            f"{layout.total_padded}"
        )
    return y[_bit_reverse_indices(layout)]


def masked_fft_stages(y: np.ndarray, layout: CtLayout) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (stage_size, state) after bit reversal and after each stage.

    The bit reversal gathers into a fresh array, so y is never modified.
    Every stage then updates that one array in place: each yielded state is
    the same array, and a caller that keeps states must copy them.
    """
    state = bit_reverse_permute(np.asarray(y, dtype=np.complex128), layout)
    yield 1, state
    channels = math.prod(state.shape[1:])
    shape_tail = (1,) * (state.ndim - 1)
    for half, top, w in stage_triples(layout):
        bottom = top + half
        counting.add_complex_muls(top.size * channels, real_muls_each=4)
        a = state[top]
        b = state[bottom]
        b *= w.reshape((-1,) + shape_tail)
        state[top] = a + b
        a -= b
        state[bottom] = a
        yield 2 * half, state


def masked_fft(y: np.ndarray, layout: CtLayout) -> np.ndarray:
    """Per-document DFT of a packed vector via in-document butterfly stages.

    The output slice of each document equals the padded-length DFT of that
    document's span, identical to what a standard iterative radix-2 FFT
    produces on the document alone.
    """
    state = None
    for _, state in masked_fft_stages(y, layout):
        pass
    return state


def ct_inverse(y: np.ndarray, layout: CtLayout) -> np.ndarray:
    """Inverse packed transform: conj(masked_fft(conj(y))) / span_length."""
    return _conj_inverse(layout, y, lambda v: masked_fft(v, layout))


def ct_convolve(x: PackedSignal, bank: FilterBank, layout: CtLayout) -> PackedSignal:
    """Depthwise causal convolution through the packed radix-2 transform.

    Same contract as the grid pipeline: per document and channel, the causal
    linear convolution truncated to the original length, zero tails: the
    two-transform convolution (``signal._two_transform_convolve``) on
    ``masked_fft``, over all channels.
    """
    return _two_transform_convolve(layout, x, bank, lambda v: masked_fft(v, layout))
