"""Masked radix-2 transform over packed documents.

Per-document bit reversal followed by the standard iterative
decimation-in-time butterfly stages, expressed as one global
roll-and-multiply update per stage:

    y <- y * tw0 + roll(y, m/2) * twf + roll(y, -m/2) * twb

Positions whose document is shorter than the current stage size carry the
identity triple (1, 0, 0), turning the update into a no-op for documents
that have already finished.  Padding every document to a power of two keeps
all active butterfly partners inside the same document, and a partner term
with a zero twiddle is selected away rather than multiplied by zero, so the
rolls never leak values, not even NaN or inf, across boundaries.
Asymptotically optimal, but butterfly updates are memory-bound; the grid
transform is the practical path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from . import counting
from .packing import _causal_spans, _span_scale
from .signal import FilterBank, PackedSignal, _check_convolution_args, embed_filter


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


@dataclass(frozen=True, eq=False)
class TwiddleTriple:
    """Per-position butterfly coefficients for one stage."""

    tw0: np.ndarray
    twf: np.ndarray
    twb: np.ndarray


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


@lru_cache(maxsize=1)
def _bit_reverse_indices(layout: CtLayout) -> np.ndarray:
    """Global gather indices performing the per-document bit reversal."""
    idx = np.empty(layout.total_padded, dtype=np.int64)
    for off, span in zip(layout.offsets, layout.pow2_lengths):
        if span & (span - 1):
            raise ValueError(f"document span {span} is not a power of two")
        bits = span.bit_length() - 1
        local = np.arange(span, dtype=np.int64)
        rev = np.zeros(span, dtype=np.int64)
        for b in range(bits):
            rev = (rev << 1) | ((local >> b) & 1)
        idx[off : off + span] = off + rev
    return idx


@lru_cache(maxsize=1)
def stage_triples(layout: CtLayout) -> tuple[TwiddleTriple, ...]:
    """Twiddle triples for stages m = 2, 4, ..., built once per layout.

    Only the latest layout's tables stay cached (as for the bit reversal):
    they take 48 bytes per position per stage, tens of MiB on a long packing,
    and ``ct_convolve`` reuses one layout for all three transforms.

    Within an active document, stage-local index j gets the standard
    decimation-in-time factors: the top half (j < m/2) keeps itself and
    adds w_m^j times its forward partner, the bottom half takes its
    backward partner plus w_m^j times itself (w_m^j = -w_m^(j - m/2) there).
    Positions in documents shorter than m get (1, 0, 0).
    """
    n = layout.total_padded
    doc_span = np.repeat(np.asarray(layout.pow2_lengths), np.asarray(layout.pow2_lengths))
    local = np.concatenate([np.arange(span, dtype=np.int64) for span in layout.pow2_lengths])
    triples = []
    for s in range(1, layout.max_log2 + 1):
        m = 1 << s
        active = doc_span >= m
        j = local % m
        omega = np.exp((2j * np.pi / m) * j)
        top = active & (j < m // 2)
        bottom = active & (j >= m // 2)
        tw0 = np.ones(n, dtype=np.complex128)
        twf = np.zeros(n, dtype=np.complex128)
        twb = np.zeros(n, dtype=np.complex128)
        tw0[bottom] = omega[bottom]
        twf[bottom] = 1.0
        twb[top] = omega[top]
        triples.append(TwiddleTriple(tw0=tw0, twf=twf, twb=twb))
    counting.add_built_elements(3 * n * len(triples))
    return tuple(triples)


def bit_reverse_permute(y: np.ndarray, layout: CtLayout) -> np.ndarray:
    """Reorder each document span into bit-reversed order; spans never mix."""
    y = np.asarray(y)
    if y.shape[0] != layout.total_padded:
        raise ValueError(
            f"packed vector has {y.shape[0]} positions, layout expects "
            f"{layout.total_padded}"
        )
    return y[_bit_reverse_indices(layout)]


def masked_fft_stages(y: np.ndarray, layout: CtLayout) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (stage_size, state) after bit reversal and after each stage."""
    state = bit_reverse_permute(np.asarray(y, dtype=np.complex128), layout)
    yield 1, state
    shape_tail = (1,) * (state.ndim - 1)
    for s, triple in enumerate(stage_triples(layout), start=1):
        half = 1 << (s - 1)
        tw0 = triple.tw0.reshape((-1,) + shape_tail)
        twf = triple.twf.reshape((-1,) + shape_tail)
        twb = triple.twb.reshape((-1,) + shape_tail)
        counting.add_complex_muls(3 * state.size, real_muls_each=4)
        # A partner whose twiddle is zero is zeroed before the multiply: the
        # roll may have brought in a value of another document, and 0 * NaN
        # or 0 * inf is NaN.
        backward = np.roll(state, half, axis=0)
        backward[triple.twf == 0] = 0
        backward *= twf
        forward = np.roll(state, -half, axis=0)
        forward[triple.twb == 0] = 0
        forward *= twb
        state = state * tw0
        state += backward
        state += forward
        yield 2 * half, state


def masked_fft(y: np.ndarray, layout: CtLayout) -> np.ndarray:
    """Per-document DFT of a packed vector via masked butterfly stages.

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
    out = np.conj(masked_fft(np.conj(np.asarray(y, dtype=np.complex128)), layout))
    counting.add_real_muls(2 * out.size)
    return out * _span_scale(layout).reshape((-1,) + (1,) * (out.ndim - 1))


def ct_convolve(x: PackedSignal, bank: FilterBank, layout: CtLayout) -> PackedSignal:
    """Depthwise causal convolution through the masked radix-2 transform.

    Same contract as the grid pipeline: per document and channel, the causal
    linear convolution truncated to the original length, zero tails.
    """
    _check_convolution_args(layout, x, bank)

    x_hat = masked_fft(x.values.astype(np.complex128), layout)
    f_hat = masked_fft(embed_filter(layout, bank).astype(np.complex128), layout)
    counting.add_complex_muls(x_hat.size, real_muls_each=4)
    product = x_hat * f_hat

    inv = masked_fft(np.conj(product), layout)
    counting.add_real_muls(inv.size)
    return PackedSignal._from_output(inv.real * _span_scale(layout)[:, None], layout)
