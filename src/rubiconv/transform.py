"""The packed four-step transform and its convolution pipeline.

The forward transform computes, in one pass over the whole batch, the
padded-length DFT of every document: load the packed vector onto the
k x m_total grid (row-major per document block), left-multiply by the
k-point DFT matrix, scale element-wise by per-document twiddles
w_{L_i'}^(a*b), then right-multiply each document's column block by its own
m_i-point DFT matrix.  Because the second DFT is block-diagonal over
document column blocks, no stage ever mixes documents, and all heavy work
is dense GEMM.

The block stage runs on an (m_total, D, k) array in which grid column c is
one contiguous row, so each document owns contiguous rows.  The k-point
GEMM writes that layout directly: M1 is symmetric, so grid^T @ M1 is the
transposed product.  The twiddle is applied in place.  The grid's column
blocks are sorted by width (see ``packing``), so all documents of width
m_i form one contiguous (n_i, m_i, D*k) slab, and their m_i-point DFTs run
as stacked GEMMs on views of it, with no copy in.  Each group runs all
three stages per chunk of whole documents, of at most
max(m_max, ceil(m_total / 16)) columns, m_max being the widest document's
width, so the GEMM calls do not grow with the number of documents and no
temporary is larger than one chunk.  Each chunk's block-stage result is
written back, with the channels last, into the memory its documents held,
and that array, read as (m_total, k, D), is what ``transform_grid``
returns.  In this cell-major spectrum, frequency f = b * k + a of
document i sits in cell (col_offsets[i] + b, a), so each document's
spectrum is one contiguous run in natural frequency order.
The dual-real split, the product, the channel pairing and the index maps
all read it as it is: frequency -f of a run of n frequencies sits at
(-f) mod n, so the split reads each run reversed, through views.
Twiddles and DFT matrices depend only on a document's width m_i, so the
plan builds one of each per distinct width and documents of equal width
share them.

The convolution entry point pairs adjacent real channels a = 2j and
b = 2j + 1 of its input into one complex channel x_a + i * x_b, a view of
the float64 buffer (an odd D copies once and pairs its last channel with
zero), and runs the forward over those ceil(D/2) channels.  The filter is
transformed once per width group, paired the same way: every document i
of a group shares L' = k * m, and the filter with the group's
n_w = max min(L_F, L_i) taps serves them all, since its taps cover each
document's causal support and L_i + n_w - 1 <= L' never wraps one onto a
kept output.  Each group's filter is laid out as one document of that
group, its longest, so its span read as (k, m, ceil(D/2)) is its own grid
and runs through the same stage code as the data.  The split recovers
both channels of both spectra through conjugate symmetry, multiplies each
channel by its group's filter spectrum and writes the paired inverse
input; it runs per chunk of grid columns small enough to stay in a core's
private cache, so the forward half holds at most two half-width complex
arrays: the loaded grid and the spectrum during the forward, the spectrum
and the inverse input after it.  The spectra are reordered for the
inverse, which reuses the forward kernel via
ifft(x) = conj(fft(conj(x))) / n.  Zeroing each document's tail past its
original length at the end removes the padding and leaves a strictly
causal, boundary-respecting result.  A document's output depends on its
own input and its group's filter only, so documents stay independent; a
non-finite tap below n_w reaches every document of the group, where a
document shorter than the tap's index would have dropped it.

The inverse uses the outputs' realness too.  Each channel's product
spectrum P is Hermitian within every document, so for adjacent channels
a = 2j and b = 2j + 1 the forward kernel applied to conj(P_a) + i*conj(P_b)
returns L_i' * (y_a + i*y_b): one complex inverse over ceil(D/2) channels
yields all D real outputs, already in channel order when viewed as float64.
An odd D pairs its last channel with zero.  Paired channels share one
forward and one inverse, so they share their roundoff, and a NaN or inf in channel 2j can
reach channel 2j + 1 (and back), but only within the same document: no
stage mixes documents.

Inside ``convolve`` only, both transforms skip the causal padding, per
width group w of c_w columns (``packing.WidthGroup``).  The input is zero
at and past each document's length L_i, and a row-major load puts
positions t < L_i in rows r < ceil(L_i / m_i), so the forward's k-point
stage contracts over the group's first r_w = max ceil(L_i / m_i) rows only.
Only times t < L_i are kept, and the inverse's output cell (a, b) holds
time b * k + a, so its block stage computes only the first
b_w = max ceil(L_i / k) columns of each block and writes zeros into the
rest.  ``forward``, ``inverse`` and a default ``transform_grid`` call run
the full transform, k^2 m_total + k * sum(m_i^2) + k m_total complex
multiplications per channel.

Those pruned calls also factor the k-point stage, as Bailey's six-step
FFT does, where k = k1 * k2 and k1, the largest divisor of k not above
sqrt(k), is at least 16 (k = 256 = 16 * 16 and 512 = 16 * 32 factor,
k = 64 does not).  With input row a = n1 * k2 + n2, a k1-point GEMM per
n2, with the inner twiddle folded in, runs over the n1 blocks that hold
the rows read, then one k2-point GEMM completes the stage; both matrices
are strided views of M1, and the passes run per chunk like the other
stages.  They factor each width group's block stage the same way, where
m = p * q and p, the largest divisor of m not above sqrt(m), is at least
8 (m = 64 = 8 * 8 and 128 = 8 * 16 factor, m = 60 does not).  With input
column n = n1 * q + n2 and output column b = b1 + p * b2, a p-point GEMM
per n2, with the inner twiddle folded in, runs over n1, then per b1 one
q-point GEMM computes the rows b2 < ceil(keep / p) that cover the kept
columns; both matrices are strided views of the group's DFT matrix.
An n-point stage that reads a vector's first r inputs and keeps its first
c outputs costs r * c multiplications in one GEMM and
n1 * r + n * ceil(c / n1) in two passes, n = n1 * n2, and each group
takes the cheaper, so the k-point stage costs K(r) = min(k * r,
k1 * r + k * k2) per grid column and the block stage
B(m, c) = min(m * c, m * (p + ceil(c / p))) per document, grid row and
channel; an unfactored k or m keeps the one-GEMM cost.  (At k = 256, two
passes pay from r = 18 rows on.)  The group filters' transforms prune
and factor the same way, reading r'_w = ceil(n_w / m_w) rows and keeping
every column.  A convolution over D channels counts (``convolve_cmuls``)

    ceil(D/2) * (sum_w c_w K(r_w) + k m_total + k * sum_i B(m_i, m_i)
                 + sum_w (m_w K(r'_w) + k m_w + k B(m_w, m_w) + 2 k m_w)
                 + m_total K(k) + k m_total + k * sum_i B(m_i, b_w(i))
                 + 2 k m_total)

complex multiplications: the pruned, paired forward; per group the
filter's transform and two per filter cell for the split's A and B (see
``split_dual_real``); the paired, pruned inverse; and per cell and paired
channel two for the split and product, conj(z) * A + conj(r) * B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import counting
from .linalg import dft_matrix, gemm
from .packing import (
    DEFAULT_K,
    IndexMap,
    PackedLayout,
    WidthGroup,
    _span_scale,
    build_layout,
    build_p1,
    build_p2,
    build_pre_ifft_map,
    width_groups,
)
from .signal import FilterBank, PackedSignal, _check_convolution_args, embed_filter


@dataclass(frozen=True, eq=False)
class RubiConvPlan:
    """Precomputed, layout-adaptive structures, reusable across layers.

    A plan is a pure function of (doc_lengths, filter_len, k); two plans
    built from equal inputs are bit-identical.  Every array it holds is
    read-only, so one plan can be shared across layers and threads.
    """

    layout: PackedLayout
    m1: np.ndarray  # (k, k) first-stage DFT
    groups: tuple[WidthGroup, ...]  # the grid's width groups, with their live rows and columns
    twiddles: tuple[np.ndarray, ...]  # per group, (m, k) with w_{k*m}^(b*a) at [b, a]
    m2: tuple[np.ndarray, ...]  # per group, the (m, m) second-stage DFT
    p1: IndexMap  # packed vector -> grid, row-major per block
    pre_ifft: IndexMap  # cell-major spectrum -> grid, row-major per block
    p2: IndexMap  # cell-major grid -> packed vector, whole padded spans

    @property
    def k(self) -> int:
        return self.layout.k

    @property
    def nbytes(self) -> int:
        """Bytes of every distinct array the plan holds; a view counts as its base."""
        bases = {}
        maps = (self.p1, self.pre_ifft, self.p2)
        for array in (self.m1, *self.twiddles, *self.m2, *(m.src_flat for m in maps)):
            while isinstance(array.base, np.ndarray):
                array = array.base
            bases[id(array)] = array
        return sum(array.nbytes for array in bases.values())


def build_plan(doc_lengths: Sequence[int], filter_len: int, k: int = DEFAULT_K) -> RubiConvPlan:
    """Build every structure the transform needs for one packing.

    Each width group gets one twiddle table and one DFT matrix, shared by
    all of its documents.  Constructed element counts are reported to the
    operation counter; the k x k first-stage matrix is excluded since it
    depends only on k and is shared across all layouts.
    """
    layout = build_layout(doc_lengths, filter_len, k)
    groups = width_groups(layout)
    rows = np.arange(k, dtype=np.int64)[None, :]
    twiddles, m2 = [], []
    for group in groups:
        padded = k * group.width
        cols = np.arange(group.width, dtype=np.int64)[:, None]
        twiddles.append(np.exp((2j * np.pi / padded) * ((cols * rows) % padded)))
        m2.append(dft_matrix(group.width))
    counting.add_built_elements(sum(t.size for t in twiddles + m2))

    m1 = dft_matrix(k)
    p1, pre_ifft, p2 = build_p1(layout), build_pre_ifft_map(layout), build_p2(layout)
    for table in (m1, *twiddles, *m2, p1.src_flat, pre_ifft.src_flat, p2.src_flat):
        _freeze(table)
    return RubiConvPlan(
        layout=layout,
        m1=m1,
        groups=groups,
        twiddles=tuple(twiddles),
        m2=tuple(m2),
        p1=p1,
        pre_ifft=pre_ifft,
        p2=p2,
    )


def convolve_cmuls(layout: PackedLayout, channels: int) -> int:
    """Complex multiplications one fused ``convolve`` call counts (see the module notes)."""
    k, m_total = layout.k, layout.total_cols
    k1 = _k_factors(k)[0]
    forward = inverse = k * m_total  # the twiddles
    for g in width_groups(layout):
        m, cols, p = g.width, g.width * g.n_docs, _m_factors(g.width)[0]
        taps = -(-min(layout.filter_len, g.longest) // m)  # the group filter's live rows
        forward += cols * _dft_cmuls(k, k1, g.live_rows, k) + g.n_docs * k * _dft_cmuls(m, p, m, m)
        forward += m * _dft_cmuls(k, k1, taps, k) + k * m + k * _dft_cmuls(m, p, m, m) + 2 * k * m
        inverse += cols * _dft_cmuls(k, k1, k, k) + g.n_docs * k * _dft_cmuls(m, p, m, g.live_cols)
    return (channels + 1) // 2 * (forward + inverse + 2 * k * m_total)


def _freeze(array: np.ndarray) -> None:
    """Make an array, and every array whose memory it views, read-only."""
    while isinstance(array, np.ndarray):
        array.flags.writeable = False
        array = array.base


def transform_grid(
    plan: RubiConvPlan,
    grid: np.ndarray,
    *,
    skip_zero_rows: bool = False,
    skip_unread_cols: bool = False,
) -> np.ndarray:
    """Run the three frequency stages on an already loaded grid.

    Input cells hold document values row-major per block.  The output is
    the C-contiguous, cell-major (m_total, k, ...) array the block stage
    writes: cell (col_offsets[i] + b, a) holds frequency b * k + a of
    document i's padded-length DFT (see the module notes).  Input in C
    order, or held in (m_total, D, k) memory, is read without a copy; any
    other layout is copied once.
    The second DFT is applied to stacks of equal-width blocks, never as a
    dense matrix, so document blocks stay bit-level independent.

    Two flags prune the causal padding, per width group (``plan.groups``).
    ``skip_zero_rows`` promises that every document's input is zero at and
    past its length L_i: the k-point stage then reads only the group's
    first ``live_rows`` grid rows, and the rows past them are never read.
    ``skip_unread_cols`` says that only outputs at times t < L_i are read:
    the block stage then computes only the group's ``live_cols`` output
    columns and writes zeros into the rest.  Without them the transform is
    the full padded-length DFT.  With either, the k-point stage and each
    group's block stage run as two GEMM passes where ``_k_factors`` and
    ``_m_factors`` split k and the group's width, and that counts fewer
    multiplications (``_dft_cmuls``).
    """
    grid = np.asarray(grid, dtype=np.complex128)
    layout = plan.layout
    k, m_total = layout.k, layout.total_cols
    if grid.shape[:2] != (k, m_total):
        raise ValueError(f"grid leading shape {grid.shape} does not match {(k, m_total)}")
    width = int(np.prod(grid.shape[2:], dtype=np.int64))
    rows = grid.reshape(k, m_total * width)
    pruned = skip_zero_rows or skip_unread_cols
    work = np.empty((m_total, width, k), dtype=np.complex128)
    scratch = np.empty(max(plan.groups[-1].width, -(-m_total // _CHUNKS)) * width * k, dtype=np.complex128)
    for index, group in enumerate(plan.groups):
        live = group.live_rows if skip_zero_rows else k
        keep = group.live_cols if skip_unread_cols else group.width
        _group_stages(plan, index, rows, work, group.cols, live, keep, pruned, scratch)
    return work.reshape((m_total, k) + grid.shape[2:])


def _group_stages(
    plan: RubiConvPlan,
    index: int,
    rows: np.ndarray,
    work: np.ndarray,
    cols: slice,
    live: int,
    keep: int,
    pruned: bool,
    scratch: np.ndarray,
) -> None:
    """The three stages of width group ``index`` over the grid columns ``cols``.

    ``rows`` is the loaded (k, columns * D) grid and ``work`` its
    (columns, D, k) output; the k-point stage reads the first ``live``
    rows, and the block stage keeps the first ``keep`` output columns of
    each block.  ``pruned`` lets either stage run as two GEMM passes where
    that counts fewer multiplications, and ``scratch`` holds one chunk of
    either stage: its size over D * k sets the chunk's columns.
    """
    # The group walks its columns in chunks of whole documents (see
    # ``_CHUNKS``), running the three stages per chunk.
    # M1 is symmetric, so cells @ M1 is M1 @ grid, written column-major;
    # pruned, a group contracts over its live rows only.  Where that costs
    # fewer multiplications, the k-point stage runs as two GEMM passes and
    # leaves each cell's frequencies f = f1 + k1 * f2 in (f1, f2) order;
    # one GEMM is f1 = 1, where the two orders agree.  The twiddle is
    # applied in place through a strided view of the table in that order.
    # The block stage, in one GEMM or, pruned and where that costs fewer
    # multiplications, in two passes, writes into ``scratch`` (and
    # ``part``), and its result goes back, in natural order, into the
    # memory the chunk held in ``work``, with channels last, so that a
    # cell's channels are contiguous for the stages that follow.
    k, width = plan.k, work.shape[1]
    m_i, twiddle, dft = plan.groups[index].width, plan.twiddles[index], plan.m2[index]
    cells = rows.T
    counting.add_complex_muls((cols.stop - cols.start) * width * k, real_muls_each=4)  # the twiddles
    k1 = _k_factors(k)[0] if pruned else 1
    f1 = k1 if _dft_cmuls(k, k1, live, k) < k * live else 1
    f2 = k // f1
    table = twiddle.reshape(m_i, f2, f1).transpose(0, 2, 1)[:, None]
    p = _m_factors(m_i)[0] if pruned else 1
    p = p if _dft_cmuls(m_i, p, m_i, keep) < m_i * keep else 1
    step = scratch.size // (width * k) // m_i * m_i
    part = np.empty(step // p * width * k, dtype=np.complex128) if p > 1 else scratch
    for lo in range(cols.start, cols.stop, step):
        hi = min(lo + step, cols.stop)
        stack, n_docs, span = work[lo:hi], (hi - lo) // m_i, slice(lo * width, hi * width)
        if f1 == 1:
            gemm(cells[span, :live], plan.m1[:live], out=stack.reshape(-1, k))
        else:
            _two_pass_k_stage(plan.m1, rows[:, span], stack, live, k1, scratch)
        docs = stack.reshape(n_docs, m_i, width, f1, f2)
        docs *= table
        _block_stage(dft, docs, keep, p, scratch, part)


# convolve's pruned transforms run an n-point DFT stage as two GEMM passes
# when n = n1 * n2 and n1, the largest divisor of n not above sqrt(n), is
# at least this: _MIN_FACTOR for the k-point stage, _MIN_BLOCK_FACTOR for a
# width group's m-point block stage.  Smaller factors lose: the short-docs
# workload at k = 64 = 8 * 8 ran about 1.15x slower with its k-point stage
# in two passes, whose GEMMs then contract over at most 8 rows, while the
# block stage, whose GEMMs are D * k columns wide, ran no slower at
# m = 64 = 8 * 8 and faster at m = 128 = 8 * 16.
_MIN_FACTOR = 16
_MIN_BLOCK_FACTOR = 8

# ``transform_grid`` takes each width group's columns in chunks of whole
# documents, of at most max(m_max, ceil(m_total / _CHUNKS)) columns, m_max
# being the widest document's width, so ``scratch`` holds one chunk of
# either stage.  All but a group's last chunk hold more than half that
# many columns.  A chunk makes at most k2 + 1 GEMM calls in the k-point
# stage (one where it is one GEMM) and p + q in the block stage of a width
# m = p * q (one where it is one GEMM), so a call makes at most
# (k2 + 1 + s) * (2 * _CHUNKS + groups), s being the largest such p + q
# over the groups, however many documents there are.
_CHUNKS = 16


def _factors(n: int, least: int) -> tuple[int, int]:
    """(n1, n2) of a two-pass n-point DFT, or (1, n) where n1 would be below ``least``."""
    n1 = max(d for d in range(1, math.isqrt(n) + 1) if n % d == 0)
    return (n1, n // n1) if n1 >= least else (1, n)


def _k_factors(k: int) -> tuple[int, int]:
    """(k1, k2) of the pruned two-pass k-point stage, or (1, k) for one GEMM."""
    return _factors(k, _MIN_FACTOR)


def _m_factors(m: int) -> tuple[int, int]:
    """(p, q) of the pruned two-pass block stage of width m, or (1, m) for one GEMM."""
    return _factors(m, _MIN_BLOCK_FACTOR)


def _dft_cmuls(n: int, n1: int, rows: int, keep: int) -> int:
    """Complex multiplications of an n-point DFT stage per vector, the cheaper way.

    The vector's first ``rows`` inputs are read and its first ``keep``
    outputs kept.  One GEMM costs rows * keep.  Two passes, n = n1 * n2,
    cost n1 * rows in the first (n1 outputs per input read) and
    n * ceil(keep / n1) in the second (n2 inputs each for the
    n1 * ceil(keep / n1) outputs that cover the kept ones); at n1 = 1 that
    is always more than one GEMM.
    """
    return min(rows * keep, n1 * rows + n * -(-keep // n1))


def _two_pass_k_stage(
    m1: np.ndarray, x: np.ndarray, cells: np.ndarray, live: int, k1: int, scratch: np.ndarray
) -> None:
    """k-point DFT of a chunk of grid columns, in two GEMM passes.

    ``x`` is the chunk's (k, columns * D) slice of the loaded grid, and
    ``cells`` its (columns, D, k) memory in ``work``, which receives each
    cell's frequencies f = f1 + k1 * f2 in (f1, f2) order.  With input row
    a = n1 * k2 + n2, w_k^(f a) = w_k^(f1 (n1 k2 + n2)) * w_k2^(f2 n2).
    The first pass runs, per n2, the k1-point DFT over n1 with the inner
    twiddle w_k^(f1 n2) folded in, into ``scratch``; the second runs the
    k2-point DFT over n2 as one GEMM.  Both matrices are strided views of
    M1.  The first pass reads only rows a < ``live``: the last n1 block,
    which holds rows past them, is read only for n2 < ``rem``.
    """
    k = cells.shape[-1]
    k2, n = k // k1, x.shape[1]
    n1 = -(-live // k2)  # n1 blocks holding live rows
    rem = live - (n1 - 1) * k2  # live rows of the last one
    x = x.reshape(k1, k2, n)  # [n1, n2, r]
    y = scratch[: k * n].reshape(k2, n, k1)  # [n2, r, f1]
    for n2 in range(k2):
        blocks = n1 if n2 < rem else n1 - 1
        if blocks:
            # [n1, f1] = w_k^((n1 k2 + n2) f1)
            gemm(x[:blocks, n2].T, m1[n2 : blocks * k2 : k2, :k1], out=y[n2])
        else:
            y[n2] = 0
    # [n2, f2] = w_k^(n2 k1 f2) = w_k2^(n2 f2)
    gemm(y.reshape(k2, n * k1).T, m1[::k1, :k2], out=cells.reshape(n * k1, k2))


def _block_stage(
    dft: np.ndarray, docs: np.ndarray, keep: int, p: int, scratch: np.ndarray, part: np.ndarray
) -> None:
    """m-point DFTs of a chunk's documents, written back in natural order.

    ``docs`` is the chunk's (n_docs, m, D, f1, f2) memory in ``work``, which
    receives, per document, output columns b < ``keep`` as (m, f2, f1, D)
    and zeros past them.  With p = 1 one GEMM computes the kept columns
    into ``scratch``.  With m = p * q, input column n = n1 * q + n2 and
    output column b = b1 + p * b2, w_m^(b n) = w_m^(b1 (n1 q + n2)) *
    w_q^(b2 n2).  The first pass runs, per n2, the p-point DFT over n1 with
    the inner twiddle w_m^(b1 n2) folded in, into ``scratch``; the second
    runs, per b1, the q-point DFT over n2 for b2 < ceil(keep / p) into
    ``part``, one chunk's width over p.  Both matrices are strided views
    of the group's DFT matrix, and one GEMM is the second pass at p = 1.
    """
    n_docs, m, width, f1, f2 = docs.shape
    q, b2s, cols = m // p, -(-keep // p), width * f1 * f2
    x = docs.reshape(n_docs, m, 1, cols)  # [doc, n2, b1, column]
    if p > 1:
        y = scratch[: docs.size].reshape(q, n_docs, p, cols)  # [n2, doc, b1, column]
        for n2 in range(q):
            # [b1, n1] = w_m^(b1 (n1 q + n2))
            gemm(dft[:p, n2::q], docs.reshape(n_docs, p, q, cols)[:, :, n2], out=y[n2])
        x, scratch = y.transpose(1, 0, 2, 3), part
    out = scratch[: n_docs * b2s * cols].reshape(n_docs, b2s, cols)
    blocks = docs.reshape(n_docs, m, f2, f1, width)
    for b1 in range(p):
        # [b2, n2] = w_m^(p b2 n2) = w_q^(b2 n2)
        gemm(dft[: b2s * p : p, :q], x[:, :, b1], out=out)
        blocks[:, b1 : b2s * p : p] = out.reshape(n_docs, b2s, width, f1, f2).transpose(0, 1, 4, 3, 2)
    blocks[:, keep:] = 0


def forward(plan: RubiConvPlan, x: np.ndarray) -> np.ndarray:
    """Padded-length DFT of every document in one packed complex vector.

    The slice of the output covering document i equals the L_i'-point DFT
    of that document's padded values, in natural frequency order.  Extra
    trailing axes of ``x`` are processed as independent channels.
    """
    x = np.asarray(x, dtype=np.complex128)
    positions = x.shape[0] if x.ndim else 0  # a layout has at least one
    if positions != plan.layout.total_padded:
        raise ValueError(
            f"packed vector has {positions} positions, plan expects "
            f"{plan.layout.total_padded}"
        )
    return plan.p2.apply(transform_grid(plan, plan.p1.apply(x)))


def inverse(plan: RubiConvPlan, y: np.ndarray) -> np.ndarray:
    """Invert ``forward`` through conjugation: ifft(y) = conj(fft(conj(y))) / L_i'."""
    out = np.conj(forward(plan, np.conj(y)))
    counting.add_real_muls(2 * out.size)
    out *= _span_scale(plan.layout).reshape((-1,) + (1,) * (out.ndim - 1))
    return out


def convolve(
    plan: RubiConvPlan, x: PackedSignal, bank: FilterBank, fused: bool = True
) -> PackedSignal:
    """Depthwise causal convolution of a packed signal, document by document.

    With ``fused=True`` (default) the forward transforms adjacent channels
    of the batch as one complex channel, over ceil(D/2) channels, and the
    filter once per width group, paired the same way; ``fused=False``
    keeps a two-transform reference path whose spectra come straight from
    separate forward passes over all D channels, with one filter copy per
    document.  Both run the same paired inverse, which takes adjacent
    channels through one complex transform, and both skip the causal
    padding inside their GEMMs (see the module notes).  Both produce the
    causal linear convolution truncated to each document's original length,
    re-embedded in the padded buffer with zero tails.
    """
    _check_convolution_args(plan.layout, x, bank)

    # Each intermediate is dropped once the next stage holds its result, to
    # keep peak memory down.  Both inputs are zero at and past each
    # document's length (PackedSignal checks the tails, embed_filter keeps
    # at most L_i taps), so the forward skips the grid rows past them.
    if fused:
        # Every document of a width group shares L' = k * m, so the filter
        # with the group's longest document's min(L_F, L_i) taps serves
        # them all (see the module notes).  It is laid out on a layout of
        # those longest documents, one per group, where build_layout gives
        # each its group's width.
        longest = [group.longest for group in plan.groups]
        taps = embed_filter(build_layout(longest, plan.layout.filter_len, plan.k), bank)
        filter_spectra = _filter_spectra(plan, _as_complex_pairs(taps))
        del taps
        grid = plan.p1.apply(_as_complex_pairs(x.values))
        spectrum = transform_grid(plan, grid, skip_zero_rows=True)
        del grid
        paired = split_dual_real(plan, spectrum, filter_spectra)
        del spectrum, filter_spectra
    else:
        taps_grid = embed_filter(plan.layout, bank)
        grid = plan.p1.apply(x.values.astype(np.complex128))
        batch_hat = transform_grid(plan, grid, skip_zero_rows=True)
        del grid
        grid = plan.p1.apply(taps_grid.astype(np.complex128))
        del taps_grid
        filter_hat = transform_grid(plan, grid, skip_zero_rows=True)
        del grid
        counting.add_complex_muls(batch_hat.size, real_muls_each=4)
        product = np.multiply(batch_hat, filter_hat, out=batch_hat)
        del batch_hat, filter_hat
        paired = np.empty(product.shape[:2] + ((x.channels + 1) // 2,), dtype=np.complex128)
        _pair_channels(product, paired)
        del product
    # Only times t < L_i are kept, so the inverse skips the columns past them.
    grid = plan.pre_ifft.apply(paired)
    del paired
    # The inverse gives L_i' * (y_a + i*y_b): its float64 view holds the real
    # outputs in channel order, and is scaled in place.
    time_cells = transform_grid(plan, grid, skip_unread_cols=True).view(np.float64)
    del grid
    counting.add_real_muls(time_cells.size)
    for group in plan.groups:
        docs = time_cells[group.cols]
        docs *= 1.0 / (plan.k * group.width)

    # An odd D drops its zero partner; the sliced view unloads without a copy.
    values = plan.p2.apply(time_cells[..., : x.channels])
    del time_cells
    return PackedSignal._from_output(values, plan.layout)


def _pair_channels(product: np.ndarray, out: np.ndarray) -> None:
    """Write the inverse input conj(P_a) + i*conj(P_b), channels a = 2j, b = 2j + 1.

    That is (a_r + b_i) + i*(b_r - a_i), built from the float64 view of the
    C-contiguous, cell-major product; an odd last channel is paired with
    zero, giving conj(P_a).  ``out`` is a C-contiguous array of the
    product's cells with ceil(D/2) channels.
    """
    channels = product.shape[-1]
    pairs = channels // 2
    parts = product.view(np.float64).reshape(-1, channels, 2)
    a, b = parts[:, 0 : 2 * pairs : 2], parts[:, 1 : 2 * pairs : 2]
    q = out.view(np.float64).reshape(-1, channels - pairs, 2)
    np.add(a[..., 0], b[..., 1], out=q[:, :pairs, 0])
    np.subtract(b[..., 0], a[..., 1], out=q[:, :pairs, 1])
    if channels % 2:
        q[:, pairs, 0] = parts[:, -1, 0]
        np.negative(parts[:, -1, 1], out=q[:, pairs, 1])


def _as_complex_pairs(values: np.ndarray) -> np.ndarray:
    """Real (n, D) channels as (n, ceil(D/2)) complex ones, x_2j + i * x_2j+1.

    A C-contiguous float64 array with even D is viewed, not copied; an odd
    D is copied once, its last channel paired with zero.
    """
    n, channels = values.shape
    if channels % 2:
        values = np.concatenate([values, np.zeros((n, 1))], axis=1)
    return np.ascontiguousarray(values, dtype=np.float64).view(np.complex128)


def _filter_spectra(plan: RubiConvPlan, taps: np.ndarray) -> np.ndarray:
    """Transform each width group's filter, laid out as one document of that group.

    ``taps`` holds the paired filter channels, one padded span of k * m
    positions per group in group order.  A span read as (k, m, channels)
    is its row-major grid, so it goes through the group's stages with no
    gather, its live rows those of its taps.  Returns the cell-major
    (sum of the widths, k, channels) spectra, one block of m columns per
    group.
    """
    k, channels = plan.k, taps.shape[1]
    widths = [group.width for group in plan.groups]
    spectra = np.empty((sum(widths), channels, k), dtype=np.complex128)
    scratch = np.empty(max(widths) * channels * k, dtype=np.complex128)
    col = 0
    for index, m in enumerate(widths):
        n_taps = min(plan.layout.filter_len, plan.groups[index].longest)
        rows = taps[k * col : k * (col + m)].reshape(k, m * channels)
        live = -(-n_taps // m)
        _group_stages(plan, index, rows, spectra[col : col + m], slice(0, m), live, m, True, scratch)
        col += m
    return spectra.reshape(-1, k, channels)


# Bytes one chunk of ``split_dual_real`` works on, small enough to stay in a
# core's private cache.  Per cell and paired channel, _SPLIT_CELL_BYTES:
# 16 of spectrum, 16 of temporary, 16 of output, and at most 32 of the
# filter's A and B, which the chunk's documents share.  A chunk is whole
# grid columns, at least one: as many whole runs of a width group as fit,
# or, where one run does not fit, that run in pieces.
_SPLIT_CHUNK_BYTES = 1 << 20
_SPLIT_CELL_BYTES = 80


def split_dual_real(plan: RubiConvPlan, spectrum: np.ndarray, filter_spectra: np.ndarray) -> np.ndarray:
    """Paired inverse input of X * F per channel, from paired spectra of both.

    ``spectrum`` is the cell-major transform z = X_a + i * X_b of paired
    real channels a = 2j and b = 2j + 1, and ``filter_spectra`` the same
    for the filter, one block of m columns per width group
    (``_filter_spectra``).  Conjugate symmetry gives X_a = (z + r) / 2 and
    X_b = -i/2 * (z - r), r being conj(z at -freq), and likewise F_a and
    F_b, and the inverse's input is conj(X_a F_a) + i * conj(X_b F_b).
    Expanded, that is conj(z) * A + conj(r) * B with the group's
    A = conj(F_a - F_b) / 2 and B = conj(F_a + F_b) / 2, broadcast over
    its documents.  Each document's spectrum is one run of n = k * m_i
    frequencies in natural order, so conj(r[f]) = run[(-f) mod n] is the
    run read backwards from its end, after its first element: a reversed
    view.  All of it runs per chunk of grid columns sized to
    ``_SPLIT_CHUNK_BYTES``, A and B once per group and piece of its runs,
    so only the reads of the spectra and the writes of the result go to
    memory.  Returns the cell-major array of z's shape.
    """
    z = np.ascontiguousarray(spectrum, dtype=np.complex128)
    zf = np.ascontiguousarray(filter_spectra, dtype=np.complex128)
    m_total, k = plan.layout.total_cols, plan.k
    if z.ndim != 3 or z.shape[:2] != (m_total, k):
        raise ValueError(f"spectrum shape {z.shape} does not match {(m_total, k)}")
    pairs = z.shape[2]
    widths = sum(group.width for group in plan.groups)
    if zf.shape != (widths, k, pairs):
        raise ValueError(f"filter spectra shape {zf.shape} does not match {(widths, k, pairs)}")
    paired = np.empty_like(z)
    step = max(1, _SPLIT_CHUNK_BYTES // (_SPLIT_CELL_BYTES * k * pairs))
    size = min(step, m_total) * k * pairs
    t_buf, a_buf, b_buf = (np.empty(size, dtype=np.complex128) for _ in range(3))
    counting.add_complex_muls(2 * (z.size + zf.size), real_muls_each=4)
    col = 0
    for group in plan.groups:
        # A chunk is whole runs of n frequencies where one fits, else one run in pieces.
        n, docs, piece = k * group.width, max(1, step // group.width), min(step, group.width) * k
        fz = zf[col : col + group.width].reshape(1, n, pairs)
        col += group.width
        runs, out = (arr[group.cols].reshape(group.n_docs, n, pairs) for arr in (z, paired))
        for lo in range(0, n, piece):
            hi = min(lo + piece, n)
            a, b, t = (buf[: (hi - lo) * pairs].reshape(1, hi - lo, pairs) for buf in (a_buf, b_buf, t_buf))
            _group_filter(fz, lo, hi, a, b, t)
            for d in range(0, group.n_docs, docs):
                # Every multiply writes a buffer it does not read, from
                # operands of equal rank: numpy rounds a one-element complex
                # multiply in place, or one that broadcasts an operand of
                # lower rank, an ulp differently, and the result would then
                # depend on the chunking.
                run, o = runs[d : d + docs], out[d : d + docs, lo:hi]
                t = t_buf[: o.size].reshape(o.shape)
                np.multiply(run[:, lo:hi], a, out=t)
                np.conjugate(t, out=o)
                # conj(r[f]) = run[(-f) mod n]: run[0] at f = 0, run[n - f] from f = 1 on.
                if lo == 0:
                    np.multiply(run[:, :1], b[:, :1], out=t[:, :1])
                f = max(lo, 1)
                np.multiply(run[:, n - f : n - hi : -1], b[:, f - lo :], out=t[:, f - lo :])
                o += t
    return paired


def _group_filter(run: np.ndarray, lo: int, hi: int, a: np.ndarray, b: np.ndarray, t: np.ndarray) -> None:
    """conj(A) and B of ``split_dual_real`` at frequencies lo <= f < hi of a paired filter run.

    With u = conj(z) and v = z at -freq, read as the split reads the data,
    conj(F_a) = (u + v) / 2 and conj(F_b) = i/2 * (u - v), so
    A = conj(F_a - F_b) / 2 = s + d and B = conj(F_a + F_b) / 2 = s - d
    for s = (u + v) / 4 and d = i/4 * (v - u).  ``run`` is (1, n, D),
    and conj(A) and B go into ``a`` and ``b``, (1, hi - lo, D) like the
    temporary ``t``.
    """
    n = run.shape[1]
    np.conjugate(run[:, lo:hi], out=t)
    if lo == 0:
        b[:, 0] = run[:, 0]
    f = max(lo, 1)
    b[:, f - lo :] = run[:, n - f : n - hi : -1]
    np.add(t, b, out=a)
    b -= t
    np.multiply(a, 0.25, out=t)
    np.multiply(b, 0.25j, out=a)
    np.subtract(t, a, out=b)
    a += t
    np.conjugate(a, out=a)
