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
as stacked GEMMs on views of it, with no copy in.  Each GEMM stacks at
most m_max // m_i documents, m_max being the widest document's width, so
no temporary is larger than one block of the widest document.  Results
are copied out with the channels last, into the (m_total, k, D) array
that ``transform_grid`` returns.  In this cell-major spectrum, frequency
f = b * k + a of document i sits in cell (col_offsets[i] + b, a), so each
document's spectrum is one contiguous run in natural frequency order.
The dual-real split, the product, the channel pairing and the index maps
all read it as it is.  Twiddles and DFT matrices depend only on a
document's width m_i, so the plan builds one of each per distinct width
and documents of equal width share them.

The convolution entry point packs the real input and the real filter into
one complex tensor (batch + i * filter), transforms once, recovers both
spectra through conjugate symmetry, multiplies point-wise on the grid,
reorders for the inverse, and reuses the forward kernel via
ifft(x) = conj(fft(conj(x))) / n.  Zeroing each document's tail past its
original length at the end removes the padding and leaves a strictly
causal, boundary-respecting result.

The inverse uses the outputs' realness too.  Each channel's product
spectrum P is Hermitian within every document, so for adjacent channels
a = 2j and b = 2j + 1 the forward kernel applied to conj(P_a) + i*conj(P_b)
returns L_i' * (y_a + i*y_b): one complex inverse over ceil(D/2) channels
yields all D real outputs, already in channel order when viewed as float64.
An odd D pairs its last channel with zero.  Paired channels share one
inverse, so they share its roundoff, and a NaN or inf in channel 2j can
reach channel 2j + 1 (and back), but only within the same document: no
stage mixes documents.

Inside ``convolve`` only, both transforms skip the causal padding, per
width group w of c_w columns (``packing.WidthGroup``).  The input is zero
at and past each document's length L_i, and a row-major load puts
positions t < L_i in rows r < ceil(L_i / m_i), so the forward's k-point
GEMM contracts over the group's first r_w = max ceil(L_i / m_i) rows only.
Only times t < L_i are kept, and the inverse's output cell (a, b) holds
time b * k + a, so its block stage computes only the first
b_w = max ceil(L_i / k) columns of each block and writes zeros into the
rest.  ``forward``, ``inverse`` and a default ``transform_grid`` call run
the full transform, k^2 m_total + k * sum(m_i^2) + k m_total complex
multiplications per channel.  A convolution over D channels counts
(``convolve_cmuls``)

    D * (k * sum_w c_w r_w + k m_total + k * sum_i m_i^2)
      + ceil(D/2) * (k^2 m_total + k m_total + k * sum_i m_i b_w(i))
      + 3 k m_total D

complex multiplications: the pruned forward, the paired, pruned inverse,
and per cell and channel two for the dual-real split and one for the
product.
"""

from __future__ import annotations

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
    _column_geometry,
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
    twiddle: np.ndarray  # (k, m_total) view of an (m_total, k) table; block i holds w_{L_i'}^(a*b)
    m2_blocks: tuple[np.ndarray, ...]  # (m_i, m_i) second-stage DFTs, one array per width
    groups: tuple[WidthGroup, ...]  # the grid's width groups, with their live rows and columns
    p1: IndexMap  # packed vector -> grid, row-major per block
    pre_ifft: IndexMap  # cell-major spectrum -> grid, row-major per block
    p2: IndexMap  # cell-major grid -> packed vector, whole padded spans
    inv_scale: np.ndarray  # (m_total,), 1 / L_i' for each column of document i
    rev_cols_first: np.ndarray  # (m_total,) column holding frequency -f, for grid row 0
    rev_cols_rest: np.ndarray  # (m_total,) the same for rows a > 0, whose row is k - a

    @property
    def k(self) -> int:
        return self.layout.k


def build_plan(doc_lengths: Sequence[int], filter_len: int, k: int = DEFAULT_K) -> RubiConvPlan:
    """Build every structure the transform needs for one packing.

    Each distinct document width m_i gets one twiddle table and one DFT
    matrix, shared by all documents of that width.  Constructed element
    counts are reported to the operation counter; the k x k first-stage
    matrix is excluded since it depends only on k and is shared across all
    layouts.
    """
    layout = build_layout(doc_lengths, filter_len, k)

    rows = np.arange(k, dtype=np.int64)[None, :]
    twiddles, dfts = {}, {}
    for m_i in sorted(set(layout.cols_per_doc)):
        padded = k * m_i
        cols = np.arange(m_i, dtype=np.int64)[:, None]
        twiddles[m_i] = np.exp((2j * np.pi / padded) * ((cols * rows) % padded))
        dfts[m_i] = dft_matrix(m_i)
    # Column-major: row c holds the twiddles of grid column c.  Grid blocks
    # are in width order.
    twiddle = np.concatenate([twiddles[m_i] for m_i in sorted(layout.cols_per_doc)])

    # Cell (a, c) holds frequency f = b*k + a of its document, b being the
    # local column.  Frequency (-f) mod L_i' sits in row (-a) mod k, at local
    # column (-b) mod m_i when a = 0 and m_i - 1 - b otherwise.
    _, first, local, width = _column_geometry(layout)
    rev_cols_first = first + (-local) % width
    rev_cols_rest = first + width - 1 - local
    inv_scale = 1.0 / (k * width).astype(np.float64)
    counting.add_built_elements(
        twiddle.size
        + sum(b.size for b in dfts.values())
        + rev_cols_first.size
        + rev_cols_rest.size
        + inv_scale.size
    )

    m1 = dft_matrix(k)
    p1, pre_ifft, p2 = build_p1(layout), build_pre_ifft_map(layout), build_p2(layout)
    tables = (m1, twiddle, inv_scale, rev_cols_first, rev_cols_rest, *dfts.values())
    for table in tables + (p1.src_flat, pre_ifft.src_flat, p2.src_flat):
        _freeze(table)
    return RubiConvPlan(
        layout=layout,
        m1=m1,
        twiddle=twiddle.T,
        m2_blocks=tuple(dfts[m_i] for m_i in layout.cols_per_doc),
        groups=width_groups(layout),
        p1=p1,
        pre_ifft=pre_ifft,
        p2=p2,
        inv_scale=inv_scale,
        rev_cols_first=rev_cols_first,
        rev_cols_rest=rev_cols_rest,
    )


def convolve_cmuls(layout: PackedLayout, channels: int) -> int:
    """Complex multiplications one fused ``convolve`` call counts (see the module notes)."""
    k, m_total, groups = layout.k, layout.total_cols, width_groups(layout)
    k_stage = k * sum(g.n_docs * g.width * g.live_rows for g in groups)
    blocks = k * sum(g.n_docs * g.width * g.width for g in groups)
    live_blocks = k * sum(g.n_docs * g.width * g.live_cols for g in groups)
    forward = k_stage + k * m_total + blocks
    inverse = k * k * m_total + k * m_total + live_blocks
    return channels * forward + (channels + 1) // 2 * inverse + 3 * k * m_total * channels


def _freeze(array: np.ndarray) -> None:
    """Make an array, and every array whose memory it views, read-only."""
    while isinstance(array, np.ndarray):
        array.flags.writeable = False
        array = array.base


def transform_grid(
    plan: RubiConvPlan,
    grid: np.ndarray,
    gemm_mode: str = "standard",
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
    past its length L_i: the k-point GEMM then reads only the group's first
    ``live_rows`` grid rows, and the rows past them are never read.
    ``skip_unread_cols`` says that only outputs at times t < L_i are read:
    the block stage then computes only the group's ``live_cols`` output
    columns and writes zeros into the rest.  Without them the transform is
    the full padded-length DFT.
    """
    grid = np.asarray(grid, dtype=np.complex128)
    layout = plan.layout
    k, m_total = layout.k, layout.total_cols
    if grid.shape[:2] != (k, m_total):
        raise ValueError(f"grid leading shape {grid.shape} does not match {(k, m_total)}")
    width = int(np.prod(grid.shape[2:], dtype=np.int64))
    cells = grid.reshape(k, m_total * width).T

    # M1 is symmetric, so cells @ M1 is M1 @ grid, written column-major.
    # Pruned, each width group contracts over its live rows only.
    work = np.empty((m_total, width, k), dtype=np.complex128)
    runs = [(g.first_col, g.live_rows) for g in plan.groups] if skip_zero_rows else [(0, k)]
    for (lo, n_rows), (hi, _) in zip(runs, runs[1:] + [(m_total, 0)]):
        m1 = plan.m1 if n_rows == k else plan.m1[:n_rows]
        gemm(cells[lo * width : hi * width, :n_rows], m1, gemm_mode, out=work[lo:hi].reshape(-1, k))
    # Twiddle stage; kept as plain complex multiplication in either mode.
    counting.add_complex_muls(work.size, real_muls_each=4)
    work *= plan.twiddle.T[:, None, :]
    # Width groups are contiguous and run as capped stacks (see the module
    # notes).  Results are copied out with channels last, so that a cell's
    # channels are contiguous for the stages that follow.
    out = np.empty((m_total, k, width), dtype=np.complex128)
    m_max = plan.groups[-1].width
    for group in plan.groups:
        m_i, step = group.width, m_max // group.width
        cols = slice(group.first_col, group.first_col + m_i * group.n_docs)
        keep = group.live_cols if skip_unread_cols else m_i
        m2 = plan.m2_blocks[group.doc][:keep]
        rows = work[cols].reshape(-1, m_i, width * k)
        blocks = out[cols].reshape(-1, m_i, k, width)
        blocks[:, keep:] = 0
        for lo in range(0, group.n_docs, step):
            blocks[lo : lo + step, :keep] = (
                gemm(m2, rows[lo : lo + step], gemm_mode)
                .reshape(-1, keep, width, k)
                .transpose(0, 1, 3, 2)
            )
    return out.reshape((m_total, k) + grid.shape[2:])


def forward(plan: RubiConvPlan, x: np.ndarray, gemm_mode: str = "standard") -> np.ndarray:
    """Padded-length DFT of every document in one packed complex vector.

    The slice of the output covering document i equals the L_i'-point DFT
    of that document's padded values, in natural frequency order.  Extra
    trailing axes of ``x`` are processed as independent channels.
    """
    x = np.asarray(x, dtype=np.complex128)
    if x.shape[0] != plan.layout.total_padded:
        raise ValueError(
            f"packed vector has {x.shape[0]} positions, plan expects "
            f"{plan.layout.total_padded}"
        )
    return plan.p2.apply(transform_grid(plan, plan.p1.apply(x), gemm_mode))


def inverse(plan: RubiConvPlan, y: np.ndarray, gemm_mode: str = "standard") -> np.ndarray:
    """Invert ``forward`` through conjugation: ifft(y) = conj(fft(conj(y))) / L_i'."""
    out = np.conj(forward(plan, np.conj(y), gemm_mode))
    counting.add_real_muls(2 * out.size)
    out *= _span_scale(plan.layout).reshape((-1,) + (1,) * (out.ndim - 1))
    return out


def convolve(
    plan: RubiConvPlan,
    x: PackedSignal,
    bank: FilterBank,
    fused: bool = True,
    gemm_mode: str = "standard",
) -> PackedSignal:
    """Depthwise causal convolution of a packed signal, document by document.

    With ``fused=True`` (default) the batch and filter share one forward
    transform via real-to-complex packing; ``fused=False`` keeps a
    two-transform reference path whose spectra come straight from separate
    forward passes.  Both run the same paired inverse, which takes adjacent
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
    taps_grid = embed_filter(plan.layout, bank)
    if fused:
        packed = np.empty(x.values.shape, dtype=np.complex128)
        packed.real = x.values
        packed.imag = taps_grid
        del taps_grid
        grid = plan.p1.apply(packed)
        del packed
        spectrum = transform_grid(plan, grid, gemm_mode, skip_zero_rows=True)
        del grid
        batch_hat, filter_hat = split_dual_real(plan, spectrum)
        del spectrum
    else:
        grid = plan.p1.apply(x.values.astype(np.complex128))
        batch_hat = transform_grid(plan, grid, gemm_mode, skip_zero_rows=True)
        del grid
        grid = plan.p1.apply(taps_grid.astype(np.complex128))
        del taps_grid
        filter_hat = transform_grid(plan, grid, gemm_mode, skip_zero_rows=True)
        del grid

    counting.add_complex_muls(batch_hat.size, real_muls_each=4)
    product = np.multiply(batch_hat, filter_hat, out=batch_hat)
    del batch_hat, filter_hat

    paired = _pair_channels(product)
    del product
    # Only times t < L_i are kept, so the inverse skips the columns past them.
    grid = plan.pre_ifft.apply(paired)
    del paired
    # The inverse gives L_i' * (y_a + i*y_b): its float64 view holds the real
    # outputs in channel order, and is scaled in place.
    time_cells = transform_grid(plan, grid, gemm_mode, skip_unread_cols=True).view(np.float64)
    del grid
    counting.add_real_muls(time_cells.size)
    time_cells *= plan.inv_scale[:, None, None]

    values = plan.p2.apply(time_cells)
    del time_cells
    if values.shape[1] != x.channels:  # an odd D drops its zero partner
        values = np.ascontiguousarray(values[:, : x.channels])
    return PackedSignal._from_output(values, plan.layout)


def _pair_channels(product: np.ndarray) -> np.ndarray:
    """Inverse input conj(P_a) + i*conj(P_b) for channels a = 2j, b = 2j + 1.

    That is (a_r + b_i) + i*(b_r - a_i), built from the float64 view of the
    cell-major product; an odd last channel is paired with zero, giving
    conj(P_a).  Returns a cell-major (m_total, k, ceil(D/2)) array.
    """
    channels = product.shape[2]
    pairs = channels // 2
    parts = product.view(np.float64).reshape(-1, channels, 2)
    a, b = parts[:, 0 : 2 * pairs : 2], parts[:, 1 : 2 * pairs : 2]
    paired = np.empty(product.shape[:2] + (channels - pairs,), dtype=np.complex128)
    q = paired.view(np.float64).reshape(-1, channels - pairs, 2)
    np.add(a[..., 0], b[..., 1], out=q[:, :pairs, 0])
    np.subtract(b[..., 0], a[..., 1], out=q[:, :pairs, 1])
    if channels % 2:
        q[:, pairs, 0] = parts[:, -1, 0]
        np.negative(parts[:, -1, 1], out=q[:, pairs, 1])
    return paired


def split_dual_real(plan: RubiConvPlan, spectrum: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Recover the two real-signal spectra from one packed transform.

    Given the grid spectrum of z = b + i*f for real b and f, conjugate
    symmetry gives b_hat = (z + conj(z at -freq)) / 2 and
    f_hat = -i/2 * (z - conj(z at -freq)), where the negated-frequency
    gather stays inside each document's run.  It reads the cell-major
    spectrum that ``transform_grid`` returns with one gather of whole cells,
    and returns both spectra in the same layout.
    """
    z = np.asarray(spectrum, dtype=np.complex128)
    m_total, k = z.shape[:2]
    # Flat cell c*k + a holds frequency f; -f sits in cell
    # rev_cols_first[c]*k when a = 0 and rev_cols_rest[c]*k + k - a otherwise.
    src = np.empty((m_total, k), dtype=np.int64)
    np.multiply(plan.rev_cols_first, k, out=src[:, 0])
    np.subtract((plan.rev_cols_rest * k + k)[:, None], np.arange(1, k), out=src[:, 1:])
    rev = z.reshape(m_total * k, -1).take(src.ravel(), axis=0).reshape(z.shape)
    np.conjugate(rev, out=rev)
    counting.add_complex_muls(2 * z.size, real_muls_each=4)
    batch_hat = z + rev
    batch_hat *= 0.5
    filter_hat = np.subtract(z, rev, out=rev)
    filter_hat *= -0.5j
    return batch_hat, filter_hat
