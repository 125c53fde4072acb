"""The packed four-step transform and its convolution pipeline.

The forward transform computes, in one pass over the whole batch, the
padded-length DFT of every document: load the packed vector onto the
k x m_total grid (row-major per document block), left-multiply by the
k-point DFT matrix, scale element-wise by per-document twiddles
w_{L_i'}^(a*b), then right-multiply each document's column block by its own
m_i-point DFT matrix.  Because the second DFT is block-diagonal over
document column blocks, no stage ever mixes documents, and all heavy work
is dense GEMM.

The block stage runs column-major, on an (m_total, D, k) array in which
grid column c is one contiguous row, so each document owns contiguous
rows.  The k-point GEMM writes that layout directly: M1 is symmetric, so
grid^T @ M1 is the transposed product.  The twiddle is applied in place,
and each document's m_i-point DFT is one GEMM on a view of its own rows,
with no copy in.  Its result is copied out with the channels last, into
(m_total, k, D) memory, and the grid is handed back as a (k, m_total, D)
view of it.  The dual-real split and the index maps read that
column-major memory directly.  Twiddles and DFT matrices depend only on a
document's width m_i, so the plan builds one of each per distinct width
and documents of equal width share them.

The convolution entry point packs the real input and the real filter into
one complex tensor (batch + i * filter), transforms once, recovers both
spectra through conjugate symmetry, multiplies point-wise on the grid,
reorders for the inverse, and reuses the forward kernel via
ifft(x) = conj(fft(conj(x))) / n.  Truncating each document to its original
length at the end removes the padding and leaves a strictly causal,
boundary-respecting result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import counting
from .linalg import GEMM_MODES, dft_matrix, gemm
from .packing import (
    DEFAULT_K,
    IndexMap,
    PackedLayout,
    _column_geometry,
    _span_positions,
    build_layout,
    build_p1,
    build_p2,
    build_pre_ifft_map,
)
from .signal import FilterBank, PackedSignal, embed_filter


@dataclass(frozen=True, eq=False)
class RubiConvPlan:
    """Precomputed, layout-adaptive structures, reusable across layers.

    A plan is a pure function of (doc_lengths, filter_len, k); two plans
    built from equal inputs are bit-identical.  All fields are treated as
    immutable after construction.
    """

    layout: PackedLayout
    m1: np.ndarray  # (k, k) first-stage DFT
    twiddle: np.ndarray  # (k, m_total) view of an (m_total, k) table; block i holds w_{L_i'}^(a*b)
    m2_blocks: tuple[np.ndarray, ...]  # (m_i, m_i) second-stage DFTs, one array per width
    p1: IndexMap  # packed vector -> grid, row-major per block
    pre_ifft: IndexMap  # column-major -> row-major frequency reorder
    p2: IndexMap  # grid -> packed vector, truncated to original lengths
    inv_scale: np.ndarray  # (m_total,), 1 / L_i' for each column of document i
    rev_cols_first: np.ndarray  # (m_total,) column holding frequency -f, for grid row 0
    rev_cols_rest: np.ndarray  # (m_total,) the same for rows a > 0, whose row is k - a
    unload: IndexMap  # grid -> packed vector at full padded lengths
    load: IndexMap  # inverse of unload
    valid_positions: np.ndarray  # padded-buffer positions of valid outputs

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
    # Column-major: row c holds the twiddles of grid column c.
    twiddle = np.concatenate([twiddles[m_i] for m_i in layout.cols_per_doc])

    # Cell (a, c) holds frequency f = b*k + a of its document, b being the
    # local column.  Frequency (-f) mod L_i' sits in row (-a) mod k, at local
    # column (-b) mod m_i when a = 0 and m_i - 1 - b otherwise.
    first, local, width = _column_geometry(layout)
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

    unload = build_p2(layout, layout.padded_lengths)
    return RubiConvPlan(
        layout=layout,
        m1=dft_matrix(k),
        twiddle=twiddle.T,
        m2_blocks=tuple(dfts[m_i] for m_i in layout.cols_per_doc),
        p1=build_p1(layout),
        pre_ifft=build_pre_ifft_map(layout),
        p2=build_p2(layout),
        inv_scale=inv_scale,
        rev_cols_first=rev_cols_first,
        rev_cols_rest=rev_cols_rest,
        unload=unload,
        load=unload.inverse(),
        valid_positions=_span_positions(layout.pos_offsets, layout.doc_lengths),
    )


def _check_mode(gemm_mode: str) -> None:
    if gemm_mode not in GEMM_MODES:
        raise ValueError(f"unknown gemm mode {gemm_mode!r}, expected one of {GEMM_MODES}")


def transform_grid(plan: RubiConvPlan, grid: np.ndarray, gemm_mode: str = "standard") -> np.ndarray:
    """Run the three frequency stages on an already loaded grid.

    Input cells hold document values row-major per block; output cell (a, b)
    of document i holds frequency b_local * k + a of its padded-length DFT.
    The output is a view of column-major memory (see the module notes).
    Input in C order, or held in (m_total, D, k) memory, is read without a
    copy; any other layout is copied once.
    The second DFT is applied block by block, never as a dense matrix, so
    document blocks stay bit-level independent.
    """
    _check_mode(gemm_mode)
    grid = np.asarray(grid, dtype=np.complex128)
    k, m_total = plan.k, plan.layout.total_cols
    if grid.shape[:2] != (k, m_total):
        raise ValueError(f"grid leading shape {grid.shape} does not match {(k, m_total)}")
    width = int(np.prod(grid.shape[2:], dtype=np.int64))
    if grid.flags.c_contiguous:
        cells = grid.reshape(k, m_total * width).T
    else:
        cells = np.moveaxis(grid, 0, -1).reshape(m_total * width, k)

    # M1 is symmetric, so cells @ M1 is M1 @ grid, written column-major.
    work = gemm(cells, plan.m1, gemm_mode).reshape(m_total, width, k)
    # Twiddle stage; kept as plain complex multiplication in either mode.
    counting.add_complex_muls(work.size, real_muls_each=4)
    work *= plan.twiddle.T[:, None, :]
    # Each block's result is copied out with channels last, so that a grid
    # cell's channels are contiguous for the index maps that follow.
    out = np.empty((m_total, k, width), dtype=np.complex128)
    for off_col, m_i, block in zip(
        plan.layout.col_offsets, plan.layout.cols_per_doc, plan.m2_blocks
    ):
        rows = work[off_col : off_col + m_i].reshape(m_i, width * k)
        out[off_col : off_col + m_i] = (
            gemm(block, rows, gemm_mode).reshape(m_i, width, k).transpose(0, 2, 1)
        )
    return out.swapaxes(0, 1).reshape(grid.shape)


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
    return plan.unload.apply(transform_grid(plan, plan.p1.apply(x), gemm_mode))


def inverse(plan: RubiConvPlan, y: np.ndarray, gemm_mode: str = "standard") -> np.ndarray:
    """Invert ``forward`` through conjugation: ifft(y) = conj(fft(conj(y))) / L_i'."""
    y = np.asarray(y, dtype=np.complex128)
    if y.shape[0] != plan.layout.total_padded:
        raise ValueError(
            f"packed vector has {y.shape[0]} positions, plan expects "
            f"{plan.layout.total_padded}"
        )
    grid = plan.pre_ifft.apply(plan.load.apply(y))
    out = np.conj(transform_grid(plan, np.conj(grid), gemm_mode))
    counting.add_real_muls(2 * out.size)
    out *= plan.inv_scale.reshape((1, -1) + (1,) * (out.ndim - 2))
    return plan.unload.apply(out)


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
    forward passes.  Both produce the causal linear convolution truncated
    to each document's original length, re-embedded in the padded buffer
    with zero tails.
    """
    _check_mode(gemm_mode)
    if x.layout != plan.layout:
        raise ValueError("signal layout does not match the plan's layout")
    if bank.channels != x.channels:
        raise ValueError(
            f"channel count mismatch: signal has {x.channels}, filter has {bank.channels}"
        )
    if bank.filter_len != plan.layout.filter_len:
        raise ValueError(
            f"filter length {bank.filter_len} does not match the plan's "
            f"{plan.layout.filter_len}"
        )

    # Each intermediate is dropped once the next stage holds its result, to
    # keep peak memory down.
    taps_grid = embed_filter(plan.layout, bank)
    if fused:
        packed = np.empty(x.values.shape, dtype=np.complex128)
        packed.real = x.values
        packed.imag = taps_grid
        del taps_grid
        spectrum = transform_grid(plan, plan.p1.apply(packed), gemm_mode)
        del packed
        batch_hat, filter_hat = split_dual_real(plan, spectrum)
        del spectrum
    else:
        batch_hat = transform_grid(
            plan, plan.p1.apply(x.values.astype(np.complex128)), gemm_mode
        )
        filter_hat = transform_grid(
            plan, plan.p1.apply(taps_grid.astype(np.complex128)), gemm_mode
        )
        del taps_grid

    counting.add_complex_muls(batch_hat.size, real_muls_each=4)
    product = batch_hat * filter_hat
    del batch_hat, filter_hat
    np.conjugate(product, out=product)
    out_grid = transform_grid(plan, plan.pre_ifft.apply(product), gemm_mode)
    del product
    counting.add_real_muls(out_grid.size)
    time_grid = out_grid.real * plan.inv_scale[None, :, None]
    del out_grid

    valid = plan.p2.apply(time_grid)
    values = np.zeros_like(x.values)
    values[plan.valid_positions] = valid
    return PackedSignal(values, plan.layout)


def split_dual_real(plan: RubiConvPlan, spectrum: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Recover the two real-signal spectra from one packed transform.

    Given the grid spectrum of z = b + i*f for real b and f, conjugate
    symmetry gives b_hat = (z + conj(z at -freq)) / 2 and
    f_hat = -i/2 * (z - conj(z at -freq)), where the negated-frequency
    gather stays inside each document's column block.  It runs on the
    column-major memory that ``transform_grid`` returns: one gather of
    grid columns per case plus a reversed slice over the rows.  Both
    results are views of column-major memory too.
    """
    z = np.asarray(spectrum, dtype=np.complex128).swapaxes(0, 1)
    rev = np.empty(z.shape, dtype=np.complex128)
    rev[:, 0] = z[plan.rev_cols_first, 0]
    rev[:, 1:] = z[plan.rev_cols_rest, :0:-1]
    np.conjugate(rev, out=rev)
    counting.add_complex_muls(2 * z.size, real_muls_each=4)
    batch_hat = z + rev
    batch_hat *= 0.5
    filter_hat = np.subtract(z, rev, out=rev)
    filter_hat *= -0.5j
    return batch_hat.swapaxes(0, 1), filter_hat.swapaxes(0, 1)
