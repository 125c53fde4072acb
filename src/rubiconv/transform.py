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
blocks are sorted by width, then length (see ``packing``), so all
documents of width m_i form one contiguous (n_i, m_i, D*k) slab, shortest
first, and their m_i-point DFTs run as stacked GEMMs on views of it, with
no copy in.  Each group runs all three stages per chunk of whole
documents, of at most max(m_max, ceil(m_total / 16)) columns, m_max being
the widest document's width, so the GEMM calls do not grow with the
number of documents and no temporary is larger than one chunk.  Each chunk's block-stage result is
written back, with the channels last, into the memory its documents held,
and that array, read as (m_total, k, D), is what ``transform_grid``
returns.  In this cell-major spectrum, frequency f = b * k + a of
document i sits in cell (col_offsets[i] + b, a), so each document's
spectrum is one contiguous run in natural frequency order.
The dual-real split, the product, the channel pairing and the block maps
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
kept output.  Each group's n_w taps are a prefix of the largest n_w, so
the filter is laid out once, as those taps, and each group's filter is
one document of that group, its longest: its n_w taps zero-padded to a
span of k * m positions, which read as (k, m, ceil(D/2)) is its own grid
and runs through the same stage code as the data.  The split recovers
both channels of both spectra through conjugate symmetry, multiplies each
channel by its group's filter spectrum over L' and writes the paired
inverse input over the spectrum, as conj(z) * A + z[-f] * B with per-group
factors A and B of the filter.  The filters are real, so A and B are
Hermitian, A[-f] = conj(A[f]), and the split's unit is the mirror pair
x = z[f], y = z[n - f] of a run of n frequencies: out[f] =
conj(x) * A + y * B and out[n - f] = conj(conj(x) * B + y * A), with A and
B at f, four multiplies that read the pair once and write both.  f = 0,
its own mirror, goes alone; the pairs 1 <= f <= n/2 are two views of the
runs, one reversed, that share only f = n/2 of an even n.  A chunk, of one
shape throughout, is a piece of the pairs of as many runs as fit in a
core's private cache, so short runs go many per chunk and a long run in
pieces, and it computes both outputs into buffers before writing them
back.  The filters are transformed once the forward has returned and
its loaded grid is dropped.  So besides one chunk of scratch and the
filter's taps, ``convolve`` holds at most two half-width complex arrays
at a time: the loaded grid and the spectrum during the forward, the
spectrum and the inverse input around the reorder, that input and the
inverse's output.  The group filters' spectra come on top of the
spectrum alone, while they are transformed and during the split; they
have one document's columns per width group, sum_w m_w of the m_total.
The spectra are reordered for the inverse, which reuses the forward
kernel via ifft(x) = conj(fft(conj(x))) / n, the split having applied
the 1/n, so no pass over the output follows.  Zeroing each document's
tail past its original length at the end removes the padding and leaves
a strictly causal, boundary-respecting result.  A document's output
depends on its own input and its group's filter only, so documents stay
independent; a non-finite tap below n_w reaches every document of the
group, where a document shorter than the tap's index would have dropped
it.

The inverse uses the outputs' realness too.  Each channel's product
spectrum P is Hermitian within every document, so for adjacent channels
a = 2j and b = 2j + 1 the forward kernel applied to
(conj(P_a) + i*conj(P_b)) / L_i' returns y_a + i*y_b: one complex inverse
over ceil(D/2) channels yields all D real outputs, already in channel
order when viewed as float64.
An odd D pairs its last channel with zero.  Paired channels share one
forward and one inverse, so they share their roundoff, and a NaN or inf in channel 2j can
reach channel 2j + 1 (and back), but only within the same document: no
stage mixes documents.

Inside the fused ``convolve`` only, both transforms skip the causal
padding, per chunk or per width group w of c_w columns
(``packing.WidthGroup``).  The input is zero at and past each document's
length L_i, and a row-major load puts positions t < L_i in rows
r < ceil(L_i / m_i), so the forward's k-point stage contracts, for a chunk
j of c_j columns, over its first r_j = ceil(L_j / m) rows only, L_j being
the chunk's longest document; length order keeps short documents together,
so their chunks read few rows.  Only times t < L_i are kept, and the
inverse's output cell (a, b) holds time b * k + a, so its block stage
computes only the first b_w = max ceil(L_i / k) columns of each block and
writes zeros into the rest.  A one-block group, b_w = 1, keeps only times
a < longest_w of column 0, so its k-point stage computes only those o_w
outputs, and its twiddle and block stage run over them alone; every other
group keeps o_w = k.  At m = 1 the twiddles are 1 and the block DFT has
one point, so both pruned transforms skip them, and the block stage only
writes its input back in natural order.  The rows are bounded per chunk:
they are zero past the bound, and a GEMM that drops zero terms returns
the same bits, so reading a chunk's own rows gives the bits of reading
its group's.  The outputs are bounded per group, not per chunk, since a
GEMM whose output width changes can round differently.  ``forward``,
``inverse``, the unfused ``convolve`` and a default ``transform_grid``
call run the full transform, k^2 m_total + k * sum(m_i^2) + k m_total
complex multiplications per channel.

Those pruned calls also factor both DFT stages, as Bailey's six-step FFT
does, and both take one shape.  An n-point stage, n = n1 * n2, reading
input j = j1 * n2 + j2, runs a first pass, an n1-point GEMM over j1 per
j2 with the inner twiddle folded in, then a second pass of n2-point GEMMs
over j2; one GEMM is the second pass at n1 = 1, with no first.  Both
matrices are strided views of the stage's DFT matrix, and the passes run
per chunk.  The k-point stage factors k = k1 * k2 where k1, the largest
divisor of k not above sqrt(k), is at least 16 (k = 256 = 16 * 16 and
512 = 16 * 32 factor, k = 64 does not); its first pass reads only the n1
blocks that hold the rows read, and one k2-point GEMM is its second.
Each width group's block stage factors m = p * q where p, the largest
divisor of m not above sqrt(m), is at least 8 (m = 64 = 8 * 8 and
128 = 8 * 16 factor, m = 60 does not); with output column
b = b1 + p * b2, its second pass runs per b1 one q-point GEMM over the
rows b2 < ceil(keep / p) that cover the kept columns.
An n-point stage that reads a vector's first r inputs and keeps its first
c outputs costs r * c multiplications in one GEMM and
n1 * r + n * ceil(c / n1) in two passes, n = n1 * n2; two k-point passes
keep o_w rounded up to k1 * ceil(o_w / k1) outputs.

Every choice the stages make is made once, by ``_schedule``: per width
group and transform, one run that names the group's columns, the rows
each chunk's k-point stage reads, the k-point outputs it keeps, the block
columns it keeps, k1 and p (1 for one GEMM), a chunk's columns and
whether m = 1 skips its twiddle and block DFT.  ``transform_grid`` and
the group filters' transform run the runs and decide nothing, and
``convolve_cmuls`` sums their costs.  The schedule takes two k-point
passes for a group where they count fewer at its live rows r_w =
max ceil(L_i / m) and its o_w outputs, so a grid column of that group
whose first r rows are read costs K_w(r, o) = r * o in one GEMM or
k1 * r + k * ceil(o / k1) in two.  (At k = 256 and o = k, two passes pay
from r = 18 rows on.)  It takes two block passes wherever m factors: a
group keeps at least half of its m columns, and then two passes always
count fewer, so the block stage costs B(m, c) = m * (p + ceil(c / p)) per
document, kept k-point output and channel, or m * c where m does not
factor.  An unfactored k keeps the one-GEMM cost.  Each group's filter is
one document of a group of its width, so the filters' transform is
scheduled the same way, reading r'_w = ceil(n_w / m_w) rows and keeping
every column.  With [m > 1] 1 for m > 1 and 0 at m = 1, and o_i and b_i
the o_w and b_w of document i's group, a convolution over D channels
counts (``convolve_cmuls``)

    ceil(D/2) * (sum_j c_j K_w(r_j, k) + k * sum_i [m_i > 1] (m_i + B(m_i, m_i))
                 + sum_w (m_w K_w(r'_w, k) + k [m_w > 1] (m_w + B(m_w, m_w)) + k m_w)
                 + sum_w c_w K_w(k, o_w) + sum_i [m_i > 1] o_i (m_i + B(m_i, b_i))
                 + 2 k m_total)

complex multiplications: the pruned, paired forward, summed over its
chunks j; per group the filter's transform and one per filter cell for
the split's A and B (see ``split_dual_real``); the paired, pruned
inverse; and per cell and paired channel two for the split and product,
conj(z) * A + conj(r) * B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from . import counting
from .linalg import dft_matrix, gemm
from .packing import (
    DEFAULT_K,
    IndexMap,
    PackedLayout,
    WidthGroup,
    build_layout,
    build_p1,
    build_p2,
    build_pre_ifft_map,
)
from .signal import FilterBank, PackedSignal, _check_convolution_args, embed_filter
from .signal import _conj_inverse, _two_transform_convolve


@dataclass(frozen=True, eq=False)
class RubiConvPlan:
    """Precomputed, layout-adaptive structures, reusable across layers.

    A plan is a pure function of (doc_lengths, filter_len, k); two plans
    built from equal inputs are bit-identical.  Every array it holds is
    read-only, so one plan can be shared across layers and threads.
    """

    layout: PackedLayout
    m1: np.ndarray = field(repr=False)  # (k, k) first-stage DFT
    twiddles: tuple[np.ndarray, ...] = field(repr=False)  # per group, (m, k) with w_{k*m}^(b*a) at [b, a]
    m2: tuple[np.ndarray, ...] = field(repr=False)  # per group, the (m, m) second-stage DFT
    p1: IndexMap = field(repr=False)  # packed vector -> grid, row-major per block
    pre_ifft: IndexMap = field(repr=False)  # cell-major spectrum -> grid, row-major per block
    p2: IndexMap = field(repr=False)  # cell-major grid -> packed vector, whole padded spans

    @property
    def k(self) -> int:
        return self.layout.k

    @property
    def groups(self) -> tuple[WidthGroup, ...]:
        """The grid's width groups, with their live rows and columns."""
        return self.layout.groups

    @property
    def nbytes(self) -> int:
        """Bytes of every distinct array the plan holds; the maps share one block array."""
        blocks = [m.blocks for m in (self.p1, self.pre_ifft, self.p2) if m.blocks is not None]
        arrays = {id(array): array for array in (self.m1, *self.twiddles, *self.m2, *blocks)}
        return sum(array.nbytes for array in arrays.values())


def build_plan(doc_lengths: Sequence[int], filter_len: int, k: int = DEFAULT_K) -> RubiConvPlan:
    """Build every structure the transform needs for one packing.

    Each width group gets one twiddle table and one DFT matrix, shared by
    all of its documents.  Constructed element counts are reported to the
    operation counter; the k x k first-stage matrix is excluded since it
    depends only on k, although every plan builds its own.
    """
    layout = build_layout(doc_lengths, filter_len, k)
    rows = np.arange(k, dtype=np.int64)[None, :]
    twiddles, m2 = [], []
    for group in layout.groups:
        padded = k * group.width
        cols = np.arange(group.width, dtype=np.int64)[:, None]
        twiddles.append(np.exp((2j * np.pi / padded) * ((cols * rows) % padded)))
        m2.append(dft_matrix(group.width))
    counting.add_built_elements(sum(t.size for t in twiddles + m2))

    m1 = dft_matrix(k)
    p1, pre_ifft, p2 = build_p1(layout), build_pre_ifft_map(layout), build_p2(layout)
    for table in (m1, *twiddles, *m2):
        table.flags.writeable = False
    return RubiConvPlan(
        layout=layout,
        m1=m1,
        twiddles=tuple(twiddles),
        m2=tuple(m2),
        p1=p1,
        pre_ifft=pre_ifft,
        p2=p2,
    )


def convolve_cmuls(layout: PackedLayout, channels: int) -> int:
    """Complex multiplications one fused ``convolve`` call counts (see the module notes).

    Its three transforms' runs (``_schedule``) and the split's two per
    spectrum cell and one per filter cell, per paired channel.
    """
    k, groups, lengths = layout.k, layout.groups, layout._grid_lengths
    runs = (
        _schedule(k, groups, lengths, skip_zero_rows=True)
        + _filter_runs(layout)
        + _schedule(k, groups, lengths, skip_unread_cols=True)
    )
    split = k * (2 * layout.total_cols + sum(g.width for g in groups))
    return (channels + 1) // 2 * (sum(_run_cmuls(k, run) for run in runs) + split)


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

    Two flags prune the causal padding, per chunk of a width group of the
    layout (``plan.groups``) or per group.
    ``skip_zero_rows`` promises that every document's input is zero at and
    past its length L_i: each chunk's k-point stage then reads only the
    first ceil(L / m) grid rows of its longest document L, at most the
    group's ``live_rows``, and the rows past them are never read.
    ``skip_unread_cols`` says that only outputs at times t < L_i are read:
    the block stage then computes only the group's ``live_cols`` output
    columns and writes zeros into the rest, and in a group with
    ``live_cols == 1`` the times a >= ``longest`` of its column (up to a
    multiple of the k-point stage's first-pass size) are zeros too.
    Without them the transform is the full padded-length DFT.  With
    either, the stages may run as two GEMM passes, which count fewer
    multiplications, and width 1 skips its twiddle and 1-point DFT, both
    identities.  ``_schedule`` makes every such choice, and this runs what
    it returns.
    """
    grid = np.asarray(grid, dtype=np.complex128)
    k, m_total = plan.k, plan.layout.total_cols
    if grid.shape[:2] != (k, m_total):
        raise ValueError(f"grid leading shape {grid.shape} does not match {(k, m_total)}")
    width = int(np.prod(grid.shape[2:], dtype=np.int64))
    rows = grid.reshape(k, m_total, width)
    runs = _schedule(k, plan.groups, plan.layout._grid_lengths, skip_zero_rows, skip_unread_cols)
    work = np.empty((m_total, width, k), dtype=np.complex128)
    scratch = np.empty(max(run.step for run in runs) * width * k, dtype=np.complex128)
    for run, twiddle, dft in zip(runs, plan.twiddles, plan.m2):
        _group_stages(run, plan.m1, twiddle, dft, rows[:, run.group.cols].reshape(k, -1), work[run.group.cols], scratch)
    return work.reshape((m_total, k) + grid.shape[2:])


def _group_stages(
    run: _Run, m1: np.ndarray, twiddle: np.ndarray, dft: np.ndarray, rows: np.ndarray, work: np.ndarray, scratch: np.ndarray
) -> None:
    """The three stages of one width group's run, chunk by chunk, as ``_schedule`` chose them.

    ``rows`` is the run's (k, columns * D) slice of the loaded grid and
    ``work`` its (columns, D, k) output; ``twiddle`` and ``dft`` are the
    group's tables, and ``scratch`` holds one chunk of either stage.
    """
    # Both DFT stages take one shape: an optional first pass, then a
    # second, one GEMM at k1 = 1 or p = 1.  M1 is symmetric, so cells @ M1
    # is M1 @ grid, written column-major, over the chunk's rows only.  The
    # k-point stage leaves each cell's first ``outputs`` frequencies
    # f = f1 + k1 * f2 in (f1, f2) order, in the front of the chunk's
    # memory, and the twiddle is applied in place through a strided view of
    # the table in that order.  The block stage writes into ``scratch``
    # (and ``part``), and its result goes back, in natural order, into the
    # memory the chunk held in ``work``, with channels last, so that a
    # cell's channels are contiguous for the stages that follow.
    k, width, m, k1 = m1.shape[0], work.shape[1], run.group.width, run.k1
    f2 = run.outputs // k1
    table = twiddle.reshape(m, k // k1, k1).transpose(0, 2, 1)[:, None, :, :f2]
    part = np.empty(run.step // run.p * width * k, dtype=np.complex128) if run.p > 1 else scratch
    for (lo, n_docs), live in zip(_chunks(run.group, run.step), run.rows):
        stack = work[lo * m : (lo + n_docs) * m]
        cells = stack.reshape(-1)[: len(stack) * width * run.outputs].reshape(len(stack), width, run.outputs)
        _k_stage(m1, rows[:, lo * m * width : (lo + n_docs) * m * width], cells, live, k1, scratch)
        docs = cells.reshape(-1, m, width, k1, f2)
        if not run.identity:
            counting.add_complex_muls(docs.size, real_muls_each=4)  # the twiddles
            docs *= table
        _block_stage(dft, docs, stack, run.keep, run.p, run.identity, scratch, part)


class _Run(NamedTuple):
    """One width group's stages in one transform: every choice they make."""

    group: WidthGroup  # its columns in the transform's grid, m per document
    rows: tuple[int, ...]  # grid rows each chunk's k-point stage reads, chunk by chunk
    outputs: int  # the first k-point outputs each grid column keeps, a multiple of k1
    keep: int  # output columns its block stage keeps per document
    k1: int  # the k-point stage's first-pass size, 1 for one GEMM
    p: int  # the block stage's, 1 for one GEMM
    step: int  # columns of a chunk, whole documents
    identity: bool  # m = 1 in a pruned transform: no twiddle and no 1-point DFT


def _schedule(
    k: int,
    groups: Sequence[WidthGroup],
    lengths: Sequence[int],
    skip_zero_rows: bool = False,
    skip_unread_cols: bool = False,
) -> tuple[_Run, ...]:
    """One run per width group of a transform over ``groups``' grid (see ``transform_grid``'s flags).

    ``lengths`` holds the grid's document lengths in grid order.  A chunk
    is as many whole documents as fit in max(m_max, ceil(columns /
    _CHUNKS)) columns, and at most the group's; ``_chunks`` lists them.
    With ``skip_zero_rows`` each chunk's k-point stage reads the
    ceil(L / m) rows of its longest document L, and all k without.  With
    ``skip_unread_cols`` a group keeps its first ``live_cols`` block
    columns, and a group with one (``live_cols == 1``) keeps only the
    k-point outputs a < ``longest``; without, all m and all k.  The group
    filters' transform is ``_filter_runs``.  With either flag, the k-point
    stage takes two passes where ``_factors`` splits k and that counts
    fewer multiplications at the group's ``live_rows`` (all k without
    ``skip_zero_rows``), which rounds the kept outputs up to a multiple of
    k1, and the block stage wherever ``_factors`` splits m: a run keeps at
    least half of m, since a document of length L pads to at most
    2L + k - 2 positions, and then two passes always count fewer.  At
    m = 1 the twiddles are 1 and the block DFT is one point, so either flag
    skips both.  Every choice but the rows is made per group, from its
    fields alone; a k-point GEMM that drops rows past a chunk's live ones
    drops zero terms only, and returns the same bits.
    """
    pruned = skip_zero_rows or skip_unread_cols
    k1 = _factors(k, _MIN_FACTOR)[0] if pruned else 1
    chunk = max(groups[-1].width, -(-sum(g.width * g.n_docs for g in groups) // _CHUNKS))
    ends = np.cumsum([g.n_docs for g in groups]).tolist()
    runs = []
    for g, end in zip(groups, ends):
        step = min(chunk // g.width, g.n_docs) * g.width
        starts = [lo for lo, _ in _chunks(g, step)]
        if skip_zero_rows:
            longest = np.maximum.reduceat(np.asarray(lengths[end - g.n_docs : end]), starts)
            rows = tuple((-(-longest // g.width)).tolist())
        else:
            rows = (k,) * len(starts)
        live = g.live_rows if skip_zero_rows else k
        outputs = g.longest if skip_unread_cols and g.live_cols == 1 else k
        passes = k1 if _dft_cmuls(k, k1, live, outputs) < live * outputs else 1
        keep = g.live_cols if skip_unread_cols else g.width
        p = _factors(g.width, _MIN_BLOCK_FACTOR)[0] if pruned else 1
        outputs = passes * -(-outputs // passes)
        runs.append(_Run(g, rows, outputs, keep, passes, p, step, pruned and g.width == 1))
    return tuple(runs)


def _chunks(group: WidthGroup, step: int) -> list[tuple[int, int]]:
    """(first document, documents) of each chunk of ``step`` columns of a width group, in order."""
    docs = step // group.width
    return [(lo, min(docs, group.n_docs - lo)) for lo in range(0, group.n_docs, docs)]


def _filter_groups(layout: PackedLayout) -> tuple[WidthGroup, ...]:
    """Each width group's filter as the one document of a group of its width.

    Group w's filter has n_w = min(L_F, longest) taps (see the module
    notes), and the filters' grid holds one block of m columns per group,
    in group order.
    """
    groups = layout.groups
    firsts = np.cumsum([0] + [g.width for g in groups]).tolist()
    taps = [min(layout.filter_len, g.longest) for g in groups]
    return tuple(WidthGroup(g.width, c, 1, -(-n // g.width), -(-n // layout.k), n) for g, c, n in zip(groups, firsts, taps))


def _filter_runs(layout: PackedLayout) -> tuple[_Run, ...]:
    """The group filters' transform: the run over ``_filter_groups`` with ``skip_zero_rows``.

    Each filter group's one document is its longest.
    """
    filters = _filter_groups(layout)
    return _schedule(layout.k, filters, [g.longest for g in filters], skip_zero_rows=True)


def _run_cmuls(k: int, run: _Run) -> int:
    """Complex multiplications of one run per channel: its k-point stage, twiddles and block stage."""
    m, outputs = run.group.width, run.outputs
    rest = 0 if run.identity else outputs * (m + _dft_cmuls(m, run.p, m, run.keep))
    docs = [n for _, n in _chunks(run.group, run.step)]
    return m * sum(n * _dft_cmuls(k, run.k1, r, outputs) for n, r in zip(docs, run.rows)) + run.group.n_docs * rest


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

# ``_schedule`` takes each width group's columns in chunks of whole
# documents, of at most max(m_max, ceil(m_total / _CHUNKS)) columns, m_max
# being the widest document's width, so ``scratch`` holds one chunk of
# either stage.  All but a group's last chunk hold more than half that
# many columns.  A chunk makes at most three GEMM calls in the k-point
# stage (one where it is one GEMM) and p + q in the block stage of a width
# m = p * q (one where it is one GEMM), so a call makes at most
# (3 + s) * (2 * _CHUNKS + groups), s being the largest such p + q over
# the groups, however many documents there are.
_CHUNKS = 16


def _factors(n: int, least: int) -> tuple[int, int]:
    """(n1, n2) of a two-pass n-point DFT, or (1, n) where n1 would be below ``least``."""
    n1 = max(d for d in range(1, math.isqrt(n) + 1) if n % d == 0)
    return (n1, n // n1) if n1 >= least else (1, n)


def _dft_cmuls(n: int, n1: int, rows: int, keep: int) -> int:
    """Complex multiplications of an n-point DFT stage per vector, run as n = n1 * n2.

    The vector's first ``rows`` inputs are read and its first ``keep``
    outputs kept.  One GEMM, n1 = 1, costs rows * keep.  Two passes cost
    n1 * rows in the first (n1 outputs per input read) and
    n * ceil(keep / n1) in the second (n2 inputs each for the
    n1 * ceil(keep / n1) outputs that cover the kept ones).
    """
    return rows * keep if n1 == 1 else n1 * rows + n * -(-keep // n1)


def _k_stage(m1: np.ndarray, x: np.ndarray, cells: np.ndarray, live: int, k1: int, scratch: np.ndarray) -> None:
    """k-point DFT of a chunk of grid columns over its first ``live`` rows.

    ``x`` is the chunk's (k, columns * D) slice of the loaded grid, and
    ``cells``, (columns, D, outputs) memory in ``work``, receives each
    cell's first ``outputs`` frequencies, f = f1 + k1 * f2 for f2 below
    outputs / k1, in (f1, f2) order.  With k = k1 * k2
    and input row a = n1 * k2 + n2, w_k^(f a) = w_k^(f1 (n1 k2 + n2)) *
    w_k2^(f2 n2).  For k1 > 1 the first pass runs, per n2, the k1-point DFT
    over the n1 blocks that hold live rows, with the inner twiddle
    w_k^(f1 n2) folded in, into ``scratch``: one stacked GEMM over the
    n2 < ``rem`` that read all n1 blocks and one over the rest, which read
    n1 - 1; a chunk's live rows may be k2 or fewer, and then that is none
    and those n2 get zeros.  The second runs the k2-point DFT over n2 as
    one GEMM.  Both matrices are strided views of M1, and one GEMM over the
    live rows is the second pass at k1 = 1.
    """
    k2, f2, n = m1.shape[0] // k1, cells.shape[-1] // k1, x.shape[1]
    if k1 > 1:
        n1 = -(-live // k2)  # n1 blocks holding live rows
        rem = live - (n1 - 1) * k2  # live rows of the last one
        x = x.reshape(k1, k2, n)  # [n1, n2, r]
        y = scratch[: x.size].reshape(k2, n, k1)  # [n2, r, f1]
        # [n2, n1, f1] = w_k^((n1 k2 + n2) f1)
        inner = m1[: n1 * k2].reshape(n1, k2, -1)[:, :, :k1].transpose(1, 0, 2)
        for lo, hi, blocks in ((0, rem, n1), (rem, k2, n1 - 1)):
            if lo < hi and blocks:
                gemm(x[:blocks, lo:hi].transpose(1, 2, 0), inner[lo:hi, :blocks], out=y[lo:hi])
            elif lo < hi:
                y[lo:hi] = 0
        x, live = y.reshape(k2, n * k1), k2
    # [n2, f2] = w_k^(n2 k1 f2) = w_k2^(n2 f2)
    gemm(x[:live].T, m1[: live * k1 : k1, :f2], out=cells.reshape(-1, f2))


def _block_stage(
    dft: np.ndarray,
    docs: np.ndarray,
    stack: np.ndarray,
    keep: int,
    p: int,
    identity: bool,
    scratch: np.ndarray,
    part: np.ndarray,
) -> None:
    """m-point DFTs of a chunk's documents, written back in natural order.

    ``docs`` is the chunk's (n_docs, m, D, f1, f2) k-point outputs, at the
    front of its memory ``stack`` in ``work``, which receives, per
    document, output columns b < ``keep`` as (m, k2, f1, D), the first f2
    of k2 rows computed and zeros past them, and zero columns past
    ``keep``.  Every GEMM reads all of ``docs`` before the first write.
    With p = 1 one GEMM computes the kept columns into ``scratch``, or with
    ``identity`` (m = 1) a copy does.  With m = p * q, input column n = n1 * q + n2 and
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
    blocks = stack.reshape(n_docs, m, -1, f1, width)
    for b1 in range(p):
        if identity:
            out[...] = x[:, :, b1]
        else:
            # [b2, n2] = w_m^(p b2 n2) = w_q^(b2 n2)
            gemm(dft[: b2s * p : p, :q], x[:, :, b1], out=out)
        blocks[:, b1 : b2s * p : p, :f2] = out.reshape(n_docs, b2s, width, f1, f2).transpose(0, 1, 4, 3, 2)
    blocks[:, :keep, f2:] = 0
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
    return _conj_inverse(plan.layout, y, lambda v: forward(plan, v))


def convolve(
    plan: RubiConvPlan, x: PackedSignal, bank: FilterBank, fused: bool = True
) -> PackedSignal:
    """Depthwise causal convolution of a packed signal, document by document.

    With ``fused=True`` (default) the forward transforms adjacent channels
    of the batch as one complex channel, over ceil(D/2) channels, and the
    filter once per width group, paired the same way, and one paired
    inverse follows; both skip the causal padding inside their GEMMs (see
    the module notes).  ``fused=False`` is the two-transform reference
    (``signal._two_transform_convolve``) on the plain ``forward``, over all
    D channels with one filter copy per document.  Both produce the causal
    linear convolution truncated to each document's original length,
    re-embedded in the padded buffer with zero tails.
    """
    if not fused:
        return _two_transform_convolve(plan.layout, x, bank, lambda v: forward(plan, v))
    _check_convolution_args(plan.layout, x, bank)

    # Each intermediate is dropped once the next stage holds its result, so
    # at most two grid-sized arrays are alive at a time (see the module
    # notes).  Both inputs are zero at and past each document's length
    # (PackedSignal checks the tails, and each group's filter holds at most
    # its longest document's length in taps), so the forward skips the grid
    # rows past them.
    # Every document of a width group shares L' = k * m, so the filter
    # with the group's longest document's n_w = min(L_F, L_i) taps serves
    # them all (see the module notes).  Each n_w taps are a prefix of the
    # largest n_w, laid out first as one document of that length, which a
    # one-tap filter at k = 1 leaves unpadded.  They are transformed only
    # once the forward has returned and its loaded grid is gone, and the
    # split then writes over the spectrum.
    n_taps = min(plan.layout.filter_len, max(group.longest for group in plan.groups))
    taps = embed_filter(build_layout([n_taps], filter_len=1, k=1), bank)
    grid = plan.p1.apply(_as_complex_pairs(x.values))
    spectrum = transform_grid(plan, grid, skip_zero_rows=True)
    del grid
    filter_spectra = _filter_spectra(plan, _as_complex_pairs(taps))
    del taps
    paired = split_dual_real(plan, spectrum, filter_spectra)
    del spectrum, filter_spectra
    # Only times t < L_i are kept, so the inverse skips the columns past them.
    grid = plan.pre_ifft.apply(paired)
    del paired
    # The split's factors carry each group's 1 / L', so the inverse gives
    # y_a + i*y_b: its float64 view holds the real outputs in channel order.
    time_cells = transform_grid(plan, grid, skip_unread_cols=True).view(np.float64)
    del grid

    # An odd D drops its zero partner; the sliced view unloads without a copy.
    values = plan.p2.apply(time_cells[..., : x.channels])
    del time_cells
    return PackedSignal._from_output(values, plan.layout)


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

    ``taps`` holds the paired filter channels' first taps, at least the
    n_w = min(L_F, longest) of every group.  A group's filter is its n_w
    taps zero-padded to a span of k * m positions, and that span read as
    (k, m, channels) is its row-major grid, which goes through the group's
    stages, its live rows those of its taps.  Only those rows are written,
    in one buffer the groups share, since the stages read no row past them.
    Returns the cell-major (sum of the widths, k, channels) spectra, one
    block of m columns per group.
    """
    k, channels = plan.k, taps.shape[1]
    runs = _filter_runs(plan.layout)
    spectra = np.empty((runs[-1].group.cols.stop, channels, k), dtype=np.complex128)
    # Each filter is one chunk of its m columns, so both buffers hold the widest.
    scratch, span = (np.empty(max(run.step for run in runs) * channels * k, dtype=np.complex128) for _ in range(2))
    for run, twiddle, dft in zip(runs, plan.twiddles, plan.m2):
        n_taps, m = run.group.longest, run.group.width
        cells = span[: run.rows[0] * m * channels].reshape(-1, channels)
        cells[:n_taps] = taps[:n_taps]
        cells[n_taps:] = 0
        _group_stages(run, plan.m1, twiddle, dft, span[: k * m * channels].reshape(k, -1), spectra[run.group.cols], scratch)
    return spectra.reshape(-1, k, channels)


# Bytes one chunk of ``split_dual_real`` works on, small enough to stay in a
# core's private cache, counted per mirror pair (f, n - f) and paired
# channel as _SPLIT_PAIR_BYTES: 32 of the pair's spectrum, 48 of conj(z[f])
# and the two results before they are written back, 32 of the filter's A
# and B, which the chunk's documents share, and 48 to spare for the buffers
# of 8192 elements that numpy's iterator allocates per operand when A and B
# broadcast over a batch of runs.  (At 112, a batch of two runs of n = 4096
# over two paired channels lifted convolve's tracemalloc peak from 1.33 to
# 1.38 grids.)  A chunk is one piece of the pairs of as many runs of a
# width group as fit, at least one pair of one run.
_SPLIT_CHUNK_BYTES = 1 << 20
_SPLIT_PAIR_BYTES = 160


def split_dual_real(plan: RubiConvPlan, spectrum: np.ndarray, filter_spectra: np.ndarray) -> np.ndarray:
    """Paired inverse input of X * F per channel, from paired spectra of both.

    ``spectrum`` is the cell-major transform z = X_a + i * X_b of paired
    real channels a = 2j and b = 2j + 1, and ``filter_spectra`` the same
    for the filter, one block of m columns per width group
    (``_filter_spectra``).  Conjugate symmetry gives X_a = (z + r) / 2 and
    X_b = -i/2 * (z - r), r being conj(z at -freq), and likewise F_a and
    F_b, and the inverse's input is (conj(X_a F_a) + i * conj(X_b F_b)) / n,
    which carries the inverse's 1/n for the group's L' = n = k * m_i.
    Expanded, that is conj(z) * A + conj(r) * B with the group's
    A = conj(F_a - F_b) / (2n) and B = conj(F_a + F_b) / (2n), broadcast
    over its documents.  The filters are real, so A and B are Hermitian:
    A[-f] = conj(A[f]), and so is B.  Each document's spectrum is one run
    of n frequencies in natural order, so a mirror pair x = z[f] and
    y = z[n - f] gives both of its outputs,
    out[f] = conj(x) * A + y * B and out[n - f] = conj(conj(x) * B + y * A),
    with A and B at f: four multiplies per pair.  f = 0 is its own mirror,
    and so is f = n/2 of an even n.  ``_pair_filter`` forms A and B with
    two multiplies per pair.  So the split counts two multiplies per
    spectrum cell and one per filter cell, and a cell that is its own
    mirror, run as a pair of one cell, counts once on both sides.

    The result is written over ``spectrum`` and returned when that is a
    C-contiguous complex128 array, as ``transform_grid`` returns; any other
    input is copied once and the copy is returned.  A chunk is a piece of
    pairs f in [lo, hi) of 1 <= f <= n/2 of as many runs of a group as fit
    in ``_SPLIT_CHUNK_BYTES``, read as the views ``runs[:, lo:hi]`` and
    ``runs[:, n - lo : n - hi : -1]``, after a chunk of f = 0 alone: short
    runs go many per chunk, a long run in pieces.  Each chunk computes both
    outputs into buffers before writing them back, so no chunk reads what
    another writes.  A and B are formed once per piece, and every batch of
    the group's runs reuses them, so only the reads and writes of the
    spectra go to memory.
    """
    z = np.ascontiguousarray(spectrum, dtype=np.complex128)
    zf = np.ascontiguousarray(filter_spectra, dtype=np.complex128)
    m_total, k = plan.layout.total_cols, plan.k
    if z.ndim != 3 or z.shape[:2] != (m_total, k):
        raise ValueError(f"spectrum shape {z.shape} does not match {(m_total, k)}")
    channels = z.shape[2]
    widths = sum(group.width for group in plan.groups)
    if zf.shape != (widths, k, channels):
        raise ValueError(f"filter spectra shape {zf.shape} does not match {(widths, k, channels)}")
    # Each group's chunk is ``piece`` pairs of ``batch`` runs, at most
    # ``fit`` pairs, and its f = 0 chunk one frequency of up to ``fit``
    # runs; the buffers fit the largest chunk.
    fit = max(1, _SPLIT_CHUNK_BYTES // (_SPLIT_PAIR_BYTES * channels))
    pieces = [min(max(1, k * group.width // 2), fit) for group in plan.groups]
    batches = [min(group.n_docs, fit // piece) for group, piece in zip(plan.groups, pieces)]
    size = max(max(piece * batch, min(group.n_docs, fit)) for group, piece, batch in zip(plan.groups, pieces, batches))
    u_buf, p_buf, q_buf = (np.empty(size * channels, dtype=np.complex128) for _ in range(3))
    a_buf, b_buf = (np.empty(max(pieces) * channels, dtype=np.complex128) for _ in range(2))
    counting.add_complex_muls(2 * z.size + zf.size, real_muls_each=4)
    col = 0
    for group, piece, batch in zip(plan.groups, pieces, batches):
        n = k * group.width
        fz = zf[col : col + group.width].reshape(1, n, channels)
        runs = z[group.cols].reshape(group.n_docs, n, channels)
        col += group.width
        # f = 0, its own mirror, goes alone, then the pairs 1 <= f <= n/2 in pieces.
        ends = [*range(1, n // 2 + 1, piece), n // 2 + 1]
        views = [(slice(lo, hi), slice(n - lo, n - hi, -1), batch) for lo, hi in zip(ends, ends[1:])]
        for low, high, docs in [(slice(0, 1), slice(0, 1), min(group.n_docs, fit)), *views]:
            w = low.stop - low.start
            a, b, t = (buf[: w * channels].reshape(1, w, channels) for buf in (a_buf, b_buf, u_buf))
            _pair_filter(n, fz[:, low], fz[:, high], a, b, t)
            for d in range(0, group.n_docs, docs):
                run = runs[d : d + docs]
                u, p, q = (buf[: len(run) * w * channels].reshape(-1, w, channels) for buf in (u_buf, p_buf, q_buf))
                _split_pair(run[:, low], run[:, high], a, b, u, p, q)
    return z


def _pair_filter(n: int, low: np.ndarray, high: np.ndarray, a: np.ndarray, b: np.ndarray, t: np.ndarray) -> None:
    """A and B of ``split_dual_real`` at a piece of mirror pairs of a paired filter run of n.

    ``low`` holds the filter's z at frequencies f and ``high`` at their
    mirrors n - f, both (1, w, D) views.  With u = conj(z[f]) and
    v = z[n - f], read as the split reads the data, conj(F_a) = (u + v) / 2
    and conj(F_b) = i/2 * (u - v), so A = conj(F_a - F_b) / (2n) = s + d and
    B = conj(F_a + F_b) / (2n) = s - d for s = (u + v) / (4n) and
    d = i/(4n) * (v - u).  A and B go into ``a`` and ``b``, of the shape of
    the temporary ``t``; at n - f they are conj(A) and conj(B), which the
    split applies without forming them.
    """
    np.conjugate(low, out=t)
    b[...] = high
    np.add(t, b, out=a)
    b -= t
    np.multiply(a, 0.25 / n, out=t)
    np.multiply(b, 0.25j / n, out=a)
    np.subtract(t, a, out=b)
    a += t


def _split_pair(
    low: np.ndarray, high: np.ndarray, a: np.ndarray, b: np.ndarray, u: np.ndarray, p: np.ndarray, q: np.ndarray
) -> None:
    """Both outputs of ``split_dual_real`` at a piece of mirror pairs of a batch of runs, written back.

    ``low`` holds x = z[f] and ``high`` y = z[n - f], (docs, w, D) views of
    the runs, and ``a`` and ``b`` A and B at f from ``_pair_filter``,
    (1, w, D).  conj(x) * A + y * B goes into ``p`` and
    conj(conj(x) * B + y * A) into ``q``, through ``u``, all three of
    ``low``'s shape, and then ``q`` is written to ``high`` and ``p`` to
    ``low``, in that order: where the views share a cell, its own mirror,
    both results are equal, and the one written last computes it as every
    other f <= n/2.  Every multiply writes a buffer it does not read, from
    operands of equal rank: numpy rounds a one-element complex multiply in
    place, or one that broadcasts an operand of lower rank, an ulp
    differently, and the result would then depend on the chunking.
    """
    np.conjugate(low, out=u)
    np.multiply(u, a, out=p)
    np.multiply(high, b, out=q)
    p += q
    np.multiply(u, b, out=q)
    np.multiply(high, a, out=u)
    q += u
    np.conjugate(q, out=q)
    high[...] = q
    low[...] = p
