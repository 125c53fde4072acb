import dataclasses
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import rubiconv.packing
import rubiconv.transform
from conftest import oracle_matrix, random_doc_lengths, random_documents, rel_err
from rubiconv import (
    FilterBank,
    PackedSignal,
    build_ct_layout,
    build_plan,
    convolve,
    count_ops,
    ct_convolve,
    dft_matrix,
    embed_filter,
    forward,
    inverse,
    naive_dft,
)
from rubiconv.transform import (
    _MIN_BLOCK_FACTOR,
    _MIN_FACTOR,
    _as_complex_pairs,
    _dft_cmuls,
    _factors,
    _filter_groups,
    _filter_spectra,
    _run_cmuls,
    _schedule,
    split_dual_real,
    transform_grid,
)


def forward_vs_naive_worst(plan, x):
    layout = plan.layout
    y = forward(plan, x)
    worst = 0.0
    for off, padded in zip(layout.pos_offsets, layout.padded_lengths):
        worst = max(worst, rel_err(y[off : off + padded], naive_dft(x[off : off + padded])))
    return worst


def test_plan_fields_are_the_tables_and_maps_the_stages_read():
    fields = [f.name for f in dataclasses.fields(build_plan([4], filter_len=4, k=4))]
    assert fields == ["layout", "m1", "groups", "twiddles", "m2", "p1", "pre_ifft", "p2"]


def test_plan_repr_shows_the_layout_and_groups_not_the_tables():
    text = repr(build_plan([7, 40, 1, 19], filter_len=8, k=4))
    assert "array(" not in text
    assert "layout=PackedLayout(n_docs=4, k=4, filter_len=8, total_cols=" in text and "groups=(WidthGroup(" in text
    # A thousand documents print as a summary, not as per-document tuples.
    lengths = np.random.default_rng(44).geometric(1 / 32, size=1050).tolist()
    text = repr(build_plan(lengths, filter_len=64, k=64))
    assert "n_docs=1050" in text and len(text) <= 2000


def test_plan_shapes_two_docs():
    plan = build_plan([4, 8], filter_len=64, k=4)
    assert [g.width for g in plan.groups] == [2, 4]
    assert [t.shape for t in plan.twiddles] == [(2, 4), (4, 4)]
    assert [b.shape for b in plan.m2] == [(2, 2), (4, 4)]


def test_plan_degenerate_single_column():
    k = 8
    plan = build_plan([k], filter_len=1, k=k)
    assert len(plan.m2) == len(plan.twiddles) == 1 and plan.m2[0].shape == (1, 1)
    assert np.allclose(plan.twiddles[0][0], dft_matrix(k)[:, 0], atol=1e-15)


def test_plan_build_is_deterministic():
    a = build_plan([5, 9, 2], filter_len=4, k=4)
    b = build_plan([5, 9, 2], filter_len=4, k=4)
    assert a.layout == b.layout and a.groups == b.groups
    assert np.array_equal(a.m1, b.m1)
    assert len(a.twiddles) == len(b.twiddles) == len(a.m2) == len(b.m2) == len(a.groups)
    assert all(np.array_equal(x, y) for x, y in zip(a.twiddles, b.twiddles))
    assert all(np.array_equal(x, y) for x, y in zip(a.m2, b.m2))
    for field in ("p1", "pre_ifft", "p2"):
        assert np.array_equal(getattr(a, field).src_flat, getattr(b, field).src_flat)


def test_equal_width_documents_share_tables():
    plan = build_plan([5, 60, 7, 3, 58], filter_len=4, k=16)
    widths = plan.layout.cols_per_doc
    assert widths[0] == widths[2] == widths[3] and widths[1] == widths[4] != widths[0]
    # One group, one twiddle table and one DFT per distinct width.
    assert [(g.width, g.n_docs) for g in plan.groups] == [(widths[0], 3), (widths[1], 2)]
    assert [t.shape for t in plan.twiddles] == [(g.width, 16) for g in plan.groups]
    assert [b.shape for b in plan.m2] == [(g.width, g.width) for g in plan.groups]


def test_more_documents_of_a_present_width_leave_the_tables_unchanged():
    def table_bytes(lengths):
        plan = build_plan(lengths, filter_len=4, k=16)
        maps = {id(m.blocks): m.blocks for m in (plan.p1, plan.pre_ifft, plan.p2) if m.blocks is not None}
        return plan.nbytes - sum(blocks.nbytes for blocks in maps.values())

    base = [5, 60, 7, 3, 58]
    assert table_bytes(base + [6, 59] * 20) == table_bytes(base) > 0


def test_twiddle_entries_use_padded_length_roots():
    rng = np.random.default_rng(0)
    for _ in range(10):
        lengths = random_doc_lengths(rng, max_docs=5, max_len=40)
        k = int(rng.choice([1, 2, 4, 8]))
        plan = build_plan(lengths, filter_len=5, k=k)
        assert {g.width for g in plan.groups} == set(plan.layout.cols_per_doc)
        for group, twiddle in zip(plan.groups, plan.twiddles):
            padded = k * group.width
            b = np.arange(group.width)[:, None]
            a = np.arange(k)[None, :]
            expected = np.exp(2j * np.pi * ((a * b) % padded) / padded)
            assert rel_err(twiddle, expected) <= 1e-14


def test_forward_single_doc_equals_first_stage_dft():
    k = 8
    plan = build_plan([k], filter_len=1, k=k)
    rng = np.random.default_rng(1)
    x = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    assert rel_err(forward(plan, x), dft_matrix(k) @ x) <= 1e-12


def test_forward_matches_naive_dft_fixed_packing():
    plan = build_plan([5, 9, 2], filter_len=4, k=4)
    rng = np.random.default_rng(2)
    n = plan.layout.total_padded
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert forward_vs_naive_worst(plan, x) <= 1e-10


def test_forward_matches_naive_dft_random_family():
    rng = np.random.default_rng(3)
    for _ in range(15):
        lengths = random_doc_lengths(rng, max_docs=8, max_len=128)
        k = int(rng.choice([1, 4, 16]))
        plan = build_plan(lengths, filter_len=int(rng.choice([1, 7, 64])), k=k)
        n = plan.layout.total_padded
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert forward_vs_naive_worst(plan, x) <= 1e-10


def test_forward_boundary_isolation_bitwise():
    plan = build_plan([5, 9, 2], filter_len=4, k=4)
    layout = plan.layout
    rng = np.random.default_rng(4)
    x = rng.standard_normal(layout.total_padded) + 0j
    base = forward(plan, x)
    perturbed = x.copy()
    off, padded = layout.pos_offsets[1], layout.padded_lengths[1]
    perturbed[off : off + layout.doc_lengths[1]] += rng.standard_normal(layout.doc_lengths[1])
    shifted = forward(plan, perturbed)
    assert np.array_equal(base[:off], shifted[:off])
    assert np.array_equal(base[off + padded :], shifted[off + padded :])
    assert not np.array_equal(base[off : off + padded], shifted[off : off + padded])


def test_forward_length_mismatch():
    plan = build_plan([5], filter_len=2, k=2)
    with pytest.raises(ValueError):
        forward(plan, np.zeros(3, dtype=complex))
    for call in (lambda: forward(plan, np.complex128(1)), lambda: inverse(plan, 1.0)):
        with pytest.raises(ValueError, match="packed vector has 0 positions"):
            call()
    with pytest.raises(ValueError):
        transform_grid(plan, np.zeros((plan.k, plan.layout.total_cols + 1), dtype=complex))


def test_forward_complex_mul_count_is_exact():
    rng = np.random.default_rng(5)
    for _ in range(10):
        lengths = random_doc_lengths(rng, max_docs=6, max_len=64)
        k = int(rng.choice([1, 4, 16]))
        plan = build_plan(lengths, filter_len=7, k=k)
        layout = plan.layout
        x = rng.standard_normal(layout.total_padded) + 0j
        with count_ops() as counts:
            forward(plan, x)
        expected = (
            k * k * layout.total_cols
            + k * sum(m * m for m in layout.cols_per_doc)
            + k * layout.total_cols
        )
        assert counts.complex_muls == expected


def test_inverse_round_trip():
    rng = np.random.default_rng(6)
    for _ in range(10):
        lengths = random_doc_lengths(rng, max_docs=6, max_len=64)
        plan = build_plan(lengths, filter_len=5, k=int(rng.choice([1, 4, 16])))
        n = plan.layout.total_padded
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert rel_err(inverse(plan, forward(plan, x)), x) <= 1e-10


def test_filter_embed_zero_pads_per_document():
    plan = build_plan([3], filter_len=2, k=4)  # padded length 4
    bank = FilterBank(np.array([2.0, 5.0]))
    assert np.array_equal(embed_filter(plan.layout, bank).ravel(), [2.0, 5.0, 0.0, 0.0])


def test_filter_embed_truncates_to_document_length():
    # Filter longer than the document: only taps a causal output can reach
    # are embedded, which keeps the circular product linear.
    plan = build_plan([2], filter_len=8, k=4)  # padded length 4
    bank = FilterBank(np.arange(1.0, 9.0))
    assert np.array_equal(embed_filter(plan.layout, bank).ravel(), [1.0, 2.0, 0.0, 0.0])


def test_filter_embed_independent_copies_per_document():
    plan = build_plan([3, 6], filter_len=2, k=2)
    bank = FilterBank(np.array([1.0, -1.0]))
    embedded = embed_filter(plan.layout, bank).ravel()
    layout = plan.layout
    for off, padded in zip(layout.pos_offsets, layout.padded_lengths):
        segment = embedded[off : off + padded]
        assert np.array_equal(segment[:2], [1.0, -1.0])
        assert not segment[2:].any()


def test_convolve_direct_example():
    plan = build_plan([3], filter_len=2, k=2)
    sig = PackedSignal.from_documents(plan.layout, [np.array([1.0, 2.0, 3.0])])
    out = convolve(plan, sig, FilterBank(np.array([1.0, 1.0])))
    assert np.allclose(out.valid_values().ravel(), [1.0, 3.0, 5.0], atol=1e-12)


def test_convolve_identity_filter():
    rng = np.random.default_rng(7)
    for _ in range(10):
        lengths = random_doc_lengths(rng, max_docs=6, max_len=64)
        plan = build_plan(lengths, filter_len=1, k=int(rng.choice([1, 4, 16])))
        sig = PackedSignal.from_documents(plan.layout, random_documents(rng, lengths, 2))
        out = convolve(plan, sig, FilterBank(np.ones((1, 2))))
        assert np.max(np.abs(out.values - sig.values)) <= 1e-10


def test_convolve_matches_oracle_random_packings():
    rng = np.random.default_rng(8)
    for _ in range(10):
        lengths = [int(v) for v in rng.integers(1, 201, size=8)]
        plan = build_plan(lengths, filter_len=64, k=16)
        docs = random_documents(rng, lengths, 4)
        sig = PackedSignal.from_documents(plan.layout, docs)
        bank = FilterBank(rng.standard_normal((64, 4)))
        out = convolve(plan, sig, bank)
        ref = oracle_matrix(lengths, sig.valid_values(), bank.taps)
        assert rel_err(out.valid_values(), ref) <= 1e-8


def test_convolve_filter_longer_than_documents():
    # Exercises tap truncation: without it the circular product would wrap.
    rng = np.random.default_rng(9)
    for k in (1, 4, 256):
        lengths = [2, 3, 1, 7]
        plan = build_plan(lengths, filter_len=16, k=k)
        sig = PackedSignal.from_documents(plan.layout, random_documents(rng, lengths, 2))
        bank = FilterBank(rng.standard_normal((16, 2)))
        out = convolve(plan, sig, bank)
        ref = oracle_matrix(lengths, sig.valid_values(), bank.taps)
        assert rel_err(out.valid_values(), ref) <= 1e-10


def test_convolve_causality_suffix_perturbation():
    rng = np.random.default_rng(10)
    lengths = [12, 30]
    plan = build_plan(lengths, filter_len=8, k=4)
    docs = random_documents(rng, lengths)
    bank = FilterBank(rng.standard_normal((8, 1)))
    base = convolve(plan, sig := PackedSignal.from_documents(plan.layout, docs), bank)
    # Perturb the tail of document 1; outputs before the perturbation are unchanged.
    cut = 11
    docs2 = [d.copy() for d in docs]
    docs2[1][cut:] += 1.0
    out = convolve(plan, PackedSignal.from_documents(plan.layout, docs2), bank)
    doc1_base = base.documents()[1]
    doc1_out = out.documents()[1]
    assert np.max(np.abs(doc1_out[:cut] - doc1_base[:cut])) <= 1e-12
    assert np.max(np.abs(doc1_out[cut:] - doc1_base[cut:])) > 1e-6
    assert np.array_equal(out.documents()[0], base.documents()[0])


def test_convolve_cross_document_bit_isolation():
    rng = np.random.default_rng(11)
    lengths = [5, 9, 2]
    plan = build_plan(lengths, filter_len=4, k=4)
    docs = random_documents(rng, lengths, 3)
    bank = FilterBank(rng.standard_normal((4, 3)))
    base = convolve(plan, PackedSignal.from_documents(plan.layout, docs), bank)
    docs2 = [d.copy() for d in docs]
    docs2[1] = rng.standard_normal(docs2[1].shape)
    out = convolve(plan, PackedSignal.from_documents(plan.layout, docs2), bank)
    assert np.array_equal(base.documents()[0], out.documents()[0])
    assert np.array_equal(base.documents()[2], out.documents()[2])


def _paired_product(product):
    """The inverse input conj(P_2j) + i * conj(P_2j+1), an odd last channel paired with zero."""
    pad = np.zeros(product.shape[:2] + (product.shape[2] % 2,), dtype=complex)
    conj = np.conj(np.concatenate([product, pad], axis=2))
    return conj[..., 0::2] + 1j * conj[..., 1::2]


def _paired(values):
    """Channels 2j + i * (2j + 1) of a real (n, D) array, an odd last one paired with zero."""
    values = np.concatenate([values, np.zeros((len(values), values.shape[1] % 2))], axis=1)
    return values[:, 0::2] + 1j * values[:, 1::2]


def _filter_plan(plan):
    """A plan of one document per width group, its longest: the layout convolve's filters use."""
    return build_plan([g.longest for g in plan.groups], plan.layout.filter_len, plan.k)


def _random_filter_spectra(rng, plan, pairs):
    shape = (sum(g.width for g in plan.groups), plan.k, pairs)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_dual_real_recovery_matches_separate_transforms():
    # Each channel's spectrum, transformed on its own, times its group's
    # filter spectrum, transformed on its own on the filter layout, over the
    # group's L' = k * m, then paired for the inverse.
    rng = np.random.default_rng(12)
    for _ in range(10):
        lengths = random_doc_lengths(rng, max_docs=6, max_len=48)
        plan = build_plan(lengths, filter_len=6, k=int(rng.choice([1, 4, 16])))
        filters = _filter_plan(plan)
        assert [g.width for g in filters.groups] == [g.width for g in plan.groups]
        channels = int(rng.choice([1, 2, 3]))
        b = rng.standard_normal((plan.layout.total_padded, channels))
        f = rng.standard_normal((filters.layout.total_padded, channels))
        z = transform_grid(plan, plan.p1.apply(_paired(b)))
        zf = transform_grid(filters, filters.p1.apply(_paired(f)))
        paired = split_dual_real(plan, z, zf)
        product = transform_grid(plan, plan.p1.apply(b.astype(complex)))
        f_ref = transform_grid(filters, filters.p1.apply(f.astype(complex)))
        group_spectra = np.split(f_ref, np.cumsum([g.width for g in plan.groups])[:-1])
        for group, spectrum in zip(plan.groups, group_spectra):
            docs = product[group.cols].reshape(group.n_docs, group.width, plan.k, channels)
            docs *= spectrum / (plan.k * group.width)
        assert rel_err(paired, _paired_product(product)) <= 1e-10


def test_grid_stages_ignore_memory_layout():
    rng = np.random.default_rng(15)
    for _ in range(5):
        lengths = random_doc_lengths(rng, max_docs=6, max_len=48)
        plan = build_plan(lengths, filter_len=6, k=int(rng.choice([1, 4, 16])))
        shape = (plan.k, plan.layout.total_cols, 3)
        grid = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        expected = transform_grid(plan, grid)
        filter_spectra = _random_filter_spectra(rng, plan, 3)
        # The split writes over a C-contiguous spectrum, so it gets a copy.
        expected_split = split_dual_real(plan, expected.copy(), filter_spectra)
        # Transposed views of the same values: column-major grids with the
        # channels last or in the middle.  The split copies them once and
        # leaves them as they were.
        for axes in ((1, 0, 2), (1, 2, 0)):
            view = np.ascontiguousarray(grid.transpose(axes)).transpose(np.argsort(axes))
            assert not view.flags.c_contiguous or plan.k == 1
            assert np.array_equal(transform_grid(plan, view), expected)
            spectrum = np.ascontiguousarray(expected.copy().transpose(axes)).transpose(np.argsort(axes))
            assert not spectrum.flags.c_contiguous or plan.k == 1
            assert np.array_equal(split_dual_real(plan, spectrum, filter_spectra), expected_split)
            assert spectrum.flags.c_contiguous or np.array_equal(spectrum, expected)


def test_split_chunks_of_mirror_pairs_match_a_single_chunk(monkeypatch):
    # The split works on mirror pairs (f, n - f), 1 <= f <= n/2, after f = 0
    # alone.  A budget of c pairs (_SPLIT_PAIR_BYTES * ceil(D/2) bytes each)
    # puts the pairs of c / (n/2) whole runs of n in one chunk, or splits a
    # longer run's pairs into pieces of c.  The budgets are 1, 2 and 3 pairs,
    # each width's n/2, one less than the largest and two runs of it.  At
    # n = 1 the run is f = 0 alone; at n = 2 its one pair is f = 1 = n/2, its
    # own mirror, as is n/2 of every even n.  The k = 3 layout has odd
    # n = k * m, where no frequency but 0 is its own mirror.  The spectra
    # carry ceil(D/2) paired channels: one for D = 1 and 2, three for D = 5,
    # and two.  Every chunking must give the one-chunk result bit for bit,
    # chunks of one element (k = 1, one paired channel, one pair) included.
    # numpy rounds a one-element complex multiply by an ulp differently from
    # a longer one when it runs in place or broadcasts operands of unequal
    # rank, so the split does neither.  The split writes over a C-contiguous
    # complex128 spectrum and returns it, so every call gets its own copy,
    # and it leaves the filter spectra as they were.
    rng = np.random.default_rng(17)
    layouts = (
        ([7, 40, 1, 19, 90], 8, 4),
        ([9, 30, 1, 1, 17], 4, 1),
        ([64], 16, 4),
        ([1, 1, 1], 1, 2),
        ([5, 30, 1, 13], 4, 3),
    )
    odd = set()
    for lengths, filter_len, k in layouts:
        plan = build_plan(lengths, filter_len=filter_len, k=k)
        halves = sorted({k * g.width // 2 for g in plan.groups})
        odd |= {k * g.width for g in plan.groups if k * g.width % 2}
        for pairs in (1, 3, 2):
            shape = (plan.layout.total_cols, plan.k, pairs)
            spectrum = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            filter_spectra = _random_filter_spectra(rng, plan, pairs)
            filters = filter_spectra.copy()
            monkeypatch.setattr(rubiconv.transform, "_SPLIT_CHUNK_BYTES", 1 << 40)
            whole = split_dual_real(plan, spectrum.copy(), filter_spectra)
            assert np.array_equal(filter_spectra, filters)
            pair = rubiconv.transform._SPLIT_PAIR_BYTES * pairs
            budgets = {1, 2, 3, *halves, halves[-1] - 1, 2 * halves[-1]} - {0}
            for count in sorted(budgets):
                monkeypatch.setattr(rubiconv.transform, "_SPLIT_CHUNK_BYTES", count * pair)
                copy = spectrum.copy()
                got = split_dual_real(plan, copy, filter_spectra)
                assert got is copy
                assert np.array_equal(got, whole), (lengths, pairs, count)
                assert np.array_equal(filter_spectra, filters)
    assert odd >= {3, 9, 33}


def test_split_takes_f0_of_as_many_runs_as_a_chunk_holds(monkeypatch):
    # f = 0 is one frequency per run, so its chunk is sized by that width:
    # up to a chunk's pairs' worth of runs in one call, not the batch of
    # runs that the group's pieces of eight pairs allow (409 at D = 4).
    rng = np.random.default_rng(45)
    plan = build_plan([5] * 1000, filter_len=4, k=16)  # one width group, n = 16
    shape = (plan.layout.total_cols, plan.k, 2)
    shapes = []
    split = rubiconv.transform._split_pair

    def recording(low, *args):
        shapes.append(low.shape[:2])
        return split(low, *args)

    monkeypatch.setattr(rubiconv.transform, "_split_pair", recording)
    split_dual_real(plan, rng.standard_normal(shape) + 0j, _random_filter_spectra(rng, plan, 2))
    assert shapes[0] == (1000, 1) and max(s[0] for s in shapes[1:]) < 1000


def test_split_rejects_a_spectrum_of_another_shape():
    plan = build_plan([7, 40, 1], filter_len=8, k=4)
    m_total, k = plan.layout.total_cols, plan.k
    widths = sum(g.width for g in plan.groups)
    filter_spectra = np.zeros((widths, k, 2), dtype=complex)
    for shape in ((m_total + 1, k, 2), (m_total, 2 * k, 2), (m_total - 1, k, 2), (m_total, k)):
        with pytest.raises(ValueError, match=rf"spectrum shape \({shape[0]}, .* does not match \({m_total}, {k}\)$"):
            split_dual_real(plan, np.zeros(shape, dtype=complex), filter_spectra)
    spectrum = np.zeros((m_total, k, 2), dtype=complex)
    for shape in ((widths + 1, k, 2), (widths, 2 * k, 2), (widths, k, 1), (widths, k, 3), (widths, k)):
        with pytest.raises(ValueError, match=rf"filter spectra shape .* does not match \({widths}, {k}, 2\)$"):
            split_dual_real(plan, spectrum, np.zeros(shape, dtype=complex))


@pytest.mark.parametrize(
    "lengths, filter_len, k",
    [
        (np.random.default_rng(19).geometric(1 / 32, size=400).tolist(), 32, 32),
        ([2048] * 4, 2048, 64),
        ([2048] * 4, 2048, 256),
        (np.random.default_rng(19).geometric(1 / 512, size=32).tolist(), 1024, 256),
        (list(range(1, 2000, 37)), 4096, 16),
    ],
    ids=[
        "many-documents",
        "four-equal-documents",
        "four-equal-documents-k256",
        "mixed-lengths-k256",
        "a-width-per-document",
    ],
)
def test_fused_convolve_peak_memory_is_at_most_1_38_grids(lengths, filter_len, k):
    # One grid is the packed buffer as complex data, total_padded * D * 16
    # bytes; the paired arrays convolve holds are half a grid each, and it
    # holds at most two of them at a time, plus a chunk of scratch and the
    # filter's taps.  The group filters' spectra, one document's columns per
    # width group, come on top of the spectrum alone; where every document
    # has its own width they are as large as the spectrum.  Cold tracemalloc
    # measured 1.13 / 1.33 / 1.32 / 1.13 / 1.13 grids on these cases, where
    # transforming the filters before the forward measured 1.13 / 1.39 /
    # 1.38 / 1.30 / 1.55, a split into a fresh array 1.49 / 1.76 / 1.76 /
    # 1.58 / 1.59, and both together 1.59 / 1.85 / 1.84 / 1.62 / 1.61.
    rng = np.random.default_rng(19)
    channels = 4
    plan = build_plan(lengths, filter_len, k)
    sig = PackedSignal.from_documents(plan.layout, random_documents(rng, lengths, channels))
    bank = FilterBank(rng.standard_normal((filter_len, channels)))
    tracemalloc.start()
    try:
        convolve(plan, sig, bank)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.38 * plan.layout.total_padded * channels * 16


def _recorded_gemm_calls(monkeypatch, plan):
    """Record (k-point stage?, right operand's shape) of every GEMM ``transform_grid`` makes."""
    calls = []
    gemm = rubiconv.transform.gemm

    def recording(a, b, *args, **kwargs):
        calls.append((np.shares_memory(b, plan.m1), np.shape(b)))
        return gemm(a, b, *args, **kwargs)

    monkeypatch.setattr(rubiconv.transform, "gemm", recording)
    return calls


def _check_chunk_bounds(plan, calls):
    # The call bound and chunk width of ``rubiconv.transform._CHUNKS``'s notes.
    chunks = rubiconv.transform._CHUNKS
    chunk = max(plan.groups[-1].width, -(-plan.layout.total_cols // chunks))
    block_calls = max(p + q if p > 1 else 1 for p, q in (_factors(g.width, _MIN_BLOCK_FACTOR) for g in plan.groups))
    assert len(calls) <= (3 + block_calls) * (2 * chunks + len(plan.groups))
    blocks = [b for k_stage, b in calls if not k_stage]
    assert max(math.prod(b[:-1]) for b in blocks) <= chunk


def test_block_stage_stacks_whole_documents_per_chunk(monkeypatch):
    # About 1000 short documents in a few widths: each width group runs in
    # chunks of whole documents, so the transform makes neither one GEMM
    # call per document nor a block-stage temporary wider than one chunk.
    rng = np.random.default_rng(16)
    lengths = rng.geometric(1 / 32, size=1000).tolist()
    k, channels = 64, 2
    plan = build_plan(lengths, filter_len=64, k=k)
    widths, counts = np.unique(plan.layout.cols_per_doc, return_counts=True)
    assert len(widths) > 2 and counts[0] > widths[-1]
    calls = _recorded_gemm_calls(monkeypatch, plan)
    shape = (k, plan.layout.total_cols, channels)
    transform_grid(plan, rng.standard_normal(shape) + 0j)
    _check_chunk_bounds(plan, calls)


def _group_local_cols(plan):
    """(group, local column) of every grid column."""
    return [(g, c) for g in plan.groups for _ in range(g.n_docs) for c in range(g.width)]


def _pruning_cases():
    # k = 256 = 16 * 16 and 512 = 16 * 32 run convolve's k-point stage as
    # two GEMM passes; documents up to 3k long span several grid columns.
    rng = np.random.default_rng(17)
    for k in (1, 4, 16, 64, 256, 512):
        lengths = random_doc_lengths(rng, max_docs=8, max_len=90 if k < 256 else 3 * k)
        plan = build_plan(lengths, filter_len=int(rng.choice([3, 200])), k=k)
        shape = (k, plan.layout.total_cols, int(rng.choice([1, 3])))
        yield plan, rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_skip_zero_rows_never_reads_rows_past_the_live_ones():
    for plan, grid in _pruning_cases():
        zeroed, poisoned = grid.copy(), grid.copy()
        for col, (group, _) in enumerate(_group_local_cols(plan)):
            zeroed[group.live_rows :, col] = 0
            poisoned[group.live_rows :, col] = np.nan
        expected = transform_grid(plan, zeroed)
        got = transform_grid(plan, poisoned, skip_zero_rows=True)
        assert np.all(np.isfinite(got))
        assert rel_err(got, expected) <= 1e-12


def test_skip_unread_cols_zeroes_exactly_the_columns_past_the_live_ones():
    for plan, grid in _pruning_cases():
        expected = transform_grid(plan, grid)
        got = transform_grid(plan, grid, skip_unread_cols=True)
        live = np.array([c < g.live_cols for g, c in _group_local_cols(plan)])
        assert np.all(got[~live] == 0)
        assert rel_err(got[live], expected[live]) <= 1e-12


def test_pruned_calls_factor_k_by_its_largest_divisor_up_to_its_root():
    factored = {256: (16, 16), 512: (16, 32), 1024: (32, 32), 323: (17, 19)}
    # 64 = 8 * 8 and 240 = 15 * 16 have k1 below 16; 257 is prime.
    for k in (1, 64, 240, 257, *factored):
        assert _factors(k, _MIN_FACTOR) == factored.get(k, (1, k)), k


def test_a_two_pass_k_stage_reads_a_block_for_every_n2():
    # Two passes are chosen only where they cost fewer multiplications, and
    # then live > k2, so the first pass reads at least one n1 block for
    # every n2.  Checked for every factor k1 > 1, not only k1 >= _MIN_FACTOR.
    for k in range(1, 1025):
        k1, k2 = _factors(k, 1)
        if k1 > 1:
            for live in range(1, k + 1):
                assert _dft_cmuls(k, k1, live, k) >= k * live or live > k2, (k, live)


def test_two_pass_stage_takes_many_columns_per_chunk_and_only_where_it_saves(monkeypatch):
    # Hundreds of short documents at k = 256 = 16 * 16.  The two-pass stage
    # runs per chunk of at least 1/_CHUNKS of the grid, so its GEMM calls do
    # not grow with the document count.  A group whose live rows r are so
    # few that k1 * r + k * k2 >= k * r keeps one GEMM.
    rng = np.random.default_rng(23)
    lengths = [10] * 40 + rng.integers(300, 500, size=300).tolist() + [700]
    k, k1, k2, channels = 256, 16, 16, 2
    plan = build_plan(lengths, filter_len=8, k=k)
    few_rows, many_rows, widest = plan.groups
    assert (few_rows.width, few_rows.live_rows) == (1, 10) and many_rows.live_rows > 2 * k2
    calls = _recorded_gemm_calls(monkeypatch, plan)
    grid = rng.standard_normal((k, plan.layout.total_cols, channels)) + 0j
    for col, (group, _) in enumerate(_group_local_cols(plan)):
        grid[group.live_rows :, col] = 0
    got = transform_grid(plan, grid, skip_zero_rows=True)
    k_stage = [b for is_k_stage, b in calls if is_k_stage]
    assert k_stage[0] == (10, k) and all(shape[0] <= k2 for shape in k_stage[1:])
    _check_chunk_bounds(plan, calls)
    monkeypatch.undo()
    assert rel_err(got, transform_grid(plan, grid)) <= 1e-12


def test_pruned_calls_factor_m_by_its_largest_divisor_up_to_its_root():
    factored = {64: (8, 8), 120: (10, 12), 128: (8, 16), 1024: (32, 32)}
    # 60 = 6 * 10 has p below 8; 127 is prime.
    for m in (1, 60, 127, *factored):
        assert _factors(m, _MIN_BLOCK_FACTOR) == factored.get(m, (1, m)), m


def test_factoring_both_stages_cuts_the_long_document_count_below_six_tenths(monkeypatch):
    # Four documents of 2^17 tokens with a full-length filter, at k = 256:
    # width m = 1024, so the block stage dominates unless it is factored too.
    layout = rubiconv.packing.build_layout([2**17] * 4, 2**17, 256)
    assert set(layout.cols_per_doc) == {1024}
    factored = rubiconv.transform.convolve_cmuls(layout, 16)
    monkeypatch.setattr(rubiconv.transform, "_MIN_FACTOR", 10**9)
    monkeypatch.setattr(rubiconv.transform, "_MIN_BLOCK_FACTOR", 10**9)
    assert factored <= 0.6 * rubiconv.transform.convolve_cmuls(layout, 16)


def _factored_width_cases():
    # One document of width m whose filter is about as long as itself, so
    # that m / 2 + 1 of its output columns are kept, which p does not
    # divide, next to a narrower one.
    rng = np.random.default_rng(31)
    for m, k in ((64, 16), (72, 8), (128, 16), (1024, 4)):
        half = m * k // 2
        plan = build_plan([half + 1, 3 * k], filter_len=half - 1, k=k)
        narrow, wide = plan.groups
        p = _factors(m, _MIN_BLOCK_FACTOR)[0]
        assert wide.width == m and wide.live_cols == m // 2 + 1
        for keep in (m, wide.live_cols):
            assert _dft_cmuls(m, p, m, keep) < m * keep, (m, keep)
        shape = (k, plan.layout.total_cols, 2)
        grid = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for col, (g, _) in enumerate(_group_local_cols(plan)):
            grid[g.live_rows :, col] = 0
        yield plan, grid


def test_two_pass_block_stage_matches_one_gemm_under_both_flags():
    for plan, grid in _factored_width_cases():
        expected = transform_grid(plan, grid)
        assert rel_err(transform_grid(plan, grid, skip_zero_rows=True), expected) <= 1e-12
        live = np.array([c < g.live_cols for g, c in _group_local_cols(plan)])
        for got in (
            transform_grid(plan, grid, skip_unread_cols=True),
            transform_grid(plan, grid, skip_zero_rows=True, skip_unread_cols=True),
        ):
            assert np.all(got[~live] == 0)
            assert rel_err(got[live], expected[live]) <= 1e-12


def test_two_pass_block_stage_gemm_calls_stay_within_the_chunk_bounds(monkeypatch):
    # A factored width m = p * q makes p + q block-stage calls per chunk,
    # each on at most a chunk's columns.
    for plan, grid in _factored_width_cases():
        calls = _recorded_gemm_calls(monkeypatch, plan)
        transform_grid(plan, grid, skip_unread_cols=True)
        monkeypatch.undo()
        p, q = _factors(plan.groups[-1].width, _MIN_BLOCK_FACTOR)
        assert sum(b[-2] in (p, q) for is_k_stage, b in calls if not is_k_stage) == p + q
        _check_chunk_bounds(plan, calls)


@pytest.mark.parametrize("k", [1, 4, 64, 256, 512])
def test_chunk_size_never_changes_the_transform(monkeypatch, k):
    # _CHUNKS = 1 runs each width group as one chunk, and a huge _CHUNKS
    # runs chunks of m_max columns, a document of width m_max each.
    rng = np.random.default_rng(29)
    lengths = rng.geometric(1 / 40, size=300).tolist() + [3000]
    plan = build_plan(lengths, filter_len=8, k=k)
    shape = (k, plan.layout.total_cols, 2)
    grid = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    flags = (
        {},
        {"skip_zero_rows": True},
        {"skip_unread_cols": True},
        {"skip_zero_rows": True, "skip_unread_cols": True},
    )
    expected = [transform_grid(plan, grid, **f) for f in flags]
    for chunks in (1, 10**9):
        monkeypatch.setattr(rubiconv.transform, "_CHUNKS", chunks)
        for f, want in zip(flags, expected):
            assert rel_err(transform_grid(plan, grid, **f), want) <= 1e-14, (chunks, f)


def _schedule_cases(k):
    # Random documents next to two of widths 64 = 8 * 8 and 128 = 8 * 16,
    # whose block stages factor, under a filter shorter than every
    # document and one longer than every document.  At k = 1 the long
    # filter makes every width 2 L - 1, so 63 and 127 take their place.
    rng = np.random.default_rng(k)
    channels = 3
    for filter_len, wide in ((2, [64 * k - 1, 128 * k - 1]), (128 * k + 1, [32 * k, 64 * k])):
        lengths = rng.integers(3, 3 * k + 4, size=int(rng.integers(1, 6))).tolist() + wide
        plan = build_plan(lengths, filter_len=filter_len, k=k)
        widths = {g.width for g in plan.groups}
        assert {64, 128} <= widths or (k, filter_len) == (1, 129)
        assert any(_factors(m, _MIN_BLOCK_FACTOR)[0] == 1 for m in widths)
        shape = (k, plan.layout.total_cols, channels)
        grid = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        sig = PackedSignal.from_documents(plan.layout, random_documents(rng, lengths, channels))
        yield plan, grid, sig, FilterBank(rng.standard_normal((filter_len, channels)))


def _paired_taps(plan, bank):
    """The paired filter channels' taps that ``_filter_spectra`` reads."""
    n_taps = max(g.longest for g in _filter_groups(plan.layout, plan.groups))
    return _as_complex_pairs(bank.taps[:n_taps])


def _four_transforms(plan, grid, taps):
    """(call, ``_schedule``'s arguments after k) of the full transform and convolve's three."""
    groups = plan.groups
    return (
        (lambda: transform_grid(plan, grid), (groups,)),
        (lambda: transform_grid(plan, grid, skip_zero_rows=True), (groups, True)),
        (lambda: _filter_spectra(plan, taps), (_filter_groups(plan.layout, groups), True)),
        (lambda: transform_grid(plan, grid, skip_unread_cols=True), (groups, False, True)),
    )


def _executed_runs(monkeypatch):
    """(run, counted complex multiplications, channels) of every run ``_group_stages`` executes."""
    executed = []
    stages = rubiconv.transform._group_stages

    def counted(run, m1, twiddle, dft, rows, work, scratch):
        with count_ops() as counts:
            stages(run, m1, twiddle, dft, rows, work, scratch)
        executed.append((run, counts.complex_muls, work.shape[1]))

    monkeypatch.setattr(rubiconv.transform, "_group_stages", counted)
    return executed


@pytest.mark.parametrize("k", [1, 4, 16, 64, 256, 512])
def test_each_run_counts_what_the_schedule_prices_it_at(monkeypatch, k):
    # The full transform and each of convolve's three run exactly the
    # schedule's runs, and each run counts its price, which is never above
    # that of one GEMM per stage.
    for plan, grid, _, bank in _schedule_cases(k):
        for call, args in _four_transforms(plan, grid, _paired_taps(plan, bank)):
            executed = _executed_runs(monkeypatch)
            call()
            monkeypatch.undo()
            assert [run for run, _, _ in executed] == list(_schedule(k, *args))
            for run, counted, channels in executed:
                assert counted == channels * _run_cmuls(k, run)
                assert _run_cmuls(k, run) <= _run_cmuls(k, run._replace(k1=1, p=1))


@pytest.mark.parametrize("k", [1, 16, 256, 512])
def test_transforms_run_a_forced_schedule(monkeypatch, k):
    # With every run forced to one GEMM per stage, transform_grid, the group
    # filters and convolve count exactly the forced runs' costs, which
    # convolve_cmuls sums, and stay within 1e-12 of the default schedule.
    schedule = rubiconv.transform._schedule

    def one_gemm(*args, **kwargs):
        return tuple(run._replace(k1=1, p=1) for run in schedule(*args, **kwargs))

    for plan, grid, sig, bank in _schedule_cases(k):
        transforms = _four_transforms(plan, grid, _paired_taps(plan, bank))
        expected = [call() for call, _ in transforms]
        default_cmuls = rubiconv.transform.convolve_cmuls(plan.layout, sig.channels)
        default = convolve(plan, sig, bank).values
        monkeypatch.setattr(rubiconv.transform, "_schedule", one_gemm)
        for (call, args), want in zip(transforms, expected):
            with count_ops() as counts:
                got = call()
            assert counts.complex_muls == got.shape[-1] * sum(_run_cmuls(k, run) for run in one_gemm(k, *args))
            assert rel_err(got, want) <= 1e-12
        with count_ops() as counts:
            got = convolve(plan, sig, bank).values
        cmuls = rubiconv.transform.convolve_cmuls(plan.layout, sig.channels)
        monkeypatch.undo()
        assert counts.complex_muls == cmuls
        # Width 64 = 8 * 8 runs two block passes by default.
        assert cmuls > default_cmuls or 64 not in {g.width for g in plan.groups}
        assert rel_err(got, default) <= 1e-12


def test_fused_matches_unfused_reference_path():
    rng = np.random.default_rng(13)
    for _ in range(10):
        lengths = random_doc_lengths(rng, max_docs=6, max_len=48)
        plan = build_plan(lengths, filter_len=9, k=int(rng.choice([1, 4, 16])))
        sig = PackedSignal.from_documents(plan.layout, random_documents(rng, lengths, 2))
        bank = FilterBank(rng.standard_normal((9, 2)))
        fused = convolve(plan, sig, bank, fused=True)
        unfused = convolve(plan, sig, bank, fused=False)
        assert rel_err(fused.values, unfused.values) <= 1e-10


def test_unfused_reference_shares_no_pruning_split_or_group_filter(monkeypatch):
    # fused=False is the plain two-transform convolution: full transforms
    # only, no dual-real split and no per-group filter spectra.
    rng = np.random.default_rng(23)
    lengths = [7, 40, 1, 19]
    plan = build_plan(lengths, filter_len=8, k=4)
    sig = PackedSignal.from_documents(plan.layout, random_documents(rng, lengths, 3))
    bank = FilterBank(rng.standard_normal((8, 3)))
    calls = []
    for name in ("transform_grid", "split_dual_real", "_filter_spectra"):
        original = getattr(rubiconv.transform, name)

        def recording(*args, _name=name, _original=original, **kwargs):
            calls.append((_name, kwargs))
            return _original(*args, **kwargs)

        monkeypatch.setattr(rubiconv.transform, name, recording)
    convolve(plan, sig, bank, fused=False)
    assert [name for name, _ in calls] == ["transform_grid"] * 3
    assert not any(kwargs.get("skip_zero_rows") or kwargs.get("skip_unread_cols") for _, kwargs in calls)


# Documents of one width group share one filter spectrum with the group's
# longest document's min(L_F, L_i) taps (the shared documents' indices
# last): a document shorter than L_F next to one at least as long, all
# shorter than L_F, and a one-tap filter.
SHARED_GROUP_CASES = {
    "shorter-and-longer-than-the-filter": ([9, 12, 3, 10], 10, 8, [0, 1, 3]),
    "all-shorter-than-the-filter": ([12, 9, 11], 50, 8, [0, 1, 2]),
    "one-tap-filter": ([9, 16, 13], 1, 8, [0, 1, 2]),
}


@pytest.mark.parametrize("channels", [1, 2, 3, 4])
@pytest.mark.parametrize("case", SHARED_GROUP_CASES.values(), ids=SHARED_GROUP_CASES.keys())
def test_documents_of_one_width_group_share_its_filter(case, channels):
    lengths, filter_len, k, shared = case
    plan = build_plan(lengths, filter_len, k)
    (group,) = [g for g in plan.groups if g.width == plan.layout.cols_per_doc[shared[0]]]
    assert group.n_docs == len(shared) and {plan.layout.cols_per_doc[i] for i in shared} == {group.width}
    assert group.longest == max(lengths[i] for i in shared)
    rng = np.random.default_rng(len(lengths) * channels + filter_len)
    sig = PackedSignal.from_documents(plan.layout, random_documents(rng, lengths, channels))
    bank = FilterBank(rng.standard_normal((filter_len, channels)))
    fused = convolve(plan, sig, bank)
    expected = oracle_matrix(lengths, sig.valid_values(), bank.taps)
    assert rel_err(fused.valid_values(), expected) <= 1e-12
    assert rel_err(fused.values, convolve(plan, sig, bank, fused=False).values) <= 1e-10


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_a_non_finite_tap_reaches_every_document_of_the_groups_whose_filter_holds_it():
    # Tap 9 is past document 0's length 9 but inside its group's 10 taps;
    # document 2's group keeps 3 taps.
    lengths, filter_len, k, shared = SHARED_GROUP_CASES["shorter-and-longer-than-the-filter"]
    plan = build_plan(lengths, filter_len, k)
    rng = np.random.default_rng(41)
    sig = PackedSignal.from_documents(plan.layout, random_documents(rng, lengths, 2))
    taps = rng.standard_normal((filter_len, 2))
    taps[9] = np.nan
    docs = convolve(plan, sig, FilterBank(taps)).documents()
    assert all(not np.isfinite(docs[i]).all() for i in shared)
    assert np.isfinite(docs[2]).all()
    unfused = convolve(plan, sig, FilterBank(taps), fused=False).documents()
    assert np.isfinite(unfused[0]).all()


def test_pipeline_entry_points_take_no_gemm_mode():
    # The grid pipeline runs standard GEMMs only; linalg.gemm keeps its modes.
    plan = build_plan([5, 9, 2], filter_len=4, k=4)
    n = plan.layout.total_padded
    sig = PackedSignal.from_documents(plan.layout, [np.ones((length, 2)) for length in (5, 9, 2)])
    bank = FilterBank(np.ones((4, 2)))
    grid = np.ones((4, plan.layout.total_cols))
    calls = (
        lambda: forward(plan, np.ones(n), gemm_mode="standard"),
        lambda: inverse(plan, np.ones(n), gemm_mode="standard"),
        lambda: convolve(plan, sig, bank, gemm_mode="standard"),
        lambda: transform_grid(plan, grid, "standard"),
    )
    for call in calls:
        with pytest.raises(TypeError):
            call()


def test_spectra_are_cell_major_and_maps_read_c_order(monkeypatch):
    # transform_grid hands back the (m_total, k, D) array it writes, and
    # every gather reads its input as it is, with no layout translation:
    # the flat view ``take`` reads needs no copy, even where an odd D's
    # unload reads the inverse's output without its zero partner.
    rng = np.random.default_rng(18)
    lengths = [7, 40, 1, 19]
    plan = build_plan(lengths, filter_len=8, k=4)
    m_total, k = plan.layout.total_cols, plan.k
    assert plan.pre_ifft.src_shape == plan.p2.src_shape == (m_total, k)
    spectrum = transform_grid(plan, rng.standard_normal((k, m_total, 3)) + 0j)
    assert spectrum.shape == (m_total, k, 3) and spectrum.flags.c_contiguous

    inputs = []
    apply = rubiconv.packing.IndexMap.apply

    def recording(index_map, values):
        lead = len(index_map.src_shape)
        inputs.append(((math.prod(index_map.src_shape),) + values.shape[lead:], values))
        return apply(index_map, values)

    monkeypatch.setattr(rubiconv.packing.IndexMap, "apply", recording)
    sig = PackedSignal.from_documents(plan.layout, random_documents(rng, lengths, 3))
    bank = FilterBank(rng.standard_normal((8, 3)))
    for fused in (True, False):
        convolve(plan, sig, bank, fused=fused)
    x = rng.standard_normal((plan.layout.total_padded, 3)) + 0j
    inverse(plan, forward(plan, x))
    # The unfused path runs three ``forward`` calls, p1 and p2 each.
    assert len(inputs) == 3 + 6 + 2 + 2  # fused, unfused, forward, inverse
    for flat, values in inputs:
        assert np.shares_memory(values.reshape(flat), values)


def test_convolve_channel_mismatch_rejected():
    plan = build_plan([4], filter_len=2, k=2)
    sig = PackedSignal.from_documents(plan.layout, [np.ones((4, 2))])
    with pytest.raises(ValueError):
        convolve(plan, sig, FilterBank(np.ones((2, 3))))


def test_convolve_filter_length_mismatch_rejected():
    plan = build_plan([4], filter_len=2, k=2)
    sig = PackedSignal.from_documents(plan.layout, [np.ones((4, 1))])
    with pytest.raises(ValueError):
        convolve(plan, sig, FilterBank(np.ones((3, 1))))


def test_packed_signal_rejects_nonzero_tail():
    plan = build_plan([3], filter_len=2, k=2)  # padded 4
    values = np.array([1.0, 2.0, 3.0, 4.0])[:, None]
    with pytest.raises(ValueError):
        PackedSignal(values, plan.layout)


@pytest.mark.parametrize("k", [1, 4, 16, 256])
@pytest.mark.parametrize("channels", [1, 2, 5])
def test_convolve_counts_only_complex_products(k, channels):
    # The split's group factors carry each group's 1 / L', so no real pass
    # scales the inverse's output: 4 real multiplications per complex one.
    # Widths of 3 and 5 columns make k * m no power of two for k > 1.
    rng = np.random.default_rng(41)
    lengths = [2 * k + 1, 4 * k, 3, 40 * k]
    plan = build_plan(lengths, filter_len=k + 1, k=k)
    assert any(k * g.width & (k * g.width - 1) for g in plan.groups)
    sig = PackedSignal.from_documents(plan.layout, random_documents(rng, lengths, channels))
    bank = FilterBank(rng.standard_normal((k + 1, channels)))
    with count_ops() as counts:
        convolve(plan, sig, bank)
    assert counts.complex_muls == rubiconv.transform.convolve_cmuls(plan.layout, channels)
    assert counts.real_muls == 4 * counts.complex_muls


@pytest.mark.parametrize("channels", [1, 2, 3, 5])
def test_paired_inverse_matches_oracle_for_any_channel_count(channels):
    # Odd channel counts pair their last channel with zero.
    rng = np.random.default_rng(16)
    for _ in range(4):
        lengths = random_doc_lengths(rng, max_docs=6, max_len=80)
        filter_len = int(rng.choice([1, 7, 64]))
        plan = build_plan(lengths, filter_len, k=int(rng.choice([1, 4, 16])))
        sig = PackedSignal.from_documents(plan.layout, random_documents(rng, lengths, channels))
        bank = FilterBank(rng.standard_normal((filter_len, channels)))
        ref = oracle_matrix(lengths, sig.valid_values(), bank.taps)
        for fused in (True, False):
            out = convolve(plan, sig, bank, fused=fused)
            assert out.values.shape == sig.values.shape
            assert rel_err(out.valid_values(), ref) <= 1e-8


def test_paired_channels_keep_their_own_accuracy():
    # Channels 2j and 2j + 1 share one complex inverse, so they share its
    # roundoff; a channel 1e3 times larger must not swamp its partner.
    rng = np.random.default_rng(17)
    lengths = [37, 120, 5, 64]
    plan = build_plan(lengths, filter_len=16, k=8)
    docs = random_documents(rng, lengths, 4)
    for doc in docs:
        doc[:, 1::2] *= 1e3
    sig = PackedSignal.from_documents(plan.layout, docs)
    bank = FilterBank(rng.standard_normal((16, 4)))
    ref = oracle_matrix(lengths, sig.valid_values(), bank.taps)
    for fused in (True, False):
        out = convolve(plan, sig, bank, fused=fused).valid_values()
        for c in range(4):
            assert rel_err(out[:, c], ref[:, c]) <= 1e-8


@pytest.mark.parametrize("channels", [4, 5])
def test_nan_in_one_channel_reaches_at_most_its_partner(channels):
    rng = np.random.default_rng(18)
    lengths = [9, 30, 4]
    plan = build_plan(lengths, filter_len=6, k=4)
    bank = FilterBank(rng.standard_normal((6, channels)))
    for c in range(channels):
        docs = random_documents(rng, lengths, channels)
        docs[1][3, c] = np.nan
        partners = {c, c ^ 1} & set(range(channels))
        for fused in (True, False):
            out = convolve(plan, PackedSignal.from_documents(plan.layout, docs), bank, fused=fused)
            for i, doc in enumerate(out.documents()):
                bad = {int(j) for j in np.flatnonzero(~np.isfinite(doc).all(axis=0))}
                assert bad <= (partners if i == 1 else set())
            assert not np.isfinite(out.documents()[1][3:, c]).any()


def test_convolve_rejects_layout_mismatch():
    plan = build_plan([4], filter_len=2, k=2)
    other = build_plan([5], filter_len=2, k=2)
    sig = PackedSignal.from_documents(other.layout, [np.ones((5, 1))])
    with pytest.raises(ValueError):
        convolve(plan, sig, FilterBank(np.ones((2, 1))))


def plan_arrays(plan) -> list[np.ndarray]:
    """Every distinct base array reachable through a plan's fields."""
    found, stack = {}, [plan]
    while stack:
        item = stack.pop()
        if isinstance(item, np.ndarray):
            while isinstance(item.base, np.ndarray):
                item = item.base
            found[id(item)] = item
        elif dataclasses.is_dataclass(item):
            stack.extend(getattr(item, field.name) for field in dataclasses.fields(item))
        elif isinstance(item, tuple):
            stack.extend(item)
    return list(found.values())


def test_plan_bytes_bounded_and_maps_are_permutations():
    rng = np.random.default_rng(40)
    for _ in range(10):
        k = int(rng.choice([1, 2, 4, 16, 64]))
        plan = build_plan(random_doc_lengths(rng), int(rng.choice([1, 7, 64, 512])), k)
        layout = plan.layout
        bound = (
            16 * k * k
            + 16 * sum(g.width * g.width + k * g.width for g in plan.groups)
            + 8 * layout.total_cols
        )
        assert sum(a.nbytes for a in plan_arrays(plan)) <= bound
        tables = {id(a) for a in (plan.m1, *plan.twiddles, *plan.m2)}
        assert all(a.size <= layout.total_cols for a in plan_arrays(plan) if id(a) not in tables)
        for index_map in (plan.p1, plan.pre_ifft, plan.p2):
            src_size = math.prod(index_map.src_shape)
            assert len(index_map.src_flat) == math.prod(index_map.dst_shape) == src_size
            assert np.array_equal(np.sort(index_map.src_flat), np.arange(src_size))


def test_plan_nbytes_counts_every_distinct_array_once():
    rng = np.random.default_rng(43)
    for _ in range(10):
        k = int(rng.choice([1, 2, 4, 16, 64]))
        plan = build_plan(random_doc_lengths(rng), int(rng.choice([1, 7, 64, 512])), k)
        assert plan.nbytes == sum(a.nbytes for a in plan_arrays(plan))


def test_plan_arrays_are_read_only():
    plan = build_plan([5, 9, 2], filter_len=4, k=4)
    assert not any(a.flags.writeable for a in plan_arrays(plan))
    with pytest.raises(ValueError):
        plan.twiddles[0][0, 0] = 0
    with pytest.raises(ValueError):
        plan.p1.blocks[0] = 0
    with pytest.raises(ValueError):
        plan.p1.src_flat[0] = 0


def test_one_plan_shared_across_threads_gives_the_serial_result():
    # The README says plans are safe to share across threads and layers.
    # Four threads each convolve their own signal through one shared plan
    # (grid path) or one shared CtLayout (radix-2 path); every result must
    # equal that signal's serial run bit for bit, and the plan stays as built.
    rng = np.random.default_rng(41)
    lengths = [300, 17, 1, 129, 64]
    plan = build_plan(lengths, filter_len=32, k=16)
    ct_layout = build_ct_layout(lengths, filter_len=32)
    bank = FilterBank(rng.standard_normal((32, 6)))
    docs = [random_documents(rng, lengths, 6) for _ in range(4)]
    plan_before = [a.copy() for a in plan_arrays(plan)]
    paths = (
        (plan.layout, lambda sig: convolve(plan, sig, bank)),
        (ct_layout, lambda sig: ct_convolve(sig, bank, ct_layout)),
    )
    for layout, run_path in paths:
        signals = [PackedSignal.from_documents(layout, d) for d in docs]
        expected = [run_path(sig).values for sig in signals]
        start = threading.Barrier(4, timeout=60)
        results = [[] for _ in range(4)]

        def run(i):
            start.wait()
            for _ in range(5):
                results[i].append(run_path(signals[i]).values)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for outs, ref in zip(results, expected):
            assert len(outs) == 5 and all(np.array_equal(out, ref) for out in outs)
    assert all(np.array_equal(a, b) for a, b in zip(plan_arrays(plan), plan_before))
    assert ct_layout == build_ct_layout(lengths, filter_len=32)

