import dataclasses
import math
import sys
import threading

import numpy as np
import pytest

import rubiconv.packing
import rubiconv.transform
from conftest import oracle_matrix, random_doc_lengths, random_documents, rel_err
from rubiconv import (
    FilterBank,
    PackedSignal,
    build_plan,
    convolve,
    count_ops,
    dft_matrix,
    embed_filter,
    forward,
    inverse,
    naive_dft,
)
from rubiconv.transform import split_dual_real, transform_grid


def forward_vs_naive_worst(plan, x):
    layout = plan.layout
    y = forward(plan, x)
    worst = 0.0
    for off, padded in zip(layout.pos_offsets, layout.padded_lengths):
        worst = max(worst, rel_err(y[off : off + padded], naive_dft(x[off : off + padded])))
    return worst


def test_plan_shapes_two_docs():
    plan = build_plan([4, 8], filter_len=64, k=4)
    assert plan.twiddle.shape == (4, 6)
    assert [b.shape[0] for b in plan.m2_blocks] == [2, 4]


def test_plan_degenerate_single_column():
    k = 8
    plan = build_plan([k], filter_len=1, k=k)
    assert len(plan.m2_blocks) == 1 and plan.m2_blocks[0].shape == (1, 1)
    assert np.allclose(plan.twiddle[:, 0], dft_matrix(k)[:, 0], atol=1e-15)


def test_plan_build_is_deterministic():
    a = build_plan([5, 9, 2], filter_len=4, k=4)
    b = build_plan([5, 9, 2], filter_len=4, k=4)
    assert a.layout == b.layout
    assert np.array_equal(a.m1, b.m1)
    assert np.array_equal(a.twiddle, b.twiddle)
    assert all(np.array_equal(x, y) for x, y in zip(a.m2_blocks, b.m2_blocks))
    for field in ("p1", "pre_ifft", "p2"):
        assert np.array_equal(getattr(a, field).src_flat, getattr(b, field).src_flat)
    assert np.array_equal(a.inv_scale, b.inv_scale)
    assert np.array_equal(a.rev_cols_first, b.rev_cols_first)
    assert np.array_equal(a.rev_cols_rest, b.rev_cols_rest)


def test_equal_width_documents_share_tables():
    plan = build_plan([5, 60, 7, 3, 58], filter_len=4, k=16)
    widths = plan.layout.cols_per_doc
    assert widths[0] == widths[2] == widths[3] and widths[1] == widths[4] != widths[0]
    assert plan.m2_blocks[0] is plan.m2_blocks[2] is plan.m2_blocks[3]
    assert plan.m2_blocks[1] is plan.m2_blocks[4]
    assert plan.m2_blocks[0] is not plan.m2_blocks[1]


def test_twiddle_entries_use_padded_length_roots():
    rng = np.random.default_rng(0)
    for _ in range(10):
        lengths = random_doc_lengths(rng, max_docs=5, max_len=40)
        k = int(rng.choice([1, 2, 4, 8]))
        plan = build_plan(lengths, filter_len=5, k=k)
        layout = plan.layout
        for off_col, m_i, padded in zip(
            layout.col_offsets, layout.cols_per_doc, layout.padded_lengths
        ):
            a = np.arange(k)[:, None]
            b = np.arange(m_i)[None, :]
            expected = np.exp(2j * np.pi * ((a * b) % padded) / padded)
            assert rel_err(plan.twiddle[:, off_col : off_col + m_i], expected) <= 1e-14


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


def test_dual_real_recovery_matches_separate_transforms():
    rng = np.random.default_rng(12)
    for _ in range(10):
        lengths = random_doc_lengths(rng, max_docs=6, max_len=48)
        plan = build_plan(lengths, filter_len=6, k=int(rng.choice([1, 4, 16])))
        n = plan.layout.total_padded
        b = rng.standard_normal(n)
        f = rng.standard_normal(n)
        spectrum = transform_grid(plan, plan.p1.apply(b + 1j * f))
        b_hat, f_hat = split_dual_real(plan, spectrum)
        b_ref = transform_grid(plan, plan.p1.apply(b.astype(complex)))
        f_ref = transform_grid(plan, plan.p1.apply(f.astype(complex)))
        assert rel_err(b_hat, b_ref) <= 1e-10
        assert rel_err(f_hat, f_ref) <= 1e-10


def test_grid_stages_ignore_memory_layout():
    rng = np.random.default_rng(15)
    for _ in range(5):
        lengths = random_doc_lengths(rng, max_docs=6, max_len=48)
        plan = build_plan(lengths, filter_len=6, k=int(rng.choice([1, 4, 16])))
        shape = (plan.k, plan.layout.total_cols, 3)
        grid = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        expected = transform_grid(plan, grid)
        expected_split = split_dual_real(plan, expected)
        # Transposed views of the same values: column-major grids with the
        # channels last or in the middle.
        for axes in ((1, 0, 2), (1, 2, 0)):
            view = np.ascontiguousarray(grid.transpose(axes)).transpose(np.argsort(axes))
            assert not view.flags.c_contiguous or plan.k == 1
            assert np.array_equal(transform_grid(plan, view), expected)
            spectrum = np.ascontiguousarray(expected.transpose(axes)).transpose(np.argsort(axes))
            for got, want in zip(split_dual_real(plan, spectrum), expected_split):
                assert np.array_equal(got, want)
        contiguous = np.ascontiguousarray(expected)
        for got, want in zip(split_dual_real(plan, contiguous), expected_split):
            assert np.array_equal(got, want)


def test_block_stage_runs_capped_stacks_per_width(monkeypatch):
    # About 1000 short documents in a few widths: the block stage stacks
    # equal-width documents, at most m_max // m of width m per GEMM, so it
    # makes neither one call per document nor a temporary wider than the
    # widest document's block.
    rng = np.random.default_rng(16)
    lengths = rng.geometric(1 / 32, size=1000).tolist()
    k, channels = 64, 2
    plan = build_plan(lengths, filter_len=64, k=k)
    operands = []
    gemm = rubiconv.transform.gemm

    def recording(a, b, *args, **kwargs):
        if b is not plan.m1:
            operands.append(np.shape(b))
        return gemm(a, b, *args, **kwargs)

    monkeypatch.setattr(rubiconv.transform, "gemm", recording)
    shape = (k, plan.layout.total_cols, channels)
    transform_grid(plan, rng.standard_normal(shape) + 0j)

    widths, counts = np.unique(plan.layout.cols_per_doc, return_counts=True)
    m_max = int(widths[-1])
    assert len(widths) > 2 and counts[0] > m_max
    expected_calls = sum(-(-n // max(1, m_max // w)) for w, n in zip(widths, counts))
    assert len(operands) == expected_calls
    assert max(math.prod(s) for s in operands) <= m_max * channels * k


def _group_local_cols(plan):
    """(group, local column) of every grid column."""
    return [(g, c) for g in plan.groups for _ in range(g.n_docs) for c in range(g.width)]


def _pruning_cases():
    rng = np.random.default_rng(17)
    for k in (1, 4, 16, 64):
        lengths = random_doc_lengths(rng, max_docs=8, max_len=90)
        plan = build_plan(lengths, filter_len=int(rng.choice([3, 200])), k=k)
        shape = (k, plan.layout.total_cols, int(rng.choice([1, 3])))
        yield plan, rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("mode", ["standard", "karatsuba"])
def test_skip_zero_rows_never_reads_rows_past_the_live_ones(mode):
    for plan, grid in _pruning_cases():
        zeroed, poisoned = grid.copy(), grid.copy()
        for col, (group, _) in enumerate(_group_local_cols(plan)):
            zeroed[group.live_rows :, col] = 0
            poisoned[group.live_rows :, col] = np.nan
        expected = transform_grid(plan, zeroed, mode)
        got = transform_grid(plan, poisoned, mode, skip_zero_rows=True)
        assert np.all(np.isfinite(got))
        assert rel_err(got, expected) <= 1e-12


@pytest.mark.parametrize("mode", ["standard", "karatsuba"])
def test_skip_unread_cols_zeroes_exactly_the_columns_past_the_live_ones(mode):
    for plan, grid in _pruning_cases():
        expected = transform_grid(plan, grid, mode)
        got = transform_grid(plan, grid, mode, skip_unread_cols=True)
        live = np.array([c < g.live_cols for g, c in _group_local_cols(plan)])
        assert np.all(got[~live] == 0)
        assert rel_err(got[live], expected[live]) <= 1e-12


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


def test_karatsuba_mode_matches_standard():
    rng = np.random.default_rng(14)
    lengths = [5, 9, 2]
    plan = build_plan(lengths, filter_len=4, k=4)
    n = plan.layout.total_padded
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert rel_err(forward(plan, x, gemm_mode="karatsuba"), forward(plan, x)) <= 1e-12
    sig = PackedSignal.from_documents(plan.layout, random_documents(rng, lengths, 2))
    bank = FilterBank(rng.standard_normal((4, 2)))
    a = convolve(plan, sig, bank, gemm_mode="karatsuba")
    b = convolve(plan, sig, bank)
    assert rel_err(a.values, b.values) <= 1e-12


def test_unknown_gemm_mode_rejected_by_every_pipeline():
    plan = build_plan([5, 9, 2], filter_len=4, k=4)
    n = plan.layout.total_padded
    sig = PackedSignal.from_documents(plan.layout, [np.ones((length, 2)) for length in (5, 9, 2)])
    bank = FilterBank(np.ones((4, 2)))
    calls = (
        lambda: forward(plan, np.ones(n), gemm_mode="strassen"),
        lambda: inverse(plan, np.ones(n), gemm_mode="strassen"),
        lambda: convolve(plan, sig, bank, gemm_mode="strassen"),
        lambda: convolve(plan, sig, bank, fused=False, gemm_mode="strassen"),
    )
    for call in calls:
        with pytest.raises(ValueError, match="unknown gemm mode 'strassen'"):
            call()


def test_spectra_are_cell_major_and_maps_read_c_order(monkeypatch):
    # transform_grid hands back the (m_total, k, D) array it writes, and
    # every gather reads its input as it is, with no layout translation.
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
        inputs.append(values)
        return apply(index_map, values)

    monkeypatch.setattr(rubiconv.packing.IndexMap, "apply", recording)
    sig = PackedSignal.from_documents(plan.layout, random_documents(rng, lengths, 3))
    bank = FilterBank(rng.standard_normal((8, 3)))
    for fused in (True, False):
        convolve(plan, sig, bank, fused=fused)
    x = rng.standard_normal((plan.layout.total_padded, 3)) + 0j
    inverse(plan, forward(plan, x))
    assert len(inputs) == 3 + 4 + 2 + 2  # fused, unfused, forward, inverse
    assert all(values.flags.c_contiguous for values in inputs)


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
            + 16 * sum(m * m for m in set(layout.cols_per_doc))
            + 40 * layout.total_padded
            + 24 * layout.total_cols
        )
        assert sum(a.nbytes for a in plan_arrays(plan)) <= bound
        for index_map in (plan.p1, plan.pre_ifft, plan.p2):
            src_size = math.prod(index_map.src_shape)
            assert len(index_map.src_flat) == math.prod(index_map.dst_shape) == src_size
            assert np.array_equal(np.sort(index_map.src_flat), np.arange(src_size))


def test_plan_arrays_are_read_only():
    plan = build_plan([5, 9, 2], filter_len=4, k=4)
    assert not any(a.flags.writeable for a in plan_arrays(plan))
    with pytest.raises(ValueError):
        plan.twiddle[0, 0] = 0
    with pytest.raises(ValueError):
        plan.p1.src_flat[0] = 0


def test_one_plan_shared_across_threads_gives_the_serial_result():
    rng = np.random.default_rng(41)
    lengths = [300, 17, 1, 129, 64]
    plan = build_plan(lengths, filter_len=32, k=16)
    signal = PackedSignal.from_documents(plan.layout, random_documents(rng, lengths, 6))
    bank = FilterBank(rng.standard_normal((32, 6)))
    expected = convolve(plan, signal, bank).values
    results = [None] * 4

    def run(i):
        for _ in range(5):
            results[i] = convolve(plan, signal, bank).values

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
    assert all(np.array_equal(out, expected) for out in results)

