import tracemalloc

import numpy as np
import pytest

from conftest import oracle_matrix, random_doc_lengths, random_documents, rel_err
from rubiconv import (
    FilterBank,
    PackedSignal,
    build_ct_layout,
    build_plan,
    convolve,
    count_ops,
    ct_convolve,
    ct_inverse,
    masked_fft,
    naive_dft,
)
from rubiconv.cooley_tukey import bit_reverse_permute, masked_fft_stages, stage_triples


def reference_fft_stages(x):
    """Single-document iterative radix-2 DIT FFT, exposing every stage."""
    x = np.asarray(x, dtype=complex)
    n = x.size
    bits = n.bit_length() - 1
    rev = np.zeros(n, dtype=np.int64)
    local = np.arange(n)
    for b in range(bits):
        rev = (rev << 1) | ((local >> b) & 1)
    y = x[rev]
    states = []
    m = 2
    while m <= n:
        half = m // 2
        w = np.exp(2j * np.pi * np.arange(half) / m)
        for start in range(0, n, m):
            top = y[start : start + half].copy()
            twisted = w * y[start + half : start + m]
            y[start : start + half] = top + twisted
            y[start + half : start + m] = top - twisted
        states.append(y.copy())
        m *= 2
    return states


def masked_fft_per_doc_error(layout, x):
    y = masked_fft(x, layout)
    worst = 0.0
    for off, span in zip(layout.offsets, layout.pow2_lengths):
        worst = max(worst, rel_err(y[off : off + span], naive_dft(x[off : off + span])))
    return worst


def test_layout_pads_to_power_of_two_with_conv_allowance():
    layout = build_ct_layout([5, 9, 2], filter_len=4)
    # 5+3=8, 9+3=12->16, 2+1=3->4
    assert layout.pow2_lengths == (8, 16, 4)
    assert layout.offsets == (0, 8, 24)
    assert layout.total_padded == 28


def test_layout_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_ct_layout([], 1)
    with pytest.raises(ValueError):
        build_ct_layout([0], 1)
    with pytest.raises(ValueError):
        build_ct_layout([3], 0)


def test_bit_reversal_span_eight():
    layout = build_ct_layout([8], filter_len=1)
    out = bit_reverse_permute(np.arange(8.0), layout)
    assert np.array_equal(out, [0, 4, 2, 6, 1, 5, 3, 7])
    assert out[3] == 6.0 and out[6] == 3.0  # 011 <-> 110


def test_bit_reversal_tiny_spans_identity():
    for length in (1, 2):
        layout = build_ct_layout([length], filter_len=1)
        x = np.arange(float(layout.total_padded))
        assert np.array_equal(bit_reverse_permute(x, layout), x)


def test_bit_reversal_independent_per_span():
    layout = build_ct_layout([4, 2], filter_len=1)
    out = bit_reverse_permute(np.arange(6.0), layout)
    assert np.array_equal(out, [0, 2, 1, 3, 4, 5])


def test_bit_reversal_length_mismatch():
    layout = build_ct_layout([4], filter_len=1)
    with pytest.raises(ValueError):
        bit_reverse_permute(np.zeros(5), layout)
    with pytest.raises(ValueError, match="packed vector has 0 positions"):
        masked_fft(1.0, layout)


def test_bit_reversal_rejects_non_power_of_two_span():
    from rubiconv import CtLayout

    bad = CtLayout(
        doc_lengths=(3,), filter_len=1, pow2_lengths=(3,), offsets=(0,), total_padded=3
    )
    with pytest.raises(ValueError):
        bit_reverse_permute(np.zeros(3), bad)


def test_masked_fft_constant_signal():
    layout = build_ct_layout([4], filter_len=1)
    assert np.allclose(masked_fft(np.ones(4), layout), [4, 0, 0, 0], atol=1e-12)


def test_masked_fft_matches_naive_dft_two_docs():
    layout = build_ct_layout([2, 4], filter_len=1)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    assert masked_fft_per_doc_error(layout, x) <= 1e-10


def test_masked_fft_matches_naive_dft_random_family():
    rng = np.random.default_rng(1)
    for _ in range(15):
        lengths = random_doc_lengths(rng, max_docs=8, max_len=100)
        layout = build_ct_layout(lengths, filter_len=int(rng.choice([1, 7, 64])))
        x = rng.standard_normal(layout.total_padded) + 1j * rng.standard_normal(
            layout.total_padded
        )
        assert masked_fft_per_doc_error(layout, x) <= 1e-10


def test_short_documents_sit_out_larger_stages():
    layout = build_ct_layout([2, 8, 4], filter_len=1)
    seen = []
    for half, top, w in stage_triples(layout):
        m = 2 * half
        assert top.shape[1] == half and np.array_equal(w, np.exp(2j * np.pi * np.arange(half) / m))
        touched = set(top.ravel()) | set((top + half).ravel())
        for off, span in zip(layout.offsets, layout.pow2_lengths):
            inside = touched & set(range(off, off + span))
            # A document takes part in a stage with all its positions or none.
            assert len(inside) == (span if span >= m else 0)
        assert len(touched) == 2 * top.size
        seen.append(m)
    assert seen == [2, 4, 8]


def test_short_document_values_frozen_after_its_stages():
    layout = build_ct_layout([2, 8], filter_len=1)
    rng = np.random.default_rng(2)
    x = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    # The generator updates one array in place, so each state is copied as
    # it is yielded; without the copies every entry would be the final state.
    states = [state.copy() for _, state in masked_fft_stages(x, layout)]
    # After stage m=2 the short document is final; later stages keep it bit-identical.
    after_two = states[1][:2]
    assert not np.array_equal(after_two, states[0][:2])
    for state in states[2:]:
        assert np.array_equal(state[:2], after_two)


def test_stagewise_matches_reference_fft():
    layout = build_ct_layout([4, 16, 2], filter_len=1)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(layout.total_padded) + 1j * rng.standard_normal(
        layout.total_padded
    )
    # Copied as yielded: the generator updates one array in place.
    stages = [state.copy() for _, state in masked_fft_stages(x, layout)][1:]
    for off, span in zip(layout.offsets, layout.pow2_lengths):
        refs = reference_fft_stages(x[off : off + span])
        for s, ref in enumerate(refs, start=1):
            assert rel_err(stages[s - 1][off : off + span], ref) <= 1e-12


def test_masked_fft_inverse_round_trip():
    rng = np.random.default_rng(4)
    for _ in range(10):
        lengths = random_doc_lengths(rng, max_docs=6, max_len=64)
        layout = build_ct_layout(lengths, filter_len=5)
        x = rng.standard_normal(layout.total_padded) + 1j * rng.standard_normal(
            layout.total_padded
        )
        assert rel_err(ct_inverse(masked_fft(x, layout), layout), x) <= 1e-10


def test_ct_convolve_identity_filter():
    rng = np.random.default_rng(5)
    lengths = [5, 9, 2]
    layout = build_ct_layout(lengths, filter_len=1)
    sig = PackedSignal.from_documents(layout, random_documents(rng, lengths, 2))
    out = ct_convolve(sig, FilterBank(np.ones((1, 2))), layout)
    assert np.max(np.abs(out.values - sig.values)) <= 1e-10


def test_ct_convolve_matches_oracle():
    rng = np.random.default_rng(6)
    for _ in range(10):
        lengths = random_doc_lengths(rng, max_docs=8, max_len=128)
        filter_len = int(rng.choice([1, 7, 64]))
        layout = build_ct_layout(lengths, filter_len)
        docs = random_documents(rng, lengths, 2)
        sig = PackedSignal.from_documents(layout, docs)
        bank = FilterBank(rng.standard_normal((filter_len, 2)))
        out = ct_convolve(sig, bank, layout)
        ref = oracle_matrix(lengths, sig.valid_values(), bank.taps)
        assert rel_err(out.valid_values(), ref) <= 1e-8


def test_ct_convolve_matches_grid_transform_convolve():
    rng = np.random.default_rng(7)
    for _ in range(8):
        lengths = random_doc_lengths(rng, max_docs=6, max_len=96)
        filter_len = int(rng.choice([1, 7, 32]))
        layout = build_ct_layout(lengths, filter_len)
        plan = build_plan(lengths, filter_len, k=int(rng.choice([1, 4, 16])))
        docs = random_documents(rng, lengths, 2)
        bank = FilterBank(rng.standard_normal((filter_len, 2)))
        ct_out = ct_convolve(PackedSignal.from_documents(layout, docs), bank, layout)
        grid_out = convolve(plan, PackedSignal.from_documents(plan.layout, docs), bank)
        assert rel_err(ct_out.valid_values(), grid_out.valid_values()) <= 1e-9


def test_adversarial_adjacent_lengths():
    # Small-large-small packing: short documents on both sides of a long one.
    rng = np.random.default_rng(8)
    lengths = [2, 8, 2]
    layout = build_ct_layout(lengths, filter_len=6)
    docs = random_documents(rng, lengths)
    sig = PackedSignal.from_documents(layout, docs)
    bank = FilterBank(rng.standard_normal(6))
    out = ct_convolve(sig, bank, layout)
    ref = oracle_matrix(lengths, sig.valid_values(), bank.taps)
    assert rel_err(out.valid_values(), ref) <= 1e-10


def test_ct_cross_document_bit_isolation():
    rng = np.random.default_rng(9)
    lengths = [5, 9, 2]
    layout = build_ct_layout(lengths, filter_len=4)
    docs = random_documents(rng, lengths, 2)
    bank = FilterBank(rng.standard_normal((4, 2)))
    base = ct_convolve(PackedSignal.from_documents(layout, docs), bank, layout)
    docs2 = [d.copy() for d in docs]
    docs2[1] = rng.standard_normal(docs2[1].shape)
    out = ct_convolve(PackedSignal.from_documents(layout, docs2), bank, layout)
    assert np.array_equal(base.documents()[0], out.documents()[0])
    assert np.array_equal(base.documents()[2], out.documents()[2])


def test_masked_fft_multiplication_count_bound():
    rng = np.random.default_rng(10)
    for _ in range(10):
        lengths = random_doc_lengths(rng, max_docs=8, max_len=64)
        layout = build_ct_layout(lengths, filter_len=3)
        if layout.total_padded < 2:
            continue
        x = rng.standard_normal(layout.total_padded) + 0j
        with count_ops() as counts:
            masked_fft(x, layout)
        # One twiddle multiply per butterfly: (p/2) log2 p for a span p.
        butterflies = sum(p // 2 * int(np.log2(p)) for p in layout.pow2_lengths)
        assert counts.complex_muls == butterflies
        assert counts.complex_muls <= 3 * layout.total_padded * np.log2(layout.total_padded)


def test_power_of_two_padding_bloat_bounded():
    rng = np.random.default_rng(11)
    for _ in range(30):
        lengths = random_doc_lengths(rng)
        filter_len = int(rng.choice([1, 7, 64, 512]))
        layout = build_ct_layout(lengths, filter_len)
        causal_total = sum(
            length + min(length, filter_len) - 1 for length in lengths
        )
        assert layout.total_padded / causal_total <= 2.0


def test_ct_convolve_channel_mismatch_rejected():
    layout = build_ct_layout([4], filter_len=2)
    sig = PackedSignal.from_documents(layout, [np.ones((4, 2))])
    with pytest.raises(ValueError):
        ct_convolve(sig, FilterBank(np.ones((2, 3))), layout)




def test_radix2_path_keeps_no_memory_between_calls():
    # Nothing outlives a call: after ct_convolve on several layouts, with
    # every output dropped, traced memory is back at its baseline.  A module
    # cache of per-layout tables would keep megabytes here.
    #
    # Peak bound, in packed complex arrays (N_pad * D * 16 B): while the
    # filter is transformed, x_hat, the filter's complex copy and the working
    # state are live (3), and a butterfly stage adds its two gathered halves
    # and their sum (3 * 1/2), so 4.5 plus the stage's int64 indices.  These
    # layouts measured 4.77-5.03; with per-position twiddle tables they
    # measured 11.7-27.
    rng = np.random.default_rng(44)
    cases = [
        ([4000, 17, 1, 900], 64, 2),
        (rng.geometric(1 / 32, size=300).tolist(), 64, 3),
        ([1024] * 4, 1024, 2),
        ([3000], 1, 4),
    ]
    inputs = []
    for lengths, filter_len, channels in cases:
        layout = build_ct_layout(lengths, filter_len)
        sig = PackedSignal.from_documents(layout, random_documents(rng, lengths, channels))
        inputs.append((layout, sig, FilterBank(rng.standard_normal((filter_len, channels)))))
    ct_convolve(inputs[-1][1], inputs[-1][2], inputs[-1][0])  # first-call allocations
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        for layout, sig, bank in inputs:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            ct_convolve(sig, bank, layout)
            peak = tracemalloc.get_traced_memory()[1] - before
            assert peak <= 5.5 * layout.total_padded * sig.channels * 16
        kept = tracemalloc.get_traced_memory()[0] - baseline
    finally:
        tracemalloc.stop()
    assert kept <= 16 * 1024
