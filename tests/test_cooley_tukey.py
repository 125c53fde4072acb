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
from rubiconv.cooley_tukey import (
    _bit_reverse_indices,
    bit_reverse_permute,
    masked_fft_stages,
    stage_triples,
)


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


def test_short_documents_carry_identity_triples():
    layout = build_ct_layout([2, 8], filter_len=1)
    triples = stage_triples(layout)
    for s, triple in enumerate(triples, start=1):
        if (1 << s) <= 2:
            continue
        assert np.array_equal(triple.tw0[:2], np.ones(2, dtype=complex))
        assert np.array_equal(triple.twf[:2], np.zeros(2))
        assert np.array_equal(triple.twb[:2], np.zeros(2))


def test_short_document_values_frozen_after_its_stages():
    layout = build_ct_layout([2, 8], filter_len=1)
    rng = np.random.default_rng(2)
    x = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    states = list(masked_fft_stages(x, layout))
    # After stage m=2 the short document is final; later stages keep it bit-identical.
    after_two = states[1][1][:2].copy()
    for _, state in states[2:]:
        assert np.array_equal(state[:2], after_two)


def test_stagewise_matches_reference_fft():
    layout = build_ct_layout([4, 16, 2], filter_len=1)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(layout.total_padded) + 1j * rng.standard_normal(
        layout.total_padded
    )
    stages = list(masked_fft_stages(x, layout))[1:]  # skip bit-reversal state
    for off, span in zip(layout.offsets, layout.pow2_lengths):
        refs = reference_fft_stages(x[off : off + span])
        for s, ref in enumerate(refs, start=1):
            state = stages[s - 1][1]
            assert rel_err(state[off : off + span], ref) <= 1e-12


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
    # Small-large-small packing stresses the global rolls at block edges.
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
        assert counts.complex_muls == 3 * layout.total_padded * layout.max_log2
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


def test_radix2_caches_keep_only_the_latest_layout():
    rng = np.random.default_rng(42)
    for lengths in ([5, 9, 3], [40, 2], [17, 1, 8, 30]):
        layout = build_ct_layout(lengths, 4)
        sig = PackedSignal.from_documents(layout, [rng.standard_normal((n, 2)) for n in lengths])
        ct_convolve(sig, FilterBank(rng.standard_normal((4, 2))), layout)
    assert _bit_reverse_indices.cache_info().currsize == 1
    assert stage_triples.cache_info().currsize == 1

