"""Property checks over random packings, run with bounded example counts.

Packings draw document lengths whose grid widths interleave in document
order (so the width-sorted grid really permutes column blocks), length-1
documents, filters longer than every document, k = 1 and k larger than
every document (k = 256 and 512 among them, where ``convolve`` runs its
k-point stage as two GEMM passes), and one or an odd number of channels.
A fixed example of width 64 = 8 * 8 always reaches the two-pass block
stage.
The radix-2 path draws the same packings and ignores k.  Examples are
derandomized, so a run is reproducible.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import oracle_matrix, random_documents, rel_err  # noqa: E402
from rubiconv import (  # noqa: E402
    FilterBank,
    PackedSignal,
    build_ct_layout,
    build_plan,
    convolve,
    count_ops,
    ct_convolve,
    forward,
    inverse,
    naive_dft,
)
from rubiconv.transform import convolve_cmuls  # noqa: E402

BOUNDED = settings(max_examples=100, deadline=None, derandomize=True, database=None)
INTERLEAVED = ([1, 70, 1, 33, 70, 2, 1], 9, 8, 3, 0)
# At k = 2 the 64-long document has width 64 = 8 * 8, so convolve runs its
# block stage as two GEMM passes.
FACTORED_WIDTH = ([64, 70, 1, 33], 80, 2, 3, 0)


@st.composite
def packings(draw):
    """(doc_lengths, L_F, k, D, seed) for one random packing."""
    lengths = draw(
        st.lists(st.one_of(st.just(1), st.integers(1, 12), st.integers(13, 90)), min_size=1, max_size=8)
    )
    longest = max(lengths)
    filter_len = draw(st.one_of(st.integers(1, 12), st.integers(longest, longest + 20)))
    k = draw(st.one_of(st.sampled_from([1, 2, 3, 4, 8, 16, 256, 512]), st.integers(longest + 1, 2 * longest + 8)))
    channels = draw(st.sampled_from([1, 2, 3, 5]))
    return lengths, filter_len, k, channels, draw(st.integers(0, 2**32 - 1))


def _signal_and_bank(case):
    lengths, filter_len, k, channels, seed = case
    rng = np.random.default_rng(seed)
    plan = build_plan(lengths, filter_len, k)
    sig = PackedSignal.from_documents(plan.layout, random_documents(rng, lengths, channels))
    return plan, sig, FilterBank(rng.standard_normal((filter_len, channels))), rng


@BOUNDED
@given(packings())
@example(INTERLEAVED)
@example(FACTORED_WIDTH)
def test_convolve_matches_oracle_fused_and_unfused(case):
    plan, sig, bank, _ = _signal_and_bank(case)
    expected = oracle_matrix(case[0], sig.valid_values(), bank.taps)
    for fused in (True, False):
        assert rel_err(convolve(plan, sig, bank, fused=fused).valid_values(), expected) <= 1e-8


@BOUNDED
@given(packings())
@example(INTERLEAVED)
@example(FACTORED_WIDTH)
def test_perturbing_one_document_leaves_the_others_bit_identical(case):
    plan, sig, bank, rng = _signal_and_bank(case)
    layout = plan.layout
    target = int(rng.integers(layout.n_docs))
    off, length = layout.pos_offsets[target], layout.doc_lengths[target]
    values = sig.values.copy()
    values[off : off + length] += rng.standard_normal((length, sig.channels))
    base = convolve(plan, sig, bank).values
    moved = convolve(plan, PackedSignal(values, layout), bank).values
    span = layout.padded_lengths[target]
    assert np.array_equal(base[:off], moved[:off])
    assert np.array_equal(base[off + span :], moved[off + span :])


@BOUNDED
@given(packings())
@example(INTERLEAVED)
def test_radix2_convolve_matches_oracle_and_isolates_documents(case):
    lengths, filter_len, _, channels, seed = case
    rng = np.random.default_rng(seed)
    layout = build_ct_layout(lengths, filter_len)
    sig = PackedSignal.from_documents(layout, random_documents(rng, lengths, channels))
    bank = FilterBank(rng.standard_normal((filter_len, channels)))
    base = ct_convolve(sig, bank, layout)
    expected = oracle_matrix(lengths, sig.valid_values(), bank.taps)
    assert rel_err(base.valid_values(), expected) <= 1e-8

    target = int(rng.integers(layout.n_docs))
    off, span = layout.span_offsets[target], layout.span_lengths[target]
    values = sig.values.copy()
    values[off : off + lengths[target]] += rng.standard_normal((lengths[target], channels))
    moved = ct_convolve(PackedSignal(values, layout), bank, layout).values
    assert np.array_equal(base.values[:off], moved[:off])
    assert np.array_equal(base.values[off + span :], moved[off + span :])


@BOUNDED
@given(packings())
@example(INTERLEAVED)
@example(FACTORED_WIDTH)
def test_perturbing_a_suffix_leaves_earlier_outputs_and_other_documents(case):
    plan, sig, bank, rng = _signal_and_bank(case)
    layout = plan.layout
    target = int(rng.integers(layout.n_docs))
    off, length = layout.pos_offsets[target], layout.doc_lengths[target]
    cut = int(rng.integers(length))
    values = sig.values.copy()
    values[off + cut : off + length] += rng.standard_normal((length - cut, sig.channels))
    base = convolve(plan, sig, bank).values
    moved = convolve(plan, PackedSignal(values, layout), bank).values
    drift = np.abs(moved[off : off + cut] - base[off : off + cut])
    assert np.max(drift, initial=0.0) <= 1e-12 * np.max(np.abs(base))
    span = layout.padded_lengths[target]
    assert np.array_equal(base[:off], moved[:off])
    assert np.array_equal(base[off + span :], moved[off + span :])


@BOUNDED
@given(packings())
@example(INTERLEAVED)
@example(FACTORED_WIDTH)
def test_counted_convolve_matches_convolve_cmuls(case):
    plan, sig, bank, _ = _signal_and_bank(case)
    with count_ops() as counts:
        convolve(plan, sig, bank)
    assert counts.complex_muls == convolve_cmuls(plan.layout, sig.channels)


@BOUNDED
@given(packings())
@example(INTERLEAVED)
@example(FACTORED_WIDTH)
def test_inverse_undoes_forward(case):
    plan, sig, _, rng = _signal_and_bank(case)
    x = sig.values + 1j * rng.standard_normal(sig.values.shape)
    assert rel_err(inverse(plan, forward(plan, x)), x) <= 1e-10


@BOUNDED
@given(packings())
@example(INTERLEAVED)
@example(FACTORED_WIDTH)
def test_forward_matches_naive_dft_per_document(case):
    plan, sig, _, rng = _signal_and_bank(case)
    layout = plan.layout
    x = sig.values + 1j * rng.standard_normal(sig.values.shape)
    y = forward(plan, x)
    for off, span in zip(layout.pos_offsets, layout.padded_lengths):
        for c in range(sig.channels):
            assert rel_err(y[off : off + span, c], naive_dft(x[off : off + span, c])) <= 1e-10
