import numpy as np
import pytest

from rubiconv import FilterBank, PackedSignal, build_ct_layout, build_layout, embed_filter


def test_filter_bank_normalizes_1d_taps():
    bank = FilterBank(np.array([1.0, 2.0]))
    assert bank.taps.shape == (2, 1)
    assert bank.filter_len == 2 and bank.channels == 1


def test_filter_bank_rejects_empty():
    with pytest.raises(ValueError):
        FilterBank(np.empty((0, 2)))


def test_from_documents_round_trip():
    layout = build_layout([3, 5], filter_len=2, k=2)
    rng = np.random.default_rng(0)
    docs = [rng.standard_normal((3, 2)), rng.standard_normal((5, 2))]
    sig = PackedSignal.from_documents(layout, docs)
    assert sig.channels == 2
    assert sig.values.shape == (layout.total_padded, 2)
    for doc, view in zip(docs, sig.documents()):
        assert np.array_equal(doc, view)
    assert np.array_equal(sig.valid_values(), np.concatenate(docs))


def test_from_documents_rejects_wrong_count_or_shape():
    layout = build_layout([3, 5], filter_len=2, k=2)
    with pytest.raises(ValueError):
        PackedSignal.from_documents(layout, [np.ones((3, 1))])
    with pytest.raises(ValueError):
        PackedSignal.from_documents(layout, [np.ones((3, 1)), np.ones((4, 1))])


def test_signal_works_with_ct_layouts():
    layout = build_ct_layout([3, 5], filter_len=4)
    sig = PackedSignal.from_documents(layout, [np.ones(3), np.ones(5)])
    assert sig.values.shape == (layout.total_padded, 1)


def test_embed_filter_caps_taps_at_document_length():
    layout = build_layout([2, 6], filter_len=4, k=1)
    bank = FilterBank(np.array([1.0, 2.0, 3.0, 4.0]))
    embedded = embed_filter(layout, bank).ravel()
    first = embedded[: layout.padded_lengths[0]]
    second = embedded[layout.padded_lengths[0] :]
    assert np.array_equal(first[:2], [1.0, 2.0]) and not first[2:].any()
    assert np.array_equal(second[:4], [1.0, 2.0, 3.0, 4.0]) and not second[4:].any()


def test_filter_bank_rejects_zero_channels():
    with pytest.raises(ValueError):
        FilterBank(np.zeros((3, 0)))


def test_signal_and_filter_bank_reject_bad_shapes():
    layout = build_layout([3, 5], filter_len=2, k=2)
    with pytest.raises(ValueError):
        FilterBank(np.zeros((3, 1, 1)))
    with pytest.raises(ValueError):
        PackedSignal(np.zeros((layout.total_padded, 1, 1)), layout)
    with pytest.raises(ValueError):
        PackedSignal(np.zeros((layout.total_padded + 1, 1)), layout)


def test_packed_signal_rejects_any_nonzero_padding_position():
    layout = build_layout([3, 1, 6], filter_len=4, k=4)
    zeros = np.zeros((layout.total_padded, 2))
    PackedSignal(zeros, layout)
    for off, length, span in zip(layout.pos_offsets, layout.doc_lengths, layout.padded_lengths):
        for pos in range(off + length, off + span):
            for bad in (1e-300, -1.0, np.nan):
                values = zeros.copy()
                values[pos, 1] = bad
                with pytest.raises(ValueError):
                    PackedSignal(values, layout)
    values = zeros.copy()
    for off, length in zip(layout.pos_offsets, layout.doc_lengths):
        values[off : off + length] = 1.0
    PackedSignal(values, layout)
