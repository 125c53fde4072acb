"""Every convolution path keeps non-finite values inside their document
and returns zero padding tails."""

import numpy as np
import pytest

from conftest import random_documents
from rubiconv import (
    FilterBank,
    PackedSignal,
    build_ct_layout,
    build_plan,
    convolve,
    ct_convolve,
)
from rubiconv.packing import _span_positions


def _variants(lengths, filter_len, k):
    plan = build_plan(lengths, filter_len, k)
    ct_layout = build_ct_layout(lengths, filter_len)
    return {
        "grid-fused": (
            plan.layout,
            lambda sig, bank: convolve(plan, sig, bank, fused=True),
        ),
        "grid-unfused": (
            plan.layout,
            lambda sig, bank: convolve(plan, sig, bank, fused=False),
        ),
        "ct": (ct_layout, lambda sig, bank: ct_convolve(sig, bank, ct_layout)),
    }


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_value_stays_in_its_document(bad):
    rng = np.random.default_rng(20)
    for lengths, channels in (([5, 9, 3], 4), ([1, 16, 2, 33, 7], 3), ([64, 1, 64], 2)):
        bank = FilterBank(rng.standard_normal((4, channels)))
        docs = random_documents(rng, lengths, channels)
        for name, (layout, run) in _variants(lengths, 4, 4).items():
            for target in range(len(lengths)):
                poisoned = [d.copy() for d in docs]
                poisoned[target][len(poisoned[target]) // 2, channels - 1] = bad
                base = run(PackedSignal.from_documents(layout, docs), bank).documents()
                out = run(PackedSignal.from_documents(layout, poisoned), bank).documents()
                assert not np.isfinite(out[target]).all(), name
                for i in range(len(lengths)):
                    if i != target:
                        assert np.isfinite(out[i]).all(), (name, target, i)
                        assert np.array_equal(out[i], base[i]), (name, target, i)


def test_outputs_have_zero_tails_and_caller_signals_keep_their_checks():
    rng = np.random.default_rng(21)
    lengths = [3, 17, 1, 40]
    bank = FilterBank(rng.standard_normal((5, 3)))
    for name, (layout, run) in _variants(lengths, 5, 8).items():
        sig = PackedSignal.from_documents(layout, random_documents(rng, lengths, 3))
        out = run(sig, bank)
        assert out.values.shape == sig.values.shape and out.values.dtype == np.float64
        starts = np.add(layout.span_offsets, layout.doc_lengths)
        tails = _span_positions(starts, np.subtract(layout.span_lengths, layout.doc_lengths))
        assert len(tails) > 0, name
        assert not out.values[tails].any(), name
        # A signal built by a caller is still checked, tail by tail.
        values = out.values.copy()
        values[tails[-1], 2] = 1.0
        with pytest.raises(ValueError):
            PackedSignal(values, layout)
