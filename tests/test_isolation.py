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
    variants = {
        f"grid-{'fused' if fused else 'unfused'}": (
            plan.layout,
            lambda sig, bank, fused=fused: convolve(plan, sig, bank, fused=fused),
        )
        for fused in (True, False)
    }
    variants["ct"] = (ct_layout, lambda sig, bank: ct_convolve(sig, bank, ct_layout))
    return variants


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_value_stays_in_its_document(bad):
    # At k = 256 = 16 * 16 convolve runs its k-point stage as two GEMM
    # passes, and at k = 4 widths 64 = 8 * 8 and 128 = 8 * 16 run the block
    # stage in two.
    rng = np.random.default_rng(20)
    cases = (([5, 9, 3], 4, 4), ([1, 16, 2, 33, 7], 3, 4), ([64, 1, 64], 2, 4))
    for lengths, channels, k in cases + (([5, 300, 1, 700], 3, 256), ([253, 3, 509], 2, 4)):
        bank = FilterBank(rng.standard_normal((4, channels)))
        docs = random_documents(rng, lengths, channels)
        for name, (layout, run) in _variants(lengths, 4, k).items():
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


def test_float32_and_integer_inputs_give_their_float64_results():
    rng = np.random.default_rng(22)
    lengths = [6, 1, 19, 4]
    cases = {
        "float32": (
            [rng.standard_normal((n, 3)).astype(np.float32) for n in lengths],
            rng.standard_normal((5, 3)).astype(np.float32),
        ),
        "int32": (
            [rng.integers(-9, 10, (n, 3), dtype=np.int32) for n in lengths],
            rng.integers(-9, 10, (5, 3), dtype=np.int32),
        ),
        "int64": ([rng.integers(-9, 10, (n, 3)) for n in lengths], rng.integers(-9, 10, (5, 3))),
    }
    for name, (layout, run) in _variants(lengths, 5, 4).items():
        for kind, (docs, taps) in cases.items():
            as_f64 = PackedSignal.from_documents(layout, [d.astype(np.float64) for d in docs])
            expected = run(as_f64, FilterBank(taps.astype(np.float64))).values
            # Packed from documents, and a caller-built buffer of that dtype.
            for sig in (
                PackedSignal.from_documents(layout, docs),
                PackedSignal(as_f64.values.astype(taps.dtype), layout),
            ):
                out = run(sig, FilterBank(taps)).values
                assert out.dtype == np.float64, (name, kind)
                assert np.array_equal(out, expected), (name, kind)
