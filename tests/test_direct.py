import numpy as np
import pytest

from rubiconv import (
    MatrixBudgetExceeded,
    build_operator,
    causal_mac_count,
    count_ops,
    oracle_convolve,
)


def test_toeplitz_block_example():
    op = build_operator([3], [1.0, 1.0])
    assert np.array_equal(op.blocks[0], [[1, 0, 0], [1, 1, 0], [0, 1, 1]])


def test_single_tap_is_identity():
    op = build_operator([4], [1.0])
    assert np.array_equal(op.blocks[0], np.eye(4))


def test_apply_matches_hand_summation():
    op = build_operator([3], [1.0, 1.0])
    assert np.array_equal(op.apply(np.array([1.0, 2.0, 3.0])), [1.0, 3.0, 5.0])


def test_apply_zero_input():
    op = build_operator([3, 2], [0.5, 0.25])
    assert np.array_equal(op.apply(np.zeros(5)), np.zeros(5))


def test_apply_is_blockwise_concatenation():
    rng = np.random.default_rng(0)
    taps = rng.standard_normal(3)
    x1, x2 = rng.standard_normal(4), rng.standard_normal(6)
    joint = build_operator([4, 6], taps).apply(np.concatenate([x1, x2]))
    part1 = build_operator([4], taps).apply(x1)
    part2 = build_operator([6], taps).apply(x2)
    assert np.array_equal(joint, np.concatenate([part1, part2]))


def test_apply_length_mismatch():
    op = build_operator([3], [1.0])
    with pytest.raises(ValueError):
        op.apply(np.zeros(4))


def test_rejects_zero_lengths_and_wrong_length_input():
    with pytest.raises(ValueError):
        build_operator([3, 0], [1.0])
    with pytest.raises(ValueError):
        oracle_convolve([3], np.zeros(4), [1.0])


def test_toeplitz_blocks_are_lower_triangular():
    rng = np.random.default_rng(1)
    op = build_operator([5, 9, 2], rng.standard_normal(4))
    for block in op.blocks:
        assert np.array_equal(block, np.tril(block))


def test_block_diagonality_zero_in_zero_out():
    rng = np.random.default_rng(2)
    lengths = [4, 7, 3]
    taps = rng.standard_normal(5)
    op = build_operator(lengths, taps)
    x = rng.standard_normal(14)
    x[4:11] = 0.0  # zero document 1's input
    out = op.apply(x)
    assert np.array_equal(out[4:11], np.zeros(7))
    full = op.apply(rng.standard_normal(14))
    assert full[4:11].any()


def test_oracle_impulse_response():
    assert np.array_equal(
        oracle_convolve([3], np.array([1.0, 0.0, 0.0]), [1.0, 2.0, 3.0]), [1.0, 2.0, 3.0]
    )


def test_oracle_matches_operator_apply():
    rng = np.random.default_rng(3)
    for _ in range(30):
        lengths = [int(v) for v in rng.integers(1, 64, size=rng.integers(1, 6))]
        taps = rng.uniform(-1, 1, int(rng.integers(1, 80)))
        x = rng.uniform(-1, 1, sum(lengths))
        direct = oracle_convolve(lengths, x, taps)
        matvec = build_operator(lengths, taps).apply(x)
        assert np.max(np.abs(direct - matvec)) <= 1e-12


def test_oracle_ignores_taps_beyond_document():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(3)
    short = oracle_convolve([3], x, np.array([1.0, 2.0, 3.0]))
    extended = oracle_convolve([3], x, np.array([1.0, 2.0, 3.0, 99.0, -99.0]))
    assert np.array_equal(short, extended)


def test_matrix_budget_is_enforced():
    with pytest.raises(MatrixBudgetExceeded):
        build_operator([2**14], [1.0], max_entries=2**20)


def test_causal_mac_count_matches_definition():
    for length in (1, 2, 5, 17):
        for filter_len in (1, 3, 17, 40):
            expected = sum(min(t + 1, filter_len) for t in range(length))
            assert causal_mac_count(length, filter_len) == expected


def test_operation_counters():
    lengths = [3, 5]
    taps = np.ones(2)
    x = np.ones(8)
    with count_ops() as counts:
        build_operator(lengths, taps).apply(x)
    assert counts.real_muls == 9 + 25
    assert counts.built_elements == 9 + 25
    with count_ops() as counts:
        oracle_convolve(lengths, x, taps)
    assert counts.real_muls == causal_mac_count(3, 2) + causal_mac_count(5, 2)
