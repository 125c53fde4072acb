import math

import numpy as np
import pytest

from conftest import rel_err
from rubiconv import count_ops, dft_matrix, gemm, naive_dft


def test_dft_matrix_identity_case():
    assert np.array_equal(dft_matrix(1), np.array([[1.0 + 0j]]))


def test_dft_matrix_size_two():
    assert np.allclose(dft_matrix(2), np.array([[1, 1], [1, -1]]), atol=1e-15)


def test_dft_matrix_size_four_row_one():
    # Positive-exponent convention: powers of w_4 = +i.
    assert np.allclose(dft_matrix(4)[1], np.array([1, 1j, -1, -1j]), atol=1e-15)


def test_dft_matrix_rejects_zero():
    with pytest.raises(ValueError):
        dft_matrix(0)


@pytest.mark.parametrize("j", [1, 2, 3, 7, 64, 128, 256, 512, 1000, 1024])
def test_dft_matrix_gathers_the_elementwise_exp_bit_for_bit(j):
    # The matrix gathers its j distinct roots; evaluating exp at every entry
    # of the reduced exponent gives the same values, bit for bit.
    lm = np.outer(np.arange(j, dtype=np.int64), np.arange(j, dtype=np.int64)) % j
    assert np.array_equal(dft_matrix(j), np.exp((2j * np.pi / j) * lm))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 31, 32, 100])
def test_dft_matrix_matches_naive_dft(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert rel_err(dft_matrix(n) @ x, naive_dft(x)) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 7, 16, 64, 257])
def test_inverse_via_conjugation(n):
    # (1/n) * conj(F_n conj(x)) must invert F_n x.
    rng = np.random.default_rng(n + 1)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    f = dft_matrix(n)
    back = np.conj(f @ np.conj(f @ x)) / n
    assert rel_err(back, x) <= 1e-10


def test_naive_dft_constant_signal():
    assert np.allclose(naive_dft([1, 1, 1, 1]), [4, 0, 0, 0], atol=1e-14)


def test_naive_dft_delta():
    assert np.allclose(naive_dft([1, 0]), [1, 1], atol=1e-15)


def test_naive_dft_shifted_delta():
    assert np.allclose(naive_dft([0, 1, 0, 0]), [1, 1j, -1, -1j], atol=1e-14)


def test_naive_dft_rejects_empty():
    with pytest.raises(ValueError):
        naive_dft(np.array([]))


@pytest.mark.parametrize("mode", ["standard", "karatsuba"])
def test_gemm_single_complex_product(mode):
    out = gemm(np.array([[1 + 2j]]), np.array([[3 + 4j]]), mode)
    assert np.allclose(out, [[-5 + 10j]], atol=1e-15)


def test_gemm_identity():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert rel_err(gemm(a, np.eye(4)), a) <= 1e-15


def test_gemm_shape_mismatch():
    with pytest.raises(ValueError):
        gemm(np.ones((2, 3)), np.ones((2, 2)))


def test_gemm_unknown_mode():
    with pytest.raises(ValueError):
        gemm(np.ones((2, 2)), np.ones((2, 2)), mode="strassen")


def test_karatsuba_agrees_with_standard_8x8():
    rng = np.random.default_rng(8)
    a = rng.uniform(-1, 1, (8, 8)) + 1j * rng.uniform(-1, 1, (8, 8))
    b = rng.uniform(-1, 1, (8, 8)) + 1j * rng.uniform(-1, 1, (8, 8))
    assert rel_err(gemm(a, b, "karatsuba"), gemm(a, b, "standard")) <= 1e-12


@pytest.mark.parametrize("n", [1, 3, 16, 64, 128, 256])
def test_karatsuba_agrees_with_standard_up_to_256(n):
    rng = np.random.default_rng(1000 + n)
    a = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
    b = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
    assert rel_err(gemm(a, b, "karatsuba"), gemm(a, b, "standard")) <= 1e-12


def test_gemm_real_multiplication_counts():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
    products = 3 * 4 * 5
    with count_ops() as standard:
        gemm(a, b, "standard")
    with count_ops() as karatsuba:
        gemm(a, b, "karatsuba")
    assert standard.complex_muls == karatsuba.complex_muls == products
    assert standard.real_muls == 4 * products
    assert karatsuba.real_muls == 3 * products


@pytest.mark.parametrize("mode", ["standard", "karatsuba"])
def test_gemm_strided_operands_match_contiguous(mode):
    rng = np.random.default_rng(9)
    a = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    b = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
    ref = gemm(a, np.ascontiguousarray(b.T), mode)
    assert rel_err(gemm(a, b.T, mode), ref) <= 1e-14
    assert rel_err(gemm(np.asfortranarray(a), b.T, mode), ref) <= 1e-14


@pytest.mark.parametrize("mode", ["standard", "karatsuba"])
def test_gemm_stacked_right_operand(mode):
    rng = np.random.default_rng(10)
    a = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    b = rng.standard_normal((2, 7, 4, 5)) + 1j * rng.standard_normal((2, 7, 4, 5))
    with count_ops() as counts:
        out = gemm(a, b, mode)
    assert out.shape == (2, 7, 3, 5)
    assert rel_err(out, np.matmul(a, b)) <= 1e-12
    assert counts.complex_muls == 2 * 7 * 3 * 4 * 5
    assert counts.real_muls == (3 if mode == "karatsuba" else 4) * counts.complex_muls


@pytest.mark.parametrize("mode", ["standard", "karatsuba"])
def test_gemm_stacked_left_operand(mode):
    # Both operands stack, and their leading axes broadcast as in np.matmul.
    rng = np.random.default_rng(12)
    a = rng.standard_normal((7, 1, 3, 4)) + 1j * rng.standard_normal((7, 1, 3, 4))
    b = rng.standard_normal((2, 4, 5)) + 1j * rng.standard_normal((2, 4, 5))
    for left, right, shape in ((a, b, (7, 2, 3, 5)), (a[:, 0], b[0], (7, 3, 5))):
        with count_ops() as counts:
            out = gemm(left, right, mode)
        assert out.shape == shape
        assert rel_err(out, np.matmul(left, right)) <= 1e-12
        assert counts.complex_muls == math.prod(shape) * 4
    for left, right in ((np.ones(2), np.ones((2, 2))), (np.ones((2, 2)), np.ones(2))):
        with pytest.raises(ValueError):
            gemm(left, right)


@pytest.mark.parametrize("mode", ["standard", "karatsuba"])
def test_gemm_out_receives_the_product_with_the_same_counts(mode):
    rng = np.random.default_rng(11)
    a = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    b = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
    stacked = rng.standard_normal((2, 3, 4, 5)) + 1j * rng.standard_normal((2, 3, 4, 5))
    for left, right in ((a, b.T), (np.asfortranarray(a), b.T), (a[::2], stacked[..., ::2])):
        with count_ops() as returned:
            expected = gemm(left, right, mode)
        out = np.full(expected.shape, np.nan + 0j)
        with count_ops() as written:
            assert gemm(left, right, mode, out=out) is out
        assert np.array_equal(out, expected)
        assert written == returned


def test_gemm_rejects_an_out_it_cannot_write():
    a, b = np.ones((3, 4), complex), np.ones((4, 5), complex)
    for out in (np.empty((3, 4), complex), np.empty((5, 3), complex).T, np.empty((3, 5))):
        with pytest.raises(ValueError):
            gemm(a, b, out=out)
