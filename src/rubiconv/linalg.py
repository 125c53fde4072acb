"""Dense complex linear algebra: DFT matrices and GEMM.

Everything here uses the positive-exponent convention w_n = exp(+2*pi*i/n)
for DFT kernels.  Inverse transforms are obtained through conjugation
(ifft(x) = conj(fft(conj(x))) / n), never by flipping the kernel sign, so
forward and inverse stay mutually consistent throughout the package.

All results are double precision.  GEMM results depend on accumulation
order, so callers must compare them with tolerances, never bit equality.
"""

from __future__ import annotations

import math

import numpy as np

from . import counting

GEMM_MODES = ("standard", "karatsuba")


def _whole(value, what: str) -> int:
    """``value`` as an int, refusing a bool and any value that ``int`` would truncate."""
    try:
        whole = int(value)
    except (OverflowError, ValueError):  # inf, nan
        whole = None
    if whole is None or whole != value or isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{what} must be a whole number, got {value!r}")
    return whole


def dft_matrix(j: int) -> np.ndarray:
    """Return the j x j DFT matrix with entry (l, m) = exp(2*pi*i*l*m/j).

    The exponent l*m is reduced mod j before evaluating exp so large
    transforms do not lose phase accuracy.  So the matrix holds only the j
    distinct roots exp(2*pi*i*r/j): each is evaluated once and gathered by
    r = l*m mod j, with the very values an elementwise exp would give.
    """
    j = _whole(j, "DFT size")
    if j < 1:
        raise ValueError(f"DFT size must be a positive integer, got {j}")
    lm = np.outer(np.arange(j, dtype=np.int64), np.arange(j, dtype=np.int64)) % j
    return np.exp((2j * np.pi / j) * np.arange(j))[lm]


def gemm(
    a: np.ndarray, b: np.ndarray, mode: str = "standard", out: np.ndarray | None = None
) -> np.ndarray:
    """Complex matrix product a @ b.

    Each operand is one matrix or a stack of them, whose leading axes
    broadcast as in ``np.matmul``.  Strided operands, such as a transposed
    view, go to ``matmul`` as they are, without a copy into C order.

    mode "standard" spends 4 real multiplications per complex product.
    mode "karatsuba" spends 3, computing each product (a+bi)(c+di) from
    p1 = ac, p2 = bd, p3 = (a+b)(c+d) as (p1 - p2) + (p3 - p1 - p2)i.
    The rewrite is applied per scalar product, batched over the whole
    matrix; it is not a recursive matrix algorithm.

    With ``out``, a C-contiguous complex128 array of the product's shape,
    the product is written there and ``out`` is returned.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("gemm expects 2-D or stacked operands")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"gemm shape mismatch: {a.shape} @ {b.shape}")
    if mode not in GEMM_MODES:
        raise ValueError(f"unknown gemm mode {mode!r}, expected one of {GEMM_MODES}")

    shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (a.shape[-2], b.shape[-1])
    if out is None:
        out = np.empty(shape, dtype=np.complex128)
    elif out.shape != shape or out.dtype != np.complex128 or not out.flags.c_contiguous:
        raise ValueError(
            f"gemm out must be a C-contiguous complex128 array of shape {shape}, "
            f"got {out.dtype} {out.shape}"
        )

    n_products = math.prod(shape) * a.shape[-1]
    if mode == "standard":
        counting.add_complex_muls(n_products, real_muls_each=4)
        return np.matmul(a, b, out=out)
    counting.add_complex_muls(n_products, real_muls_each=3)
    p1 = a.real @ b.real
    p2 = a.imag @ b.imag
    p3 = (a.real + a.imag) @ (b.real + b.imag)
    np.subtract(p1, p2, out=out.real)
    np.subtract(p3, p1, out=out.imag)
    out.imag -= p2
    return out


def naive_dft(x: np.ndarray) -> np.ndarray:
    """O(n^2) DFT, y_j = sum_l w_n^(j*l) x_l.  The reference oracle.

    Evaluated directly from the definition so it shares no code path with
    the fast transforms it is used to verify.
    """
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("naive_dft expects a non-empty 1-D vector")
    n = x.size
    jl = np.outer(np.arange(n, dtype=np.int64), np.arange(n, dtype=np.int64)) % n
    return np.exp((2j * np.pi / n) * jl) @ x
