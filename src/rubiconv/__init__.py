"""Boundary-respecting FFT convolutions on packed variable-length sequences.

Packing documents of different lengths into one buffer is standard practice
for hardware efficiency, but ordinary FFT convolution treats the buffer as
one periodic signal and bleeds information across document boundaries.
This package provides three convolution paths that never mix documents:

- a GEMM-oriented four-step grid transform whose second DFT stage is
  block-diagonal over per-document column blocks (``transform``),
- an iterative radix-2 variant whose butterflies pair positions inside
  one document (``cooley_tukey``),
- exact dense block-diagonal baselines and the brute-force causal oracle
  that anchors every tolerance (``direct``),

plus the packing geometry (``packing``), shared signal containers
(``signal``), multiplication counters (``counting``) and a benchmark CLI
(``bench``, also installed as ``rubiconv-bench``).
"""

from .cooley_tukey import CtLayout, build_ct_layout, ct_convolve, ct_inverse, masked_fft
from .counting import OpCounts, count_ops
from .direct import MatrixBudgetExceeded, build_operator, causal_mac_count, oracle_convolve
from .linalg import dft_matrix, gemm, naive_dft
from .packing import DEFAULT_K, PackedLayout, build_layout
from .signal import FilterBank, PackedSignal, embed_filter
from .transform import RubiConvPlan, build_plan, convolve, forward, inverse

__all__ = [
    "CtLayout",
    "DEFAULT_K",
    "FilterBank",
    "MatrixBudgetExceeded",
    "OpCounts",
    "PackedLayout",
    "PackedSignal",
    "RubiConvPlan",
    "build_ct_layout",
    "build_layout",
    "build_operator",
    "build_plan",
    "causal_mac_count",
    "convolve",
    "count_ops",
    "ct_convolve",
    "ct_inverse",
    "dft_matrix",
    "embed_filter",
    "forward",
    "gemm",
    "inverse",
    "masked_fft",
    "naive_dft",
    "oracle_convolve",
]

__version__ = "0.1.0"
