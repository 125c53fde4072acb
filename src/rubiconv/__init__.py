"""Boundary-respecting FFT convolutions on packed variable-length sequences.

Packing documents of different lengths into one buffer is standard practice
for hardware efficiency, but ordinary FFT convolution treats the buffer as
one periodic signal and bleeds information across document boundaries.
This package provides three convolution paths that never mix documents:

- a GEMM-oriented four-step grid transform whose second DFT stage is
  block-diagonal over per-document column blocks (``transform``),
- a masked iterative radix-2 variant with per-position butterfly
  coefficients (``cooley_tukey``),
- exact dense block-diagonal baselines and the brute-force causal oracle
  that anchors every tolerance (``direct``),

plus the packing geometry (``packing``), shared signal containers
(``signal``), multiplication counters (``counting``) and a benchmark CLI
(``bench``, also installed as ``rubiconv-bench``).
"""

from .cooley_tukey import (
    CtLayout,
    TwiddleTriple,
    bit_reverse_permute,
    build_ct_layout,
    ct_convolve,
    ct_inverse,
    masked_fft,
    masked_fft_stages,
    stage_triples,
)
from .counting import OpCounts, count_ops
from .direct import (
    BlockDiagOperator,
    MatrixBudgetExceeded,
    build_operator,
    causal_mac_count,
    oracle_convolve,
)
from .linalg import dft_matrix, elementwise_mul, gemm, naive_dft
from .packing import (
    DEFAULT_K,
    IndexMap,
    PackedLayout,
    build_layout,
    build_p1,
    build_p2,
    build_pre_ifft_map,
    segment_ids,
)
from .signal import FilterBank, PackedSignal, embed_filter
from .transform import (
    RubiConvPlan,
    build_plan,
    convolve,
    forward,
    inverse,
    split_dual_real,
    transform_grid,
)

__all__ = [
    "BlockDiagOperator",
    "CtLayout",
    "DEFAULT_K",
    "FilterBank",
    "IndexMap",
    "MatrixBudgetExceeded",
    "OpCounts",
    "PackedLayout",
    "PackedSignal",
    "RubiConvPlan",
    "TwiddleTriple",
    "bit_reverse_permute",
    "build_ct_layout",
    "build_layout",
    "build_operator",
    "build_p1",
    "build_p2",
    "build_plan",
    "build_pre_ifft_map",
    "causal_mac_count",
    "convolve",
    "count_ops",
    "ct_convolve",
    "ct_inverse",
    "dft_matrix",
    "elementwise_mul",
    "embed_filter",
    "forward",
    "gemm",
    "inverse",
    "masked_fft",
    "masked_fft_stages",
    "naive_dft",
    "oracle_convolve",
    "segment_ids",
    "split_dual_real",
    "stage_triples",
    "transform_grid",
]

__version__ = "0.1.0"
