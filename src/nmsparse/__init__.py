"""N:M fine-grained structured sparsity estimators.

Greedy minimum-MSE masking for activations and minimum-variance unbiased
stochastic masking for neural gradients, with closed-form statistics,
Monte-Carlo verification, binary tensor formats and a small training demo.
"""

from .core import (
    Block,
    BlockMask,
    BlockedTensor,
    DenseTail,
    SparsityPattern,
    pattern_violations,
)
from .estimators import (
    EstimatorKind,
    approx24_variance_array,
    elementwise_variance_array,
    prune_tensor,
)
from .analysis import (
    McReport,
    brute_force_min_mse_mask,
    expected_macs,
    mc_estimate,
    scan_summary,
    verify_estimator,
)
from .rng import RandomStream
from .tensorio import (
    CompressedSparseTensor,
    TensorFormatError,
    compress,
    decompress,
    read_compressed,
    read_tensor,
    write_compressed,
    write_tensor,
)
from .traindemo import (
    MlpConfig,
    TrainRecord,
    generate_dataset,
    masked_gradient_check,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "Block",
    "BlockMask",
    "BlockedTensor",
    "CompressedSparseTensor",
    "DenseTail",
    "EstimatorKind",
    "McReport",
    "MlpConfig",
    "RandomStream",
    "SparsityPattern",
    "TensorFormatError",
    "TrainRecord",
    "approx24_variance_array",
    "elementwise_variance_array",
    "brute_force_min_mse_mask",
    "compress",
    "decompress",
    "expected_macs",
    "generate_dataset",
    "masked_gradient_check",
    "mc_estimate",
    "pattern_violations",
    "prune_tensor",
    "read_compressed",
    "read_tensor",
    "scan_summary",
    "train",
    "verify_estimator",
    "write_compressed",
    "write_tensor",
]
