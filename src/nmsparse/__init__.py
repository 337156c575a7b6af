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
    PrunedBlock,
    SparsityPattern,
    merge_blocks,
    pattern_violations,
    split_into_blocks,
)
from .estimators import (
    EstimatorKind,
    analytic_variance_from_probs,
    analytic_variance_mvue12,
    approx24_variance_array,
    block_mse,
    elementwise_variance_array,
    inclusion_probs_approx24,
    marginal_probs_exact24,
    prune_baseline,
    prune_greedy,
    prune_mvue12,
    prune_mvue24_approx,
    prune_mvue24_exact,
    prune_tensor,
)
from .analysis import (
    McReport,
    brute_force_min_mse_mask,
    expected_macs,
    mc_estimate,
    scan_summary,
    variance_gap_d,
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
    prune_only,
    relu_then_prune,
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
    "PrunedBlock",
    "RandomStream",
    "SparsityPattern",
    "TensorFormatError",
    "TrainRecord",
    "analytic_variance_from_probs",
    "analytic_variance_mvue12",
    "approx24_variance_array",
    "block_mse",
    "elementwise_variance_array",
    "brute_force_min_mse_mask",
    "compress",
    "decompress",
    "expected_macs",
    "generate_dataset",
    "inclusion_probs_approx24",
    "marginal_probs_exact24",
    "masked_gradient_check",
    "mc_estimate",
    "merge_blocks",
    "pattern_violations",
    "prune_baseline",
    "prune_greedy",
    "prune_mvue12",
    "prune_mvue24_approx",
    "prune_mvue24_exact",
    "prune_only",
    "prune_tensor",
    "read_compressed",
    "read_tensor",
    "relu_then_prune",
    "scan_summary",
    "split_into_blocks",
    "train",
    "variance_gap_d",
    "verify_estimator",
    "write_compressed",
    "write_tensor",
]
