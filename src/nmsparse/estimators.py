"""Block-level pruning estimators and their closed-form statistics.

Two families operate on length-m blocks:

* Greedy magnitude masking keeps the m - n largest magnitudes. For a fixed
  block this minimizes the squared error of the masked block, at the cost
  of a systematic bias toward zero.
* Stochastic masking keeps a random subset and rescales survivors by the
  inverse of their inclusion probability, which makes the estimate
  unbiased. Choosing inclusion probabilities proportional to magnitude
  minimizes the variance among unbiased schemes; ``mvue12`` realizes the
  optimum for 1:2 blocks and ``mvue24`` for 2:4 blocks, while ``approx24``
  is a cheaper sequential sampler whose variance is within 2x of the
  optimum everywhere.

Three 1:2 reference baselines are included for comparison: ``biased``
(magnitude-proportional selection without rescaling), ``uniform`` (coin
flip without rescaling) and ``unbiased-uniform`` (coin flip with 2x
rescaling).

All functions treat a kept value of a zero entry as exact zero and use the
convention 0^2 / 0 = 0 in variance formulas.
"""

from __future__ import annotations

import enum

import numpy as np

from .core import (
    Block,
    BlockMask,
    BlockedTensor,
    DenseTail,
    PrunedBlock,
    SparsityPattern,
    _float_data,
    _split_blocks,
    merge_axis,
)
from .rng import RandomStream

PATTERN_12 = SparsityPattern(1, 2)
PATTERN_24 = SparsityPattern(2, 4)


class EstimatorKind(enum.Enum):
    """Pruning methods; enum values double as the CLI method names."""

    GREEDY_MSE = "greedy"
    MVUE12 = "mvue12"
    MVUE24_EXACT = "mvue24"
    MVUE24_APPROX = "approx24"
    BIASED12 = "biased"
    UNIFORM12 = "uniform"
    UNBIASED_UNIFORM12 = "unbiased-uniform"

    @property
    def required_pattern(self) -> SparsityPattern | None:
        """Pattern the method is defined for; None means any pattern."""
        if self in (EstimatorKind.MVUE24_EXACT, EstimatorKind.MVUE24_APPROX):
            return PATTERN_24
        if self is EstimatorKind.GREEDY_MSE:
            return None
        return PATTERN_12

    @property
    def is_stochastic(self) -> bool:
        return self is not EstimatorKind.GREEDY_MSE

    @property
    def is_unbiased(self) -> bool:
        return self in (
            EstimatorKind.MVUE12,
            EstimatorKind.MVUE24_EXACT,
            EstimatorKind.MVUE24_APPROX,
            EstimatorKind.UNBIASED_UNIFORM12,
        )

    @classmethod
    def from_name(cls, name: str) -> "EstimatorKind":
        try:
            return cls(name)
        except ValueError:
            valid = ", ".join(k.value for k in cls)
            raise ValueError(f"unknown method {name!r}; expected one of: {valid}") from None


def resolve_pattern(kind: EstimatorKind, pattern: SparsityPattern | None) -> SparsityPattern:
    """Check method/pattern compatibility and fill in the default."""
    required = kind.required_pattern
    if pattern is None:
        if required is None:
            raise ValueError(f"method {kind.value!r} needs an explicit pattern")
        return required
    if required is not None and pattern != required:
        raise ValueError(
            f"method {kind.value!r} is defined for pattern {required}, got {pattern}"
        )
    return pattern


def _block_matrix(values, m: int | None = None) -> np.ndarray:
    return _float_blocks(np.asarray(values, dtype=np.float64), m)


def _float_blocks(values, m: int | None = None) -> np.ndarray:
    arr = _float_data(values)
    if arr.ndim != 2:
        raise ValueError(f"expected a (num_blocks, m) array, got shape {arr.shape}")
    if m is not None and arr.shape[1] != m:
        raise ValueError(f"expected block length {m}, got {arr.shape[1]}")
    return arr


def _magnitude_rows(values: np.ndarray) -> np.ndarray:
    """Magnitudes of (n, m) blocks as contiguous (m, n) rows."""
    return np.ascontiguousarray(np.abs(values).T)


# ---------------------------------------------------------------------------
# Greedy magnitude masking


def greedy_mask_array(values: np.ndarray, pattern: SparsityPattern) -> np.ndarray:
    """Keep-masks for the pattern.kept largest magnitudes per block.

    Ties are broken toward the lower index, so the result is deterministic.
    """
    values = _float_blocks(values, pattern.m)
    mags_t = _magnitude_rows(values)
    # The rank of row c counts the rows ahead of it. A later row is ahead
    # of row i only when strictly larger, so ties go to the lower index, as
    # in a stable argsort of the negated magnitudes. Row i is compared with
    # all later rows at once.
    ranks = np.zeros(mags_t.shape, dtype=np.uint8)
    for i in range(pattern.m - 1):
        behind = mags_t[i + 1 :] > mags_t[i]
        ranks[i] += behind.sum(axis=0, dtype=np.uint8)
        ranks[i + 1 :] += ~behind
    mask = np.empty(values.shape, dtype=bool)
    np.less(ranks, pattern.kept, out=mask.T)
    return mask


def prune_greedy_array(
    values: np.ndarray, pattern: SparsityPattern
) -> tuple[np.ndarray, np.ndarray]:
    mask = greedy_mask_array(values, pattern)
    return np.where(mask, values, 0.0), mask


# ---------------------------------------------------------------------------
# 1:2 estimators


def prune_mvue12_array(values: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-variance unbiased 1:2 pruning.

    Keeps entry 0 with probability |a0| / (|a0| + |a1|), else entry 1; the
    survivor is replaced by sign * (|a0| + |a1|), whose expectation equals
    the original entry componentwise. An all-zero block keeps index 0.
    """
    values = _block_matrix(values, 2)
    mags = np.abs(values)
    total = mags.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        p0 = np.where(total > 0.0, mags[:, 0] / total, 1.0)
    keep0 = u < p0
    out = np.zeros_like(values)
    out[:, 0] = np.where(keep0, np.sign(values[:, 0]) * total, 0.0)
    out[:, 1] = np.where(keep0, 0.0, np.sign(values[:, 1]) * total)
    mask = np.stack([keep0, ~keep0], axis=1)
    return out, mask


def prune_biased12_array(values: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Magnitude-proportional selection, survivor kept at its raw value."""
    values = _block_matrix(values, 2)
    mags = np.abs(values)
    total = mags.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        p0 = np.where(total > 0.0, mags[:, 0] / total, 1.0)
    keep0 = u < p0
    out = np.zeros_like(values)
    out[:, 0] = np.where(keep0, values[:, 0], 0.0)
    out[:, 1] = np.where(keep0, 0.0, values[:, 1])
    mask = np.stack([keep0, ~keep0], axis=1)
    return out, mask


def prune_uniform12_array(
    values: np.ndarray, u: np.ndarray, rescale: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Fair-coin selection; with rescale=True the survivor is doubled."""
    values = _block_matrix(values, 2)
    keep0 = u < 0.5
    scale = 2.0 if rescale else 1.0
    out = np.zeros_like(values)
    out[:, 0] = np.where(keep0, scale * values[:, 0], 0.0)
    out[:, 1] = np.where(keep0, 0.0, scale * values[:, 1])
    mask = np.stack([keep0, ~keep0], axis=1)
    return out, mask


def mvue12_selection_probs(values: np.ndarray) -> np.ndarray:
    """P(keep index i) for mvue12/biased12; all-zero blocks keep index 0."""
    values = _block_matrix(values, 2)
    mags = np.abs(values)
    total = mags.sum(axis=1, keepdims=True)
    probs = np.empty_like(mags)
    nz = total[:, 0] > 0.0
    probs[nz] = mags[nz] / total[nz]
    probs[~nz] = (1.0, 0.0)
    return probs


def mvue12_variance_array(values: np.ndarray) -> np.ndarray:
    """Total estimator variance per 1:2 block: 2 |a0| |a1|."""
    values = _block_matrix(values, 2)
    return 2.0 * np.abs(values[:, 0] * values[:, 1])


# ---------------------------------------------------------------------------
# Exact 2:4 minimum-variance estimator
#
# On sorted magnitudes b1 <= b2 <= b3 <= b4 with S = b1+b2+b3+b4 the optimal
# pair distribution has three regimes, driven by how dominant b4 is:
#
#   regime 1 (b4 <= 2 b1 + b3): all marginals 2 b_k / S are feasible with
#   the pair (1,2) excluded;
#   regime 2 (2 b1 + b3 < b4 <= b1 + b2 + b3): pairs (1,2) and (1,3) are
#   excluded, marginals stay 2 b_k / S;
#   regime 3 (b4 > b1 + b2 + b3): b4 is always kept and the partner k is
#   chosen with probability b_k / (b1 + b2 + b3).
#
# Kept entries are rescaled by the inverse of their marginal probability,
# which has a closed form: in regimes 1-2 both survivors become +-S/2; in
# regime 3 the max keeps its value +-b4 and the partner becomes
# +-(b1 + b2 + b3). At a regime boundary the adjacent formulas give
# identical distributions, so routing boundaries to the lower-numbered
# regime is arbitrary.
#
# The sampler draws the pair without forming the table. Scaled by S/2 in
# regimes 1-2 and by b1 + b2 + b3 in regime 3, the running sums of the six
# pair probabilities (in PAIR_INDEX_COLUMNS order) are
#   0, max(2 b1 + b3 - b4, 0) / 4, b1,
#   b1 + max(min(2 b2 + b3 - b4, 2 (b1 + b2 + b3 - b4)), 0) / 4, b1 + b2
# in every regime: the leading 0 excludes the pair (1,2) everywhere, the
# first clip the pair (1,3) outside regime 1 and the second clip the pair
# (2,3) in regime 3. Comparing u times the scale with these sums picks the
# pair with no division by S or by b1 + b2 + b3.

# Sorted-position pairs in column order.
_PAIR_FIRST = np.array([0, 0, 0, 1, 1, 2])
_PAIR_SECOND = np.array([1, 2, 3, 2, 3, 3])
# Column of the pair (i, j), i < j, in the table above.
_PAIR_COLUMN = np.full((4, 4), -1, dtype=np.int64)
for _c, (_i, _j) in enumerate(zip(_PAIR_FIRST, _PAIR_SECOND)):
    _PAIR_COLUMN[_i, _j] = _c
    _PAIR_COLUMN[_j, _i] = _c

PAIR_INDEX_COLUMNS: tuple[tuple[int, int], ...] = tuple(
    (int(i), int(j)) for i, j in zip(_PAIR_FIRST, _PAIR_SECOND)
)
# Sorted positions of each pair column as a bit set (bit k: position k kept).
_PAIR_BITS = ((1 << _PAIR_FIRST) | (1 << _PAIR_SECOND)).astype(np.uint8)
# Columns of the pairs (k, 3) that join the max with one of the zeros.
_THREE_ZERO_COLUMNS = np.array([2, 4, 5], dtype=np.uint8)


def _exact24_pair_table_sorted(b: np.ndarray) -> np.ndarray:
    """Pair probabilities (columns = PAIR_INDEX_COLUMNS) on sorted magnitudes.

    The reference form of the exact distribution, behind exact24_pair_probs.
    Branchless over the three regimes: every column is a regime-selected
    blend computed with precomputed reciprocals. The sampler does not use
    the table; it draws from the same distribution through the running
    sums given above.
    """
    b1, b2, b3, b4 = b[:, 0], b[:, 1], b[:, 2], b[:, 3]
    total = b.sum(axis=1)
    small = b1 + b2 + b3
    regime1 = b4 <= 2.0 * b1 + b3
    regime3 = ~regime1 & (b4 > small)
    regime2 = ~regime1 & ~regime3

    table = np.zeros((b.shape[0], 6))
    with np.errstate(invalid="ignore", divide="ignore"):
        inv_s = 1.0 / total
        inv_sm = 1.0 / small
        half_inv_s = 0.5 * inv_s
        table[:, 1] = np.where(regime1, (2.0 * b1 + b3 - b4) * half_inv_s, 0.0)
        table[:, 2] = np.where(
            regime1,
            (2.0 * b1 - b3 + b4) * half_inv_s,
            np.where(regime2, 2.0 * b1 * inv_s, b1 * inv_sm),
        )
        table[:, 3] = np.where(
            regime1,
            (2.0 * b2 + b3 - b4) * half_inv_s,
            np.where(regime2, (small - b4) * inv_s, 0.0),
        )
        table[:, 4] = np.where(
            regime1,
            (2.0 * b2 - b3 + b4) * half_inv_s,
            np.where(regime2, (b2 + b4 - b1 - b3) * inv_s, b2 * inv_sm),
        )
        table[:, 5] = np.where(regime3, b3 * inv_sm, (b3 + b4 - b1 - b2) * inv_s)

    # Degenerate blocks: a zero denominator means ties among zeros, which
    # are resolved uniformly.
    all_zero = total == 0.0
    if np.any(all_zero):
        table[all_zero] = 1.0 / 6.0
    three_zero = regime3 & (small == 0.0) & ~all_zero
    if np.any(three_zero):
        table[three_zero] = 0.0
        table[np.ix_(three_zero.nonzero()[0], [2, 4, 5])] = 1.0 / 3.0

    # Boundary arithmetic can produce tiny negatives; clip and renormalize.
    np.clip(table, 0.0, None, out=table)
    table /= table.sum(axis=1, keepdims=True)
    return table


def _exact24_marginals_sorted(b: np.ndarray) -> np.ndarray:
    """Inclusion probability of each sorted position under the exact sampler."""
    total = b.sum(axis=1)
    small = b[:, 0] + b[:, 1] + b[:, 2]
    regime3 = b[:, 3] > small
    with np.errstate(invalid="ignore", divide="ignore"):
        probs = 2.0 * b / total[:, None]
        if np.any(regime3):
            p3 = b[regime3] / small[regime3, None]
            p3[:, 3] = 1.0
            probs[regime3] = p3
    all_zero = total == 0.0
    if np.any(all_zero):
        probs[all_zero] = 0.5
    three_zero = regime3 & (small == 0.0) & ~all_zero
    if np.any(three_zero):
        probs[three_zero] = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0, 1.0)
    return probs


def _sort_by_magnitude(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mags = np.abs(values)
    order = np.argsort(mags, axis=1, kind="stable")
    return order, np.take_along_axis(mags, order, axis=1)


def _sort4(mags_t: np.ndarray) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Sorted rows b1 <= b2 <= b3 <= b4 of (4, n) magnitudes, and ranks.

    The five-comparator sorting network gives the sorted magnitudes. The
    rank of row c counts the rows ahead of it in (magnitude, index) order,
    so equal magnitudes keep their index order, as in a stable argsort.
    """
    m0, m1, m2, m3 = mags_t
    lo01, hi01 = np.minimum(m0, m1), np.maximum(m0, m1)
    lo23, hi23 = np.minimum(m2, m3), np.maximum(m2, m3)
    b1, mid_lo = np.minimum(lo01, lo23), np.maximum(lo01, lo23)
    mid_hi, b4 = np.minimum(hi01, hi23), np.maximum(hi01, hi23)
    b2, b3 = np.minimum(mid_lo, mid_hi), np.maximum(mid_lo, mid_hi)
    ranks = np.zeros(mags_t.shape, dtype=np.uint8)
    for i, j in PAIR_INDEX_COLUMNS:
        above = mags_t[i] > mags_t[j]
        ranks[i] += above
        ranks[j] += ~above
    return (b1, b2, b3, b4), ranks


def prune_mvue24_exact_array(
    values: np.ndarray, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-variance unbiased 2:4 pruning (one uniform per block).

    Draws the pair from the running sums and writes the survivors in the
    closed forms of the comment above. Works on contiguous (4, n) rows,
    one numpy pass per step.
    """
    values = _block_matrix(values, 4)
    (b1, b2, b3, b4), ranks = _sort4(_magnitude_rows(values))
    small = b1 + b2 + b3
    total = small + b4
    regime3 = b4 > small
    scale = np.where(regime3, small, 0.5 * total)

    x = u * scale
    # Count the running sums at or below x; the leading 0 always is.
    col = (x >= 0.25 * np.maximum(2.0 * b1 + b3 - b4, 0.0)).view(np.uint8) + 1
    col += x >= b1
    middle = np.maximum(np.minimum(2.0 * b2 + b3 - b4, 2.0 * (small - b4)), 0.0)
    col += x >= b1 + 0.25 * middle
    col += x >= b1 + b2
    # Degenerate blocks: ties among zeros are resolved uniformly.
    all_zero = total == 0.0
    if np.any(all_zero):
        col[all_zero] = (6.0 * u[all_zero]).astype(np.uint8)
    three_zero = regime3 & (small == 0.0)
    if np.any(three_zero):
        col[three_zero] = _THREE_ZERO_COLUMNS[(3.0 * u[three_zero]).astype(np.intp)]

    out = np.empty_like(values)
    mask = np.empty(values.shape, dtype=bool)
    keep = mask.T
    # An entry is kept when the chosen pair holds its rank.
    np.bitwise_and(_PAIR_BITS[col] >> ranks, 1, out=keep.view(np.uint8))
    # Every survivor has magnitude `scale` except a regime-3 max, which
    # keeps b4 = max(b4, scale); in regimes 1-2 max(b4, S/2) is S/2.
    kept = np.maximum(scale, b4 * (ranks == 3))
    out.T[...] = np.where(keep, np.sign(values.T) * kept, 0.0)
    return out, mask


def exact24_marginal_probs(values: np.ndarray) -> np.ndarray:
    """Inclusion probability of each entry, in original order."""
    values = _block_matrix(values, 4)
    order, b = _sort_by_magnitude(values)
    sorted_probs = _exact24_marginals_sorted(b)
    probs = np.empty_like(sorted_probs)
    np.put_along_axis(probs, order, sorted_probs, axis=1)
    return probs


def exact24_pair_probs(values: np.ndarray) -> np.ndarray:
    """Probability of keeping each index pair, columns PAIR_INDEX_COLUMNS."""
    values = _block_matrix(values, 4)
    order, b = _sort_by_magnitude(values)
    table = _exact24_pair_table_sorted(b)
    rows = np.arange(values.shape[0])[:, None]
    out = np.zeros_like(table)
    for col in range(6):
        oi = order[:, _PAIR_FIRST[col]]
        oj = order[:, _PAIR_SECOND[col]]
        np.add.at(out, (rows[:, 0], _PAIR_COLUMN[oi, oj]), table[:, col])
    return out


# ---------------------------------------------------------------------------
# Approximate 2:4 estimator
#
# Two sequential draws without replacement, both magnitude-proportional:
# the first index with probability |a_i| / S, the second with probability
# |a_j| / (S - |a_first|). Survivors are rescaled by the inverse of their
# inclusion probability, restoring unbiasedness at the cost of variance at
# most 2x the optimum. When the remaining mass after the first draw is
# zero, the partner is chosen uniformly among the remaining indices. Each
# draw compares u times the mass with running sums of the magnitudes, so
# neither divides by S or by S - |a_first|.

_POSITIONS = np.arange(4, dtype=np.uint8)[:, None]


def _draw_by_running_sums(
    weights: np.ndarray, fallback: np.ndarray | float, u: np.ndarray
) -> np.ndarray:
    """One-hot (4, n) draw per column of (4, n) weights, P(k) = weight_k / total.

    Columns whose total is zero, or not finite because an input is not,
    draw from ``fallback`` instead, so two draws never land on one entry.
    The running sums add top to bottom, as a row sum of the blocks does,
    so a zero last weight leaves the total equal to the last running sum,
    and u < 1 never reaches it: zero weights are never drawn. The weights
    are quartered first, so four finite weights cannot sum to infinity;
    for normal numbers that scaling is exact and changes no comparison.
    """
    w0, w1, w2, w3 = 0.25 * weights
    cum1 = w0 + w1
    cum2 = cum1 + w2
    total = cum2 + w3
    unusable = (total == 0.0) | ~np.isfinite(total)
    if np.any(unusable):
        return _draw_by_running_sums(np.where(unusable, fallback, weights), fallback, u)
    x = u * total
    index = (x >= w0).view(np.uint8)
    index += x >= cum1
    index += x >= cum2
    return index == _POSITIONS


def _approx24_exclusion_rows(mags_t: np.ndarray) -> np.ndarray:
    """Exclusion probabilities of (4, n) magnitude rows; an all-zero column,
    which only the sampler passes, gets 2/3 per entry."""
    m0, m1, m2, m3 = mags_t
    # Added left to right, the order of a row sum.
    total = m0 + m1 + m2 + m3
    ps01 = m0 + m1
    ps02 = m0 + m2
    ps03 = m0 + m3
    ps12 = m1 + m2
    ps13 = m1 + m3
    ps23 = m2 + m3
    # Mass remaining after a first draw of k, formed by addition only.
    rest0 = m1 + ps23
    rest1 = m0 + ps23
    rest2 = m3 + ps01
    rest3 = m2 + ps01
    probs = np.empty_like(mags_t)
    with np.errstate(invalid="ignore", divide="ignore"):
        w0 = m0 / rest0
        w1 = m1 / rest1
        w2 = m2 / rest2
        w3 = m3 / rest3
        # Divide by the total: its reciprocal overflows for subnormal totals.
        probs[0] = (w1 * ps23 + w2 * ps13 + w3 * ps12) / total
        probs[1] = (w0 * ps23 + w2 * ps03 + w3 * ps02) / total
        probs[2] = (w0 * ps13 + w1 * ps03 + w3 * ps01) / total
        probs[3] = (w0 * ps12 + w1 * ps02 + w2 * ps01) / total
    np.minimum(probs, 1.0, out=probs)
    degenerate = (rest0 == 0.0) | (rest1 == 0.0) | (rest2 == 0.0) | (rest3 == 0.0)
    if np.any(degenerate):
        # One entry holds the whole mass: it is always drawn first and the
        # partner is uniform over the three zero entries.
        probs[:, degenerate] = np.where(mags_t[:, degenerate] > 0.0, 0.0, 2.0 / 3.0)
    return probs


def approx24_exclusion_probs(values: np.ndarray) -> np.ndarray:
    """P(entry dropped) under the sequential sampler, per block entry.

    Entry i is dropped when both draws land elsewhere:
        q_i = sum_{k != i} (|a_k| / S) * (|a_j| + |a_l|) / (S - |a_k|)
    where {j, l} are the two positions other than i and k, and S - |a_k|
    is formed by adding the other three magnitudes. Every factor is a sum
    of magnitudes, never a difference, so a near-certain survivor (q_i
    around 1e-12) keeps full relative precision where 1 - inclusion would
    be pure rounding noise.
    """
    mags_t = _magnitude_rows(_block_matrix(values, 4))
    if np.any(mags_t.sum(axis=0) == 0.0):
        raise ValueError("inclusion probabilities are undefined for an all-zero block")
    return np.ascontiguousarray(_approx24_exclusion_rows(mags_t).T)


def approx24_inclusion_probs(values: np.ndarray) -> np.ndarray:
    """Inclusion probability of each entry under the sequential sampler.

    Equals |a_i|/S plus the chance of surviving the second draw after any
    other first pick; computed as 1 minus the exclusion probability. The
    four probabilities sum to 2 exactly.
    """
    return 1.0 - approx24_exclusion_probs(values)


def approx24_variance_array(values: np.ndarray) -> np.ndarray:
    """Total variance of the sequential 2:4 estimator per block.

    Uses sum_i a_i^2 * q_i / (1 - q_i) on the exclusion probabilities,
    which stays accurate when an entry dominates its block and its
    variance contribution a_i^2 * q_i is far below a_i^2 / p_i.
    """
    values = _block_matrix(values, 4)
    q = approx24_exclusion_probs(values)
    sq = values * values
    nonzero = sq > 0.0
    if np.any(nonzero & (q >= 1.0)):
        raise ValueError("zero inclusion probability on a nonzero entry")
    with np.errstate(invalid="ignore", divide="ignore"):
        terms = np.where(nonzero, sq * q / (1.0 - q), 0.0)
    return terms.sum(axis=1)


def approx24_pair_probs(values: np.ndarray) -> np.ndarray:
    """Pair probabilities for the sequential sampler, columns PAIR_INDEX_COLUMNS."""
    values = _block_matrix(values, 4)
    mags = np.abs(values)
    total = mags.sum(axis=1)
    if np.any(total == 0.0):
        raise ValueError("pair probabilities are undefined for an all-zero block")
    out = np.zeros((values.shape[0], 6))
    rest = total[:, None] - mags
    for col, (i, j) in enumerate(PAIR_INDEX_COLUMNS):
        with np.errstate(invalid="ignore", divide="ignore"):
            q_j_after_i = np.where(rest[:, i] > 0.0, mags[:, j] / rest[:, i], 1.0 / 3.0)
            q_i_after_j = np.where(rest[:, j] > 0.0, mags[:, i] / rest[:, j], 1.0 / 3.0)
        out[:, col] = (mags[:, i] / total) * q_j_after_i + (mags[:, j] / total) * q_i_after_j
    return out


def prune_mvue24_approx_array(
    values: np.ndarray, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sequential magnitude-proportional 2:4 pruning (two uniforms per block)."""
    values = _block_matrix(values, 4)
    if u.ndim != 2 or u.shape != (values.shape[0], 2):
        raise ValueError("expected uniforms of shape (num_blocks, 2)")
    mags_t = _magnitude_rows(values)
    # An all-zero block draws as if its magnitudes were equal; when the
    # first pick holds the whole mass, the partner is uniform over the rest.
    first = _draw_by_running_sums(mags_t, 1.0, u[:, 0])
    second = _draw_by_running_sums(mags_t * ~first, ~first, u[:, 1])
    probs = 1.0 - _approx24_exclusion_rows(mags_t)

    out = np.empty_like(values)
    mask = np.empty(values.shape, dtype=bool)
    keep = mask.T
    np.bitwise_or(first, second, out=keep)
    with np.errstate(invalid="ignore", divide="ignore"):
        out.T[...] = np.where(keep & (values.T != 0.0), values.T / probs, 0.0)
    return out, mask


# ---------------------------------------------------------------------------
# Variance helpers


def variance_from_probs_array(values: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Total variance sum_i (a_i^2 / p_i - a_i^2) of an inverse-probability
    rescaled estimator, per block. Uses 0^2/0 = 0; a zero probability on a
    nonzero entry is an error."""
    values = np.asarray(values, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    if values.shape != probs.shape:
        raise ValueError("values and probs must have matching shapes")
    sq = values * values
    bad = (probs == 0.0) & (sq > 0.0)
    if np.any(bad):
        raise ValueError("zero inclusion probability on a nonzero entry")
    with np.errstate(invalid="ignore", divide="ignore"):
        contrib = np.where(sq > 0.0, sq / np.where(probs > 0.0, probs, 1.0), 0.0)
    return (contrib - sq).sum(axis=-1)


def elementwise_variance_array(values: np.ndarray, kind: EstimatorKind) -> np.ndarray:
    """Closed-form Var[theta_i] per entry for a stochastic method.

    Summing along the block axis gives the total block variance. Useful
    for per-component z-tests where an empirical standard error would
    vanish for rarely kept entries.
    """
    if not kind.is_stochastic:
        raise ValueError(f"method {kind.value!r} is deterministic")
    values = _block_matrix(values, kind.required_pattern.m)
    sq = values * values
    if kind is EstimatorKind.MVUE12:
        # theta_i is sign * S with probability |a_i| / S, so
        # Var = |a_i| S - a_i^2 = |a_0 a_1| for both entries.
        return np.abs(values[:, :1] * values[:, 1:]) * np.ones((1, 2))
    if kind is EstimatorKind.BIASED12:
        p = mvue12_selection_probs(values)
        return sq * p * (1.0 - p)
    if kind is EstimatorKind.UNIFORM12:
        return 0.25 * sq
    if kind is EstimatorKind.UNBIASED_UNIFORM12:
        return sq
    if kind is EstimatorKind.MVUE24_APPROX:
        q = approx24_exclusion_probs(values)
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(sq > 0.0, sq * q / (1.0 - q), 0.0)
    if kind is EstimatorKind.MVUE24_EXACT:
        p = exact24_marginal_probs(values)
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(sq > 0.0, sq * (1.0 - p) / np.where(p > 0.0, p, 1.0), 0.0)
    raise ValueError(f"unhandled method {kind}")


# ---------------------------------------------------------------------------
# Dispatch

# Uniforms per block and kernel of each stochastic method.
_SAMPLERS = {
    EstimatorKind.MVUE12: (1, lambda v, u: prune_mvue12_array(v, u[:, 0])),
    EstimatorKind.MVUE24_EXACT: (1, lambda v, u: prune_mvue24_exact_array(v, u[:, 0])),
    EstimatorKind.MVUE24_APPROX: (2, lambda v, u: prune_mvue24_approx_array(v, u)),
    EstimatorKind.BIASED12: (1, lambda v, u: prune_biased12_array(v, u[:, 0])),
    EstimatorKind.UNIFORM12: (1, lambda v, u: prune_uniform12_array(v, u[:, 0], False)),
    EstimatorKind.UNBIASED_UNIFORM12: (1, lambda v, u: prune_uniform12_array(v, u[:, 0], True)),
}
# Blocks per kernel call in prune_array. Each chunk reuses the memory the
# last one freed instead of faulting in fresh pages; a float64 temporary of
# 16k 2:4 blocks is 512 KiB, and verify's 10k-draw calls take one chunk.
PRUNE_CHUNK_BLOCKS = 1 << 14


def prune_array(
    values: np.ndarray,
    kind: EstimatorKind,
    pattern: SparsityPattern | None = None,
    stream: RandomStream | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Prune a (num_blocks, m) array with the given method.

    Returns (pruned values, keep mask), the values in the input's dtype,
    float32 or float64. The kernel runs on chunks of PRUNE_CHUNK_BLOCKS
    blocks, drawing their uniforms in order, which gives exactly the
    uniforms of one draw. Stochastic kernels widen each chunk to float64.
    """
    pattern = resolve_pattern(kind, pattern)
    values = _float_blocks(values, pattern.m)
    if kind.is_stochastic and stream is None:
        raise ValueError(f"method {kind.value!r} is stochastic and needs a RandomStream")
    out = mask = None
    for start in range(0, max(len(values), 1), PRUNE_CHUNK_BLOCKS):
        chunk = values[start : start + PRUNE_CHUNK_BLOCKS]
        if kind is EstimatorKind.GREEDY_MSE:
            part, part_mask = prune_greedy_array(chunk, pattern)
        else:
            draws, sampler = _SAMPLERS[kind]
            part, part_mask = sampler(chunk, stream.uniforms((len(chunk), draws)))
        # Survivors may overflow float32; the file writers refuse non-finite data.
        with np.errstate(over="ignore"):
            if len(chunk) == len(values):
                return part.astype(values.dtype, copy=False), part_mask
            if out is None:
                # The kernels lay their output out like their input.
                out = np.empty_like(part, dtype=values.dtype, shape=values.shape)
                mask = np.empty(values.shape, dtype=bool)
            out[start : start + len(chunk)] = part
        mask[start : start + len(chunk)] = part_mask
    return out, mask


def prune_tensor(
    t: BlockedTensor,
    kind: EstimatorKind,
    pattern: SparsityPattern | None = None,
    stream: RandomStream | None = None,
) -> BlockedTensor:
    """Prune every whole block along t.block_axis; the tail passes through.

    Keeps the dtype of t.data, which must be finite (read_tensor checks).
    """
    pattern = resolve_pattern(kind, pattern)
    blocks, tail = _split_blocks(t, pattern.m)
    if blocks.shape[0] > 0:
        blocks, _ = prune_array(blocks, kind, pattern, stream)
        blocks.setflags(write=False)
    tail = DenseTail(tail, pattern.m, t.shape[t.block_axis] // pattern.m)
    return merge_axis(blocks, tail, t.shape, t.block_axis)


# ---------------------------------------------------------------------------
# Single-block API


def _single(
    block: Block,
    kind: EstimatorKind,
    pattern: SparsityPattern | None,
    stream: RandomStream | None,
) -> PrunedBlock:
    pattern = resolve_pattern(kind, pattern)
    if len(block) != pattern.m:
        raise ValueError(f"block length {len(block)} does not match pattern {pattern}")
    out, mask = prune_array(block.values[None, :], kind, pattern, stream)
    return PrunedBlock(out[0], BlockMask(mask[0], pattern))


def prune_greedy(block: Block, pattern: SparsityPattern) -> PrunedBlock:
    """Deterministic minimum-MSE mask: keep the largest magnitudes."""
    return _single(block, EstimatorKind.GREEDY_MSE, pattern, None)


def prune_mvue12(block: Block, stream: RandomStream) -> PrunedBlock:
    return _single(block, EstimatorKind.MVUE12, None, stream)


def prune_mvue24_exact(block: Block, stream: RandomStream) -> PrunedBlock:
    return _single(block, EstimatorKind.MVUE24_EXACT, None, stream)


def prune_mvue24_approx(block: Block, stream: RandomStream) -> PrunedBlock:
    return _single(block, EstimatorKind.MVUE24_APPROX, None, stream)


def prune_baseline(block: Block, kind: EstimatorKind, stream: RandomStream) -> PrunedBlock:
    if kind not in (
        EstimatorKind.BIASED12,
        EstimatorKind.UNIFORM12,
        EstimatorKind.UNBIASED_UNIFORM12,
    ):
        raise ValueError(f"{kind.value!r} is not a 1:2 baseline method")
    return _single(block, kind, None, stream)


def analytic_variance_mvue12(block: Block) -> float:
    """Variance 2 |a0 a1| of the optimal unbiased 1:2 estimator."""
    if len(block) != 2:
        raise ValueError("mvue12 variance is defined for length-2 blocks")
    return float(mvue12_variance_array(block.values[None, :])[0])


def marginal_probs_exact24(block: Block) -> np.ndarray:
    if len(block) != 4:
        raise ValueError("expected a length-4 block")
    return exact24_marginal_probs(block.values[None, :])[0]


def inclusion_probs_approx24(block: Block) -> np.ndarray:
    if len(block) != 4:
        raise ValueError("expected a length-4 block")
    return approx24_inclusion_probs(block.values[None, :])[0]


def analytic_variance_from_probs(block: Block, probs) -> float:
    probs = np.asarray(probs, dtype=np.float64)
    return float(variance_from_probs_array(block.values[None, :], probs[None, :])[0])


def block_mse(original: Block, pruned: PrunedBlock) -> float:
    """Squared error between a block and its pruned estimate."""
    if len(original) != len(pruned):
        raise ValueError("length mismatch")
    diff = pruned.values - original.values
    return float(np.dot(diff, diff))
