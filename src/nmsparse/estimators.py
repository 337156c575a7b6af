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

Each method is one ``Method`` record in ``METHODS``: its pattern, kernel,
keep and drop probabilities (p, q), rescale flag and error factor. Every
variance and error formula is derived from the record. All functions
treat a kept value of a zero entry as exact zero and use the convention
0^2 / 0 = 0.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    BlockedTensor,
    SparsityPattern,
    _coded,
    _coded_split,
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
        return METHODS[self].pattern

    @property
    def is_stochastic(self) -> bool:
        return METHODS[self].draws > 0

    @property
    def is_unbiased(self) -> bool:
        return METHODS[self].rescale

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


# A block is out of range when its largest magnitude is not in [_LOW, _HIGH):
# its magnitude total may overflow, or subnormal rounding may move a draw.
# Probabilities and draws do not depend on scale, so such a block is scaled
# by a power of two, which is exact, and its survivors are scaled back.
_LOW, _HIGH = 2.0**-1000, 2.0**1000


class _OutOfRange(ValueError):
    """A float64 kernel met a block out of its range; prune_array scales
    such blocks into range."""


_OUT_OF_RANGE = "block magnitudes out of the kernels' range; prune_array scales them"


def _check_total(total: np.ndarray, low: bool = True) -> None:
    """Raise _OutOfRange if a per-block magnitude total overflowed or, with
    ``low``, lies in (0, _LOW), as only an out-of-range block's can."""
    small = total < _LOW if low else None
    if total.max(initial=0.0) == np.inf or (
        low and np.any(small) and np.count_nonzero(small) > np.count_nonzero(total == 0.0)
    ):
        raise _OutOfRange(_OUT_OF_RANGE)


def _in_range(values: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """values with each out-of-range block scaled by 2**-e to a largest
    magnitude in [0.5, 1), and e per block (0 for the others), or None when
    every block is in range. Only an entry outside [_LOW, _HIGH) can put a
    block out of range: the common path looks for those alone."""
    mags = np.abs(values)
    if mags.max(initial=0.0) < _HIGH and not np.any((mags > 0.0) & (mags < _LOW)):
        return values, None
    top = mags.max(axis=1)
    exponent = np.where((top >= _HIGH) | ((top > 0.0) & (top < _LOW)), np.frexp(top)[1], 0)
    return np.ldexp(values, -exponent[:, None]), exponent


def _unscale(values: np.ndarray, exponent: np.ndarray | None) -> np.ndarray:
    """Undo _in_range's scaling of (n, m) blocks; beyond float64 is +-inf."""
    if exponent is None:
        return values
    with np.errstate(over="ignore"):
        return np.ldexp(values, exponent[:, None])


def _magnitude_rows(values: np.ndarray, dtype=np.float64) -> np.ndarray:
    """Magnitudes of (n, m) blocks as contiguous (m, n) rows."""
    return np.abs(values.T, out=np.empty(values.shape[::-1], dtype=dtype))


# ---------------------------------------------------------------------------
# Greedy magnitude masking


def greedy_mask_array(values: np.ndarray, pattern: SparsityPattern) -> np.ndarray:
    """Keep-masks for the pattern.kept largest magnitudes per block.

    Ties are broken toward the lower index, so the result is deterministic.
    """
    values = _float_blocks(values, pattern.m)
    mags_t = _magnitude_rows(values, values.dtype)
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


def prune_mvue12_array(
    values: np.ndarray, u: np.ndarray, proportional: bool = True, rescale: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """1:2 pruning, one uniform per block, on contiguous (2, n) rows.

    With ``proportional`` entry 0 is kept with probability P = |a0| / (|a0|
    + |a1|) (1 for an all-zero block), else by a fair coin. With
    ``rescale`` the survivor is divided by its keep probability: it becomes
    sign * (|a0| + |a1|), or twice its value for the coin. The defaults
    are mvue12, the minimum-variance unbiased 1:2 estimator.
    """
    check = np.asarray(values).dtype == np.float64
    values = _block_matrix(values, 2)
    rows = values.T
    if proportional:
        m0, m1 = _magnitude_rows(values)
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            total = m0 + m1
            if check:  # a subnormal total is an exact sum, P a correctly rounded ratio
                _check_total(total, low=False)
            keep0 = u < np.where(total > 0.0, m0 / total, 1.0)
    else:
        keep0 = u < 0.5
    mask = np.empty(values.shape, dtype=bool)
    keep = mask.T
    keep[0] = keep0
    np.logical_not(keep0, out=keep[1])
    if not rescale:
        survivors = rows
    elif proportional:
        survivors = np.sign(rows) * total
    else:
        survivors = 2.0 * rows
    out = np.empty_like(values)
    out.T[...] = np.where(keep, survivors, 0.0)
    return out, mask


def _proportional12(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p, q) of magnitude-proportional 1:2 selection: p_i = |a_i| / T and
    q_0 = |a_1| / T, a sum rather than 1 - p_0; an all-zero block keeps
    index 0."""
    values = _in_range(_block_matrix(values, 2))[0]
    mags = np.abs(values)
    total = mags.sum(axis=1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        p = np.where(total > 0.0, mags / total, (1.0, 0.0))
    return p, p[:, ::-1]


def mvue12_selection_probs(values: np.ndarray) -> np.ndarray:
    """P(keep index i) for mvue12/biased12; all-zero blocks keep index 0."""
    return _proportional12(values)[0]


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
# Scaled by S/2 in regimes 1-2 and by b1 + b2 + b3 in regime 3, the running
# sums of the six pair probabilities (in PAIR_INDEX_COLUMNS order) are
#   0, max(2 b1 + b3 - b4, 0) / 4, b1,
#   b1 + max(min(2 b2 + b3 - b4, 2 (b1 + b2 + b3 - b4)), 0) / 4, b1 + b2
# in every regime, and the scale itself: the leading 0 excludes the pair
# (1,2) everywhere, the first clip the pair (1,3) outside regime 1 and the
# second clip the pair (2,3) in regime 3. The sampler compares u times the
# scale with these sums, with no division by S or by b1 + b2 + b3; the
# pair probabilities are their differences over the scale and the
# marginals min(b_k / scale, 1).

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
# Per pair column, the positions it keeps; per position, the other three.
_PAIR_KEEP = (_PAIR_BITS[:, None] >> np.arange(4) & 1).astype(bool)
_OTHERS = 1.0 - np.eye(4)


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


def _exact24_sums(mags_t: np.ndarray, check: bool = False):
    """(ranks, b4, scale, running sums, all-zero blocks or None, blocks
    with three zeros) of (4, n) magnitude rows, as in the comment above;
    the four running sums after the leading 0 are scaled like ``scale``,
    which is the last one. With ``check``, a block whose largest
    magnitude b4 is out of range raises before any sum can overflow."""
    (b1, b2, b3, b4), ranks = _sort4(mags_t)
    odd = (b4 < _LOW) | (b4 >= _HIGH) if check else b4 == 0.0
    all_zero = None
    if np.any(odd):
        all_zero = b4 == 0.0 if check else odd
        if check and np.count_nonzero(all_zero) < np.count_nonzero(odd):
            raise _OutOfRange(_OUT_OF_RANGE)
    small = b1 + b2 + b3
    scale = np.where(b4 > small, small, 0.5 * (small + b4))
    middle = np.maximum(np.minimum(2.0 * b2 + b3 - b4, 2.0 * (small - b4)), 0.0)
    sums = (0.25 * np.maximum(2.0 * b1 + b3 - b4, 0.0), b1, b1 + 0.25 * middle, b1 + b2)
    return ranks, b4, scale, sums, all_zero, (small == 0.0) & (b4 > 0.0)


def prune_mvue24_exact_array(
    values: np.ndarray, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-variance unbiased 2:4 pruning (one uniform per block).

    Draws the pair from the running sums and writes the survivors in the
    closed forms of the comment above. Works on contiguous (4, n) rows,
    one numpy pass per step.
    """
    check = np.asarray(values).dtype == np.float64
    values = _block_matrix(values, 4)
    ranks, b4, scale, sums, all_zero, three_zero = _exact24_sums(_magnitude_rows(values), check)
    x = u * scale
    # Count the running sums at or below x; the leading 0 always is.
    col = (x >= sums[0]).view(np.uint8) + 1
    for running in sums[1:]:
        col += x >= running
    # Degenerate blocks: ties among zeros are resolved uniformly.
    if all_zero is not None:
        col[all_zero] = (6.0 * u[all_zero]).astype(np.uint8)
    if np.any(three_zero):
        col[three_zero] = _THREE_ZERO_COLUMNS[(3.0 * u[three_zero]).astype(np.intp)]
    # Free the draw's rows before the output's are made.
    del sums, all_zero, three_zero, x

    mask = np.empty(values.shape, dtype=bool)
    keep = mask.T
    # An entry is kept when the chosen pair holds its rank.
    np.bitwise_and(_PAIR_BITS[col] >> ranks, 1, out=keep.view(np.uint8))
    # Every survivor has magnitude `scale` except a regime-3 max, which
    # keeps b4 = max(b4, scale); in regimes 1-2 max(b4, S/2) is S/2.
    kept = b4 * (ranks == 3)
    np.maximum(scale, kept, out=kept)
    np.multiply(np.sign(values.T), kept, out=kept)
    out = np.empty_like(values)
    out.T[...] = np.where(keep, kept, 0.0)
    return out, mask


def _exact24_marginal_rows(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(4, n) inclusion probabilities of in-range blocks, and their scales."""
    mags_t = _magnitude_rows(values)
    _, _, scale, _, all_zero, three_zero = _exact24_sums(mags_t)
    with np.errstate(invalid="ignore", divide="ignore"):
        probs = np.minimum(mags_t / scale, 1.0)
    # Degenerate blocks: ties among zeros are resolved uniformly.
    if all_zero is not None:
        probs[:, all_zero] = 0.5
    probs[:, three_zero] = np.where(mags_t[:, three_zero] > 0.0, 1.0, 1.0 / 3.0)
    return probs, scale


def exact24_marginal_probs(values: np.ndarray) -> np.ndarray:
    """Inclusion probability of each entry, in original order."""
    probs, _ = _exact24_marginal_rows(_in_range(_block_matrix(values, 4))[0])
    return np.ascontiguousarray(probs.T)


def _exact24_deviation(values: np.ndarray) -> np.ndarray:
    """q |a| / p per entry: q times the block's scale, the magnitude of
    every survivor with p < 1, at the block's own scale."""
    scaled, exponent = _in_range(values)
    probs, scale = _exact24_marginal_rows(scaled)
    return _unscale(((1.0 - probs) * scale).T, exponent)


def exact24_pair_probs(values: np.ndarray) -> np.ndarray:
    """Probability of keeping each index pair, columns PAIR_INDEX_COLUMNS."""
    mags_t = _magnitude_rows(_in_range(_block_matrix(values, 4))[0])
    ranks, _, scale, sums, all_zero, three_zero = _exact24_sums(mags_t)
    zero = np.zeros_like(scale)
    with np.errstate(invalid="ignore", divide="ignore"):
        table = np.diff(np.stack((zero, zero, *sums, scale)), axis=0) / scale
    if all_zero is not None:
        table[:, all_zero] = 1.0 / 6.0
    table[:, three_zero] = 0.0
    table[np.ix_(_THREE_ZERO_COLUMNS, three_zero.nonzero()[0])] = 1.0 / 3.0
    # Index pair (i, j) is the sorted pair of their ranks.
    columns = _PAIR_COLUMN[ranks[_PAIR_FIRST], ranks[_PAIR_SECOND]]
    return np.ascontiguousarray(np.take_along_axis(table, columns, axis=0).T)


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


def _approx24_exclusion_rows(mags_t: np.ndarray, check: bool = False) -> np.ndarray:
    """Exclusion probabilities of (4, n) magnitude rows, written over them
    to save memory. With ``check``, blocks out of range raise."""
    m0, m1, m2, m3 = mags_t
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        # Added left to right, the order of a row sum.
        total = m0 + m1 + m2 + m3
        if check:
            _check_total(total)
        ps01 = m0 + m1
        ps02 = m0 + m2
        ps03 = m0 + m3
        ps12 = m1 + m2
        ps13 = m1 + m3
        ps23 = m2 + m3
        # Mass remaining after a first draw of k, formed by addition only.
        w0 = np.divide(m0, m1 + ps23)
        w1 = np.divide(m1, m0 + ps23)
        w2 = np.divide(m2, m3 + ps01)
        w3 = np.divide(m3, m2 + ps01)
        # Where one entry holds the whole mass, or all but a share that
        # m / rest overflows on, the pair probabilities give the column.
        odd = ~(np.isfinite(w0) & np.isfinite(w1) & np.isfinite(w2) & np.isfinite(w3))
        odd_mags = mags_t[:, odd].T if np.any(odd) else None
        # Divide by the total: its reciprocal overflows for subnormal totals.
        np.divide(w1 * ps23 + w2 * ps13 + w3 * ps12, total, out=m0)
        np.divide(w0 * ps23 + w2 * ps03 + w3 * ps02, total, out=m1)
        np.divide(w0 * ps13 + w1 * ps03 + w3 * ps01, total, out=m2)
        np.divide(w0 * ps12 + w1 * ps02 + w2 * ps01, total, out=m3)
    probs = np.minimum(mags_t, 1.0, out=mags_t)
    if odd_mags is not None:
        probs[:, odd] = (_approx24_pairs(odd_mags) @ ~_PAIR_KEEP).T
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
    mags_t = _magnitude_rows(_in_range(_block_matrix(values, 4))[0])
    return np.ascontiguousarray(_approx24_exclusion_rows(mags_t).T)


# Per position, the other three.
_OTHER_POSITIONS = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])


def _approx24_deviation(values: np.ndarray) -> np.ndarray:
    """q |a| / p per entry, at the block's own scale. The survivor |a| / p
    is |a| / (1 - q) while q < 1. Where p rounds to 0 it is the ratio of
    sums S / (1 + sum_{k != i} w_k), w_k = |a_k| / (S - |a_k|), since
    p_i = |a_i| (1 + sum_{k != i} w_k) / S: entry i is drawn first, or
    second after some k."""
    scaled, exponent = _in_range(values)
    mags_t = _magnitude_rows(scaled)
    q = _approx24_exclusion_rows(mags_t.copy())
    with np.errstate(invalid="ignore", divide="ignore"):
        w = mags_t / (_OTHERS @ mags_t)
        rare = mags_t.sum(axis=0) / (1.0 + w[_OTHER_POSITIONS].sum(axis=1))
        survivor = np.where(q < 1.0, mags_t / (1.0 - q), rare)
    return _unscale((q * survivor).T, exponent)


def _approx24_pairs(mags: np.ndarray) -> np.ndarray:
    """Pair probabilities of (n, 4) magnitudes, columns PAIR_INDEX_COLUMNS:
    either entry drawn first, then the other, with the mass left after a
    first draw formed by addition. A first draw that holds the whole mass
    leaves a uniform partner; an all-zero block draws its pairs uniformly."""
    total = mags.sum(axis=1, keepdims=True)
    rest = mags @ _OTHERS
    first, second = mags[:, _PAIR_FIRST], mags[:, _PAIR_SECOND]
    rest_first, rest_second = rest[:, _PAIR_FIRST], rest[:, _PAIR_SECOND]
    with np.errstate(invalid="ignore", divide="ignore"):
        second_after_first = np.where(rest_first > 0.0, second / rest_first, 1.0 / 3.0)
        first_after_second = np.where(rest_second > 0.0, first / rest_second, 1.0 / 3.0)
        pairs = (first / total) * second_after_first + (second / total) * first_after_second
    return np.where(total > 0.0, pairs, 1.0 / 6.0)


def approx24_pair_probs(values: np.ndarray) -> np.ndarray:
    """Pair probabilities for the sequential sampler, columns PAIR_INDEX_COLUMNS."""
    return _approx24_pairs(np.abs(_in_range(_block_matrix(values, 4))[0]))


def prune_mvue24_approx_array(
    values: np.ndarray, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sequential magnitude-proportional 2:4 pruning (two uniforms per block).
    Float32 blocks are widened by the ufuncs, not copied."""
    values = _float_blocks(values, 4)
    if u.ndim != 2 or u.shape != (values.shape[0], 2):
        raise ValueError("expected uniforms of shape (num_blocks, 2)")
    mags_t = _magnitude_rows(values)
    # An all-zero block draws as if its magnitudes were equal; when the
    # first pick holds the whole mass, the partner is uniform over the rest.
    first = _draw_by_running_sums(mags_t, 1.0, u[:, 0])
    second = _draw_by_running_sums(mags_t * ~first, ~first, u[:, 1])
    survivors = _approx24_exclusion_rows(mags_t, check=values.dtype == np.float64)
    np.subtract(1.0, survivors, out=survivors)

    out = np.empty_like(values, dtype=np.float64)
    mask = np.empty(values.shape, dtype=bool)
    keep = mask.T
    np.bitwise_or(first, second, out=keep)
    with np.errstate(invalid="ignore", divide="ignore"):
        np.divide(values.T, survivors, out=survivors)
    out.T[...] = np.where(keep & (values.T != 0.0), survivors, 0.0)
    return out, mask


# ---------------------------------------------------------------------------
# Method records


@dataclass(frozen=True)
class Method:
    """One pruning method.

    ``kernel(values, u, pattern)`` prunes (n, m) blocks with ``draws``
    uniforms per block, u of shape (n, draws), and returns (values, keep
    mask). ``probs(values, pattern)`` gives each entry's keep and drop
    probabilities (p, q), formed separately so that neither loses
    precision near 0. ``kept_set_probs(values)`` gives the kept-index sets
    and, per block, their probabilities. With ``rescale`` survivors are
    divided by p (Horvitz-Thompson), which makes the method unbiased.

    Per entry, the expected squared error is a^2 q / p rescaled and a^2 q
    raw; the variance is the same rescaled and a^2 p q raw. Greedy is the
    raw case with q in {0, 1}. ``deviation(values, pattern)`` gives the
    factor d of the error |a| d, that is q |a| / p (the survivor's excess
    over |a|) rescaled and q |a| (the bias) raw, in a closed form that is
    in range wherever d is. A product of p, q and |a| is not, where a
    block spans more than float64's range: mvue12 on [1e-200, 1e200] has
    q_1 = 1e-400, which rounds to 0, and d_1 = 1e-200.
    """

    pattern: SparsityPattern | None  # None: any pattern
    draws: int
    kernel: Callable
    probs: Callable
    kept_set_probs: Callable | None
    rescale: bool
    deviation: Callable


_ONE_OF_TWO = ((0,), (1,))


def _with_complement(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return probs, 1.0 - probs


def _deviation12(values: np.ndarray, proportional: bool, rescale: bool) -> np.ndarray:
    """d of 1:2 blocks. Magnitude-proportional: |a_j|, j the other entry,
    rescaled, and |a_0| |a_1| / T raw, as the smaller magnitude times the
    larger one's keep probability. Fair coin: |a| and |a| / 2."""
    mags = np.abs(_block_matrix(values, 2))
    if not proportional:
        return mags if rescale else 0.5 * mags
    if rescale:
        return mags[:, ::-1]
    share = _proportional12(values)[0].max(axis=1, keepdims=True)
    return np.repeat(mags.min(axis=1, keepdims=True) * share, 2, axis=1)


def _method12(proportional: bool, rescale: bool) -> Method:
    probs = _proportional12 if proportional else (
        lambda v: _with_complement(np.full(_block_matrix(v, 2).shape, 0.5)))
    return Method(
        PATTERN_12, 1,
        lambda v, u, _: prune_mvue12_array(v, u[:, 0], proportional, rescale),
        lambda v, _: probs(v),
        lambda v: (_ONE_OF_TWO, probs(v)[0]),
        rescale,
        lambda v, _: _deviation12(v, proportional, rescale),
    )


METHODS: dict[EstimatorKind, Method] = {
    EstimatorKind.GREEDY_MSE: Method(
        None, 0,
        lambda v, u, pattern: prune_greedy_array(v, pattern),
        lambda v, pattern: _with_complement(greedy_mask_array(v, pattern).astype(np.float64)),
        None,
        False,
        lambda v, pattern: np.where(greedy_mask_array(v, pattern), 0.0, np.abs(v)),
    ),
    EstimatorKind.MVUE12: _method12(proportional=True, rescale=True),
    EstimatorKind.MVUE24_EXACT: Method(
        PATTERN_24, 1,
        lambda v, u, _: prune_mvue24_exact_array(v, u[:, 0]),
        lambda v, _: _with_complement(exact24_marginal_probs(v)),
        lambda v: (PAIR_INDEX_COLUMNS, exact24_pair_probs(v)),
        True,
        lambda v, _: _exact24_deviation(_block_matrix(v, 4)),
    ),
    EstimatorKind.MVUE24_APPROX: Method(
        PATTERN_24, 2,
        lambda v, u, _: prune_mvue24_approx_array(v, u),
        lambda v, _: _with_complement(approx24_exclusion_probs(v))[::-1],
        lambda v: (PAIR_INDEX_COLUMNS, approx24_pair_probs(v)),
        True,
        lambda v, _: _approx24_deviation(_block_matrix(v, 4)),
    ),
    EstimatorKind.BIASED12: _method12(proportional=True, rescale=False),
    EstimatorKind.UNIFORM12: _method12(proportional=False, rescale=False),
    EstimatorKind.UNBIASED_UNIFORM12: _method12(proportional=False, rescale=True),
}


def entry_moments(
    values: np.ndarray, kind: EstimatorKind, pattern: SparsityPattern | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form (E[(theta_i - a_i)^2], Var[theta_i]) per entry, from the
    method's record: the error |a| d and the variance, the same rescaled
    and d (|a| p) raw. Summed along the block axis the error is the
    expected squared block error of one draw. Each is in range wherever
    its true value and d are."""
    method = METHODS[kind]
    pattern = resolve_pattern(kind, pattern)
    values = _block_matrix(values, pattern.m)
    mags = np.abs(values)
    deviation = method.deviation(values, pattern)
    with np.errstate(invalid="ignore", over="ignore"):
        error = np.where(mags > 0.0, mags * deviation, 0.0)
        if method.rescale:
            return error, error
        p, _ = method.probs(values, pattern)
        return error, np.where(mags > 0.0, deviation * (mags * p), 0.0)


def elementwise_variance_array(values: np.ndarray, kind: EstimatorKind) -> np.ndarray:
    """Closed-form Var[theta_i] per entry for a stochastic method.

    Summing along the block axis gives the total block variance. Useful
    for per-component z-tests where an empirical standard error would
    vanish for rarely kept entries.
    """
    if not kind.is_stochastic:
        raise ValueError(f"method {kind.value!r} is deterministic")
    return entry_moments(values, kind)[1]


def mvue12_variance_array(values: np.ndarray) -> np.ndarray:
    """Total estimator variance per 1:2 block: 2 |a0| |a1|."""
    return elementwise_variance_array(values, EstimatorKind.MVUE12).sum(axis=1)


def approx24_variance_array(values: np.ndarray) -> np.ndarray:
    """Total variance of the sequential 2:4 estimator per block."""
    return entry_moments(values, EstimatorKind.MVUE24_APPROX)[0].sum(axis=1)


# ---------------------------------------------------------------------------
# Dispatch

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
    """Prune a (..., m) array of blocks, read in row-major order, such as a
    tensor's lane view from core._lane_blocks, with the given method.

    Returns (pruned values, keep mask) of the input's shape, the values in
    its dtype, float32 or float64. The kernel runs on chunks of at most
    PRUNE_CHUNK_BLOCKS blocks, whole lanes or part of one, one at a time,
    each copied only if it is not one (n, m) view and each drawing its
    uniforms in turn: exactly the uniforms of one draw. Stochastic kernels
    widen each chunk to float64. A float64 block out of the kernels' range
    is drawn at a power-of-two scale and its survivors scaled back, so
    every draw is exact at every finite scale; a survivor beyond float64
    is +-inf.
    """
    pattern = resolve_pattern(kind, pattern)
    values = _float_data(values)
    if values.ndim < 2 or values.shape[-1] != pattern.m:
        raise ValueError(f"expected a (..., {pattern.m}) array of blocks, got shape {values.shape}")
    method = METHODS[kind]
    if method.draws and stream is None:
        raise ValueError(f"method {kind.value!r} is stochastic and needs a RandomStream")

    def kernel(part: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        part = part.reshape(-1, pattern.m)
        u = stream.uniforms((len(part), method.draws)) if method.draws else None
        try:
            return method.kernel(part, u, pattern)
        except _OutOfRange:
            part, exponent = _in_range(part)
            out, mask = method.kernel(part, u, pattern)
            return _unscale(out, exponent), mask

    if values.size <= PRUNE_CHUNK_BLOCKS * pattern.m:
        part, mask = kernel(values)
        # Survivors may overflow float32; the file writers refuse non-finite data.
        with np.errstate(over="ignore"):
            part = part.astype(values.dtype, copy=False)
        return part.reshape(values.shape), mask.reshape(values.shape)
    # The samplers lay a block matrix's output out like their input, greedy row-major.
    matrix_layout = values.ndim == 2 and kind is not EstimatorKind.GREEDY_MSE
    out = np.empty_like(values, order="K" if matrix_layout else "C")
    mask = np.empty(values.shape, dtype=bool)
    # Chunks slice one dimension of the blocks' layout, the ones after it whole.
    lead = values.shape[:-1]
    axis = len(lead) - 1
    while axis and math.prod(lead[axis:]) <= PRUNE_CHUNK_BLOCKS:
        axis -= 1
    step = PRUNE_CHUNK_BLOCKS // math.prod(lead[axis + 1 :])
    for outer in np.ndindex(*lead[:axis]):
        for start in range(0, lead[axis], step):
            rows = (*outer, slice(start, start + step))
            chunk = values[rows]
            part, part_mask = kernel(chunk)
            mask[rows] = part_mask.reshape(chunk.shape)
            with np.errstate(over="ignore"):
                out[rows] = part.reshape(chunk.shape)
    return out, mask


def prune_tensor(
    t: BlockedTensor,
    kind: EstimatorKind,
    pattern: SparsityPattern | None = None,
    stream: RandomStream | None = None,
) -> BlockedTensor:
    """Prune every whole block along t.block_axis; the tail passes through.

    Keeps the dtype of t.data, which must be finite (read_tensor checks).
    The blocks are pruned from a view of t, a chunk at a time.
    """
    pattern = resolve_pattern(kind, pattern)
    blocks, tail = _split_blocks(t, pattern.m)
    if blocks.size:
        blocks = prune_array(blocks, kind, pattern, stream)[0]
    blocks.setflags(write=False)
    # Coded before the merge allocates the output: their temporaries never meet.
    split = _coded(blocks, tail)
    out = merge_axis(split[0], tail, t.shape, t.block_axis)
    _coded_split(out, pattern.m, split)  # no second split
    return out
