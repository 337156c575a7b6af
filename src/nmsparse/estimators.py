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
  is a cheaper sequential sampler (the first pick by magnitude, then its
  partner by magnitude among the other three) whose variance is within
  2x of the optimum everywhere.

Three 1:2 reference baselines are included for comparison: ``biased``
(magnitude-proportional selection without rescaling), ``uniform`` (coin
flip without rescaling) and ``unbiased-uniform`` (coin flip with 2x
rescaling).

Each method is one ``Method`` record in ``METHODS``: its pattern, kernel,
keep and drop probabilities (p, q), rescale flag and error factor. Every
variance and error formula is derived from the record, and a stochastic
method's probabilities and error factor from its one kept-set table.
Every stochastic kernel takes one uniform per block and draw; both 2:4
samplers draw the kept pair from the running sums of the block's six
pair probabilities.
All functions treat a kept value of a zero entry as exact zero and use
the convention 0^2 / 0 = 0.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    BlockedTensor,
    SparsityPattern,
    _coded,
    _coded_split,
    _copy_blocks,
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
        return METHODS[self].kept_set_probs is not None

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


# A block is out of range when its largest magnitude is neither 0 nor in
# [_LOW, _HIGH): its magnitude total may overflow, or subnormal rounding may
# move a draw. Probabilities and draws do not depend on scale, so such a
# block is scaled by a power of two, which is exact, and its survivors are
# scaled back. Float32 blocks are never out of range.
_LOW, _HIGH = 2.0**-1000, 2.0**1000


def _out_of_range(top: np.ndarray) -> np.ndarray:
    """Whether each block, of largest magnitude ``top``, is out of range."""
    return (top >= _HIGH) | ((top < _LOW) & (top > 0.0))


def _in_range(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """(values, magnitude rows, exponent) of (n, m) blocks: values with each
    out-of-range block scaled by 2**-e to a largest magnitude in [0.5, 1),
    their magnitude rows, and e per block (0 for the others), or None when
    every block is in range. A kernel draws from the first two and scales
    its survivor rows back with _unscale."""
    mags_t = _magnitude_rows(values)
    top = np.maximum.reduce(mags_t)
    out = _out_of_range(top)
    if not np.count_nonzero(out):
        return values, mags_t, None
    exponent = np.where(out, np.frexp(top)[1], 0)
    values = np.ldexp(values, -exponent[:, None])
    return values, _magnitude_rows(values), exponent


def _unscale(rows: np.ndarray, exponent: np.ndarray | None) -> np.ndarray:
    """Undo _in_range's scaling of (..., n) rows of n blocks; beyond float64
    is +-inf."""
    if exponent is None:
        return rows
    with np.errstate(over="ignore"):
        return np.ldexp(rows, exponent)


def _magnitude_rows(values: np.ndarray, dtype=np.float64) -> np.ndarray:
    """Magnitudes of (n, m) blocks as contiguous (m, n) rows."""
    return np.abs(values.T, out=np.empty(values.shape[::-1], dtype=dtype))


def _where_kept(keep: np.ndarray, values: np.ndarray) -> np.ndarray:
    """np.where(keep, values, 0.0) bit for bit, with no branch per entry
    to mispredict: each value's bits under an all-ones or all-zeros mask."""
    mask = np.negative(keep.view(np.uint8), dtype=f"u{values.itemsize}")
    return np.bitwise_and(values.view(mask.dtype), mask, out=mask).view(values.dtype)


def _from_rows(rows: np.ndarray, lead: tuple[int, ...]) -> np.ndarray:
    """(m, draws, n) rows as a (*lead, n, m) view of blocks."""
    return rows.transpose(1, 2, 0).reshape(*lead, *rows.shape[2:], rows.shape[0])


def _entry_columns(sets: tuple[tuple[int, ...], ...], m: int, held: bool = True) -> np.ndarray:
    """Per entry of a length-m block, the columns of the kept sets that
    hold it (or, not ``held``, of the others), in set order."""
    return np.array([[c for c, kept in enumerate(sets) if (i in kept) == held] for i in range(m)])


def _set_sums(rows: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """(m, n) sums of (sets, n) rows, per entry its row of ``columns``,
    added in column order."""
    sums = rows[columns[:, 0]]
    for column in columns[:, 1:].T:
        sums += rows[column]
    return sums


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
    values = _float_blocks(values, pattern.m)
    mask = greedy_mask_array(values, pattern)
    return _where_kept(mask, values), mask


# ---------------------------------------------------------------------------
# 1:2 estimators


def prune_mvue12_array(
    values: np.ndarray, u: np.ndarray, proportional: bool = True, rescale: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """1:2 pruning, one uniform per block and draw, u of shape (..., n) for
    (n, 2) blocks, on contiguous (2, n) rows.

    With ``proportional`` entry 0 is kept with probability P = |a0| / (|a0|
    + |a1|) (1 for an all-zero block), else by a fair coin. With
    ``rescale`` the survivor is divided by its keep probability: it becomes
    sign * (|a0| + |a1|), or twice its value for the coin. The defaults
    are mvue12, the minimum-variance unbiased 1:2 estimator.
    """
    values, exponent = _block_matrix(values, 2), None
    lead, u = u.shape[:-1], u.reshape(math.prod(u.shape[:-1]), len(values))
    if proportional:
        values, (m0, m1), exponent = _in_range(values)
        total = m0 + m1
        with np.errstate(invalid="ignore"):
            share = m0 / total
    rows = values.T
    # Entry 1 is kept when u >= P; no u is >= an all-zero block's 0/0.
    keep = np.empty((2, *u.shape), dtype=bool)
    np.greater_equal(u, share if proportional else 0.5, out=keep[1])
    np.logical_not(keep[1], out=keep[0])
    if not rescale:
        survivors = rows
    elif proportional:
        # Signs formed into contiguous rows: a product with strided rows is slow.
        survivors = np.sign(rows, out=np.empty(rows.shape))
        survivors *= total
    else:
        survivors = 2.0 * rows
    survivors = _unscale(survivors, exponent)
    return _from_rows(_where_kept(keep, survivors[:, None]), lead), _from_rows(keep, lead)


def _table12(mags_t: np.ndarray):
    """Kept-set table of magnitude-proportional 1:2 selection (see
    _stochastic): rows and kept masses |a_0| and |a_1|, and their total,
    mvue12's survivor; an all-zero block keeps index 0."""
    total = mags_t[0] + mags_t[1]
    empty = total == 0.0
    rows = np.where(empty, ((1.0,), (0.0,)), mags_t)
    return rows, np.where(empty, 1.0, total), rows, total


def _coin_table(mags_t: np.ndarray):
    """Kept-set table of the fair coin: constant rows, and unbiased-uniform's
    survivor 2 |a|."""
    rows = np.ones(mags_t.shape)
    return rows, 2.0, rows, 2.0 * mags_t


def mvue12_selection_probs(values: np.ndarray) -> np.ndarray:
    """P(keep index i) for mvue12/biased12; all-zero blocks keep index 0."""
    return METHODS[EstimatorKind.MVUE12].probs(values, None)[0]


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
# +-(b1 + b2 + b3). So every survivor is sign(a) max(scale, |a|), scale
# as below: in regimes 1-2 each b_k <= b4 <= b1 + b2 + b3, so b_k <= S/2,
# and in regime 3 b1, b2, b3 <= b1 + b2 + b3 < b4. At a regime boundary
# the adjacent formulas give identical distributions, so routing
# boundaries to the lower-numbered regime is arbitrary.
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
# Per position, the columns of the three pairs that hold it.
_HOLDING_PAIRS = _entry_columns(PAIR_INDEX_COLUMNS, 4)


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


def _exact24_sums(mags_t: np.ndarray):
    """(ranks, scale, running sums, all-zero blocks or None, blocks with
    three zeros) of (4, n) magnitude rows of in-range blocks, as in the
    comment above; the four running sums after the leading 0 are scaled
    like ``scale``, which is the last one. Sorted and ranked in the rows'
    dtype, which is exact; the sums are float64."""
    (b1, b2, b3, b4), ranks = _sort4(mags_t)
    b1, b2, b3, b4 = (b.astype(np.float64, copy=False) for b in (b1, b2, b3, b4))
    all_zero = b4 == 0.0
    if not np.count_nonzero(all_zero):
        all_zero = None
    small = b1 + b2 + b3
    scale = np.where(b4 > small, small, 0.5 * (small + b4))
    middle = np.maximum(np.minimum(2.0 * b2 + b3 - b4, 2.0 * (small - b4)), 0.0)
    sums = (0.25 * np.maximum(2.0 * b1 + b3 - b4, 0.0), b1, b1 + 0.25 * middle, b1 + b2)
    return ranks, scale, sums, all_zero, (small == 0.0) & (b4 > 0.0)


def _count_at_or_below(u: np.ndarray, total: np.ndarray, sums) -> np.ndarray:
    """Pair column drawn by (draws, n) uniforms: the uint8 count of the (n,)
    running sums at or below u * total. A column of probability 0 repeats
    a sum and is never drawn."""
    x = u * total
    col = (x >= sums[0]).view(np.uint8)
    for running in sums[1:]:
        col += x >= running
    return col


def prune_mvue24_exact_array(values: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-variance unbiased 2:4 pruning, one uniform per block and
    draw, u of shape (..., n) for (n, 4) blocks. Draws the pair from the
    running sums and writes the survivors in the closed forms of the
    comment above, both formed once per block. Works on contiguous (4, n)
    rows, one numpy pass per step. Float32 blocks, never out of range, stay
    float32 but for the sums: float32(max(scale, |a|)) is max(float32(scale),
    |a|), as rounding is monotone, and beyond float32 +-inf.
    """
    values = _float_blocks(values, 4)
    lead, u = u.shape[:-1], u.reshape(math.prod(u.shape[:-1]), len(values))
    values, mags_t, exponent = _in_range(values) if values.dtype == np.float64 else (
        values, _magnitude_rows(values, values.dtype), None)
    ranks, scale, sums, all_zero, three_zero = _exact24_sums(mags_t)
    # The leading 0 is always at or below u * scale.
    col = _count_at_or_below(u, scale, sums)
    col += 1
    # Degenerate blocks: ties among zeros are resolved uniformly.
    if all_zero is not None:
        np.copyto(col, (6.0 * u).astype(np.uint8), where=all_zero)
    if np.count_nonzero(three_zero):
        np.copyto(col, _THREE_ZERO_COLUMNS[(3.0 * u).astype(np.intp)], where=three_zero)
    # Free the draw's rows before the output's are made.
    del sums, all_zero, three_zero
    if scale.dtype != values.dtype:
        with np.errstate(over="ignore"):
            scale = scale.astype(values.dtype)

    # An entry is kept when the chosen pair holds its rank.
    keep = np.bitwise_and(_PAIR_BITS[col] >> ranks[:, None], 1).view(bool)
    # A zero entry is kept only where the scale is 0: this is sign(a) max(scale,
    # |a|) where kept, with no 0 * inf (NaN) where a float32 scale overflowed.
    survivors = _unscale(np.copysign(np.maximum(scale, mags_t), np.sign(values.T)), exponent)
    return _from_rows(_where_kept(keep, survivors[:, None]), lead), _from_rows(keep, lead)


def _exact24_table(mags_t: np.ndarray):
    """Kept-set table of mvue24 (see _stochastic): the differences of the
    running sums in index-pair order, their total the scale, the kept
    masses in the closed form min(|a|, scale), as a sum of three
    differences rounds up to 4 ulps apart from it and so from the
    kernel's survivors, and the survivors max(scale, |a|). Degenerate
    blocks draw the pairs of tied zeros (all-zero) or of the max and a
    zero (three zeros) evenly."""
    ranks, scale, sums, all_zero, three_zero = _exact24_sums(mags_t)
    zero = np.zeros_like(scale)
    rows = np.diff(np.stack((zero, zero, *sums, scale)), axis=0)
    total, kept = scale.copy(), np.minimum(mags_t, scale)
    if all_zero is not None:
        rows[:, all_zero], total[all_zero], kept[:, all_zero] = 1.0, 6.0, 3.0
    rows[:, three_zero] = 0.0
    rows[np.ix_(_THREE_ZERO_COLUMNS, three_zero.nonzero()[0])] = 1.0
    total[three_zero] = 3.0
    kept[:, three_zero] = np.where(mags_t[:, three_zero] > 0.0, 3.0, 1.0)
    # Index pair (i, j) is the sorted pair of their ranks: gathered from
    # the flat rows, far faster than fancy indexing by (ranks, ranks).
    pairs = ranks.take(_PAIR_FIRST, axis=0) * np.uint8(4) + ranks.take(_PAIR_SECOND, axis=0)
    flat = _PAIR_COLUMN.ravel().take(pairs) * len(scale) + np.arange(len(scale))
    return rows.take(flat), total, kept, np.maximum(scale, mags_t)


def exact24_marginal_probs(values: np.ndarray) -> np.ndarray:
    """Inclusion probability of each entry, in original order."""
    return METHODS[EstimatorKind.MVUE24_EXACT].probs(values, None)[0]


def exact24_pair_probs(values: np.ndarray) -> np.ndarray:
    """Probability of keeping each index pair, columns PAIR_INDEX_COLUMNS."""
    return METHODS[EstimatorKind.MVUE24_EXACT].kept_set_probs(values)[1]


# ---------------------------------------------------------------------------
# Approximate 2:4 estimator
#
# Two sequential draws without replacement, both magnitude-proportional:
# the first index i with probability |a_i| / S, its partner j with
# probability |a_j| / (S - |a_i|), or uniformly if the first took the
# whole mass. Survivors are rescaled by the inverse of their inclusion
# probability, restoring unbiasedness at the cost of variance at most 2x
# the optimum. The pair {i, j} is kept with probability
#   (|a_i| / S) |a_j| / (S - |a_i|) + (|a_j| / S) |a_i| / (S - |a_j|),
# each S - |a_k| the sum of the other three: ratios of sums, free of scale
# and of differences. The sampler draws the pair from the running sums of
# these six with one uniform, as mvue24 does, and an entry's p and q are
# the sums of the three pairs with and without it.

# Per position, the other three.
_OTHER_POSITIONS = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])
_POSITIONS = np.arange(4, dtype=np.uint8)[:, None, None]


def _approx24_pair_rows(mags_t: np.ndarray) -> np.ndarray:
    """(6, n) pair probabilities of (4, n) magnitude rows of in-range
    blocks, one first pick at a time to hold few rows. An all-zero block
    draws its first pick uniformly."""
    total = mags_t[0] + mags_t[1] + mags_t[2] + mags_t[3]
    with np.errstate(invalid="ignore", divide="ignore"):
        share = mags_t / total
        share[:, total == 0.0] = 0.25
        del total
        pairs = np.zeros((6, mags_t.shape[1]))
        for i, (j, k, l) in enumerate(_OTHER_POSITIONS):
            rest = mags_t[j] + mags_t[k] + mags_t[l]
            empty = rest == 0.0
            for partner in (j, k, l):
                term = mags_t[partner] / rest
                term[empty] = 1.0 / 3.0
                term *= share[i]
                pairs[_PAIR_COLUMN[i, partner]] += term
    return pairs


def _approx24_table(mags_t: np.ndarray):
    """Kept-set table of approx24 (see _stochastic): the pair probabilities,
    normalized already (total 1), the kept masses summed as the sampler sums them, and the
    survivors |a| / p as the ratio of sums S / (1 + sum_{k != i} w_k), w_k
    = |a_k| / (S - |a_k|), since p_i = |a_i| (1 + sum_{k != i} w_k) / S:
    entry i is drawn first, or second after some k. It holds where p
    rounds to 0."""
    rows = _approx24_pair_rows(mags_t)
    # w is inf where the other entries sum to a subnormal far below |a_k|;
    # the survivors beside that entry are then 0.
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        w = mags_t / mags_t[_OTHER_POSITIONS].sum(axis=1)
        survivor = mags_t.sum(axis=0) / (1.0 + w[_OTHER_POSITIONS].sum(axis=1))
    return rows, 1.0, _set_sums(rows, _HOLDING_PAIRS), survivor


def approx24_pair_probs(values: np.ndarray) -> np.ndarray:
    """Pair probabilities for the sequential sampler, columns PAIR_INDEX_COLUMNS."""
    return METHODS[EstimatorKind.MVUE24_APPROX].kept_set_probs(values)[1]


def approx24_exclusion_probs(values: np.ndarray) -> np.ndarray:
    """P(entry dropped) under the sequential sampler, per block entry: a
    sum of pair probabilities, so a near-certain survivor (q around 1e-12)
    keeps full relative precision where 1 - p would be rounding noise."""
    return METHODS[EstimatorKind.MVUE24_APPROX].probs(values, None)[1]


def prune_mvue24_approx_array(values: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sequential magnitude-proportional 2:4 pruning, one uniform per block
    and draw, u of shape (..., n) for (n, 4) blocks. Draws the pair from
    the running sums of its probabilities and divides each survivor by p,
    the sum of its three pairs, both formed once per block. Float32 blocks
    are widened by the ufuncs, not copied."""
    values = _float_blocks(values, 4)
    lead, u = u.shape[:-1], u.reshape(math.prod(u.shape[:-1]), len(values))
    values, mags_t, exponent = _in_range(values)
    pairs = _approx24_pair_rows(mags_t)
    del mags_t
    p = _set_sums(pairs, _HOLDING_PAIRS)
    # An entry with p = 0 is never kept.
    with np.errstate(invalid="ignore", divide="ignore"):
        survivors = _unscale(np.where(values.T != 0.0, values.T / p, 0.0), exponent)
    del p
    for c in range(1, 6):
        pairs[c] += pairs[c - 1]  # running sums, far faster than np.cumsum on rows
    col = _count_at_or_below(u, pairs[5], pairs[:5])
    del pairs
    keep = np.bitwise_and(_PAIR_BITS[col] >> _POSITIONS, 1).view(bool)
    return _from_rows(_where_kept(keep, survivors[:, None]), lead), _from_rows(keep, lead)


# ---------------------------------------------------------------------------
# Method records


@dataclass(frozen=True)
class Method:
    """One pruning method.

    ``kernel(values, u, pattern)`` draws (k, m) blocks r times, u of shape
    (r, k), one uniform per block and draw, doing each block's work once,
    and returns (values, keep mask), broadcastable to (r, k, m). A kernel
    that reads magnitudes draws each out-of-range block at a power-of-two
    scale and scales its survivors back, so a block's draws are exact at
    every finite scale and do not depend on the other blocks; greedy and
    the coins read none and are never scaled. ``probs(values, pattern)``
    gives each entry's keep and drop probabilities (p, q), formed
    separately so that neither loses precision near 0.
    ``kept_set_probs(values)`` gives the kept-index sets and, per block,
    their probabilities; it is None for greedy, the one deterministic
    method, whose kernel takes no uniforms. With ``rescale`` survivors are
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
    kernel: Callable
    probs: Callable
    kept_set_probs: Callable | None
    rescale: bool
    deviation: Callable


def _stochastic(pattern: SparsityPattern, kernel: Callable, sets, table: Callable,
                rescale: bool) -> Method:
    """The record of a stochastic method whose law is one kept-set table.

    ``table(mags_t)`` takes the (m, n) magnitude rows of blocks scaled as
    below and returns per block the unnormalized probabilities of the kept
    ``sets``, as rows in set order, their total, and per entry its kept
    mass (the sum of its sets' rows, or that sum's closed form) and its
    survivor magnitude |a| / p in closed form. A set's probability is its
    row over the total, p the kept mass over the total and q the sum of
    the other rows over the total, never 1 - p. d is the q sum times
    (survivor / total) rescaled, and the smaller of the q sum and |a|
    times the larger over the total raw: 0 where the q sum is, and in
    range wherever d is.
    """
    dropped = _entry_columns(sets, pattern.m, held=False)

    def law(values):
        # Out-of-range blocks at a power-of-two scale, as the kernels draw
        # them, but a large one only to a largest magnitude in [2^1019,
        # 2^1020), where no sum of four overflows: a subnormal entry beside
        # it keeps all but at most four of its bits.
        mags_t = _magnitude_rows(_block_matrix(values, pattern.m))
        top = np.maximum.reduce(mags_t)
        out, exponent = _out_of_range(top), None
        if np.count_nonzero(out):
            exponent = np.where(out, np.frexp(top)[1] - 1020 * (top >= _HIGH), 0)
            mags_t = np.ldexp(mags_t, -exponent)
        return (*table(mags_t), mags_t, exponent)

    def probs(values, _):
        rows, total, kept = law(values)[:3]
        return (kept / total).T, (_set_sums(rows, dropped) / total).T

    def kept_set_probs(values):
        rows, total = law(values)[:2]
        return sets, (rows / total).T

    def deviation(values, _):
        rows, total, _, survivor, mags_t, exponent = law(values)
        q = _set_sums(rows, dropped)
        with np.errstate(invalid="ignore", over="ignore"):
            if rescale:
                d = q * (survivor / total)
            else:
                d = np.minimum(q, mags_t) * (np.maximum(q, mags_t) / total)
            return _unscale(np.where(q > 0.0, d, 0.0), exponent).T

    return Method(pattern, kernel, probs, kept_set_probs, rescale, deviation)


def _greedy_probs(values: np.ndarray, pattern: SparsityPattern) -> tuple[np.ndarray, np.ndarray]:
    keep = greedy_mask_array(values, pattern)
    return keep.astype(np.float64), (~keep).astype(np.float64)


def _method12(proportional: bool, rescale: bool) -> Method:
    return _stochastic(PATTERN_12, lambda v, u, _: prune_mvue12_array(v, u, proportional, rescale),
                       ((0,), (1,)), _table12 if proportional else _coin_table, rescale)


METHODS: dict[EstimatorKind, Method] = {
    EstimatorKind.GREEDY_MSE: Method(
        None,
        lambda v, u, pattern: prune_greedy_array(v, pattern),
        _greedy_probs,
        None,
        False,
        lambda v, pattern: np.where(greedy_mask_array(v, pattern), 0.0, np.abs(v)),
    ),
    EstimatorKind.MVUE12: _method12(proportional=True, rescale=True),
    EstimatorKind.MVUE24_EXACT: _stochastic(PATTERN_24, lambda v, u, _: prune_mvue24_exact_array(v, u),
                                            PAIR_INDEX_COLUMNS, _exact24_table, True),
    EstimatorKind.MVUE24_APPROX: _stochastic(PATTERN_24, lambda v, u, _: prune_mvue24_approx_array(v, u),
                                             PAIR_INDEX_COLUMNS, _approx24_table, True),
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


def _row_sum4(rows: np.ndarray) -> np.ndarray:
    """Sums of (n, 4) rows, their columns added left to right: the bits of
    ``rows.sum(axis=1)``, without numpy's slow reduction along a 4-long axis."""
    return rows[:, 0] + rows[:, 1] + rows[:, 2] + rows[:, 3]


def approx24_variance_array(values: np.ndarray) -> np.ndarray:
    """Total variance of the sequential 2:4 estimator per block."""
    return _row_sum4(entry_moments(values, EstimatorKind.MVUE24_APPROX)[0])


# ---------------------------------------------------------------------------
# Dispatch

# Blocks per kernel call in prune_array. Each chunk reuses the memory the
# last one freed instead of faulting in fresh pages; a float64 temporary of
# 16k 2:4 blocks is 512 KiB, and verify's 10k-draw calls take one chunk.
PRUNE_CHUNK_BLOCKS = 1 << 14


def _write(dest: np.ndarray, blocks: np.ndarray) -> None:
    """dest[...] = blocks, by entry position where these lie in rows: a faster transpose."""
    if blocks.strides[-1] == blocks.itemsize:
        dest[...] = blocks
    else:
        for i in range(blocks.shape[-1]):
            dest[..., i] = blocks[..., i]


def prune_array(
    values: np.ndarray,
    kind: EstimatorKind,
    pattern: SparsityPattern | None = None,
    stream: RandomStream | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Prune a (..., m) array of blocks, read in row-major order, such as a
    tensor's lane view from core._lane_blocks, with the given method.

    Returns (pruned values, keep mask) of the input's shape, the values in
    its dtype, float32 or float64: row-major, or column-major where the
    whole array repeats one block, as np.empty_like of a broadcast row.
    The kernel runs on chunks of at most PRUNE_CHUNK_BLOCKS blocks, whole
    lanes or part of one, one at a time, each drawing its uniforms in turn:
    exactly the uniforms of one draw. Blocks not in row-major order, as a
    lane view of any axis but the innermost, are first copied into the
    output, which each chunk's results then overwrite. Leading axes of
    stride 0, as from np.broadcast_to, repeat the blocks; the kernel gets
    them once. Out-of-range blocks are the kernels' to scale (see Method);
    a survivor beyond float64 is +-inf. Blocks that hold inf or NaN raise
    ValueError, a repeated block checked once.
    """
    pattern = resolve_pattern(kind, pattern)
    values = _float_data(values)
    if values.ndim < 2 or values.shape[-1] != pattern.m:
        raise ValueError(f"expected a (..., {pattern.m}) array of blocks, got shape {values.shape}")
    method = METHODS[kind]
    if kind.is_stochastic and stream is None:
        raise ValueError(f"method {kind.value!r} is stochastic and needs a RandomStream")

    def kernel(part: np.ndarray, reps: int) -> list[np.ndarray]:
        # The first reps axes repeat the blocks, row-major: a (k, m) view.
        blocks = part[(0,) * reps].reshape(-1, pattern.m)
        if not np.isfinite(blocks).all():
            raise ValueError(f"method {kind.value!r} needs finite blocks, got inf or NaN")
        draws = math.prod(part.shape[:reps])
        u = stream.uniforms((draws, len(blocks))) if kind.is_stochastic else None
        out, mask = method.kernel(blocks, u, pattern)
        # Greedy's (k, m) results broadcast over the repeats when written.
        return [a.reshape(part.shape[reps:] if a.ndim == 2 else part.shape) for a in (out, mask)]

    lead = values.shape[:-1]
    reps = next((i for i, n in enumerate(lead) if values.strides[i] or not n), len(lead))
    order = "F" if math.prod(lead[reps:]) == 1 else "C"
    out = np.empty(values.shape, values.dtype, order=order)
    mask = np.empty(values.shape, bool, order=order)
    distinct = values[(0,) * reps]
    if not distinct.flags.c_contiguous:  # copied once, into out where not repeated
        values = np.broadcast_to(_copy_blocks(distinct, None if reps else out), values.shape)
    # Chunks slice one dimension of the blocks' layout, the ones after it whole.
    axis = len(lead) - 1
    while axis and math.prod(lead[axis:]) <= PRUNE_CHUNK_BLOCKS:
        axis -= 1
    step = PRUNE_CHUNK_BLOCKS // max(math.prod(lead[axis + 1 :]), 1)
    for outer in itertools.product(*map(range, lead[:axis])):
        for start in range(0, lead[axis], step):
            rows = (*outer, slice(start, start + step))
            part, part_mask = kernel(values[rows], max(reps - axis, 0))
            if part.shape == values.shape and part.dtype == values.dtype and all(
                    a.flags.writeable and a.flags[f"{order}_CONTIGUOUS"] for a in (part, part_mask)):
                return part, part_mask  # one chunk whose results are laid out already
            _write(mask[rows], part_mask)
            # Survivors may overflow float32; the file writers refuse non-finite data.
            with np.errstate(over="ignore"):
                _write(out[rows], part)
    return out, mask


def prune_tensor(
    t: BlockedTensor,
    kind: EstimatorKind,
    pattern: SparsityPattern | None = None,
    stream: RandomStream | None = None,
) -> BlockedTensor:
    """Prune every whole block along t.block_axis; the tail passes through.

    Keeps the dtype of t.data, which must be finite (read_tensor checks).
    The blocks are pruned from a view of t, through prune_array.
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
