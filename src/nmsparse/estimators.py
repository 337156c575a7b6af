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
variance and error formula is derived from the record. A stochastic
method's law is one kept-set table, which gives its draws, its
probabilities and its error factor alike; one draw serves every table,
with one uniform per block and draw.
All functions treat a kept value of a zero entry as exact zero and use
the convention 0^2 / 0 = 0.
"""

from __future__ import annotations

import dataclasses
import enum
import math
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
# block's magnitudes are scaled by a power of two, which is exact, and its
# survivors and error factors are scaled back. A small block goes to a
# largest magnitude in [0.5, 1), a large one only to [2^1019, 2^1020),
# where no sum of four overflows: a subnormal entry beside it keeps all
# but at most four of its bits. Float32 blocks are never out of range.
_LOW, _HIGH = np.float64(2.0**-1000), np.float64(2.0**1000)


def _scaled_rows(values: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """(magnitude rows, exponent) of (n, m) blocks: their (m, n) magnitudes
    in the blocks' dtype, each out-of-range block's scaled by 2**-e, and e
    per block (0 for the others), or None when every block is in range."""
    mags_t = _magnitude_rows(values)
    top = np.maximum.reduce(mags_t)
    out = (top >= _HIGH) | ((top < _LOW) & (top > 0.0))
    if not np.count_nonzero(out):
        return mags_t, None
    exponent = np.where(out, np.frexp(top)[1] - 1020 * (top >= _HIGH), 0)
    return np.ldexp(mags_t, -exponent), exponent


def _unscale(rows: np.ndarray, exponent: np.ndarray | None) -> np.ndarray:
    """Undo _scaled_rows's scaling of (..., n) rows of n blocks; beyond
    float64 is +-inf."""
    if exponent is None:
        return rows
    with np.errstate(over="ignore"):
        return np.ldexp(rows, exponent)


def _magnitude_rows(values: np.ndarray) -> np.ndarray:
    """Magnitudes of (n, m) blocks as contiguous (m, n) rows."""
    return np.abs(values.T, out=np.empty(values.shape[::-1], dtype=values.dtype))


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


def _ranks(rows: np.ndarray, ahead: Callable) -> np.ndarray:
    """(m, n) ranks of (m, n) rows: the rank of row c counts the rows ahead
    of it, a later row ahead of an earlier one only where ``ahead(later,
    earlier)``, so equal values keep their index order, as in a stable
    argsort. Row i is compared with all later rows at once."""
    ranks = np.zeros(rows.shape, dtype=np.uint8)
    for i in range(len(rows) - 1):
        later = ahead(rows[i + 1 :], rows[i])
        ranks[i] += later.sum(axis=0, dtype=np.uint8)
        ranks[i + 1 :] += ~later
    return ranks


# ---------------------------------------------------------------------------
# Greedy magnitude masking


def greedy_mask_array(values: np.ndarray, pattern: SparsityPattern) -> np.ndarray:
    """Keep-masks for the pattern.kept largest magnitudes per block: the
    ranks of the magnitudes, largest first.

    Ties are broken toward the lower index, so the result is deterministic.
    """
    values = _float_blocks(values, pattern.m)
    mask = np.empty(values.shape, dtype=bool)
    np.less(_ranks(_magnitude_rows(values), np.greater), pattern.kept, out=mask.T)
    return mask


def prune_greedy_array(
    values: np.ndarray, pattern: SparsityPattern
) -> tuple[np.ndarray, np.ndarray]:
    values = _float_blocks(values, pattern.m)
    mask = greedy_mask_array(values, pattern)
    return _where_kept(mask, values), mask


# ---------------------------------------------------------------------------
# 1:2 estimators


def _table12(mags_t: np.ndarray):
    """Magnitude-proportional 1:2 selection (see _stochastic): index 1 is
    drawn where u >= |a_0| / (|a_0| + |a_1|), over a total of 1, which no
    u is for an all-zero block (0 / 0). The rows and kept masses are |a_0|
    and |a_1|, or 1 and 0 for an all-zero block; mvue12's survivor is their
    sum."""
    mags_t = mags_t.astype(np.float64, copy=False)
    total = mags_t[0] + mags_t[1]

    def draw():
        with np.errstate(invalid="ignore"):
            return (mags_t[0] / total,), 1.0, None, total

    def stats():
        empty = total == 0.0
        rows = np.where(empty, ((1.0,), (0.0,)), mags_t)
        return rows, np.where(empty, 1.0, total), rows, total

    return draw, stats


def _coin_table(mags_t: np.ndarray):
    """The fair coin (see _stochastic): index 1 is drawn where u >= 1/2.
    Constant rows, and unbiased-uniform's survivor 2 |a|."""
    def stats():
        rows = np.ones(mags_t.shape)
        return rows, 2.0, rows, 2.0 * mags_t

    return lambda: ((0.5,), 1.0, None, 2.0 * mags_t), stats


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
#   0, max(2 b1 - (b4 - b3), 0) / 4, b1,
#   b1 + max(min(2 b2 - (b4 - b3), 2 ((b1 + b2) - (b4 - b3))), 0) / 4, b1 + b2
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
# Per position, the columns of the three pairs that hold it.
_HOLDING_PAIRS = _entry_columns(PAIR_INDEX_COLUMNS, 4)


def _sort4(mags_t: np.ndarray) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Sorted rows b1 <= b2 <= b3 <= b4 of (4, n) magnitudes, and ranks.

    The five-comparator sorting network gives the sorted magnitudes, and
    the ranks are those of the magnitudes, smallest first.
    """
    m0, m1, m2, m3 = mags_t
    lo01, hi01 = np.minimum(m0, m1), np.maximum(m0, m1)
    lo23, hi23 = np.minimum(m2, m3), np.maximum(m2, m3)
    b1, mid_lo = np.minimum(lo01, lo23), np.maximum(lo01, lo23)
    mid_hi, b4 = np.minimum(hi01, hi23), np.maximum(hi01, hi23)
    b2, b3 = np.minimum(mid_lo, mid_hi), np.maximum(mid_lo, mid_hi)
    return (b1, b2, b3, b4), _ranks(mags_t, np.less)


def _exact24_sums(mags_t: np.ndarray):
    """(ranks, scale, running sums, all-zero blocks, blocks with three
    zeros) of (4, n) magnitude rows of in-range blocks, as in the
    comment above; the four running sums after the leading 0 are scaled
    like ``scale``, which is the last one. Sorted and ranked in the rows'
    dtype, which is exact; the sums are float64."""
    (b1, b2, b3, b4), ranks = _sort4(mags_t)
    b1, b2, b3, b4 = (b.astype(np.float64, copy=False) for b in (b1, b2, b3, b4))
    small = b1 + b2 + b3
    scale = np.where(b4 > small, small, 0.5 * (small + b4))
    # b4 - b3 first, exact where b4 <= 2 b3: no clip loses b1 or b2 beside
    # b3, though their sum with b3 may round to b4. b1 + b2 is formed twice,
    # as one held from here cost 16k-block float32 calls 10% in page faults.
    gap = b4 - b3
    middle = np.maximum(np.minimum(2.0 * b2 - gap, 2.0 * ((b1 + b2) - gap)), 0.0)
    sums = (0.25 * np.maximum(2.0 * b1 - gap, 0.0), b1, b1 + 0.25 * middle, b1 + b2)
    return ranks, scale, sums, b4 == 0.0, (small == 0.0) & (b4 > 0.0)


def _exact24_table(mags_t: np.ndarray):
    """mvue24's law (see _stochastic): the pairs of sorted positions drawn
    from the running sums of the comment above, with the leading 0, over
    the scale; the survivors max(scale, |a|), float32 for a float32 block:
    float32(max(scale, |a|)) is max(float32(scale), |a|), as rounding is
    monotone, and beyond float32 +-inf. A degenerate block draws the pairs
    of tied zeros (all-zero) or of the max and a zero (three zeros) evenly,
    from running sums 1 to 5 of 6, or 0, 0, 1, 1, 2 of 3. The statistics'
    rows are the sums' differences, in index-pair order, and their kept
    masses the closed form min(|a|, scale): a sum of three differences
    rounds up to 4 ulps apart from it and so from the survivors."""
    ranks, scale, sums, all_zero, three_zero = _exact24_sums(mags_t)
    *running, total = np.zeros_like(scale), *sums, scale
    degenerate = np.flatnonzero(all_zero | three_zero)
    if len(degenerate):  # columns: all-zero, three zeros
        steps = np.array([[1, 0], [2, 0], [3, 1], [4, 1], [5, 2], [6, 3]], dtype=np.float64)
        total = scale.copy()  # the survivors read the scale
        for row, step in zip((*running, total), steps.take(three_zero[degenerate], axis=1)):
            row[degenerate] = step

    def draw():
        with np.errstate(over="ignore"):
            return running, total, ranks, np.maximum(scale.astype(mags_t.dtype, copy=False), mags_t)

    def stats():
        rows = np.diff(np.stack((np.zeros_like(total), *running, total)), axis=0)
        kept = np.minimum(mags_t, total)
        # A degenerate block's entry is in 3 of its 6 or 3 pairs, a zero beside the max in 1.
        kept[:, degenerate] = np.where(mags_t[:, degenerate] > 0.0, 3.0, 3.0 - 2.0 * three_zero[degenerate])
        # Index pair (i, j) is the sorted pair of their ranks: gathered from
        # the flat rows, far faster than fancy indexing by (ranks, ranks).
        pairs = ranks.take(_PAIR_FIRST, axis=0) * np.uint8(4) + ranks.take(_PAIR_SECOND, axis=0)
        flat = _PAIR_COLUMN.ravel().take(pairs) * len(total) + np.arange(len(total))
        return rows.take(flat), total, kept, np.maximum(scale, mags_t)

    return draw, stats


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
# and of differences.

# Per position, the other three.
_OTHER_POSITIONS = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])


def _approx24_table(mags_t: np.ndarray):
    """approx24's law (see _stochastic): the pairs drawn in index order from
    the running sums of their probabilities, normalized already (total 1),
    formed one first pick at a time to hold few rows, an all-zero block's
    first pick uniform; the running sums are formed in place. p is the sum
    of an entry's three pairs and the survivor |a| / p, formed in place of
    p, NaN or inf where p is 0, for an entry never drawn. Float32 magnitudes
    are widened. Where p is subnormal or 0, and so |a| / p could be far from
    its rounded value, the statistics take the survivor's closed form, the
    ratio of sums S / (1 + sum_{k != i} w_k), w_k = |a_k| / (S - |a_k|),
    since p_i = |a_i| (1 + sum_{k != i} w_k) / S: entry i is drawn first, or
    second after some k."""
    mags_t = mags_t.astype(np.float64, copy=False)
    total = mags_t[0] + mags_t[1] + mags_t[2] + mags_t[3]
    with np.errstate(invalid="ignore", divide="ignore"):
        share = mags_t / total
        share[:, total == 0.0] = 0.25
        del total
        rows = np.zeros((6, mags_t.shape[1]))
        for i, (j, k, l) in enumerate(_OTHER_POSITIONS):
            rest = mags_t[j] + mags_t[k] + mags_t[l]
            empty = rest == 0.0
            for partner in (j, k, l):
                term = mags_t[partner] / rest
                term[empty] = 1.0 / 3.0
                term *= share[i]
                rows[_PAIR_COLUMN[i, partner]] += term
    del share, rest, empty, term  # freed before the kept masses are formed
    kept = _set_sums(rows, _HOLDING_PAIRS)

    def draw():
        for c in range(1, 6):
            rows[c] += rows[c - 1]  # far faster than np.cumsum on rows
        with np.errstate(invalid="ignore", divide="ignore"):
            return rows[:5], rows[5], None, np.divide(mags_t, kept, out=kept)

    def stats():
        # w is inf where the other entries sum to a subnormal far below
        # |a_k|; the survivors beside that entry are then 0.
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            w = mags_t / mags_t[_OTHER_POSITIONS].sum(axis=1)
            closed = mags_t.sum(axis=0) / (1.0 + w[_OTHER_POSITIONS].sum(axis=1))
            return rows, 1.0, kept, np.where(kept >= np.finfo(np.float64).tiny, mags_t / kept, closed)

    return draw, stats


def approx24_pair_probs(values: np.ndarray) -> np.ndarray:
    """Pair probabilities for the sequential sampler, columns PAIR_INDEX_COLUMNS."""
    return METHODS[EstimatorKind.MVUE24_APPROX].kept_set_probs(values)[1]


def approx24_exclusion_probs(values: np.ndarray) -> np.ndarray:
    """P(entry dropped) under the sequential sampler, per block entry: a
    sum of pair probabilities, so a near-certain survivor (q around 1e-12)
    keeps full relative precision where 1 - p would be rounding noise."""
    return METHODS[EstimatorKind.MVUE24_APPROX].probs(values, None)[1]


# ---------------------------------------------------------------------------
# Method records


@dataclasses.dataclass(frozen=True)
class Method:
    """One pruning method.

    ``kernel(values, u, pattern)`` draws (k, m) blocks r times, u of shape
    (r, k), one uniform per block and draw, doing each block's work once,
    and returns (values, keep mask), broadcastable to (r, k, m). A
    stochastic kernel draws from the kept-set table that gives its
    statistics, at the same power-of-two scale, so that a block's draws
    follow its probabilities at every finite scale (but for mvue24 on
    blocks that span more than float64's range) and do not depend on the
    other blocks. ``probs(values, pattern)`` gives each entry's keep and
    drop probabilities (p, q), formed separately so that neither loses
    precision near 0. ``kept_set_probs(values)`` gives the kept-index sets
    and, per block, their probabilities; it is None for greedy, the one
    deterministic method, whose kernel takes no uniforms and reads no
    scale. With ``rescale`` survivors are divided by p (Horvitz-Thompson),
    which makes the method unbiased.

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


def _stochastic(pattern: SparsityPattern, sets, table: Callable, rescale: bool) -> Method:
    """The record of a stochastic method whose law is one kept-set table.

    ``table(mags_t)`` takes the (m, n) magnitude rows of blocks scaled by
    _scaled_rows and returns a pair of functions (draw, stats), of which the
    caller calls one, as each may reuse the table's rows. ``draw()`` gives
    (running, total, positions, survivor): a draw keeps the set c where c of
    the ``running`` sums lie at or below u * total, the running sums of the
    sets' probabilities in draw order, times the total, after the first
    set's; ``positions`` is each entry's bit in the sets' bit codes, (m, n)
    ranks or None for index order, and ``survivor`` is |a| / p. The kernel
    writes sign(a) times the survivor where kept, rescaled, and a itself
    raw. ``stats()`` gives (rows, total, kept, survivor): the sets'
    unnormalized probabilities as rows in set order, their total, each
    entry's kept mass (the sum of its sets' rows, or that sum's closed form)
    and its survivor. A set's probability is its row over the total, p the
    kept mass over the total and q the sum of the other rows over the total,
    never 1 - p. d is the q sum times (survivor / total) rescaled, and the
    smaller of the q sum and |a| times the larger over the total raw: 0
    where the q sum is, and in range wherever d is.
    """
    bits = np.array([sum(1 << i for i in kept) for kept in sets], dtype=np.uint8)
    holders = np.bitwise_or.reduce(1 << _entry_columns(sets, pattern.m), axis=1)
    holders = holders.astype(np.uint8)[:, None, None]
    dropped = _entry_columns(sets, pattern.m, held=False)

    def kernel(values, u, _=None):
        values = _float_blocks(values, pattern.m)
        lead, u = u.shape[:-1], u.reshape(math.prod(u.shape[:-1]), len(values))
        mags_t, exponent = _scaled_rows(values)
        running, total, positions, survivor = table(mags_t)[0]()
        del mags_t  # the table's rows are freed before the output's are made
        x = u * total
        col = (x >= running[0]).view(np.uint8)
        for sums in running[1:]:
            col += x >= sums
        del x, running, total
        # An entry is kept when the drawn set holds it: in index order each
        # entry has its own bits over the sets, else each set over the ranks.
        if positions is None:
            keep = np.bitwise_and(holders >> col, 1).view(bool)
        else:
            keep = np.bitwise_and(bits.take(col) >> positions[:, None], 1).view(bool)
        if rescale:
            # A kept zero is +0; copysign leaves no 0 * inf (NaN) where a float32
            # survivor overflowed. Contiguous signs: strided rows slow later passes.
            signs = np.sign(values.T, out=np.empty(values.shape[::-1], np.result_type(values, survivor)))
            survivors = _unscale(np.copysign(survivor, signs, out=signs), exponent)
        else:
            survivors = values.T
        return _from_rows(_where_kept(keep, survivors[:, None]), lead), _from_rows(keep, lead)

    def law(values):
        mags_t, exponent = _scaled_rows(_block_matrix(values, pattern.m))
        return (*table(mags_t)[1](), mags_t, exponent)

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


_SINGLETONS = ((0,), (1,))
_MVUE12 = _stochastic(PATTERN_12, _SINGLETONS, _table12, True)
_MVUE24 = _stochastic(PATTERN_24, PAIR_INDEX_COLUMNS, _exact24_table, True)
_APPROX24 = _stochastic(PATTERN_24, PAIR_INDEX_COLUMNS, _approx24_table, True)


def prune_mvue12_array(values: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """mvue12's kernel (see Method): (n, 2) blocks, u of shape (..., n)."""
    return _MVUE12.kernel(values, u)


def prune_mvue24_exact_array(values: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """mvue24's kernel (see Method): (n, 4) blocks, u of shape (..., n)."""
    return _MVUE24.kernel(values, u)


def prune_mvue24_approx_array(values: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """approx24's kernel (see Method): (n, 4) blocks, u of shape (..., n)."""
    return _APPROX24.kernel(values, u)


# prune_array reaches the three kernels above by their names, so that a
# wrapper set on a name, as a tracer sets one, sees every call.
METHODS: dict[EstimatorKind, Method] = {
    EstimatorKind.GREEDY_MSE: Method(
        None,
        lambda v, u, pattern: prune_greedy_array(v, pattern),
        _greedy_probs,
        None,
        False,
        lambda v, pattern: np.where(greedy_mask_array(v, pattern), 0.0, np.abs(v)),
    ),
    EstimatorKind.MVUE12: dataclasses.replace(
        _MVUE12, kernel=lambda v, u, _: prune_mvue12_array(v, u)),
    EstimatorKind.MVUE24_EXACT: dataclasses.replace(
        _MVUE24, kernel=lambda v, u, _: prune_mvue24_exact_array(v, u)),
    EstimatorKind.MVUE24_APPROX: dataclasses.replace(
        _APPROX24, kernel=lambda v, u, _: prune_mvue24_approx_array(v, u)),
    EstimatorKind.BIASED12: _stochastic(PATTERN_12, _SINGLETONS, _table12, False),
    EstimatorKind.UNIFORM12: _stochastic(PATTERN_12, _SINGLETONS, _coin_table, False),
    EstimatorKind.UNBIASED_UNIFORM12: _stochastic(PATTERN_12, _SINGLETONS, _coin_table, True),
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
    its dtype, float32 or float64: row-major, or where the whole array
    repeats one block, each entry's draws contiguous, as np.empty_like
    lays out a broadcast (draws, m) row. Leading axes of stride 0, as from
    np.broadcast_to, are draws that repeat the blocks. The kernel runs on
    chunks of at most PRUNE_CHUNK_BLOCKS blocks, whole draws or part of
    one, in row-major order, each drawing its uniforms in turn: exactly
    the uniforms of one draw. It gets a chunk's blocks once, however many
    draws. Blocks not in row-major order, as a lane view of any axis but
    the innermost, are first copied into the output, which each chunk's
    results overwrite. Out-of-range blocks are the kernels' to scale (see
    Method); a survivor beyond float64 is +-inf. Blocks that hold inf or
    NaN raise ValueError. An empty array draws nothing.
    """
    pattern = resolve_pattern(kind, pattern)
    values = _float_data(values)
    if values.ndim < 2 or values.shape[-1] != pattern.m:
        raise ValueError(f"expected a (..., {pattern.m}) array of blocks, got shape {values.shape}")
    method = METHODS[kind]
    if kind.is_stochastic and stream is None:
        raise ValueError(f"method {kind.value!r} is stochastic and needs a RandomStream")
    if not values.size:
        return np.empty(values.shape, values.dtype), np.empty(values.shape, bool)

    reps = next((i for i, stride in enumerate(values.strides[:-1]) if stride), values.ndim - 1)
    draws, blocks = math.prod(values.shape[:reps]), math.prod(values.shape[reps:-1])
    order = "F" if blocks == 1 else "C"
    out = np.empty((draws, blocks, pattern.m), values.dtype, order=order)
    mask = np.empty(out.shape, bool, order=order)
    source = values[(0,) * reps]
    if not source.flags.c_contiguous:  # copied once, into out where not repeated
        source = _copy_blocks(source, None if reps else out.reshape(source.shape))
    source = source.reshape(blocks, pattern.m)
    step, width = max(PRUNE_CHUNK_BLOCKS // blocks, 1), min(blocks, PRUNE_CHUNK_BLOCKS)
    for draw in range(0, draws, step):
        for start in range(0, blocks, width):
            rows = (slice(draw, draw + step), slice(start, start + width))
            part = source[rows[1]]
            if not np.isfinite(part).all():
                raise ValueError(f"method {kind.value!r} needs finite blocks, got inf or NaN")
            u = stream.uniforms((min(step, draws - draw), len(part))) if kind.is_stochastic else None
            # Greedy's (k, m) results broadcast over the draws when written.
            part_out, part_mask = (a.reshape(-1, *a.shape[-2:]) for a in method.kernel(part, u, pattern))
            if part_out.shape == out.shape and part_out.dtype == out.dtype and all(
                    a.flags.writeable and a.flags[f"{order}_CONTIGUOUS"] for a in (part_out, part_mask)):
                # One chunk whose results are laid out already.
                return part_out.reshape(values.shape), part_mask.reshape(values.shape)
            _write(mask[rows], part_mask)
            # Survivors may overflow float32; the file writers refuse non-finite data.
            with np.errstate(over="ignore"):
                _write(out[rows], part_out)
    return out.reshape(values.shape), mask.reshape(values.shape)


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
    blocks = prune_array(blocks, kind, pattern, stream)[0]
    blocks.setflags(write=False)
    # Coded before the merge allocates the output: their temporaries never meet.
    split = _coded(blocks, tail)
    out = merge_axis(split[0], tail, t.shape, t.block_axis)
    _coded_split(out, pattern.m, split)  # no second split
    return out
