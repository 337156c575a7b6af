"""Exact rational laws of every pruning method, the judge of the float
statistics.

``law(kind, block)`` takes a block of floats exactly and gives, as
``fractions.Fraction``, the method's kept-set probabilities in its
record's set order (None for greedy, which keeps one set surely), and per
entry the keep and drop probabilities p and q, the error factor d (q |a|
/ p rescaled, q |a| raw; None for a zero entry, whose error is 0 whatever
d is), the expected squared error and the variance.

The 2:4 laws follow the regime comment in ``nmsparse.estimators``: the
exact sampler on sorted magnitudes b1 <= b2 <= b3 <= b4 (ties in index
order), and ``approx24`` as two sequential magnitude-proportional draws.
"""

from fractions import Fraction
from typing import NamedTuple

from nmsparse.estimators import PAIR_INDEX_COLUMNS, EstimatorKind

ONE_OF_TWO = ((0,), (1,))


class Law(NamedTuple):
    sets: tuple | None
    set_probs: list | None
    p: list
    q: list
    d: list
    error: list
    variance: list


def _exact24(mags: list) -> list:
    """Pair probabilities in PAIR_INDEX_COLUMNS order."""
    order = sorted(range(4), key=lambda i: (mags[i], i))
    b1, b2, b3, b4 = (mags[i] for i in order)
    small = b1 + b2 + b3
    # On sorted positions (k, l), k < l.
    if b4 == 0:  # ties among zeros are resolved uniformly
        law = dict.fromkeys(PAIR_INDEX_COLUMNS, Fraction(1, 6))
    elif small == 0:  # the max and one of the three zeros
        law = {pair: Fraction(1, 3) if pair[1] == 3 else Fraction(0) for pair in PAIR_INDEX_COLUMNS}
    elif b4 > small:  # regime 3: the max always, its partner by magnitude
        law = {(k, l): (b1, b2, b3)[k] / small if l == 3 else Fraction(0)
               for k, l in PAIR_INDEX_COLUMNS}
    else:
        # Regimes 1 and 2: marginals 2 b_k / S with the pair (1, 2)
        # excluded; the pair (1, 3) gets (2 b1 + b3 - b4) / (2 S) in regime
        # 1, the split the running sums make, and 0 in regime 2.
        total = small + b4
        pi = [2 * b / total for b in (b1, b2, b3, b4)]
        x = max(2 * b1 + b3 - b4, 0) / (2 * total)
        rest = 1 - pi[0]  # the pairs without position 0
        law = {(0, 1): Fraction(0), (0, 2): x, (0, 3): pi[0] - x,
               (1, 2): rest - (pi[3] - pi[0]) - x, (1, 3): rest - pi[2] + x,
               (2, 3): rest - pi[1]}
    return [law[tuple(sorted((order.index(i), order.index(j))))] for i, j in PAIR_INDEX_COLUMNS]


def _approx24(mags: list) -> list:
    """Pair probabilities of two sequential draws: the first pick by
    magnitude (uniform for an all-zero block), then the partner by
    magnitude among the other three (uniform if they are all 0)."""
    total = sum(mags)
    law = dict.fromkeys(PAIR_INDEX_COLUMNS, Fraction(0))
    for i, a in enumerate(mags):
        first = a / total if total else Fraction(1, 4)
        rest = total - a
        for j, b in enumerate(mags):
            if j != i:
                law[tuple(sorted((i, j)))] += first * (b / rest if rest else Fraction(1, 3))
    return list(law.values())


def _proportional12(mags: list) -> list:
    total = sum(mags)
    return [m / total for m in mags] if total else [Fraction(1), Fraction(0)]


def _greedy(mags: list, kept: int) -> list:
    """Keep indicators of the ``kept`` largest magnitudes, ties to the lower index."""
    order = sorted(range(len(mags)), key=lambda i: (-mags[i], i))
    return [Fraction(int(i in order[:kept])) for i in range(len(mags))]


def law(kind: EstimatorKind, block, kept: int = 2) -> Law:
    """The exact law of ``kind`` on one block of floats; ``kept`` is the
    kept count of greedy, whose block length is the block's."""
    a = [Fraction(float(v)) for v in block]
    mags = [abs(v) for v in a]
    if kind is EstimatorKind.GREEDY_MSE:
        sets, set_probs, p = None, None, _greedy(mags, kept)
    else:
        if kind is EstimatorKind.MVUE24_EXACT:
            sets, set_probs = PAIR_INDEX_COLUMNS, _exact24(mags)
        elif kind is EstimatorKind.MVUE24_APPROX:
            sets, set_probs = PAIR_INDEX_COLUMNS, _approx24(mags)
        elif kind in (EstimatorKind.MVUE12, EstimatorKind.BIASED12):
            sets, set_probs = ONE_OF_TWO, _proportional12(mags)
        else:
            sets, set_probs = ONE_OF_TWO, [Fraction(1, 2)] * 2
        p = [sum((s for s, kept_set in zip(set_probs, sets) if i in kept_set), Fraction(0))
             for i in range(len(a))]
    q = [1 - pi for pi in p]
    if kind.is_unbiased:
        d = [qi * m / pi if m else None for m, pi, qi in zip(mags, p, q)]
        error = [m * di if m else Fraction(0) for m, di in zip(mags, d)]
        variance = error
    else:
        d = [qi * m if m else None for m, qi in zip(mags, q)]
        error = [m * di if m else Fraction(0) for m, di in zip(mags, d)]
        variance = [m * m * pi * qi for m, pi, qi in zip(mags, p, q)]
    return Law(sets, set_probs, p, q, d, error, variance)
