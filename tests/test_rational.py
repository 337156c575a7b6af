"""Every method's float statistics against its exact rational law.

The blocks are seeded: random ones whose nonzero magnitudes span at most
2^20, at power-of-two scales from 2^-900 to 2^900, and all-zero,
three-zero, tied and regime-boundary ones. Each statistic must be 0
exactly where its rational value is 0, and elsewhere within the stated
relative bound where the value is a normal float64: below that range
the float may round to a subnormal or to 0, and above it to inf.
"""

import sys
from fractions import Fraction

import numpy as np
import pytest

from nmsparse.core import SparsityPattern
from nmsparse.estimators import METHODS, EstimatorKind, entry_moments
from nmsparse.rng import RandomStream

from rational import law

SCALES = (-900, -600, -300, -60, 0, 60, 300, 600, 900)
TINY = Fraction(2.0**-1022)
HUGE = Fraction(sys.float_info.max)

# The largest relative error of each statistic on these blocks, over all
# methods, measured with the formulas that preceded the kept-set tables
# and rounded up. Their worst was mvue24's q = 1 - p and what follows from
# it (1.2e-13); the tables' q sums measure 7.5e-16 at most.
BOUNDS = {
    "set_probs": 1e-15,
    "p": 5e-16,
    "q": 2e-13,
    "d": 2e-13,
    "error": 2e-13,
    "variance": 2e-13,
}


def random_blocks(m: int, count: int, stream: RandomStream) -> np.ndarray:
    """Signed blocks of magnitudes in [2^-20, 1), an eighth of them 0."""
    mags = np.ldexp(0.5 + 0.5 * stream.uniforms((count, m)), -stream.integers(0, 20, (count, m)))
    mags[stream.uniforms((count, m)) < 0.125] = 0.0
    return np.where(stream.uniforms((count, m)) < 0.5, -mags, mags)


def boundary_blocks(count: int, stream: RandomStream) -> np.ndarray:
    """Integer 2:4 blocks at the regime boundaries b4 = 2 b1 + b3 and
    b4 = b1 + b2 + b3, exact in float64, shuffled and signed."""
    b = np.sort(stream.integers(1, 2**17, (count, 3)), axis=1).astype(np.float64)
    top = np.where(np.arange(count) % 2, 2 * b[:, 0] + b[:, 2], b.sum(axis=1))
    blocks = np.column_stack([b, top])
    blocks = np.take_along_axis(blocks, np.argsort(stream.uniforms((count, 4)), axis=1), axis=1)
    return np.where(stream.uniforms((count, 4)) < 0.5, -blocks, blocks)


SPECIAL_24 = [
    [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 7.0, 0.0], [-3.0, 0.0, 0.0, 0.0], [0.0, 3.0, 0.0, 4.0],
    [1.0, 1.0, 1.0, 1.0], [2.0, -2.0, 1.0, 1.0], [3.0, 3.0, 3.0, 1.0], [1.0, 1.0, 1.0, 4.0],
    [1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 5.0], [1.0, 2.0, 3.0, 6.0], [5.0, 3.0, -1.0, 1.0],
]
SPECIAL_12 = [[0.0, 0.0], [0.0, -3.0], [5.0, 0.0], [2.0, 2.0], [1.0, -3.0]]


def sample(m: int) -> np.ndarray:
    stream = RandomStream(2027, stream=m)
    special = np.array(SPECIAL_24 if m == 4 else SPECIAL_12)
    parts = [random_blocks(m, 60, stream), special]
    if m == 4:
        parts.append(boundary_blocks(6, stream))
    unit = np.concatenate(parts)
    return np.concatenate([np.ldexp(unit, k) for k in SCALES])


def float_statistics(kind: EstimatorKind, blocks: np.ndarray, pattern: SparsityPattern) -> dict:
    method = METHODS[kind]
    p, q = method.probs(blocks, pattern)
    error, variance = entry_moments(blocks, kind, pattern)
    stats = {"p": p, "q": q, "d": method.deviation(blocks, pattern),
             "error": error, "variance": variance}
    if method.kept_set_probs is not None:
        stats["set_probs"] = method.kept_set_probs(blocks)[1]
    return stats


def worst_errors(kind: EstimatorKind, m: int) -> tuple[dict, list]:
    """The largest relative error of each statistic over the sample, and
    the (statistic, block, entry, float, rational) of every value that
    breaks the zero rule or the range rule."""
    pattern = kind.required_pattern or SparsityPattern(m // 2, m)
    blocks = sample(m)
    got = float_statistics(kind, blocks, pattern)
    worst = dict.fromkeys(got, 0.0)
    broken = []
    for row, block in enumerate(blocks):
        exact = law(kind, block, pattern.kept)._asdict()
        for name, floats in got.items():
            for col, (f, r) in enumerate(zip(floats[row], exact[name])):
                if r is None:
                    continue
                r, f = abs(r), float(f)
                if r == 0 or TINY <= r <= HUGE:
                    if not np.isfinite(f) or (r == 0) != (f == 0.0):
                        broken.append((name, block, col, f, r))
                    elif r:
                        worst[name] = max(worst[name], float(abs(Fraction(f) - r) / r))
                elif not (f == np.inf if r > HUGE else 0.0 <= f <= 2 * TINY):
                    broken.append((name, block, col, f, r))
    return worst, broken


CASES = [(kind, kind.required_pattern.m if kind.required_pattern else m)
         for kind in EstimatorKind for m in ((2, 4) if kind.required_pattern is None else (0,))]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("kind,m", CASES, ids=[f"{k.value}-{m}" for k, m in CASES])
def test_float_statistics_match_the_rational_law(kind, m):
    worst, broken = worst_errors(kind, m)
    assert not broken, broken[:5]
    for name, error in worst.items():
        assert error <= BOUNDS[name], (name, error)
