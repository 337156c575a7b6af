"""Monte-Carlo and closed-form analysis of the pruning estimators.

Provides repeated-draw reports for empirical mean/variance/frequency
checks, the analytic variance-ratio scan over 2:4 blocks, the sorted-block
variance-gap identity, expected multiply-accumulate counts for random mask
overlap, and an exhaustive-search oracle for minimum-MSE masks.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .core import Block, BlockMask, SparsityPattern, _bit_codes
from .estimators import (
    METHODS,
    EstimatorKind,
    approx24_variance_array,
    elementwise_variance_array,
    entry_moments,
    prune_array,
    resolve_pattern,
)
from .rng import RandomStream


# ---------------------------------------------------------------------------
# Monte-Carlo estimation


@dataclass(frozen=True)
class McReport:
    """Summary of repeated stochastic pruning of one block.

    Frequencies map kept-index tuples to their empirical rate and sum to 1.
    ``mean_se`` is the per-component standard error of ``empirical_mean``;
    ``mse_mean``/``mse_se`` describe the per-draw squared block error,
    whose expectation equals the estimator's total variance plus the
    squared bias.
    """

    block: tuple[float, ...]
    kind: EstimatorKind
    samples: int
    seed: int
    empirical_mean: np.ndarray
    empirical_var: np.ndarray
    mean_se: np.ndarray
    mse_mean: float
    mse_se: float
    pair_frequencies: dict[tuple[int, ...], float]


def mc_estimate(
    block: Block,
    kind: EstimatorKind,
    samples: int,
    seed: int,
    pattern: SparsityPattern | None = None,
) -> McReport:
    """Draw the estimator ``samples`` times and summarize the results.

    Identical (block, kind, samples, seed) inputs produce identical
    reports.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    pattern = _pattern_for(kind, pattern, len(block))
    stream = RandomStream(seed)
    tiled = np.broadcast_to(block.values, (samples, pattern.m))
    out, mask = prune_array(tiled, kind, pattern, stream)
    # Each column's draws summed pairwise, whatever prune_array's layout.
    out = np.asfortranarray(out)

    mean = out.mean(axis=0)
    var = out.var(axis=0, ddof=1) if samples > 1 else np.zeros(pattern.m)
    mean_se = np.sqrt(var / samples)
    diff = out - block.values
    mse_draws = np.einsum("ij,ij->i", diff, diff)
    mse_mean = float(mse_draws.mean())
    mse_se = float(mse_draws.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0

    codes = _bit_codes(mask)
    counts = np.bincount(codes, minlength=1 << pattern.m)
    freqs: dict[tuple[int, ...], float] = {}
    for code in np.flatnonzero(counts):
        kept = tuple(i for i in range(pattern.m) if code & (1 << i))
        freqs[kept] = counts[code] / samples

    return McReport(
        block=tuple(float(v) for v in block.values),
        kind=kind,
        samples=samples,
        seed=seed,
        empirical_mean=mean,
        empirical_var=var,
        mean_se=mean_se,
        mse_mean=mse_mean,
        mse_se=mse_se,
        pair_frequencies=freqs,
    )


def _pattern_for(
    kind: EstimatorKind, pattern: SparsityPattern | None, block_len: int
) -> SparsityPattern:
    if kind is EstimatorKind.GREEDY_MSE and pattern is None:
        # Default greedy density: keep half the block.
        pattern = SparsityPattern(block_len // 2, block_len)
    return resolve_pattern(kind, pattern)


# ---------------------------------------------------------------------------
# Exhaustive minimum-MSE oracle


def brute_force_min_mse_mask(
    block: Block, pattern: SparsityPattern
) -> tuple[BlockMask, float]:
    """Enumerate all keep-sets and return the minimum-MSE mask.

    The MSE of a mask is the sum of squares of the dropped entries. Ties
    resolve to the lexicographically smallest kept-index tuple, which
    coincides with greedy lowest-index tie-breaking.
    """
    if len(block) != pattern.m:
        raise ValueError(f"block length {len(block)} does not match pattern {pattern}")
    best_combo: tuple[int, ...] | None = None
    best_mse = math.inf
    values = block.values
    for combo in itertools.combinations(range(pattern.m), pattern.kept):
        dropped = [i for i in range(pattern.m) if i not in combo]
        mse = float(sum(values[i] ** 2 for i in dropped))
        if mse < best_mse:
            best_mse = mse
            best_combo = combo
    kept = np.zeros(pattern.m, dtype=bool)
    kept[list(best_combo)] = True
    return BlockMask(kept, pattern), best_mse


# ---------------------------------------------------------------------------
# Variance-gap identity
#
# For sorted magnitudes b1 <= b2 <= b3 <= b4, the optimal unconstrained
# 2:4 variance with marginals 2 b_k / S expands to
#     V = sum_{i<j} b_i b_j - (1/2) sum_k b_k^2,
# and pairing the two smallest and two largest into 1:2 blocks costs
#     2 b1 b2 + 2 b3 b4.
# Their difference is exactly -((b1 - b4) + (b2 - b3))^2 / 2, so blockwise
# 2:4 never loses to the paired 1:2 split, with equality only when all
# four magnitudes coincide.


def variance_gap_arrays(mags: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(D, identity_check) per block of (num_blocks, 4) magnitudes: D =
    V_24 - V_paired_12 from the two variance formulas, and identity_check
    = -((b1-b4)+(b2-b3))^2 / 2 on the sorted magnitudes."""
    mags = np.asarray(mags, dtype=np.float64)
    if mags.ndim != 2 or mags.shape[1] != 4:
        raise ValueError("expected shape (num_blocks, 4)")
    b = np.sort(mags, axis=1)
    total = b.sum(axis=1)
    pairwise = 0.5 * (total * total - (b * b).sum(axis=1))
    v24 = pairwise - 0.5 * (b * b).sum(axis=1)
    v12 = 2.0 * b[:, 0] * b[:, 1] + 2.0 * b[:, 2] * b[:, 3]
    d = v24 - v12
    gap = (b[:, 0] - b[:, 3]) + (b[:, 1] - b[:, 2])
    return d, -0.5 * gap * gap


# ---------------------------------------------------------------------------
# Variance-ratio scan
#
# Grid over (a1, a2, a3) in (0, 1]^3 with a4 = 1; both variances are
# closed-form, never Monte-Carlo. The ratio approaches 2 only in the
# corner where the three free magnitudes vanish together.


@dataclass(frozen=True)
class ScanSummary:
    """Grid points seen, points skipped for a numerically zero exact
    variance, and the largest ratio with the first point that reaches it."""

    points: int
    skipped: int
    max_ratio: float
    worst_point: tuple[float, float, float]


_VAR_EXACT_FLOOR = 1e-12


def _ratio_chunk(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(var_exact, var_approx, ratio) for (N, 3) grid points; NaN ratio
    marks skipped points."""
    blocks = np.concatenate([points, np.ones((points.shape[0], 1))], axis=1)
    var_exact = entry_moments(blocks, EstimatorKind.MVUE24_EXACT)[0].sum(axis=1)
    var_approx = approx24_variance_array(blocks)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(var_exact >= _VAR_EXACT_FLOOR, var_approx / var_exact, np.nan)
    return var_exact, var_approx, ratio


def _grid_axis(step: float) -> np.ndarray:
    if not 0.0 < step <= 0.1:
        raise ValueError(f"step must be in (0, 0.1], got {step}")
    count = int(round(1.0 / step))
    return np.arange(1, count + 1) * step


def refine_edge_axis(points: int = 40, floor: float = 1e-6) -> np.ndarray:
    """Logarithmically spaced axis values toward 0, for the near-corner
    region where the ratio approaches its supremum."""
    return np.geomspace(floor, 1.0, points)


SCAN_CSV_HEADER = "a1,a2,a3,var_exact,var_approx,ratio"


def _repr_texts(values: np.ndarray) -> list[str]:
    """repr() of each value, as Python's shortest round-trip float text."""
    return repr(values.tolist())[1:-1].split(", ")


def scan_summary(
    step: float = 0.02, refine_edges: bool = False, csv_path=None
) -> ScanSummary:
    """Scan the grid (plus refined edges if requested) and reduce it to
    its maximum ratio, one chunk of points per a1 value.

    With ``csv_path`` every point is also written as a CSV line (header
    above, '.' decimal separator, LF line endings, ``repr`` digits, an
    empty ratio field for a skipped point), one write per chunk. The step
    is validated before the file is opened.
    """
    axes = [_grid_axis(step)] + ([refine_edge_axis()] if refine_edges else [])
    points_seen = 0
    skipped = 0
    max_ratio = -math.inf
    worst = (0.0, 0.0, 0.0)
    with (open(csv_path, "w", encoding="ascii", newline="\n") if csv_path is not None
          else contextlib.nullcontext()) as fh:
        if fh is not None:
            fh.write(SCAN_CSV_HEADER + "\n")
        for axis in axes:
            a2, a3 = np.meshgrid(axis, axis, indexing="ij")
            points = np.column_stack([np.empty(a2.size), a2.ravel(), a3.ravel()])
            if fh is not None:
                axis_text = _repr_texts(axis)
                plane_text = [f"{b},{c}" for b in axis_text for c in axis_text]
            for i, a1 in enumerate(axis):
                points[:, 0] = a1
                var_exact, var_approx, ratio = _ratio_chunk(points)
                points_seen += points.shape[0]
                nan = np.isnan(ratio)
                chunk_skipped = int(nan.sum())
                skipped += chunk_skipped
                if chunk_skipped < nan.size:
                    k = int(np.nanargmax(ratio))
                    if ratio[k] > max_ratio:
                        max_ratio = float(ratio[k])
                        worst = (float(points[k, 0]), float(points[k, 1]), float(points[k, 2]))
                if fh is None:
                    continue
                ratio_text = _repr_texts(ratio)
                for j in np.flatnonzero(nan):
                    ratio_text[j] = ""
                fields = zip(itertools.repeat(axis_text[i]), plane_text,
                             _repr_texts(var_exact), _repr_texts(var_approx), ratio_text)
                fh.write("\n".join(map(",".join, fields)) + "\n")
    return ScanSummary(points=points_seen, skipped=skipped, max_ratio=max_ratio, worst_point=worst)


# ---------------------------------------------------------------------------
# Expected multiply-accumulates under random mask overlap
#
# When both operands of a dot product carry independent uniformly random
# N:M masks, the number of surviving multiplies per block is the overlap
# of two (m-n)-subsets of m positions, a hypergeometric variable with
# mean (m-n)^2 / m.


def _mask_overlaps(pattern: SparsityPattern) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bit sets of the pattern's kept-index combinations, the popcount of
    every m-bit value, and the overlap of every ordered pair of sets."""
    combos = itertools.combinations(range(pattern.m), pattern.kept)
    bits = np.array([sum(1 << i for i in c) for c in combos], dtype=np.int64)
    popcount = np.array([bin(x).count("1") for x in range(1 << pattern.m)])
    return bits, popcount, popcount[bits[:, None] & bits[None, :]].ravel()


def expected_macs(
    pattern: SparsityPattern, trials: int = 100_000, seed: int = 0
) -> tuple[float, float]:
    """(empirical_mean, analytic_mean) MACs per block for random masks."""
    if trials < 1:
        raise ValueError("trials must be positive")
    bits, popcount, overlaps = _mask_overlaps(pattern)

    # Analytic mean via the overlap distribution P(overlap = k).
    hist = np.bincount(overlaps, minlength=pattern.m + 1)
    probs = hist / hist.sum()
    analytic = float(np.dot(np.arange(pattern.m + 1), probs))

    stream = RandomStream(seed)
    left = bits[stream.integers(0, len(bits), trials)]
    right = bits[stream.integers(0, len(bits), trials)]
    empirical = float(popcount[left & right].mean())
    return empirical, analytic


def expected_macs_se(pattern: SparsityPattern, trials: int) -> float:
    """Standard error of the empirical MAC mean over the given trials."""
    return float(_mask_overlaps(pattern)[2].std(ddof=0) / math.sqrt(trials))


# ---------------------------------------------------------------------------
# Estimator verification suite


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    passed: bool
    detail: str


def _squared_error_sd(
    kind: EstimatorKind,
    values: np.ndarray,
    sets: tuple[tuple[int, ...], ...],
    probs: np.ndarray,
) -> np.ndarray:
    """Per block, the standard deviation of the per-draw squared block
    error when kept set k is drawn with probability probs[:, k].

    Each kept set has a fixed squared error: survivors are a_i / p_i with
    the method's keep probability p_i when it rescales, a_i otherwise.
    """
    keep = np.zeros((len(sets), values.shape[1]), dtype=bool)
    for k, kept_set in enumerate(sets):
        keep[k, list(kept_set)] = True
    survivors = values
    if kind.is_unbiased:
        p, _ = METHODS[kind].probs(values, None)
        with np.errstate(invalid="ignore", divide="ignore"):
            survivors = np.where(p > 0.0, values / p, 0.0)
    diff = np.where(keep, survivors[:, None, :], 0.0) - values[:, None, :]
    err = (diff * diff).sum(axis=2)
    dev = err - (probs * err).sum(axis=1, keepdims=True)
    return np.sqrt((probs * dev * dev).sum(axis=1))


_EXACT_TAIL_MEAN = 10.0


def _frequency_z(count: int, samples: int, p: float, sigma: float) -> float:
    """z of ``count`` draws, among ``samples``, of a kept set of probability p.

    Where either outcome is expected fewer than _EXACT_TAIL_MEAN times, the
    normal approximation misjudges the count (two draws of a set with
    p = 1.4e-5 in 10,000 read as z = 4.96). There z is the normal quantile
    of the exact binomial tail in the direction of the deviation, so z >
    sigma still means that tail is below the one-sided normal tail at sigma.
    """
    if min(p, 1.0 - p) * samples >= _EXACT_TAIL_MEAN:
        se = math.sqrt(p * (1.0 - p) / samples)
        return abs(count / samples - p) / max(se, 1e-12 / sigma)
    if p > 0.5:  # count the draws without the set
        count, p = samples - count, 1.0 - p
    if p == 0.0:
        return 0.0 if count == 0 else math.inf
    # Above the mean, terms beyond count + 40 are below 1e-17 of the first.
    ks = range(count + 1) if count <= p * samples else range(count, min(samples, count + 40) + 1)
    log_n = math.lgamma(samples + 1)
    tail = sum(math.exp(log_n - math.lgamma(k + 1) - math.lgamma(samples - k + 1)
                        + k * math.log(p) + (samples - k) * math.log1p(-p)) for k in ks)
    if tail == 0.0:
        return math.inf
    return -NormalDist().inv_cdf(tail) if tail < 0.5 else 0.0


def random_test_blocks(
    count: int, m: int, seed: int, heavy_tail_fraction: float = 0.5
) -> np.ndarray:
    """Standard-normal blocks mixed with heavy-tailed lognormal-magnitude
    blocks of random sign."""
    stream = RandomStream(seed, stream=101)
    n_heavy = int(count * heavy_tail_fraction)
    normal = stream.normals((count - n_heavy, m))
    mags = np.exp(stream.normals((n_heavy, m), scale=2.0))
    signs = np.where(stream.uniforms((n_heavy, m)) < 0.5, -1.0, 1.0)
    return np.concatenate([normal, mags * signs], axis=0)


def verify_estimator(
    kind: EstimatorKind,
    num_blocks: int = 100,
    samples: int = 10_000,
    seed: int = 0,
    pattern: SparsityPattern | None = None,
    sigma: float = 5.0,
) -> list[PropertyCheck]:
    """Run the unbiasedness / variance / frequency / pattern suite.

    Each property passes only if it holds for every sampled block at the
    ``sigma`` standard-error level. Biased methods genuinely fail the
    unbiasedness property; that is reported, not masked.
    """
    pattern = _pattern_for(kind, pattern, 0 if kind is not EstimatorKind.GREEDY_MSE else 4)
    blocks = random_test_blocks(num_blocks, pattern.m, seed)

    worst_z = 0.0
    bias_failures = 0
    var_failures = 0
    worst_var_z = 0.0
    freq_failures = 0
    worst_freq_z = 0.0
    pattern_failures = 0

    mse_expected = entry_moments(blocks, kind, pattern)[0].sum(axis=1)
    mse_se_closed = np.zeros(num_blocks)
    if kind.is_stochastic:
        kept_sets, set_probs = METHODS[kind].kept_set_probs(blocks)
        mean_se_closed = np.sqrt(elementwise_variance_array(blocks, kind) / samples)
        mse_se_closed = _squared_error_sd(kind, blocks, kept_sets, set_probs) / math.sqrt(samples)

    for idx in range(num_blocks):
        # Each block draws from its own stream.
        report = mc_estimate(Block(blocks[idx]), kind, samples, seed + idx, pattern)
        # Pattern compliance: every draw keeps exactly pattern.kept entries
        # (mc_estimate would have failed otherwise) and frequencies sum to 1.
        if abs(sum(report.pair_frequencies.values()) - 1.0) > 1e-9:
            pattern_failures += 1
        if any(len(kept) != pattern.kept for kept in report.pair_frequencies):
            pattern_failures += 1

        # Each statistical check divides by the larger of the empirical and
        # the closed-form standard error, and a floor, so that the reported
        # z and the verdict agree: z > sigma is the failure condition. The
        # closed form keeps the check meaningful where a near-certain keep
        # or drop leaves a constant sample, whose empirical SE is zero; the
        # floor absorbs float rounding where both are zero because the
        # component reproduces its input deterministically.
        if kind.is_stochastic:
            diff = np.abs(report.empirical_mean - blocks[idx])
            se = np.maximum(np.maximum(report.mean_se, mean_se_closed[idx]), 1e-12 / sigma)
            z = float(np.max(diff / se))
            worst_z = max(worst_z, z)
            if z > sigma:
                bias_failures += 1

        expected = mse_expected[idx]
        floor = 1e-9 * max(1.0, abs(expected))
        var_z = abs(report.mse_mean - expected) / max(
            report.mse_se, mse_se_closed[idx], floor / sigma
        )
        worst_var_z = max(worst_var_z, float(var_z))
        if var_z > sigma:
            var_failures += 1

        if kind.is_stochastic:
            block_freq_fail = False
            for kept_set, p in zip(kept_sets, set_probs[idx]):
                count = round(report.pair_frequencies.get(kept_set, 0.0) * samples)
                freq_z = _frequency_z(count, samples, float(p), sigma)
                worst_freq_z = max(worst_freq_z, freq_z)
                if freq_z > sigma:
                    block_freq_fail = True
            observed_extra = set(report.pair_frequencies) - set(kept_sets)
            if any(report.pair_frequencies[k] > 0 for k in observed_extra):
                block_freq_fail = True
            if block_freq_fail:
                freq_failures += 1

    checks = [
        PropertyCheck(
            "pattern",
            pattern_failures == 0,
            f"{pattern_failures}/{num_blocks} blocks violated {pattern} structure",
        ),
        PropertyCheck(
            "variance",
            var_failures == 0,
            f"worst z={worst_var_z:.2f}, {var_failures}/{num_blocks} blocks outside {sigma} SE",
        ),
    ]
    if kind.is_stochastic:
        checks.append(
            PropertyCheck(
                "unbiased",
                bias_failures == 0,
                f"worst z={worst_z:.2f}, {bias_failures}/{num_blocks} blocks outside {sigma} SE",
            )
        )
        checks.append(
            PropertyCheck(
                "frequency",
                freq_failures == 0,
                f"worst z={worst_freq_z:.2f}, {freq_failures}/{num_blocks} blocks outside {sigma} SE",
            )
        )
    else:
        # Greedy is deterministic: re-pruning must reproduce the MC mean
        # exactly and match the exhaustive minimum-MSE oracle.
        greedy_fail = 0
        for idx in range(num_blocks):
            block = Block(blocks[idx])
            _, oracle_mse = brute_force_min_mse_mask(block, pattern)
            if abs(mse_expected[idx] - oracle_mse) > 1e-12 * max(1.0, oracle_mse):
                greedy_fail += 1
        checks.append(
            PropertyCheck(
                "min-mse",
                greedy_fail == 0,
                f"{greedy_fail}/{num_blocks} blocks deviate from the exhaustive oracle",
            )
        )
    return checks
