"""Monte-Carlo and closed-form analysis of the pruning estimators.

Provides repeated-draw reports for empirical mean/variance/frequency
checks, the analytic variance-ratio scan over 2:4 blocks, the sorted-block
variance-gap identity, expected multiply-accumulate counts for random mask
overlap, and an exhaustive-search oracle for minimum-MSE masks.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .core import Block, BlockMask, SparsityPattern, _bit_codes
from .estimators import (
    METHODS,
    EstimatorKind,
    _row_sum4,
    approx24_variance_array,
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
    var_exact = _row_sum4(entry_moments(blocks, EstimatorKind.MVUE24_EXACT)[0])
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


def _axis_chunks(axis: np.ndarray):
    """(points, (var_exact, var_approx, ratio)) for each a1 of the cube
    axis^3: the (a2, a3) plane at that a1, in one reused points array."""
    a2, a3 = np.meshgrid(axis, axis, indexing="ij")
    points = np.column_stack([np.empty(a2.size), a2.ravel(), a3.ravel()])
    for a1 in axis:
        points[:, 0] = a1
        yield points, _ratio_chunk(points)


def _distinct_bits(bits: np.ndarray) -> np.ndarray:
    """The distinct entries of a uint64 array, sorted; the array is sorted
    in place. (np.unique hashes first and takes ten times as long.)"""
    bits.sort()
    first = np.empty(bits.size, dtype=bool)
    first[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=first[1:])
    return bits[first]


# The CSV's first pass merges a value column's chunk parts every
# _MERGE_PARTS chunks, so it holds the distinct bits so far and a few
# parts, not every chunk's: all 150 parts of step 0.02 (1.9 MB) held to
# one merge left about 2.5 MB more of the C heap resident after a scan.
_MERGE_PARTS = 8


def _merge_distinct(parts: list[np.ndarray]) -> np.ndarray:
    """The sorted distinct entries of all parts, which it empties before it
    sorts, so that at most two copies live."""
    merged = np.concatenate(parts)
    parts.clear()
    return _distinct_bits(merged)


SCAN_CSV_HEADER = "a1,a2,a3,var_exact,var_approx,ratio"

# Values formatted per repr call; repr of a float64 takes at most 24 bytes.
_REPR_BATCH = 8192


def _repr_texts(values: np.ndarray) -> np.ndarray:
    """repr() of each value, Python's shortest round-trip float text, as
    ASCII bytes in an S24 array."""
    texts = np.empty(values.size, dtype="S24")
    for start in range(0, values.size, _REPR_BATCH):
        batch = values[start:start + _REPR_BATCH].tolist()
        texts[start:start + _REPR_BATCH] = repr(batch)[1:-1].split(", ")
    return texts


def _write_axis_csv(fh, axis: np.ndarray, tables: list[np.ndarray]) -> None:
    """Write the CSV lines of the cube axis^3, given for each value column
    the sorted distinct bit patterns it takes. Each is formatted once;
    each chunk is recomputed, its values are looked up with sorted
    needles, and its lines are filled from one bytes template of the
    plane."""
    texts = [_repr_texts(table.view(np.float64)) for table in tables]
    texts[2][np.isnan(tables[2].view(np.float64))] = b""  # a skipped point's ratio
    axis_text = _repr_texts(axis).tolist()
    template = b"".join(b"%s," + b + b"," + c + b",%s,%s,%s\n"
                        for b in axis_text for c in axis_text)
    n = axis.size ** 2
    where = np.empty(n, dtype=np.intp)
    fields = [b""] * (4 * n)  # per line: a1 and the three value columns
    for i, (_, values) in enumerate(_axis_chunks(axis)):
        fields[0::4] = [axis_text[i]] * n
        for k, (column, table) in enumerate(zip(values, tables)):
            bits = column.view(np.uint64)
            order = np.argsort(bits)
            where[order] = np.searchsorted(table, bits[order])
            fields[k + 1::4] = texts[k][where].tolist()
        fh.write(template % tuple(fields))


def scan_summary(
    step: float = 0.02, refine_edges: bool = False, csv_path=None
) -> ScanSummary:
    """Scan the grid (plus refined edges if requested) and reduce it to
    its maximum ratio, one chunk of points per a1 value.

    With ``csv_path`` every point is also written as a CSV line (header
    above, '.' decimal separator, LF line endings, ``repr`` digits, an
    empty ratio field for a skipped point). The step is validated before
    the file is opened. The CSV takes two passes over each axis's cube.
    The first collects the distinct bit patterns of each value column,
    merged every few chunks. The second recomputes each chunk and writes
    its lines in one write. Each distinct value is formatted once (about
    a fifth of the fields at step 0.02). Memory holds the distinct values
    and their texts, 32 bytes each, and one chunk's fields and lines,
    never the whole grid: a traced peak of about 4.1 MiB at step 0.02.
    Without ``csv_path`` the scan is one pass and formats no text.
    """
    axes = [_grid_axis(step)] + ([refine_edge_axis()] if refine_edges else [])
    points_seen = 0
    skipped = 0
    max_ratio = -math.inf
    worst = (0.0, 0.0, 0.0)
    with (open(csv_path, "wb") if csv_path is not None
          else contextlib.nullcontext()) as fh:
        if fh is not None:
            fh.write(SCAN_CSV_HEADER.encode() + b"\n")
        for axis in axes:
            parts = ([], [], [])  # per value column, each chunk's distinct bits
            for points, values in _axis_chunks(axis):
                ratio = values[2]
                points_seen += points.shape[0]
                nan = np.isnan(ratio)
                chunk_skipped = int(nan.sum())
                skipped += chunk_skipped
                if chunk_skipped < nan.size:
                    k = int(np.nanargmax(ratio))
                    if ratio[k] > max_ratio:
                        max_ratio = float(ratio[k])
                        worst = (float(points[k, 0]), float(points[k, 1]), float(points[k, 2]))
                if fh is not None:
                    for part, column in zip(parts, values):
                        # Keyed on bits, 0.0 and -0.0 stay apart, as their reprs do.
                        part.append(_distinct_bits(column.view(np.uint64).copy()))
                        if len(part) == _MERGE_PARTS:
                            part[:] = [_merge_distinct(part)]
            if fh is not None:
                _write_axis_csv(fh, axis, [_merge_distinct(part) for part in parts])
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

    Each kept set has a fixed squared error: a^2 per dropped entry, and
    per kept one d^2 when the method rescales (the survivor's excess over
    |a|; a zero entry survives as 0), 0 otherwise.
    """
    keep = np.array([[i in kept_set for i in range(values.shape[1])] for kept_set in sets])
    d = METHODS[kind].deviation(values, None) if kind.is_unbiased else 0.0
    kept = np.where(values != 0.0, d * d, 0.0)
    err = np.where(keep, kept[:, None, :], (values * values)[:, None, :]).sum(axis=2)
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

    error, variance = entry_moments(blocks, kind, pattern)
    mse_expected = error.sum(axis=1)
    mse_se_closed = np.zeros(num_blocks)
    if kind.is_stochastic:
        kept_sets, set_probs = METHODS[kind].kept_set_probs(blocks)
        mean_se_closed = np.sqrt(variance / samples)
        mse_se_closed = _squared_error_sd(kind, blocks, kept_sets, set_probs) / math.sqrt(samples)

    pattern_failures = 0
    # Per block, the largest z of each statistical check; frequency also
    # fails a block that draws a set outside the method's kept sets.
    var_z, bias_z, freq_z, freq_failed = [], [], [], []
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
        expected = mse_expected[idx]
        floor = 1e-9 * max(1.0, abs(expected))
        var_z.append(float(abs(report.mse_mean - expected) / max(
            report.mse_se, mse_se_closed[idx], floor / sigma
        )))
        if kind.is_stochastic:
            diff = np.abs(report.empirical_mean - blocks[idx])
            se = np.maximum(np.maximum(report.mean_se, mean_se_closed[idx]), 1e-12 / sigma)
            bias_z.append(float(np.max(diff / se)))
            zs = [_frequency_z(round(report.pair_frequencies.get(kept_set, 0.0) * samples),
                               samples, float(p), sigma)
                  for kept_set, p in zip(kept_sets, set_probs[idx])]
            extra = set(report.pair_frequencies) - set(kept_sets)
            freq_z.append(max(zs))
            freq_failed.append(max(zs) > sigma or any(report.pair_frequencies[k] > 0 for k in extra))

    def z_check(name: str, zs: list[float], failed: list[bool]) -> PropertyCheck:
        count = sum(failed)
        return PropertyCheck(name, count == 0, f"worst z={functools.reduce(max, zs, 0.0):.2f}, "
                                               f"{count}/{num_blocks} blocks outside {sigma} SE")

    checks = [
        PropertyCheck(
            "pattern",
            pattern_failures == 0,
            f"{pattern_failures}/{num_blocks} blocks violated {pattern} structure",
        ),
        z_check("variance", var_z, [z > sigma for z in var_z]),
    ]
    if kind.is_stochastic:
        checks.append(z_check("unbiased", bias_z, [z > sigma for z in bias_z]))
        checks.append(z_check("frequency", freq_z, freq_failed))
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
