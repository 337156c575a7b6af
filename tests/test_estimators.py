"""Estimator kernel tests.

Closed-form probability tables for the hand-checkable blocks are frozen
here as exact fractions, derived independently from the three-regime
construction (feasible marginals 2*b_k/S, or forced max plus proportional
partner). Monte-Carlo checks run at the 5-sigma level with fixed seeds.
"""

import dataclasses
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from nmsparse import estimators
from nmsparse.analysis import random_test_blocks, verify_estimator
from nmsparse.core import (
    SUPPORTED_BLOCK_LENGTHS,
    Block,
    BlockedTensor,
    SparsityPattern,
    _coded_split,
    pattern_violations,
    split_axis,
)
from nmsparse.estimators import (
    METHODS,
    PAIR_INDEX_COLUMNS,
    PRUNE_CHUNK_BLOCKS,
    EstimatorKind,
    _PAIR_COLUMN,
    _PAIR_FIRST,
    _PAIR_SECOND,
    approx24_exclusion_probs,
    approx24_pair_probs,
    approx24_variance_array,
    elementwise_variance_array,
    exact24_marginal_probs,
    exact24_pair_probs,
    entry_moments,
    greedy_mask_array,
    mvue12_selection_probs,
    mvue12_variance_array,
    prune_array,
    prune_greedy_array,
    prune_mvue12_array,
    prune_mvue24_approx_array,
    prune_mvue24_exact_array,
    prune_tensor,
    resolve_pattern,
)
from nmsparse.rng import RandomStream
from nmsparse.tensorio import compress, read_tensor, write_tensor

P12 = SparsityPattern(1, 2)
P24 = SparsityPattern(2, 4)
P48 = SparsityPattern(4, 8)


def mixed_blocks(count: int, m: int, seed: int) -> np.ndarray:
    """Normal and heavy-tailed signed-lognormal blocks for MC checks."""
    stream = RandomStream(seed, stream=55)
    normal = stream.normals((count // 2, m))
    mags = np.exp(stream.normals((count - count // 2, m), scale=2.0))
    signs = np.where(stream.uniforms((count - count // 2, m)) < 0.5, -1.0, 1.0)
    return np.concatenate([normal, mags * signs])


def exact24_variance(values) -> np.ndarray:
    return entry_moments(np.asarray(values), EstimatorKind.MVUE24_EXACT)[0].sum(axis=1)


def approx24_inclusion(values) -> np.ndarray:
    return 1.0 - approx24_exclusion_probs(np.asarray(values))


def variance_from_probs(values, probs) -> np.ndarray:
    """sum_i (a_i^2 / p_i - a_i^2), the textbook form, with 0^2 / 0 = 0."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(values != 0.0, values**2 / probs - values**2, 0.0).sum(axis=-1)


def mc_draws(values_row: np.ndarray, kind: EstimatorKind, samples: int, seed: int):
    tiled = np.broadcast_to(values_row, (samples, values_row.shape[0]))
    out, mask = prune_array(tiled, kind, None, RandomStream(seed))
    return out, mask


# ---------------------------------------------------------------------------
# Frozen oracle tables (exact fractions, sorted-magnitude index space)

# Regime 1 block [1,2,3,4]: all pair probabilities from the feasible
# marginals 2 b_k / S with pair (1,2) excluded.
ORACLE_1234_PAIRS = {
    (0, 1): Fraction(0),
    (0, 2): Fraction(1, 20),
    (0, 3): Fraction(3, 20),
    (1, 2): Fraction(3, 20),
    (1, 3): Fraction(5, 20),
    (2, 3): Fraction(8, 20),
}
ORACLE_1234_MARGINALS = (Fraction(1, 5), Fraction(2, 5), Fraction(3, 5), Fraction(4, 5))

# Boundary block [1,2,3,5] (b4 = 2 b1 + b3): regimes 1 and 2 coincide.
ORACLE_1235_PAIRS = {
    (0, 1): Fraction(0),
    (0, 2): Fraction(0),
    (0, 3): Fraction(2, 11),
    (1, 2): Fraction(1, 11),
    (1, 3): Fraction(3, 11),
    (2, 3): Fraction(5, 11),
}

# Boundary block [1,2,3,6] (b4 = b1 + b2 + b3): regimes 2 and 3 coincide.
ORACLE_1236_PAIRS = {
    (0, 1): Fraction(0),
    (0, 2): Fraction(0),
    (0, 3): Fraction(1, 6),
    (1, 2): Fraction(0),
    (1, 3): Fraction(2, 6),
    (2, 3): Fraction(3, 6),
}

# Regime 3 block [1,1,1,4]: the max is always kept, partner proportional.
ORACLE_1114_PAIRS = {
    (0, 1): Fraction(0),
    (0, 2): Fraction(0),
    (0, 3): Fraction(1, 3),
    (1, 2): Fraction(0),
    (1, 3): Fraction(1, 3),
    (2, 3): Fraction(1, 3),
}
ORACLE_1114_MARGINALS = (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3), Fraction(1))


def oracle_eq17_inclusion(mags):
    """Sequential-sampler inclusion probabilities as exact fractions."""
    mags = [Fraction(v) for v in mags]
    total = sum(mags)
    probs = []
    for i, a in enumerate(mags):
        p = Fraction(a, total)
        for k, b in enumerate(mags):
            if k != i:
                p += Fraction(b, total) * Fraction(a, total - b)
        probs.append(p)
    return probs


def oracle_variance(mags, probs):
    return sum(Fraction(a) ** 2 / p - Fraction(a) ** 2 for a, p in zip(mags, probs) if a)


# ---------------------------------------------------------------------------
# Greedy


class TestGreedy:
    def test_keeps_largest_magnitudes(self):
        out, mask = prune_greedy_array(np.array([[1.0, 1.0, 2.0, 2.0]]), P24)
        np.testing.assert_array_equal(out, [[0.0, 0.0, 2.0, 2.0]])
        np.testing.assert_array_equal(mask, [[False, False, True, True]])

    def test_sign_ignored_for_selection(self):
        out, _ = prune_greedy_array(np.array([[-5.0, 4.0, 1.0, -2.0]]), P24)
        np.testing.assert_array_equal(out, [[-5.0, 4.0, 0.0, 0.0]])

    def test_ties_keep_lowest_index(self):
        out, mask = prune_greedy_array(np.array([[1.0, -1.0, 1.0, 1.0]]), P24)
        np.testing.assert_array_equal(mask, [[True, True, False, False]])
        np.testing.assert_array_equal(out, [[1.0, -1.0, 0.0, 0.0]])

    def test_one_of_two(self):
        out, _ = prune_greedy_array(np.array([[3.0, -4.0], [2.0, -2.0]]), P12)
        np.testing.assert_array_equal(out, [[0.0, -4.0], [2.0, 0.0]])

    def test_four_of_eight(self):
        row = np.array([[1.0, 8.0, -2.0, 7.0, 3.0, -6.0, 4.0, 5.0]])
        out, mask = prune_greedy_array(row, P48)
        np.testing.assert_array_equal(mask, [[False, True, False, True, False, True, False, True]])
        assert np.count_nonzero(out) == 4

    def test_idempotent(self):
        blocks = mixed_blocks(200, 4, seed=3)
        once, _ = prune_greedy_array(blocks, P24)
        twice, _ = prune_greedy_array(once, P24)
        np.testing.assert_array_equal(once, twice)

    def test_deterministic(self):
        blocks = mixed_blocks(100, 8, seed=4)
        a, _ = prune_greedy_array(blocks, P48)
        b, _ = prune_greedy_array(blocks, P48)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("pattern", [P12, P24, P48, SparsityPattern(3, 4), SparsityPattern(1, 4)])
    def test_matches_exhaustive_mse_minimum(self, pattern):
        from nmsparse.analysis import brute_force_min_mse_mask

        stream = RandomStream(5, stream=2)
        # Include tie-heavy blocks drawn from a tiny value set.
        smooth = stream.normals((60, pattern.m))
        coarse = stream.integers(-2, 3, (60, pattern.m)).astype(float)
        for row in np.concatenate([smooth, coarse]):
            mask_oracle, mse_oracle = brute_force_min_mse_mask(Block(row), pattern)
            out, mask = prune_greedy_array(row[None, :], pattern)
            assert np.sum((out[0] - row) ** 2) == pytest.approx(mse_oracle, abs=1e-12)
            np.testing.assert_array_equal(mask[0], mask_oracle.kept)


def reference_greedy_mask(values: np.ndarray, pattern: SparsityPattern) -> np.ndarray:
    """Keep-masks by a stable argsort of the negated magnitudes, which keeps
    the original order among equal magnitudes."""
    order = np.argsort(-np.abs(values), axis=1, kind="stable")
    mask = np.zeros(values.shape, dtype=bool)
    np.put_along_axis(mask, order[:, : pattern.kept], True, axis=1)
    return mask


ALL_PATTERNS = [SparsityPattern(n, m) for m in SUPPORTED_BLOCK_LENGTHS for n in range(1, m)]


class TestGreedyMatchesArgsortReference:
    @pytest.mark.parametrize("pattern", ALL_PATTERNS, ids=str)
    def test_same_masks(self, pattern):
        m = pattern.m
        stream = RandomStream(7, stream=3)
        random_rows = mixed_blocks(3_000, m, seed=8)
        # Few distinct magnitudes: many ties, signed ties and zeros.
        tie_rows = stream.integers(-2, 3, (3_000, m)).astype(float)
        zero_rows = np.where(stream.uniforms((3_000, m)) < 0.5, 0.0, random_rows)
        special = np.array([np.zeros(m), -np.zeros(m), np.ones(m), np.arange(m, 0, -1.0)])
        blocks = np.concatenate([random_rows, tie_rows, zero_rows, special])
        mask = greedy_mask_array(blocks, pattern)
        assert mask.flags.c_contiguous
        np.testing.assert_array_equal(mask, reference_greedy_mask(blocks, pattern))

    def test_empty_and_strided_inputs(self):
        assert greedy_mask_array(np.zeros((0, 4)), P24).shape == (0, 4)
        blocks = mixed_blocks(500, 8, seed=9)
        strided = np.asfortranarray(blocks)[::2]
        np.testing.assert_array_equal(
            greedy_mask_array(strided, P48), reference_greedy_mask(strided, P48)
        )


# ---------------------------------------------------------------------------
# 1:2 estimators


class TestMvue12:
    def test_support_and_frequencies(self):
        out, mask = mc_draws(np.array([3.0, 1.0]), EstimatorKind.MVUE12, 100_000, seed=10)
        # Every draw is [4, 0] or [0, 4].
        kept_first = mask[:, 0]
        np.testing.assert_array_equal(out[kept_first], np.tile([4.0, 0.0], (kept_first.sum(), 1)))
        np.testing.assert_array_equal(out[~kept_first], np.tile([0.0, 4.0], ((~kept_first).sum(), 1)))
        freq = kept_first.mean()
        se = np.sqrt(0.75 * 0.25 / 100_000)
        assert abs(freq - 0.75) <= 5 * se

    def test_mixed_sign_kept_values(self):
        out, mask = mc_draws(np.array([-3.0, 1.0]), EstimatorKind.MVUE12, 10_000, seed=11)
        np.testing.assert_array_equal(np.unique(out[mask[:, 0], 0]), [-4.0])
        np.testing.assert_array_equal(np.unique(out[mask[:, 1], 1]), [4.0])

    def test_exact_expectation_by_enumeration(self):
        # E[theta] = p * v_keep0 + (1-p) * v_keep1 must equal the block.
        for a in ([3.0, 1.0], [-3.0, 1.0], [2.0, -5.0], [-1.0, -7.0], [4.0, 0.0], [0.0, -2.0]):
            s = abs(a[0]) + abs(a[1])
            p = abs(a[0]) / s
            e0 = p * np.sign(a[0]) * s
            e1 = (1 - p) * np.sign(a[1]) * s
            assert e0 == pytest.approx(a[0], abs=1e-12)
            assert e1 == pytest.approx(a[1], abs=1e-12)

    def test_unbiased_and_variance_mc(self):
        blocks = mixed_blocks(50, 2, seed=12)
        samples = 40_000
        for i, row in enumerate(blocks):
            out, _ = mc_draws(row, EstimatorKind.MVUE12, samples, seed=100 + i)
            mean = out.mean(axis=0)
            se = out.std(axis=0, ddof=1) / np.sqrt(samples)
            assert np.all(np.abs(mean - row) <= 5 * se + 1e-12)
            mse = ((out - row) ** 2).sum(axis=1)
            v = mvue12_variance_array(row[None, :])[0]
            assert abs(mse.mean() - v) <= 5 * mse.std(ddof=1) / np.sqrt(samples) + 1e-12

    def test_degenerate_blocks_deterministic(self):
        out, mask = mc_draws(np.array([5.0, 0.0]), EstimatorKind.MVUE12, 100, seed=13)
        np.testing.assert_array_equal(out, np.tile([5.0, 0.0], (100, 1)))
        np.testing.assert_array_equal(mask[:, 0], np.ones(100, bool))
        out, mask = mc_draws(np.array([0.0, -5.0]), EstimatorKind.MVUE12, 100, seed=14)
        np.testing.assert_array_equal(out, np.tile([0.0, -5.0], (100, 1)))
        out, mask = mc_draws(np.array([0.0, 0.0]), EstimatorKind.MVUE12, 100, seed=15)
        np.testing.assert_array_equal(out, np.zeros((100, 2)))
        np.testing.assert_array_equal(mask[:, 0], np.ones(100, bool))

    def test_sign_and_scale_equivariance_exact(self):
        blocks = mixed_blocks(200, 2, seed=16)
        u = RandomStream(17).uniforms(200)
        base, _ = prune_mvue12_array(blocks, u)
        flipped, _ = prune_mvue12_array(blocks * [-1.0, 1.0], u)
        np.testing.assert_array_equal(flipped, base * [-1.0, 1.0])
        scaled, _ = prune_mvue12_array(blocks * 3.5, u)
        np.testing.assert_allclose(scaled, base * 3.5, rtol=1e-13, atol=0)

    def test_analytic_variance_values(self):
        np.testing.assert_array_equal(
            mvue12_variance_array(np.array([[3.0, 1.0], [-3.0, 1.0], [5.0, 0.0]])), [6.0, 6.0, 0.0]
        )
        np.testing.assert_array_equal(
            mvue12_variance_array(np.array([[2.0, 2.0], [-4.0, 0.5]])), [8.0, 4.0]
        )

    def test_per_element_variance_mc(self):
        # Var[theta_i] = v_i^2 p_i - a_i^2; for [3,1] both elements give 3.
        out, _ = mc_draws(np.array([3.0, 1.0]), EstimatorKind.MVUE12, 200_000, seed=18)
        var = out.var(axis=0, ddof=1)
        np.testing.assert_allclose(var, [3.0, 3.0], rtol=0.05)


class TestBaselines:
    def test_biased12_expectation(self):
        out, _ = mc_draws(np.array([3.0, 1.0]), EstimatorKind.BIASED12, 200_000, seed=20)
        # Draws keep raw values; expectation is [p a1, (1-p) a2] = [2.25, 0.25].
        assert set(np.unique(out[:, 0])) <= {0.0, 3.0}
        se = out.std(axis=0, ddof=1) / np.sqrt(200_000)
        np.testing.assert_array_less(np.abs(out.mean(axis=0) - [2.25, 0.25]), 5 * se)

    def test_uniform12_no_rescale(self):
        out, mask = mc_draws(np.array([3.0, -1.0]), EstimatorKind.UNIFORM12, 100_000, seed=21)
        assert set(np.unique(out[:, 0])) <= {0.0, 3.0}
        assert set(np.unique(out[:, 1])) <= {0.0, -1.0}
        freq = mask[:, 0].mean()
        assert abs(freq - 0.5) <= 5 * np.sqrt(0.25 / 100_000)

    def test_uniform12_all_zero_block(self):
        out, _ = mc_draws(np.array([0.0, 0.0]), EstimatorKind.UNIFORM12, 64, seed=22)
        np.testing.assert_array_equal(out, np.zeros((64, 2)))

    def test_unbiased_uniform12_doubles_survivor(self):
        row = np.array([3.0, -1.0])
        out, _ = mc_draws(row, EstimatorKind.UNBIASED_UNIFORM12, 100_000, seed=23)
        assert set(np.unique(out[:, 0])) <= {0.0, 6.0}
        assert set(np.unique(out[:, 1])) <= {0.0, -2.0}
        se = out.std(axis=0, ddof=1) / np.sqrt(100_000)
        np.testing.assert_array_less(np.abs(out.mean(axis=0) - row), 5 * se + 1e-12)
        mse = ((out - row) ** 2).sum(axis=1)
        expected = row[0] ** 2 + row[1] ** 2
        assert abs(mse.mean() - expected) <= 5 * mse.std(ddof=1) / np.sqrt(100_000)

    def test_mvue_never_worse_than_unbiased_uniform(self):
        blocks = mixed_blocks(500, 2, seed=24)
        v_mvue = mvue12_variance_array(blocks)
        v_uu = (blocks ** 2).sum(axis=1)
        assert np.all(v_mvue <= v_uu + 1e-12)
        equal = np.isclose(np.abs(blocks[:, 0]), np.abs(blocks[:, 1]))
        assert np.allclose(v_mvue[equal], v_uu[equal])
        assert np.all(v_mvue[~equal] < v_uu[~equal])
        # Equality exactly at matched magnitudes.
        assert mvue12_variance_array(np.array([[2.0, -2.0]]))[0] == 8.0 == 2.0 ** 2 + 2.0 ** 2


# ---------------------------------------------------------------------------
# Exact 2:4


def pair_dict(values_row: np.ndarray) -> dict:
    table = exact24_pair_probs(values_row[None, :])[0]
    return dict(zip(PAIR_INDEX_COLUMNS, table))


class TestExact24Tables:
    def test_regime1_block(self):
        probs = pair_dict(np.array([1.0, 2.0, 3.0, 4.0]))
        for pair, want in ORACLE_1234_PAIRS.items():
            assert probs[pair] == pytest.approx(float(want), abs=1e-15)
        marg = exact24_marginal_probs([[1.0, 2.0, 3.0, 4.0]])[0]
        np.testing.assert_allclose(marg, [float(f) for f in ORACLE_1234_MARGINALS], atol=1e-15)

    def test_boundary_regime1_regime2(self):
        probs = pair_dict(np.array([1.0, 2.0, 3.0, 5.0]))
        for pair, want in ORACLE_1235_PAIRS.items():
            assert probs[pair] == pytest.approx(float(want), abs=1e-12)

    def test_boundary_regime2_regime3(self):
        probs = pair_dict(np.array([1.0, 2.0, 3.0, 6.0]))
        for pair, want in ORACLE_1236_PAIRS.items():
            assert probs[pair] == pytest.approx(float(want), abs=1e-12)

    def test_regime3_block(self):
        probs = pair_dict(np.array([1.0, 1.0, 1.0, 4.0]))
        for pair, want in ORACLE_1114_PAIRS.items():
            assert probs[pair] == pytest.approx(float(want), abs=1e-15)
        marg = exact24_marginal_probs([[1.0, 1.0, 1.0, 4.0]])[0]
        np.testing.assert_allclose(marg, [float(f) for f in ORACLE_1114_MARGINALS], atol=1e-15)

    def test_regime2_interior_block(self):
        # [1, 2, 3, 5.5]: strictly between the boundaries; regime 2 gives
        # p14 = 2/11.5, p23 = 0.5/11.5, p24 = 3.5/11.5, p34 = 5.5/11.5.
        probs = pair_dict(np.array([1.0, 2.0, 3.0, 5.5]))
        s = 11.5
        assert probs[(0, 1)] == 0.0 and probs[(0, 2)] == 0.0
        assert probs[(0, 3)] == pytest.approx(2.0 / s, abs=1e-12)
        assert probs[(1, 2)] == pytest.approx(0.5 / s, abs=1e-12)
        assert probs[(1, 3)] == pytest.approx(3.5 / s, abs=1e-12)
        assert probs[(2, 3)] == pytest.approx(5.5 / s, abs=1e-12)

    def test_tables_sum_to_one_and_match_marginals(self):
        blocks = mixed_blocks(500, 4, seed=30)
        tables = exact24_pair_probs(blocks)
        np.testing.assert_allclose(tables.sum(axis=1), 1.0, atol=1e-12)
        marginals = exact24_marginal_probs(blocks)
        np.testing.assert_allclose(marginals.sum(axis=1), 2.0, atol=1e-12)
        # Marginal of i = sum of pair probabilities containing i.
        for i in range(4):
            cols = [c for c, pair in enumerate(PAIR_INDEX_COLUMNS) if i in pair]
            np.testing.assert_allclose(
                tables[:, cols].sum(axis=1), marginals[:, i], atol=1e-12
            )

    def test_probs_invariant_to_sign_and_scale(self):
        blocks = mixed_blocks(200, 4, seed=31)
        signs = np.where(RandomStream(32).uniforms(blocks.shape) < 0.5, -1.0, 1.0)
        np.testing.assert_allclose(
            exact24_pair_probs(blocks), exact24_pair_probs(blocks * signs), atol=1e-15
        )
        np.testing.assert_allclose(
            exact24_marginal_probs(blocks), exact24_marginal_probs(blocks * 7.25), atol=1e-13
        )

    def test_probs_permutation_equivariant(self):
        blocks = mixed_blocks(100, 4, seed=33)
        perm = [2, 0, 3, 1]
        marg = exact24_marginal_probs(blocks)
        marg_p = exact24_marginal_probs(blocks[:, perm])
        np.testing.assert_allclose(marg_p, marg[:, perm], atol=1e-15)

    def test_ties_all_equal_block(self):
        probs = pair_dict(np.array([1.0, 1.0, 1.0, 1.0]))
        for pair in [(0, 2), (0, 3), (1, 2), (1, 3)]:
            assert probs[pair] == pytest.approx(0.25, abs=1e-15)
        assert probs[(0, 1)] == 0.0 and probs[(2, 3)] == 0.0

    def test_degenerate_two_zeros(self):
        probs = pair_dict(np.array([0.0, 3.0, 0.0, 4.0]))
        assert probs[(1, 3)] == pytest.approx(1.0, abs=1e-15)
        marg = exact24_marginal_probs([[0.0, 3.0, 0.0, 4.0]])[0]
        np.testing.assert_allclose(marg, [0.0, 1.0, 0.0, 1.0], atol=1e-15)

    def test_degenerate_three_zeros_and_all_zero(self):
        marg = exact24_marginal_probs([[0.0, 0.0, 7.0, 0.0]])[0]
        np.testing.assert_allclose(marg, [1 / 3, 1 / 3, 1.0, 1 / 3], atol=1e-15)
        table = pair_dict(np.zeros(4))
        for pair in PAIR_INDEX_COLUMNS:
            assert table[pair] == pytest.approx(1 / 6, abs=1e-15)


class TestExact24Sampler:
    def test_kept_values_inverse_probability(self):
        # For [1,2,3,4] every kept entry rescales to magnitude S/2 = 5.
        out, mask = mc_draws(np.array([1.0, -2.0, 3.0, -4.0]), EstimatorKind.MVUE24_EXACT, 20_000, seed=40)
        assert np.all(mask.sum(axis=1) == 2)
        nonzero = out[out != 0.0]
        np.testing.assert_allclose(np.abs(nonzero), 5.0, atol=1e-12)
        signs_ok = np.sign(out[:, 1][mask[:, 1]])
        np.testing.assert_array_equal(np.unique(signs_ok), [-1.0])

    def test_regime3_kept_values(self):
        # [1,1,1,4]: the max keeps its value, the partner rescales to 3.
        out, mask = mc_draws(np.array([1.0, 1.0, 1.0, 4.0]), EstimatorKind.MVUE24_EXACT, 5_000, seed=41)
        assert np.all(mask[:, 3])
        np.testing.assert_allclose(out[:, 3], 4.0, atol=1e-12)
        partners = out[:, :3][mask[:, :3]]
        np.testing.assert_allclose(partners, 3.0, atol=1e-12)

    def test_pair_frequencies_match_table(self):
        samples = 100_000
        for row, oracle in [
            (np.array([1.0, 2.0, 3.0, 4.0]), ORACLE_1234_PAIRS),
            (np.array([1.0, 2.0, 3.0, 5.0]), ORACLE_1235_PAIRS),
            (np.array([1.0, 2.0, 3.0, 6.0]), ORACLE_1236_PAIRS),
            (np.array([1.0, 1.0, 1.0, 4.0]), ORACLE_1114_PAIRS),
        ]:
            _, mask = mc_draws(row, EstimatorKind.MVUE24_EXACT, samples, seed=42)
            codes = mask[:, 0] * 1 + mask[:, 1] * 2 + mask[:, 2] * 4 + mask[:, 3] * 8
            for pair, want in oracle.items():
                p = float(want)
                code = (1 << pair[0]) | (1 << pair[1])
                freq = (codes == code).mean()
                se = np.sqrt(p * (1 - p) / samples)
                assert abs(freq - p) <= max(5 * se, 1e-12), (row, pair)

    def test_unbiased_and_variance_mc(self):
        blocks = mixed_blocks(40, 4, seed=43)
        samples = 40_000
        for i, row in enumerate(blocks):
            out, _ = mc_draws(row, EstimatorKind.MVUE24_EXACT, samples, seed=200 + i)
            mean = out.mean(axis=0)
            se = out.std(axis=0, ddof=1) / np.sqrt(samples)
            assert np.all(np.abs(mean - row) <= 5 * se + 1e-12)
            mse = ((out - row) ** 2).sum(axis=1)
            v = exact24_variance(row[None, :])[0]
            assert abs(mse.mean() - v) <= 5 * mse.std(ddof=1) / np.sqrt(samples) + 1e-9

    def test_variance_from_pair_enumeration_matches_marginal_formula(self):
        # Independent route: total variance from the pair table directly.
        blocks = np.abs(mixed_blocks(200, 4, seed=44)) + 1e-6
        tables = exact24_pair_probs(blocks)
        marginals = exact24_marginal_probs(blocks)
        v_marginal = exact24_variance(blocks)
        v_pairs = np.zeros(len(blocks))
        for c, (i, j) in enumerate(PAIR_INDEX_COLUMNS):
            theta = np.zeros_like(blocks)
            theta[:, i] = blocks[:, i] / marginals[:, i]
            theta[:, j] = blocks[:, j] / marginals[:, j]
            v_pairs += tables[:, c] * ((theta - blocks) ** 2).sum(axis=1)
        np.testing.assert_allclose(v_pairs, v_marginal, rtol=1e-9)

    def test_sampler_consumes_one_uniform_per_block(self):
        blocks = mixed_blocks(64, 4, seed=45)
        s = RandomStream(46)
        out1, _ = prune_array(blocks, EstimatorKind.MVUE24_EXACT, P24, s)
        # Same stream, next 64 uniforms: disjoint draws, different result.
        out2, _ = prune_array(blocks, EstimatorKind.MVUE24_EXACT, P24, s)
        fresh = RandomStream(46)
        again1, _ = prune_array(blocks, EstimatorKind.MVUE24_EXACT, P24, fresh)
        again2, _ = prune_array(blocks, EstimatorKind.MVUE24_EXACT, P24, fresh)
        np.testing.assert_array_equal(out1, again1)
        np.testing.assert_array_equal(out2, again2)

    def test_subnormal_block_draws_from_the_table(self):
        # S = 1e-309 has no finite reciprocal; the sampler never forms one,
        # so it keeps the regime-1 pair distribution and the S/2 survivors.
        row = np.array([1.0, -2.0, 3.0, -4.0]) * 1e-310
        samples = 100_000
        out, mask = mc_draws(row, EstimatorKind.MVUE24_EXACT, samples, seed=48)
        codes = mask[:, 0] * 1 + mask[:, 1] * 2 + mask[:, 2] * 4 + mask[:, 3] * 8
        for pair, want in ORACLE_1234_PAIRS.items():
            p = float(want)
            freq = (codes == (1 << pair[0]) | (1 << pair[1])).mean()
            assert abs(freq - p) <= max(5 * np.sqrt(p * (1 - p) / samples), 1e-12), pair
        np.testing.assert_array_equal(np.abs(out[mask]), 5e-310)

    def test_all_zero_block_uniform_pairs(self):
        out, mask = mc_draws(np.zeros(4), EstimatorKind.MVUE24_EXACT, 60_000, seed=47)
        np.testing.assert_array_equal(out, np.zeros_like(out))
        assert np.all(mask.sum(axis=1) == 2)
        codes = mask[:, 0] * 1 + mask[:, 1] * 2 + mask[:, 2] * 4 + mask[:, 3] * 8
        freqs = [(codes == (1 << i) | (1 << j)).mean() for i, j in PAIR_INDEX_COLUMNS]
        se = np.sqrt((1 / 6) * (5 / 6) / 60_000)
        assert np.all(np.abs(np.array(freqs) - 1 / 6) <= 5 * se)


# ---------------------------------------------------------------------------
# Approximate 2:4


class TestApprox24:
    def test_inclusion_oracle_1234(self):
        want = oracle_eq17_inclusion([1, 2, 3, 4])
        assert [str(w) for w in want] == ["197/840", "139/315", "73/120", "451/630"]
        got = approx24_inclusion([[1.0, 2.0, 3.0, 4.0]])[0]
        np.testing.assert_allclose(got, [float(w) for w in want], atol=1e-14)
        assert got.sum() == pytest.approx(2.0, abs=1e-12)

    def test_variance_oracle_1234(self):
        want = oracle_eq17_inclusion([1, 2, 3, 4])
        v = oracle_variance([1, 2, 3, 4], want)
        got = approx24_variance_array(np.array([[1.0, 2.0, 3.0, 4.0]]))[0]
        assert got == pytest.approx(float(v), rel=1e-12)
        # Within 2x of the optimum (which is 20 for this block).
        assert 1.0 <= float(v) / 20.0 < 2.0

    def test_probs_sum_to_two_random(self):
        blocks = mixed_blocks(500, 4, seed=50)
        probs = approx24_inclusion(blocks)
        np.testing.assert_allclose(probs.sum(axis=1), 2.0, atol=1e-12)
        pairs = approx24_pair_probs(blocks)
        np.testing.assert_allclose(pairs.sum(axis=1), 1.0, atol=1e-12)
        # Pair table consistent with inclusion probabilities.
        for i in range(4):
            cols = [c for c, pair in enumerate(PAIR_INDEX_COLUMNS) if i in pair]
            np.testing.assert_allclose(pairs[:, cols].sum(axis=1), probs[:, i], atol=1e-12)

    def test_zero_entries_never_kept_when_mass_remains(self):
        got = approx24_inclusion([[0.0, 0.0, 1.0, 1.0]])[0]
        np.testing.assert_array_equal(got, [0.0, 0.0, 1.0, 1.0])
        out, mask = mc_draws(np.array([0.0, 0.0, 1.0, 1.0]), EstimatorKind.MVUE24_APPROX, 2_000, seed=51)
        np.testing.assert_array_equal(mask[:, 2:], np.ones((2_000, 2), bool))
        np.testing.assert_allclose(out[:, 2:], 1.0, atol=1e-12)

    def test_single_nonzero_fallback(self):
        got = approx24_inclusion([[0.0, 0.0, 0.0, 2.0]])[0]
        np.testing.assert_allclose(got, [1 / 3, 1 / 3, 1 / 3, 1.0], atol=1e-15)
        out, mask = mc_draws(np.array([0.0, 0.0, 0.0, 2.0]), EstimatorKind.MVUE24_APPROX, 30_000, seed=52)
        assert np.all(mask[:, 3])
        np.testing.assert_allclose(out[:, 3], 2.0, atol=1e-12)
        partner_freq = mask[:, :3].mean(axis=0)
        se = np.sqrt((1 / 3) * (2 / 3) / 30_000)
        assert np.all(np.abs(partner_freq - 1 / 3) <= 5 * se)

    def test_all_zero_block_draws_uniform_pairs(self):
        # The probabilities model the sampler's uniform draw of every pair.
        np.testing.assert_array_equal(approx24_exclusion_probs(np.zeros((1, 4))), 0.5)
        np.testing.assert_array_equal(approx24_pair_probs(np.zeros((1, 4))), 1.0 / 6.0)
        out, mask = mc_draws(np.zeros(4), EstimatorKind.MVUE24_APPROX, 60_000, seed=53)
        np.testing.assert_array_equal(out, np.zeros_like(out))
        assert np.all(mask.sum(axis=1) == 2)
        codes = mask @ (1 << np.arange(4))
        freqs = [(codes == (1 << i) | (1 << j)).mean() for i, j in PAIR_INDEX_COLUMNS]
        assert np.all(np.abs(np.array(freqs) - 1 / 6) <= 5 * np.sqrt((1 / 6) * (5 / 6) / 60_000))

    def test_unbiased_variance_and_frequencies_mc(self):
        blocks = mixed_blocks(40, 4, seed=54)
        samples = 40_000
        for i, row in enumerate(blocks):
            out, mask = mc_draws(row, EstimatorKind.MVUE24_APPROX, samples, seed=300 + i)
            mean = out.mean(axis=0)
            se = out.std(axis=0, ddof=1) / np.sqrt(samples)
            assert np.all(np.abs(mean - row) <= 5 * se + 1e-12)
            mse = ((out - row) ** 2).sum(axis=1)
            v = approx24_variance_array(row[None, :])[0]
            assert abs(mse.mean() - v) <= 5 * mse.std(ddof=1) / np.sqrt(samples) + 1e-9
            freq = mask.mean(axis=0)
            p = approx24_inclusion(row[None, :])[0]
            se_f = np.sqrt(p * (1 - p) / samples)
            assert np.all(np.abs(freq - p) <= 5 * se_f + 1e-12)

    def test_never_below_exact_variance(self):
        blocks = np.abs(mixed_blocks(2_000, 4, seed=55)) + 1e-9
        v_exact = exact24_variance(blocks)
        v_approx = approx24_variance_array(blocks)
        ratio = v_approx / v_exact
        assert np.all(ratio >= 1.0 - 1e-9)
        assert np.all(ratio < 2.0)

    def test_subnormal_block_finite_survivors(self):
        # S = 1e-309 has no finite reciprocal; the probabilities divide by S
        # instead, so survivors stay finite and the draw keeps the pair
        # distribution of the unscaled block.
        unit = np.array([1.0, -2.0, 3.0, -4.0])
        row = unit * 1e-310
        samples = 100_000
        out, mask = mc_draws(row, EstimatorKind.MVUE24_APPROX, samples, seed=56)
        assert np.all(np.isfinite(out))
        codes = mask[:, 0] * 1 + mask[:, 1] * 2 + mask[:, 2] * 4 + mask[:, 3] * 8
        for (i, j), p in zip(PAIR_INDEX_COLUMNS, approx24_pair_probs(unit[None, :])[0]):
            freq = (codes == (1 << i) | (1 << j)).mean()
            assert abs(freq - p) <= 5 * np.sqrt(p * (1 - p) / samples), (i, j)
        want = np.broadcast_to(row / approx24_inclusion(unit[None, :])[0], out.shape)
        np.testing.assert_allclose(out[mask], want[mask], rtol=1e-9, atol=0.0)

    def test_dominant_entry_keeps_relative_precision(self):
        # When one entry dwarfs the block its exclusion probability is tiny
        # (around 1e-12 here) and the naive 1/p - 1 route returns rounding
        # noise with the wrong sign. The exclusion-based variance must match
        # an exact rational evaluation to high relative accuracy.
        for mags in ([1e-6, 1e-6, 1e-6, 1.0], [1e-6, 1.4e-6, 2.0e-6, 1.0]):
            p = oracle_eq17_inclusion(mags)
            want = sum(Fraction(a) ** 2 * (1 - pi) / pi for a, pi in zip(mags, p))
            got = approx24_variance_array(np.array([mags]))[0]
            assert got == pytest.approx(float(want), rel=1e-9)
            assert got > 0
            # The max entry alone carries half the variance at this corner.
            v_exact = exact24_variance([mags])[0]
            assert 1.99 < got / v_exact < 2.0


# ---------------------------------------------------------------------------
# Both 2:4 samplers against the reference draw: the normalised probability
# table inverted at u, then survivors divided by their marginals.


def inverse_cdf_sample(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Column index per row by inverting the cumulative sum at u in [0, 1).

    Zero-probability columns are never selected. Rows are renormalized so
    accumulated rounding cannot push the total below u.
    """
    cum = np.cumsum(probs, axis=1)
    cum = cum / cum[:, -1:]
    return np.minimum((u[:, None] >= cum).sum(axis=1), probs.shape[1] - 1)


def reference_exact24(values: np.ndarray, u: np.ndarray):
    mags = np.abs(values)
    order = np.argsort(mags, axis=1, kind="stable")
    # The pair table in sorted-magnitude column order.
    columns = _PAIR_COLUMN[order[:, _PAIR_FIRST], order[:, _PAIR_SECOND]]
    table = np.take_along_axis(exact24_pair_probs(values), columns, axis=1)
    col = inverse_cdf_sample(table, u)
    rows = np.arange(len(values))
    mask = np.zeros(values.shape, dtype=bool)
    sorted_pairs = np.array(PAIR_INDEX_COLUMNS)[col]
    for k in range(2):
        mask[rows, order[rows, sorted_pairs[:, k]]] = True
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(mask & (mags > 0.0), values / exact24_marginal_probs(values), 0.0)
    return out, mask


def reference_approx24(values: np.ndarray, u: np.ndarray):
    mags = np.abs(values)
    rows = np.arange(len(values))
    total = mags.sum(axis=1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        first = inverse_cdf_sample(np.where(total > 0.0, mags / total, 0.25), u[:, 0])
        rest_mags = mags.copy()
        rest_mags[rows, first] = 0.0
        rest = rest_mags.sum(axis=1, keepdims=True)
        uniform_rest = np.full(values.shape, 1.0 / 3.0)
        uniform_rest[rows, first] = 0.0
        second = inverse_cdf_sample(
            np.where(rest > 0.0, rest_mags / rest, uniform_rest), u[:, 1]
        )
    mask = np.zeros(values.shape, dtype=bool)
    mask[rows, first] = True
    mask[rows, second] = True
    probs = np.full(values.shape, 0.5)
    nonzero = total[:, 0] > 0.0
    probs[nonzero] = approx24_inclusion(values[nonzero])
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(mask & (values != 0.0), values / probs, 0.0)
    return out, mask


def reference_blocks() -> np.ndarray:
    """Mixed random rows plus the C3 oracle, tie and degenerate blocks,
    each special block repeated with signs and under a permutation."""
    special = np.array(
        [
            [1.0, 2.0, 3.0, 4.0],
            [1.0, 2.0, 3.0, 5.0],
            [1.0, 2.0, 3.0, 5.5],
            [1.0, 2.0, 3.0, 6.0],
            [1.0, 2.0, 3.0, 7.0],
            [1.0, 1.0, 1.0, 4.0],
            [1.0, 1.0, 1.0, 1.0],
            [3.0, 3.0, 1.0, 1.0],
            [2.0, 2.0, 0.0, 0.0],
            [0.0, 3.0, 0.0, 4.0],
            [0.0, 0.0, 7.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
        ]
    )
    special = np.concatenate([special, special[:, [2, 0, 3, 1]]])
    signs = np.array([1.0, -1.0, 1.0, -1.0])
    return np.concatenate(
        [random_test_blocks(20_000, 4, seed=60), np.repeat(special * signs, 2_000, axis=0)]
    )


class TestSamplersMatchReferenceDraw:
    def test_exact24_same_masks_values_within_two_ulps(self):
        blocks = reference_blocks()
        u = RandomStream(61).uniforms(len(blocks))
        out, mask = prune_mvue24_exact_array(blocks, u)
        ref_out, ref_mask = reference_exact24(blocks, u)
        np.testing.assert_array_equal(mask, ref_mask)
        # Closed-form survivors against a_i / p_i: two roundings apart.
        assert np.all(np.abs(out - ref_out) <= 2.0 * np.spacing(np.abs(ref_out)))
        np.testing.assert_array_equal(np.signbit(out), np.signbit(ref_out))

    def test_approx24_same_masks_and_values(self):
        blocks = reference_blocks()
        u = RandomStream(62).uniforms((len(blocks), 2))
        out, mask = prune_mvue24_approx_array(blocks, u)
        ref_out, ref_mask = reference_approx24(blocks, u)
        np.testing.assert_array_equal(mask, ref_mask)
        np.testing.assert_array_equal(out.view(np.int64), ref_out.view(np.int64))


# ---------------------------------------------------------------------------
# Variance helper and dispatch plumbing


class TestElementwiseVariance:
    def test_mvue12_equal_split(self):
        v = elementwise_variance_array(np.array([[3.0, 1.0], [-2.0, 4.0]]), EstimatorKind.MVUE12)
        np.testing.assert_allclose(v, [[3.0, 3.0], [8.0, 8.0]], atol=1e-15)

    def test_exact24_known_block(self):
        # Marginals (0.2, 0.4, 0.6, 0.8) give a^2 (1-p)/p = (4, 6, 6, 4).
        v = elementwise_variance_array(np.array([[1.0, 2.0, 3.0, 4.0]]), EstimatorKind.MVUE24_EXACT)
        np.testing.assert_allclose(v, [[4.0, 6.0, 6.0, 4.0]], atol=1e-12)

    def test_baseline_forms(self):
        row = np.array([[3.0, -1.0]])
        np.testing.assert_allclose(
            elementwise_variance_array(row, EstimatorKind.UNIFORM12), [[2.25, 0.25]]
        )
        np.testing.assert_allclose(
            elementwise_variance_array(row, EstimatorKind.UNBIASED_UNIFORM12), [[9.0, 1.0]]
        )
        # Biased selection: Var = a^2 p (1 - p) with p = (0.75, 0.25).
        np.testing.assert_allclose(
            elementwise_variance_array(row, EstimatorKind.BIASED12), [[9 * 0.1875, 0.1875]]
        )

    def test_sums_match_block_totals(self):
        blocks2 = mixed_blocks(300, 2, seed=65)
        np.testing.assert_allclose(
            elementwise_variance_array(blocks2, EstimatorKind.MVUE12).sum(axis=1),
            mvue12_variance_array(blocks2),
            rtol=1e-12,
        )
        blocks4 = mixed_blocks(300, 4, seed=66)
        np.testing.assert_allclose(
            elementwise_variance_array(blocks4, EstimatorKind.MVUE24_EXACT).sum(axis=1),
            variance_from_probs(blocks4, exact24_marginal_probs(blocks4)),
            rtol=1e-9,
        )
        np.testing.assert_allclose(
            elementwise_variance_array(blocks4, EstimatorKind.MVUE24_APPROX).sum(axis=1),
            approx24_variance_array(blocks4),
            rtol=1e-12,
        )

    def test_matches_mc_per_component(self):
        row = np.array([1.0, -2.0, 3.0, 4.0])
        out, _ = mc_draws(row, EstimatorKind.MVUE24_APPROX, 60_000, seed=67)
        v = elementwise_variance_array(row[None, :], EstimatorKind.MVUE24_APPROX)[0]
        np.testing.assert_allclose(out.var(axis=0, ddof=1), v, rtol=0.1)

    def test_rejects_greedy(self):
        with pytest.raises(ValueError):
            elementwise_variance_array(np.ones((1, 4)), EstimatorKind.GREEDY_MSE)


class TestVarianceFromProbs:
    def test_matches_manual_sum(self):
        v = exact24_variance([[1.0, 2.0, 3.0, 4.0]])[0]
        manual = sum(a * a / p - a * a for a, p in [(1, 0.2), (2, 0.4), (3, 0.6), (4, 0.8)])
        assert v == pytest.approx(manual, rel=1e-13)

    def test_error_keeps_tiny_entries(self):
        # a^2 alone underflows for 1e-200; the error a^2 q / p is 5e-200.
        err = entry_moments(np.array([[1e-200, 5.0]]), EstimatorKind.MVUE12)[0]
        assert err[0, 0] == pytest.approx(5e-200, rel=1e-15)
        var = elementwise_variance_array(np.array([[1e-12, 1.0]]), EstimatorKind.MVUE12)
        np.testing.assert_allclose(var, [[1e-12, 1e-12]], rtol=4.5e-16)

    def test_blocks_wider_than_float64_range(self):
        # p_0 = 1e-400 and q_1 = 1e-400 are below float64's range; the
        # variances are not.
        wide = np.array([[1e-200, -1e200]])
        np.testing.assert_array_equal(
            elementwise_variance_array(wide, EstimatorKind.MVUE12), [[1.0, 1.0]]
        )
        assert mvue12_variance_array(wide)[0] == 2.0
        np.testing.assert_allclose(
            elementwise_variance_array(wide, EstimatorKind.BIASED12), [[0.0, 1.0]], rtol=1e-15
        )
        # 2:4: p_0 is about 1e-400. Exact: |a_0| times the scale S / 2;
        # approx: |a_0| S / (1 + 3 / 2); the others a^2 (1/3) / (2/3).
        wide = np.array([[1e-300, 1e100, -1e100, 1e100]])
        for kind, first in ((EstimatorKind.MVUE24_EXACT, 1.5e-200),
                            (EstimatorKind.MVUE24_APPROX, 1.2e-200)):
            error, var = entry_moments(wide, kind)
            np.testing.assert_allclose(error, [[first, 5e199, 5e199, 5e199]], rtol=1e-14)
            np.testing.assert_array_equal(var, error)


class TestDispatch:
    def test_pattern_validation(self):
        with pytest.raises(ValueError):
            resolve_pattern(EstimatorKind.MVUE12, P24)
        with pytest.raises(ValueError):
            resolve_pattern(EstimatorKind.MVUE24_EXACT, P12)
        with pytest.raises(ValueError):
            resolve_pattern(EstimatorKind.GREEDY_MSE, None)
        assert resolve_pattern(EstimatorKind.MVUE12, None) == P12
        assert resolve_pattern(EstimatorKind.MVUE24_APPROX, None) == P24
        assert resolve_pattern(EstimatorKind.GREEDY_MSE, P48) == P48

    def test_stochastic_methods_need_stream(self):
        with pytest.raises(ValueError):
            prune_array(np.zeros((1, 2)), EstimatorKind.MVUE12, P12, None)

    def test_method_names_round_trip(self):
        for kind in EstimatorKind:
            assert EstimatorKind.from_name(kind.value) is kind
        with pytest.raises(ValueError):
            EstimatorKind.from_name("nope")

    def test_every_stochastic_method_emits_valid_masks(self):
        for kind in EstimatorKind:
            if not kind.is_stochastic:
                continue
            pattern = kind.required_pattern
            blocks = mixed_blocks(300, pattern.m, seed=60)
            out, mask = prune_array(blocks, kind, pattern, RandomStream(61))
            assert np.all(mask.sum(axis=1) == pattern.kept)
            assert np.all(out[~mask] == 0.0)
            assert np.all(np.isfinite(out))


class TestPruneTensor:
    def test_output_satisfies_pattern_and_preserves_tail(self):
        arr = RandomStream(80).normals((16, 30))
        t = BlockedTensor.from_array(arr)
        for kind in (EstimatorKind.GREEDY_MSE, EstimatorKind.MVUE24_EXACT, EstimatorKind.MVUE24_APPROX):
            pruned = prune_tensor(t, kind, P24, RandomStream(81))
            assert pattern_violations(pruned, P24) == 0
            # 30 = 7 blocks of 4 + tail of 2 per lane; the tail is untouched.
            np.testing.assert_array_equal(pruned.as_array()[:, 28:], arr[:, 28:])
            assert pruned.shape == t.shape and pruned.block_axis == t.block_axis

    def test_greedy_respects_other_axes(self):
        arr = RandomStream(82).normals((8, 12))
        t = BlockedTensor.from_array(arr, block_axis=0)
        pruned = prune_tensor(t, EstimatorKind.GREEDY_MSE, P24)
        assert pattern_violations(pruned, P24) == 0
        blocked, _ = split_axis(pruned, 4)
        assert np.all(np.count_nonzero(blocked, axis=1) <= 2)

    def test_deterministic_given_stream(self):
        arr = RandomStream(83).normals((4, 16))
        t = BlockedTensor.from_array(arr)
        a = prune_tensor(t, EstimatorKind.MVUE24_EXACT, P24, RandomStream(84))
        b = prune_tensor(t, EstimatorKind.MVUE24_EXACT, P24, RandomStream(84))
        assert a == b

    @pytest.mark.parametrize("block_axis", [0, -1])
    def test_split_cache_holds_the_output_values(self, block_axis):
        # prune_tensor leaves its blocks and tail for the pattern check and
        # compress; they must be what a fresh split of the output reads.
        arr = RandomStream(87).normals((4 * 9 + 2, 4 * 5 + 3)).astype(np.float32)
        t = BlockedTensor.from_array(arr, block_axis=block_axis)
        pruned = prune_tensor(t, EstimatorKind.MVUE24_EXACT, P24, RandomStream(88))
        fresh = BlockedTensor(pruned.shape, pruned.data.copy(), pruned.block_axis)
        assert 4 in pruned._split and not fresh._split
        for got, want in zip(_coded_split(pruned, 4), _coded_split(fresh, 4)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        got, want = compress(pruned, P24), compress(fresh, P24)
        for name in ("values", "indices", "tail"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))

    def test_unbiased_over_tensor_mc(self):
        # Tensor-level sanity: averaging many pruned copies approaches the input.
        arr = RandomStream(85).normals((2, 8))
        t = BlockedTensor.from_array(arr)
        stream = RandomStream(86)
        total = np.zeros_like(arr)
        n = 4_000
        for _ in range(n):
            total += prune_tensor(t, EstimatorKind.MVUE12, P12, stream).as_array()
        np.testing.assert_allclose(total / n, arr, atol=0.2)


def whole_array_kernel(values: np.ndarray, kind: EstimatorKind, seed: int):
    """The kernel called once on all blocks, with the uniforms of one draw."""
    pattern = resolve_pattern(kind, P24 if kind is EstimatorKind.GREEDY_MSE else None)
    method = METHODS[kind]
    u = RandomStream(seed).uniforms((values.shape[0], method.draws)) if method.draws else None
    return method.kernel(values, u, pattern)


CHUNK_EDGES = (PRUNE_CHUNK_BLOCKS - 1, PRUNE_CHUNK_BLOCKS, PRUNE_CHUNK_BLOCKS + 1,
               2 * PRUNE_CHUNK_BLOCKS + 3)


class TestPruneArrayChunks:
    """prune_array runs the kernel chunk by chunk; the result must be the
    kernel's on the whole array, bit for bit."""

    @pytest.mark.parametrize("kind", list(EstimatorKind))
    @pytest.mark.parametrize("blocks", CHUNK_EDGES)
    def test_bit_identical_to_one_kernel_call(self, kind, blocks):
        pattern = resolve_pattern(kind, P24 if kind is EstimatorKind.GREEDY_MSE else None)
        values = random_test_blocks(blocks, pattern.m, seed=blocks)
        values[::7] = 0.0  # degenerate blocks land in every chunk
        out, mask = prune_array(values, kind, pattern, RandomStream(90))
        ref_out, ref_mask = whole_array_kernel(values, kind, 90)
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out.view(np.uint64), ref_out.view(np.uint64))
        np.testing.assert_array_equal(mask, ref_mask)

    @pytest.mark.parametrize("kind", list(EstimatorKind))
    def test_float32_blocks_give_the_float64_result_cast(self, kind):
        pattern = resolve_pattern(kind, P24 if kind is EstimatorKind.GREEDY_MSE else None)
        values = random_test_blocks(CHUNK_EDGES[-1], pattern.m, seed=91).astype(np.float32)
        out, mask = prune_array(values, kind, pattern, RandomStream(92))
        ref_out, ref_mask = whole_array_kernel(values.astype(np.float64), kind, 92)
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out.view(np.uint32), ref_out.astype(np.float32).view(np.uint32))
        np.testing.assert_array_equal(mask, ref_mask)

    @pytest.mark.parametrize("kind", list(EstimatorKind))
    def test_broadcast_input_keeps_the_kernel_layout(self, kind):
        # A broadcast row gives a column-major kernel output, whose axis-0
        # mean of a constant column is exact; the chunked output keeps it.
        pattern = resolve_pattern(kind, P24 if kind is EstimatorKind.GREEDY_MSE else None)
        row = random_test_blocks(1, pattern.m, seed=93)[0]
        tiled = np.broadcast_to(row, (2 * PRUNE_CHUNK_BLOCKS + 3, pattern.m))
        out, _ = prune_array(tiled, kind, pattern, RandomStream(94))
        ref_out, _ = whole_array_kernel(tiled, kind, 94)
        assert out.strides == ref_out.strides
        np.testing.assert_array_equal(out, ref_out)

    @pytest.mark.parametrize("kind", list(EstimatorKind))
    @pytest.mark.parametrize("blocks", CHUNK_EDGES)
    def test_stream_continues_as_after_one_draw(self, kind, blocks):
        pattern = resolve_pattern(kind, P24 if kind is EstimatorKind.GREEDY_MSE else None)
        values = random_test_blocks(blocks, pattern.m, seed=98)
        stream = RandomStream(99)
        prune_array(values, kind, pattern, stream)
        reference = RandomStream(99)
        if METHODS[kind].draws:
            reference.uniforms((len(values), METHODS[kind].draws))
        np.testing.assert_array_equal(stream.uniforms(8), reference.uniforms(8))

    # unbiased-uniform doubles 1e308: a survivor beyond float64 is inf.
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("kind", list(EstimatorKind))
    def test_out_of_range_blocks_in_one_chunk(self, kind, monkeypatch):
        # Only the last chunk holds blocks beyond the kernels' range; it is
        # scaled block by block, so the chunked result is the one-call result.
        pattern = resolve_pattern(kind, P24 if kind is EstimatorKind.GREEDY_MSE else None)
        values = random_test_blocks(2 * PRUNE_CHUNK_BLOCKS + 3, pattern.m, seed=114)
        top = np.abs(values[-3:]).max(axis=1, keepdims=True)
        values[-3:] *= [[1e308], [-1e308], [1e-310]] / top
        out, mask = prune_array(values, kind, pattern, RandomStream(115))
        monkeypatch.setattr(estimators, "PRUNE_CHUNK_BLOCKS", len(values))
        ref_out, ref_mask = prune_array(values, kind, pattern, RandomStream(115))
        np.testing.assert_array_equal(out.view(np.uint64), ref_out.view(np.uint64))
        np.testing.assert_array_equal(mask, ref_mask)

    @pytest.mark.parametrize("failing_chunk", [0, 1, 2])
    def test_error_in_a_chunk_reaches_the_caller(self, failing_chunk, monkeypatch):
        calls = []

        def failing(v, u, pattern):
            calls.append(len(v))
            if len(calls) == failing_chunk + 1:
                raise ValueError("bad chunk")
            return prune_mvue12_array(v, u[:, 0])

        method = dataclasses.replace(METHODS[EstimatorKind.MVUE12], kernel=failing)
        monkeypatch.setitem(estimators.METHODS, EstimatorKind.MVUE12, method)
        values = random_test_blocks(2 * PRUNE_CHUNK_BLOCKS + 3, 2, seed=100)
        with pytest.raises(ValueError, match="bad chunk"):
            prune_array(values, EstimatorKind.MVUE12, None, RandomStream(0))
        # No chunk after the failing one runs.
        assert calls == [PRUNE_CHUNK_BLOCKS, PRUNE_CHUNK_BLOCKS, 3][: failing_chunk + 1]

    def test_caller_errstate_holds_in_every_chunk(self, monkeypatch):
        seen = []

        def recording(v, u, pattern):
            seen.append(np.geterr()["over"])
            return prune_mvue12_array(v, u[:, 0])

        method = dataclasses.replace(METHODS[EstimatorKind.MVUE12], kernel=recording)
        monkeypatch.setitem(estimators.METHODS, EstimatorKind.MVUE12, method)
        values = random_test_blocks(4 * PRUNE_CHUNK_BLOCKS, 2, seed=101)
        with np.errstate(over="raise"):
            prune_array(values, EstimatorKind.MVUE12, None, RandomStream(0))
        assert seen == ["raise"] * 4


def test_pruning_and_verify_run_on_the_calling_thread(monkeypatch):
    # The library starts no thread: every kernel call runs on the caller's.
    seen = set()
    for kind, method in list(METHODS.items()):
        def kernel(v, u, pattern, method=method):
            seen.add(threading.get_ident())
            return method.kernel(v, u, pattern)

        monkeypatch.setitem(estimators.METHODS, kind, dataclasses.replace(method, kernel=kernel))
    before = threading.active_count()
    values = random_test_blocks(2 * PRUNE_CHUNK_BLOCKS + 3, 4, seed=106)
    prune_array(values, EstimatorKind.MVUE24_APPROX, None, RandomStream(107))
    prune_tensor(BlockedTensor.from_array(values), EstimatorKind.MVUE24_EXACT, None, RandomStream(108))
    verify_estimator(EstimatorKind.MVUE12, num_blocks=4, samples=1_000, seed=109)
    assert threading.active_count() == before
    assert seen == {threading.get_ident()}


def prune_tensor_peak(
    kind: EstimatorKind, tmp_path, shape=(1024, 1024), block_axis=-1
) -> tuple[int, int]:
    """Traced peak that prune_tensor allocates on top of the float32 tensor
    it reads, re-blocked on block_axis as the prune command does, and that
    tensor's size in bytes."""
    path = tmp_path / "t.nmsp"
    values = RandomStream(95).normals(shape).astype(np.float32)
    write_tensor(path, BlockedTensor.from_array(values))
    pattern = resolve_pattern(kind, P24 if kind is EstimatorKind.GREEDY_MSE else None)
    tracemalloc.start()
    try:
        t = read_tensor(path)
        t = BlockedTensor(t.shape, t.data, block_axis)  # shares the read-only data
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        pruned = prune_tensor(t, kind, pattern, RandomStream(96))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t.data.dtype == np.float32 and pruned.data.dtype == np.float32
    assert pruned.block_axis == block_axis % len(shape)
    return peak - before, values.nbytes


class TestPruneTensorMemory:
    # What prune_tensor allocates on top of the tensor it reads: the output
    # in block and in tensor layout, the mask and one chunk's temporaries;
    # no copy of the whole tensor before it is pruned, no full-size float64.
    @pytest.mark.parametrize("kind", list(EstimatorKind))
    def test_peak_stays_near_two_payloads_on_the_innermost_axis(self, kind, tmp_path):
        # The output shares its block layout: one payload fewer.
        peak, payload = prune_tensor_peak(kind, tmp_path)
        assert peak <= 2.1 * payload

    @pytest.mark.parametrize("kind", list(EstimatorKind))
    @pytest.mark.parametrize("shape,block_axis", [
        ((1024, 1026), -1),  # two columns are left as a tail
        ((1026, 1024), 0),  # blocks run down the columns; two rows are a tail
        ((1024, 1024), 0),
        ((64, 1026, 16), 1),
    ])
    def test_peak_stays_within_two_and_a_half_payloads(self, kind, tmp_path, shape, block_axis):
        peak, payload = prune_tensor_peak(kind, tmp_path, shape, block_axis)
        assert peak <= 2.5 * payload


class TestExtremeScaleProbabilities:
    """Probabilities do not depend on scale: blocks whose total overflows
    or is subnormal get the probabilities of the same block at unit scale."""

    BLOCK = np.array([[1.0, 2.0, 3.0, 4.0]])
    NEAR_MAX = np.array([[1e308, 1e308, 1e308, 5e307]])

    def test_subnormal_block(self):
        tiny = self.BLOCK * 1e-310
        np.testing.assert_allclose(exact24_pair_probs(tiny), exact24_pair_probs(self.BLOCK), rtol=1e-9)
        np.testing.assert_allclose(
            exact24_marginal_probs(tiny), exact24_marginal_probs(self.BLOCK), rtol=1e-9
        )
        np.testing.assert_allclose(
            approx24_exclusion_probs(tiny), approx24_exclusion_probs(self.BLOCK), rtol=1e-9
        )
        np.testing.assert_allclose(mvue12_selection_probs([[1e-320, 3e-320]]), [[0.25, 0.75]])

    def test_near_maximum_block(self):
        with np.errstate(all="raise"):
            marginals = exact24_marginal_probs(self.NEAR_MAX)
            pairs = exact24_pair_probs(self.NEAR_MAX)
            exclusion = approx24_exclusion_probs(np.full((1, 4), 1e308))
            approx_pairs = approx24_pair_probs(np.full((1, 4), 1e308))
            selection = mvue12_selection_probs([[1e308, 1e308]])
        np.testing.assert_allclose(marginals, [[4 / 7, 4 / 7, 4 / 7, 2 / 7]], rtol=1e-12)
        assert np.all(np.isfinite(pairs)) and pairs.sum() == pytest.approx(1.0)
        np.testing.assert_allclose(exclusion, np.full((1, 4), 0.5), rtol=1e-12)
        np.testing.assert_allclose(approx_pairs, np.full((1, 6), 1 / 6), rtol=1e-12)
        np.testing.assert_allclose(selection, [[0.5, 0.5]])

    def test_normal_blocks_are_unchanged(self):
        normal = random_test_blocks(200, 4, seed=106)
        mixed = np.concatenate([normal, self.NEAR_MAX, self.BLOCK * 1e-310])
        for probs in (exact24_pair_probs, exact24_marginal_probs, approx24_exclusion_probs,
                      approx24_pair_probs):
            np.testing.assert_array_equal(probs(mixed)[:200], probs(normal))


class TestExtremeScaleSamplers:
    """Draws are exact at every finite scale: an out-of-range float64 block
    is drawn at a power-of-two scale, so it keeps the keep rates of the
    same block at unit scale, and a survivor beyond float64 is +-inf."""

    SAMPLES = 100_000

    def draw(self, row, kind, seed):
        out, mask = mc_draws(np.array(row), kind, self.SAMPLES, seed)
        assert not np.any(np.isnan(out))
        return out, mask

    def assert_rates(self, mask, p):
        p = np.asarray(p, dtype=float)
        se = np.sqrt(p * (1.0 - p) / self.SAMPLES)
        assert np.all(np.abs(mask.mean(axis=0) - p) <= 5.0 * se), mask.mean(axis=0)

    def test_exact24_near_maximum(self):
        _, mask = self.draw([1e308, 1e308, 1e308, 5e307], EstimatorKind.MVUE24_EXACT, 110)
        self.assert_rates(mask, [4 / 7, 4 / 7, 4 / 7, 2 / 7])

    def test_exact24_four_maximal_entries(self):
        out, mask = self.draw([1e308, -1e308, 1e308, 1e308], EstimatorKind.MVUE24_EXACT, 111)
        codes = mask @ (1 << np.arange(4))
        for (i, j), p in zip(PAIR_INDEX_COLUMNS, exact24_pair_probs(np.ones((1, 4)))[0]):
            freq = np.mean(codes == (1 << i) | (1 << j))
            assert abs(freq - p) <= 5.0 * np.sqrt(p * (1.0 - p) / self.SAMPLES), (i, j)
        # The survivors' magnitude S/2 = 2e308 is beyond float64.
        np.testing.assert_array_equal(np.abs(out[mask]), np.inf)

    @pytest.mark.parametrize("kind", [EstimatorKind.MVUE12, EstimatorKind.BIASED12])
    def test_12_near_maximum(self, kind):
        out, mask = self.draw([1e308, 1e308], kind, 112)
        self.assert_rates(mask, [0.5, 0.5])
        survivor = np.inf if kind is EstimatorKind.MVUE12 else 1e308
        np.testing.assert_array_equal(out[mask], survivor)

    def test_approx24_four_maximal_entries(self):
        out, mask = self.draw(np.full(4, 1e308), EstimatorKind.MVUE24_APPROX, 113)
        self.assert_rates(mask, np.full(4, 0.5))
        np.testing.assert_array_equal(out[mask], np.inf)

    @pytest.mark.parametrize("kind", [EstimatorKind.MVUE24_EXACT, EstimatorKind.MVUE24_APPROX])
    def test_deep_subnormal_block(self, kind):
        # Multiples of the smallest subnormal: quartering or scaling them
        # in place would round the running sums.
        unit = np.array([1.0, -2.0, 3.0, -4.0])
        out, mask = self.draw(unit * 5e-324, kind, 114)
        p = 1.0 - METHODS[kind].probs(unit[None, :], None)[1][0]
        self.assert_rates(mask, p)
        assert np.all(np.isfinite(out))

    # unbiased-uniform doubles 1e308: a survivor beyond float64 is inf.
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("kind", [k for k in EstimatorKind if k.is_stochastic])
    def test_blocks_in_range_are_untouched(self, kind):
        m = kind.required_pattern.m
        normal = random_test_blocks(1_000, m, seed=115)
        extreme = np.full((2, m), 1e308) * [[1.0], [5e-324 / 1e308]]
        mixed = np.concatenate([normal, extreme])
        want, want_mask = prune_array(normal, kind, None, RandomStream(116))
        got, got_mask = prune_array(mixed, kind, None, RandomStream(116))
        np.testing.assert_array_equal(got[:1_000].view(np.uint64), want.view(np.uint64))
        np.testing.assert_array_equal(got_mask[:1_000], want_mask)
        assert np.all(got_mask[1_000:].sum(axis=1) == kind.required_pattern.kept)
        assert not np.any(np.isnan(got))
