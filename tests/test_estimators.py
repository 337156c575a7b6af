"""Estimator kernel tests.

Closed-form probability tables for the hand-checkable blocks are frozen
here as exact fractions, derived independently from the three-regime
construction (feasible marginals 2*b_k/S, or forced max plus proportional
partner). Monte-Carlo checks run at the 5-sigma level with fixed seeds.
"""

import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from nmsparse.analysis import random_test_blocks
from nmsparse.core import (
    SUPPORTED_BLOCK_LENGTHS,
    Block,
    BlockedTensor,
    SparsityPattern,
    pattern_violations,
    split_axis,
)
from nmsparse.estimators import (
    PAIR_INDEX_COLUMNS,
    PRUNE_CHUNK_BLOCKS,
    EstimatorKind,
    _exact24_pair_table_sorted,
    analytic_variance_from_probs,
    analytic_variance_mvue12,
    approx24_inclusion_probs,
    approx24_pair_probs,
    approx24_variance_array,
    block_mse,
    elementwise_variance_array,
    exact24_marginal_probs,
    exact24_pair_probs,
    greedy_mask_array,
    inclusion_probs_approx24,
    marginal_probs_exact24,
    mvue12_variance_array,
    prune_array,
    prune_baseline,
    prune_biased12_array,
    prune_greedy,
    prune_greedy_array,
    prune_mvue12,
    prune_mvue12_array,
    prune_mvue24_approx,
    prune_mvue24_approx_array,
    prune_mvue24_exact,
    prune_mvue24_exact_array,
    prune_tensor,
    prune_uniform12_array,
    resolve_pattern,
    variance_from_probs_array,
)
from nmsparse.rng import RandomStream
from nmsparse.tensorio import read_tensor, write_tensor

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
            block = Block(row)
            mask_oracle, mse_oracle = brute_force_min_mse_mask(block, pattern)
            pruned = prune_greedy(block, pattern)
            assert block_mse(block, pruned) == pytest.approx(mse_oracle, abs=1e-12)
            np.testing.assert_array_equal(pruned.mask.kept, mask_oracle.kept)


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
            v = analytic_variance_mvue12(Block(row))
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
        assert analytic_variance_mvue12(Block([3.0, 1.0])) == 6.0
        assert analytic_variance_mvue12(Block([-3.0, 1.0])) == 6.0
        assert analytic_variance_mvue12(Block([5.0, 0.0])) == 0.0
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
        assert analytic_variance_mvue12(Block([2.0, -2.0])) == 8.0 == 2.0 ** 2 + 2.0 ** 2


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
        marg = marginal_probs_exact24(Block([1.0, 2.0, 3.0, 4.0]))
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
        marg = marginal_probs_exact24(Block([1.0, 1.0, 1.0, 4.0]))
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
        marg = marginal_probs_exact24(Block([0.0, 3.0, 0.0, 4.0]))
        np.testing.assert_allclose(marg, [0.0, 1.0, 0.0, 1.0], atol=1e-15)

    def test_degenerate_three_zeros_and_all_zero(self):
        marg = marginal_probs_exact24(Block([0.0, 0.0, 7.0, 0.0]))
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
            v = analytic_variance_from_probs(Block(row), marginal_probs_exact24(Block(row)))
            assert abs(mse.mean() - v) <= 5 * mse.std(ddof=1) / np.sqrt(samples) + 1e-9

    def test_variance_from_pair_enumeration_matches_marginal_formula(self):
        # Independent route: total variance from the pair table directly.
        blocks = np.abs(mixed_blocks(200, 4, seed=44)) + 1e-6
        tables = exact24_pair_probs(blocks)
        marginals = exact24_marginal_probs(blocks)
        v_marginal = variance_from_probs_array(blocks, marginals)
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
        got = inclusion_probs_approx24(Block([1.0, 2.0, 3.0, 4.0]))
        np.testing.assert_allclose(got, [float(w) for w in want], atol=1e-14)
        assert got.sum() == pytest.approx(2.0, abs=1e-12)

    def test_variance_oracle_1234(self):
        want = oracle_eq17_inclusion([1, 2, 3, 4])
        v = oracle_variance([1, 2, 3, 4], want)
        got = analytic_variance_from_probs(
            Block([1.0, 2.0, 3.0, 4.0]), inclusion_probs_approx24(Block([1.0, 2.0, 3.0, 4.0]))
        )
        assert got == pytest.approx(float(v), rel=1e-12)
        # Within 2x of the optimum (which is 20 for this block).
        assert 1.0 <= float(v) / 20.0 < 2.0

    def test_probs_sum_to_two_random(self):
        blocks = mixed_blocks(500, 4, seed=50)
        probs = approx24_inclusion_probs(blocks)
        np.testing.assert_allclose(probs.sum(axis=1), 2.0, atol=1e-12)
        pairs = approx24_pair_probs(blocks)
        np.testing.assert_allclose(pairs.sum(axis=1), 1.0, atol=1e-12)
        # Pair table consistent with inclusion probabilities.
        for i in range(4):
            cols = [c for c, pair in enumerate(PAIR_INDEX_COLUMNS) if i in pair]
            np.testing.assert_allclose(pairs[:, cols].sum(axis=1), probs[:, i], atol=1e-12)

    def test_zero_entries_never_kept_when_mass_remains(self):
        got = inclusion_probs_approx24(Block([0.0, 0.0, 1.0, 1.0]))
        np.testing.assert_array_equal(got, [0.0, 0.0, 1.0, 1.0])
        out, mask = mc_draws(np.array([0.0, 0.0, 1.0, 1.0]), EstimatorKind.MVUE24_APPROX, 2_000, seed=51)
        np.testing.assert_array_equal(mask[:, 2:], np.ones((2_000, 2), bool))
        np.testing.assert_allclose(out[:, 2:], 1.0, atol=1e-12)

    def test_single_nonzero_fallback(self):
        got = inclusion_probs_approx24(Block([0.0, 0.0, 0.0, 2.0]))
        np.testing.assert_allclose(got, [1 / 3, 1 / 3, 1 / 3, 1.0], atol=1e-15)
        out, mask = mc_draws(np.array([0.0, 0.0, 0.0, 2.0]), EstimatorKind.MVUE24_APPROX, 30_000, seed=52)
        assert np.all(mask[:, 3])
        np.testing.assert_allclose(out[:, 3], 2.0, atol=1e-12)
        partner_freq = mask[:, :3].mean(axis=0)
        se = np.sqrt((1 / 3) * (2 / 3) / 30_000)
        assert np.all(np.abs(partner_freq - 1 / 3) <= 5 * se)

    def test_all_zero_probs_error_but_sampler_works(self):
        with pytest.raises(ValueError):
            inclusion_probs_approx24(Block([0.0, 0.0, 0.0, 0.0]))
        out, mask = mc_draws(np.zeros(4), EstimatorKind.MVUE24_APPROX, 500, seed=53)
        np.testing.assert_array_equal(out, np.zeros_like(out))
        assert np.all(mask.sum(axis=1) == 2)

    def test_unbiased_variance_and_frequencies_mc(self):
        blocks = mixed_blocks(40, 4, seed=54)
        samples = 40_000
        for i, row in enumerate(blocks):
            out, mask = mc_draws(row, EstimatorKind.MVUE24_APPROX, samples, seed=300 + i)
            mean = out.mean(axis=0)
            se = out.std(axis=0, ddof=1) / np.sqrt(samples)
            assert np.all(np.abs(mean - row) <= 5 * se + 1e-12)
            mse = ((out - row) ** 2).sum(axis=1)
            v = analytic_variance_from_probs(
                Block(row), inclusion_probs_approx24(Block(row))
            )
            assert abs(mse.mean() - v) <= 5 * mse.std(ddof=1) / np.sqrt(samples) + 1e-9
            freq = mask.mean(axis=0)
            p = approx24_inclusion_probs(row[None, :])[0]
            se_f = np.sqrt(p * (1 - p) / samples)
            assert np.all(np.abs(freq - p) <= 5 * se_f + 1e-12)

    def test_never_below_exact_variance(self):
        blocks = np.abs(mixed_blocks(2_000, 4, seed=55)) + 1e-9
        v_exact = variance_from_probs_array(blocks, exact24_marginal_probs(blocks))
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
        want = np.broadcast_to(row / approx24_inclusion_probs(unit[None, :])[0], out.shape)
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
            v_exact = variance_from_probs_array(
                np.array([mags]), exact24_marginal_probs(np.array([mags]))
            )[0]
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
    table = _exact24_pair_table_sorted(np.take_along_axis(mags, order, axis=1))
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
    probs[nonzero] = approx24_inclusion_probs(values[nonzero])
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
            variance_from_probs_array(blocks4, exact24_marginal_probs(blocks4)),
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
    def test_zero_prob_on_zero_entry_is_fine(self):
        v = variance_from_probs_array(np.array([[0.0, 1.0]]), np.array([[0.0, 1.0]]))
        assert v[0] == 0.0

    def test_zero_prob_on_nonzero_entry_raises(self):
        with pytest.raises(ValueError):
            variance_from_probs_array(np.array([[2.0, 1.0]]), np.array([[0.0, 1.0]]))

    def test_matches_manual_sum(self):
        v = analytic_variance_from_probs(
            Block([1.0, 2.0, 3.0, 4.0]), np.array([0.2, 0.4, 0.6, 0.8])
        )
        manual = sum(a * a / p - a * a for a, p in [(1, 0.2), (2, 0.4), (3, 0.6), (4, 0.8)])
        assert v == pytest.approx(manual, rel=1e-13)


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


class TestBlockApi:
    def test_single_block_wrappers(self):
        s = RandomStream(70)
        pb = prune_mvue12(Block([3.0, 1.0]), s)
        assert sorted(np.abs(pb.values)) == [0.0, 4.0]
        pb = prune_mvue24_exact(Block([1.0, 2.0, 3.0, 4.0]), s)
        assert np.count_nonzero(pb.values) == 2
        pb = prune_mvue24_approx(Block([1.0, 2.0, 3.0, 4.0]), s)
        assert np.count_nonzero(pb.values) == 2
        pb = prune_baseline(Block([3.0, 1.0]), EstimatorKind.UNIFORM12, s)
        assert np.count_nonzero(pb.values) <= 1
        pb = prune_greedy(Block([1.0, 1.0, 2.0, 2.0]), P24)
        np.testing.assert_array_equal(pb.values, [0.0, 0.0, 2.0, 2.0])

    def test_prune_baseline_rejects_non_baselines(self):
        with pytest.raises(ValueError):
            prune_baseline(Block([1.0, 2.0]), EstimatorKind.MVUE12, RandomStream(0))

    def test_block_mse(self):
        original = Block([1.0, 2.0, 3.0, 4.0])
        pruned = prune_greedy(original, P24)
        assert block_mse(original, pruned) == pytest.approx(1.0 + 4.0)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            prune_mvue12(Block([1.0, 2.0, 3.0, 4.0]), RandomStream(0))
        with pytest.raises(ValueError):
            analytic_variance_mvue12(Block([1.0, 2.0, 3.0, 4.0]))
        with pytest.raises(ValueError):
            marginal_probs_exact24(Block([1.0, 2.0]))


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
    if kind is EstimatorKind.GREEDY_MSE:
        return prune_greedy_array(values, pattern)
    draws = 2 if kind is EstimatorKind.MVUE24_APPROX else 1
    u = RandomStream(seed).uniforms((values.shape[0], draws))
    return {
        EstimatorKind.MVUE12: lambda: prune_mvue12_array(values, u[:, 0]),
        EstimatorKind.MVUE24_EXACT: lambda: prune_mvue24_exact_array(values, u[:, 0]),
        EstimatorKind.MVUE24_APPROX: lambda: prune_mvue24_approx_array(values, u),
        EstimatorKind.BIASED12: lambda: prune_biased12_array(values, u[:, 0]),
        EstimatorKind.UNIFORM12: lambda: prune_uniform12_array(values, u[:, 0], False),
        EstimatorKind.UNBIASED_UNIFORM12: lambda: prune_uniform12_array(values, u[:, 0], True),
    }[kind]()


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


class TestPruneTensorMemory:
    @pytest.mark.parametrize("kind", list(EstimatorKind))
    def test_peak_stays_within_three_payloads(self, kind, tmp_path):
        # What prune_tensor allocates on top of the tensor it reads: the
        # output, the mask and one chunk's temporaries, no full-size float64.
        path = tmp_path / "t.nmsp"
        values = RandomStream(95).normals((1024, 1024)).astype(np.float32)
        write_tensor(path, BlockedTensor.from_array(values))
        pattern = resolve_pattern(kind, P24 if kind is EstimatorKind.GREEDY_MSE else None)
        tracemalloc.start()
        try:
            t = read_tensor(path)
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            pruned = prune_tensor(t, kind, pattern, RandomStream(96))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert t.data.dtype == np.float32 and pruned.data.dtype == np.float32
        assert peak - before <= 3 * values.nbytes
