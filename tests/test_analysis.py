"""Tests for the Monte-Carlo harness, variance diagnostics, and scans."""

import csv
import math

import numpy as np
import pytest

from nmsparse.analysis import (
    SCAN_CSV_HEADER,
    McReport,
    PropertyCheck,
    ScanRecord,
    brute_force_min_mse_mask,
    expected_macs,
    expected_macs_se,
    mc_estimate,
    random_test_blocks,
    refine_edge_axis,
    scan_summary,
    variance_gap_arrays,
    variance_gap_d,
    variance_ratio_scan,
    verify_estimator,
    write_scan_csv,
)
from nmsparse.core import Block, SparsityPattern
from nmsparse.estimators import EstimatorKind

P12 = SparsityPattern(1, 2)
P24 = SparsityPattern(2, 4)
P48 = SparsityPattern(4, 8)


class TestMcEstimate:
    def test_deterministic_reports(self):
        a = mc_estimate(Block([3.0, -1.0]), EstimatorKind.MVUE12, 5_000, seed=7)
        b = mc_estimate(Block([3.0, -1.0]), EstimatorKind.MVUE12, 5_000, seed=7)
        np.testing.assert_array_equal(a.empirical_mean, b.empirical_mean)
        np.testing.assert_array_equal(a.empirical_var, b.empirical_var)
        assert a.mse_mean == b.mse_mean
        assert a.pair_frequencies == b.pair_frequencies
        # Different seeds shuffle the draws. A 1:2 report collapses to one
        # binomial count, which can collide across seeds, so probe with the
        # six-outcome 2:4 estimator instead.
        block = Block([1.0, -2.0, 3.0, 4.0])
        c = mc_estimate(block, EstimatorKind.MVUE24_EXACT, 5_000, seed=7)
        d = mc_estimate(block, EstimatorKind.MVUE24_EXACT, 5_000, seed=8)
        assert c.pair_frequencies != d.pair_frequencies

    def test_known_block_statistics(self):
        report = mc_estimate(Block([3.0, 1.0]), EstimatorKind.MVUE12, 100_000, seed=1)
        assert abs(sum(report.pair_frequencies.values()) - 1.0) < 1e-12
        assert set(report.pair_frequencies) == {(0,), (1,)}
        se = math.sqrt(0.75 * 0.25 / 100_000)
        assert abs(report.pair_frequencies[(0,)] - 0.75) <= 5 * se
        assert np.all(np.abs(report.empirical_mean - [3.0, 1.0]) <= 5 * report.mean_se)
        assert abs(report.mse_mean - 6.0) <= 5 * report.mse_se

    def test_greedy_report_is_degenerate(self):
        report = mc_estimate(Block([1.0, 1.0, 2.0, 2.0]), EstimatorKind.GREEDY_MSE, 100, seed=0)
        assert report.pair_frequencies == {(2, 3): 1.0}
        assert report.mse_mean == pytest.approx(2.0)
        assert report.mse_se == pytest.approx(0.0)
        np.testing.assert_array_equal(report.empirical_var, np.zeros(4))

    def test_greedy_explicit_pattern(self):
        report = mc_estimate(
            Block([5.0, 1.0, 2.0, 3.0]), EstimatorKind.GREEDY_MSE, 10, seed=0, pattern=SparsityPattern(3, 4)
        )
        assert report.pair_frequencies == {(0,): 1.0}

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            mc_estimate(Block([1.0, 2.0]), EstimatorKind.MVUE12, 0, seed=0)
        with pytest.raises(ValueError):
            mc_estimate(Block([1.0, 2.0]), EstimatorKind.MVUE24_EXACT, 10, seed=0)

    def test_report_records_inputs(self):
        report = mc_estimate(Block([1.0, -2.0, 3.0, 4.0]), EstimatorKind.MVUE24_APPROX, 50, seed=3)
        assert report.block == (1.0, -2.0, 3.0, 4.0)
        assert report.kind is EstimatorKind.MVUE24_APPROX
        assert report.samples == 50 and report.seed == 3
        assert all(len(k) == 2 for k in report.pair_frequencies)


class TestBruteForce:
    def test_known_minimum(self):
        mask, mse = brute_force_min_mse_mask(Block([1.0, -5.0, 2.0, 3.0]), P24)
        assert mse == pytest.approx(1.0 + 4.0)
        assert mask.kept_indices() == (1, 3)

    def test_tie_takes_lexicographically_first(self):
        mask, mse = brute_force_min_mse_mask(Block([1.0, 1.0, 1.0, 1.0]), P24)
        assert mask.kept_indices() == (0, 1)
        assert mse == pytest.approx(2.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            brute_force_min_mse_mask(Block([1.0, 2.0]), P24)


class TestVarianceGap:
    def test_known_block(self):
        d, check = variance_gap_d(Block([1.0, 2.0, 3.0, 4.0]))
        assert d == pytest.approx(-8.0, abs=1e-12)
        assert check == pytest.approx(-8.0, abs=1e-12)

    def test_equality_only_for_uniform_magnitudes(self):
        d, _ = variance_gap_d(Block([1.0, -1.0, 1.0, 1.0]))
        assert d == pytest.approx(0.0, abs=1e-15)
        d, _ = variance_gap_d(Block([2.0, 2.0, 2.0, 2.0]))
        assert d == pytest.approx(0.0, abs=1e-15)
        d, _ = variance_gap_d(Block([1.0, 1.0, 1.0, 4.0]))
        assert d == pytest.approx(-4.5, abs=1e-12)

    def test_identity_on_random_blocks(self):
        mags = np.abs(random_test_blocks(20_000, 4, seed=5))
        d, check = variance_gap_arrays(mags)
        scale = np.maximum(1.0, np.abs(check))
        np.testing.assert_array_less(np.abs(d - check) / scale, 1e-9)
        assert np.all(d <= 1e-9 * scale)

    def test_order_invariance(self):
        d1, _ = variance_gap_d(Block([4.0, 1.0, 3.0, 2.0]))
        d2, _ = variance_gap_d(Block([1.0, 2.0, 3.0, 4.0]))
        assert d1 == pytest.approx(d2, abs=1e-12)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            variance_gap_arrays(np.ones((3, 2)))
        with pytest.raises(ValueError):
            variance_gap_d(Block([1.0, 2.0]))


class TestVarianceRatioScan:
    def test_coarse_grid_properties(self):
        records = list(variance_ratio_scan(step=0.1))
        assert len(records) == 1_000
        ratios = np.array([r.ratio for r in records], dtype=float)
        assert not np.any(np.isnan(ratios))
        assert np.all(ratios >= 1.0 - 1e-9)
        assert np.all(ratios < 2.0)
        # Interior grid points keep all four magnitudes positive.
        assert min(r.a1 for r in records) == pytest.approx(0.1)
        assert max(r.a3 for r in records) == pytest.approx(1.0)

    def test_summary_matches_streamed_records(self):
        records = list(variance_ratio_scan(step=0.1))
        summary = scan_summary(step=0.1)
        assert summary.points == len(records)
        assert summary.skipped == 0
        best = max(records, key=lambda r: r.ratio)
        assert summary.max_ratio == pytest.approx(best.ratio, rel=1e-15)
        assert summary.worst_point == (best.a1, best.a2, best.a3)

    def test_refined_edges_approach_two(self):
        axis = refine_edge_axis()
        assert len(axis) == 40
        assert axis[0] == pytest.approx(1e-6)
        assert axis[-1] == pytest.approx(1.0)
        summary = scan_summary(step=0.1, refine_edges=True)
        assert summary.points == 1_000 + 40 ** 3
        assert 1.99 < summary.max_ratio < 2.0
        assert max(summary.worst_point) < 1e-4

    def test_step_validation(self):
        with pytest.raises(ValueError):
            list(variance_ratio_scan(step=0.0))
        with pytest.raises(ValueError):
            list(variance_ratio_scan(step=0.2))

    def test_csv_output(self, tmp_path):
        path = tmp_path / "scan.csv"
        records = [
            ScanRecord(0.1, 0.2, 0.3, 1.5, 1.8, 1.2),
            ScanRecord(0.4, 0.5, 0.6, 0.0, 0.0, None),
        ]
        summary = write_scan_csv(path, records)
        assert summary.points == 2 and summary.skipped == 1
        assert summary.max_ratio == pytest.approx(1.2)
        assert summary.worst_point == (0.1, 0.2, 0.3)
        text = path.read_text(encoding="ascii")
        lines = text.split("\n")
        assert lines[0] == SCAN_CSV_HEADER
        assert lines[2].endswith(",")  # empty ratio field for skipped point
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[0]["ratio"]) == 1.2
        assert rows[1]["ratio"] == ""
        assert float(rows[1]["a1"]) == 0.4

    def test_csv_roundtrip_of_scan(self, tmp_path):
        path = tmp_path / "scan.csv"
        summary = write_scan_csv(path, variance_ratio_scan(step=0.1))
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == summary.points == 1_000
        ratios = np.array([float(r["ratio"]) for r in rows])
        assert ratios.max() == pytest.approx(summary.max_ratio, rel=1e-15)


class TestExpectedMacs:
    @pytest.mark.parametrize(
        "pattern,mean",
        [(P12, 0.5), (P24, 1.0), (P48, 2.0)],
    )
    def test_analytic_mean(self, pattern, mean):
        _, analytic = expected_macs(pattern, trials=1, seed=0)
        assert analytic == pytest.approx(mean, abs=1e-12)
        # Hypergeometric closed form: (m - n)^2 / m.
        kept = pattern.m - pattern.n
        assert analytic == pytest.approx(kept * kept / pattern.m, abs=1e-12)

    @pytest.mark.parametrize("pattern", [P12, P24, P48])
    def test_empirical_within_three_se(self, pattern):
        trials = 50_000
        empirical, analytic = expected_macs(pattern, trials=trials, seed=11)
        se = expected_macs_se(pattern, trials)
        assert se > 0
        assert abs(empirical - analytic) <= 3 * se

    def test_deterministic(self):
        a = expected_macs(P24, trials=1_000, seed=3)
        b = expected_macs(P24, trials=1_000, seed=3)
        assert a == b

    def test_rejects_bad_trials(self):
        with pytest.raises(ValueError):
            expected_macs(P24, trials=0)


class TestRandomTestBlocks:
    def test_shape_and_determinism(self):
        a = random_test_blocks(64, 4, seed=9)
        b = random_test_blocks(64, 4, seed=9)
        assert a.shape == (64, 4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, random_test_blocks(64, 4, seed=10))

    def test_mixture_has_heavy_tails(self):
        blocks = random_test_blocks(400, 4, seed=12)
        assert np.all(np.isfinite(blocks))
        assert np.abs(blocks).max() > 20.0  # lognormal magnitudes reach far out
        assert np.abs(blocks).min() < 1.0


class TestVerifyEstimator:
    @pytest.mark.parametrize(
        "kind",
        [
            EstimatorKind.MVUE12,
            EstimatorKind.MVUE24_EXACT,
            EstimatorKind.MVUE24_APPROX,
            EstimatorKind.UNBIASED_UNIFORM12,
        ],
    )
    def test_unbiased_methods_pass(self, kind):
        checks = verify_estimator(kind, num_blocks=20, samples=4_000, seed=1)
        names = [c.name for c in checks]
        assert names == ["pattern", "variance", "unbiased", "frequency"]
        failed = [c.name for c in checks if not c.passed]
        assert failed == [], [c.detail for c in checks if not c.passed]

    @pytest.mark.parametrize("kind", [EstimatorKind.BIASED12, EstimatorKind.UNIFORM12])
    def test_biased_methods_fail_only_unbiasedness(self, kind):
        checks = verify_estimator(kind, num_blocks=20, samples=4_000, seed=1)
        by_name = {c.name: c for c in checks}
        assert not by_name["unbiased"].passed
        assert by_name["pattern"].passed
        assert by_name["variance"].passed
        assert by_name["frequency"].passed

    @pytest.mark.parametrize(
        "kind", [EstimatorKind.MVUE24_EXACT, EstimatorKind.MVUE24_APPROX, EstimatorKind.MVUE12]
    )
    def test_default_suite_passes_correct_samplers(self, kind):
        # Seed 0 has near-certain keeps and drops, whose empirical SE is
        # zero; the closed-form SE keeps their z finite and meaningful.
        checks = verify_estimator(kind, num_blocks=100, samples=10_000, seed=0)
        assert all(c.passed for c in checks), [c.detail for c in checks if not c.passed]

    def test_default_suite_fails_biased(self):
        checks = verify_estimator(EstimatorKind.BIASED12, num_blocks=100, samples=10_000, seed=0)
        failed = [c.name for c in checks if not c.passed]
        assert failed == ["unbiased"]

    def test_greedy_gets_oracle_check(self):
        checks = verify_estimator(EstimatorKind.GREEDY_MSE, num_blocks=30, samples=5, seed=2)
        by_name = {c.name: c for c in checks}
        assert set(by_name) == {"pattern", "variance", "min-mse"}
        assert all(c.passed for c in checks), [c.detail for c in checks if not c.passed]

    def test_greedy_custom_pattern(self):
        checks = verify_estimator(
            EstimatorKind.GREEDY_MSE, num_blocks=10, samples=2, seed=3, pattern=P48
        )
        assert all(c.passed for c in checks)

    def test_detail_strings_are_informative(self):
        checks = verify_estimator(EstimatorKind.MVUE12, num_blocks=5, samples=1_000, seed=4)
        for check in checks:
            assert isinstance(check, PropertyCheck)
            assert check.detail
