"""Tests for the Monte-Carlo harness, variance diagnostics, and scans."""

import csv
import math

import numpy as np
import pytest

from nmsparse import analysis
from nmsparse.analysis import (
    SCAN_CSV_HEADER,
    McReport,
    PropertyCheck,
    ScanSummary,
    brute_force_min_mse_mask,
    expected_macs,
    expected_macs_se,
    mc_estimate,
    random_test_blocks,
    refine_edge_axis,
    scan_summary,
    variance_gap_arrays,
    variance_gap_d,
    verify_estimator,
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


def reference_scan_csv(path, step: float, refine_edges: bool = False) -> ScanSummary:
    """Write the scan one record at a time: a float and a repr per field,
    an f-string per line, and the summary updated point by point."""
    count = int(round(1.0 / step))
    axes = [np.arange(1, count + 1) * step]
    if refine_edges:
        axes.append(refine_edge_axis())
    points = 0
    skipped = 0
    max_ratio = -math.inf
    worst = (0.0, 0.0, 0.0)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(SCAN_CSV_HEADER + "\n")
        for axis in axes:
            a2, a3 = np.meshgrid(axis, axis, indexing="ij")
            plane = np.stack([a2.ravel(), a3.ravel()], axis=1)
            for a1 in axis:
                chunk = np.column_stack([np.full(plane.shape[0], a1), plane])
                var_exact, var_approx, ratios = analysis._ratio_chunk(chunk)
                for k in range(chunk.shape[0]):
                    a = (float(chunk[k, 0]), float(chunk[k, 1]), float(chunk[k, 2]))
                    ratio = None if math.isnan(ratios[k]) else float(ratios[k])
                    points += 1
                    if ratio is None:
                        skipped += 1
                        ratio_text = ""
                    else:
                        ratio_text = repr(ratio)
                        if ratio > max_ratio:
                            max_ratio = ratio
                            worst = a
                    fh.write(
                        f"{a[0]!r},{a[1]!r},{a[2]!r},{float(var_exact[k])!r},"
                        f"{float(var_approx[k])!r},{ratio_text}\n"
                    )
    return ScanSummary(points=points, skipped=skipped, max_ratio=max_ratio, worst_point=worst)


def read_scan_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestScanSummary:
    def test_coarse_grid_properties(self, tmp_path):
        path = tmp_path / "scan.csv"
        summary = scan_summary(step=0.1, csv_path=path)
        rows = read_scan_csv(path)
        assert len(rows) == summary.points == 1_000
        assert summary.skipped == 0
        ratios = np.array([float(r["ratio"]) for r in rows])
        assert np.all(ratios >= 1.0 - 1e-9)
        assert np.all(ratios < 2.0)
        # Interior grid points keep all four magnitudes positive.
        assert min(float(r["a1"]) for r in rows) == pytest.approx(0.1)
        assert max(float(r["a3"]) for r in rows) == pytest.approx(1.0)

    def test_summary_matches_csv_rows(self, tmp_path):
        path = tmp_path / "scan.csv"
        summary = scan_summary(step=0.1, csv_path=path)
        assert scan_summary(step=0.1) == summary
        rows = read_scan_csv(path)
        ratios = [float(r["ratio"]) for r in rows]
        best = rows[int(np.argmax(ratios))]
        assert summary.max_ratio == max(ratios)
        assert summary.worst_point == (float(best["a1"]), float(best["a2"]), float(best["a3"]))

    def test_refined_edges_approach_two(self):
        axis = refine_edge_axis()
        assert len(axis) == 40
        assert axis[0] == pytest.approx(1e-6)
        assert axis[-1] == pytest.approx(1.0)
        summary = scan_summary(step=0.1, refine_edges=True)
        assert summary.points == 1_000 + 40 ** 3
        assert 1.99 < summary.max_ratio < 2.0
        assert max(summary.worst_point) < 1e-4

    def test_step_validation_opens_no_file(self, tmp_path):
        path = tmp_path / "scan.csv"
        for step in (0.0, 0.2):
            with pytest.raises(ValueError):
                scan_summary(step=step, csv_path=path)
        assert not path.exists()

    @pytest.mark.parametrize("step,refine_edges", [(0.1, True), (0.05, False)])
    def test_csv_bytes_match_reference(self, tmp_path, step, refine_edges):
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        summary = scan_summary(step, refine_edges, csv_path=got)
        assert summary == reference_scan_csv(want, step, refine_edges)
        assert got.read_bytes() == want.read_bytes()

    def test_nan_ratio_writes_empty_field(self, tmp_path, monkeypatch):
        ratio_chunk = analysis._ratio_chunk

        def one_nan_ratio(points):
            var_exact, var_approx, ratio = ratio_chunk(points)
            if points[0, 0] == 0.1:
                ratio = ratio.copy()
                ratio[1] = np.nan
            return var_exact, var_approx, ratio

        monkeypatch.setattr(analysis, "_ratio_chunk", one_nan_ratio)
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        summary = scan_summary(step=0.1, csv_path=got)
        assert summary.points == 1_000 and summary.skipped == 1
        assert summary == reference_scan_csv(want, 0.1)
        assert got.read_bytes() == want.read_bytes()
        lines = got.read_text(encoding="ascii").split("\n")
        assert lines[0] == SCAN_CSV_HEADER
        assert lines[2].endswith(",")  # empty ratio field for the skipped point
        assert lines[1].count(",") == lines[2].count(",") == 5
        rows = read_scan_csv(got)
        assert rows[1]["ratio"] == ""
        assert float(rows[1]["a3"]) == 0.2
        assert all(r["ratio"] for k, r in enumerate(rows) if k != 1)


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

    RARE_PAIR_BLOCK = np.array([[1.0, 1.0, 0.005, 0.005]])  # P({2, 3}) = 1.24e-5 under approx24

    def verify_rare_pair_block(self, monkeypatch):
        monkeypatch.setattr(analysis, "random_test_blocks", lambda *a, **k: self.RARE_PAIR_BLOCK)
        return verify_estimator(
            EstimatorKind.MVUE24_APPROX, num_blocks=1, samples=10_000, seed=87
        )

    def test_rare_kept_set_drawn_twice_passes(self, monkeypatch):
        # Seed 87 draws the rare pair twice in 10,000 draws; the normal
        # approximation reads that as z = 5.33, the exact tail as z = 2.45.
        block = Block(self.RARE_PAIR_BLOCK[0])
        report = mc_estimate(block, EstimatorKind.MVUE24_APPROX, 10_000, seed=87)
        assert round(report.pair_frequencies[(2, 3)] * 10_000) == 2
        checks = self.verify_rare_pair_block(monkeypatch)
        assert all(c.passed for c in checks), [c.detail for c in checks if not c.passed]

    def test_rare_kept_set_drawn_too_often_fails(self, monkeypatch):
        # The same two draws against a model that makes the pair 1,000
        # times rarer: the exact tail is about 8e-11, beyond 5 sigma.
        kept_set_probs = analysis._kept_set_probs

        def rarer_pair(kind, values):
            sets, probs = kept_set_probs(kind, values)
            probs = probs.copy()
            probs[:, sets.index((2, 3))] *= 1e-3
            return sets, probs

        monkeypatch.setattr(analysis, "_kept_set_probs", rarer_pair)
        checks = self.verify_rare_pair_block(monkeypatch)
        assert [c.name for c in checks if not c.passed] == ["frequency"]

    def test_frequency_z(self):
        z = analysis._frequency_z
        assert z(2, 10_000, 1.4e-5, 5.0) == pytest.approx(2.37, abs=0.01)
        assert z(20, 10_000, 1e-5, 5.0) > 5.0
        assert z(0, 10_000, 1e-5, 5.0) == 0.0
        assert z(1, 10_000, 0.0, 5.0) == math.inf
        # A set kept in nearly every draw is judged by the draws without it.
        assert z(9_998, 10_000, 1.0 - 1e-5, 5.0) == pytest.approx(z(2, 10_000, 1e-5, 5.0))
        # Where both outcomes are common the normal z is unchanged.
        assert z(520, 10_000, 0.05, 5.0) == pytest.approx(0.002 / math.sqrt(0.05 * 0.95 / 10_000))

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
