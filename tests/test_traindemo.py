"""Training-demo tests: datasets, activation masking, SGD loop, gradient check."""

import warnings

import numpy as np
import pytest

from nmsparse import traindemo
from nmsparse.core import BlockedTensor, SparsityPattern, pattern_violations
from nmsparse.estimators import EstimatorKind
from nmsparse.rng import RandomStream
from nmsparse.traindemo import (
    ACT_MODES,
    DATASET_KINDS,
    GradCheckResult,
    MlpConfig,
    TrainRecord,
    generate_dataset,
    _mask_rows,
    masked_gradient_check,
    train,
)

P24 = SparsityPattern(2, 4)
P48 = SparsityPattern(4, 8)


class TestGenerateDataset:
    @pytest.mark.parametrize("kind", DATASET_KINDS)
    def test_shapes_and_balance(self, kind):
        X, y = generate_dataset(kind, 200, 0.05, seed=0)
        assert X.shape == (200, 2)
        assert y.shape == (200,)
        assert np.bincount(y).tolist() == [100, 100]

    def test_deterministic(self):
        a = generate_dataset("two-moons", 64, 0.1, seed=3)
        b = generate_dataset("two-moons", 64, 0.1, seed=3)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
        c = generate_dataset("two-moons", 64, 0.1, seed=4)
        assert not np.array_equal(a[0], c[0])

    def test_shuffled(self):
        _, y = generate_dataset("two-moons", 100, 0.0, seed=5)
        # Labels must not come out sorted by class.
        assert len(np.unique(y[:50])) == 2

    def test_noiseless_moon_geometry(self):
        X, y = generate_dataset("two-moons", 400, 0.0, seed=6)
        upper = X[y == 0]
        np.testing.assert_allclose(np.linalg.norm(upper, axis=1), 1.0, atol=1e-12)
        assert np.all(upper[:, 1] >= -1e-12)
        lower = X[y == 1]
        assert np.all(lower[:, 1] <= 0.5 + 1e-12)

    def test_spirals_radius_bounded(self):
        X, _ = generate_dataset("spirals", 300, 0.0, seed=7)
        assert np.linalg.norm(X, axis=1).max() <= 1.0 + 1e-12

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="unknown dataset"):
            generate_dataset("circles", 10, 0.1, seed=0)
        with pytest.raises(ValueError):
            generate_dataset("two-moons", 1, 0.1, seed=0)
        with pytest.raises(ValueError):
            generate_dataset("two-moons", 10, -0.1, seed=0)


def prune_only(mat: np.ndarray, pattern: SparsityPattern) -> np.ndarray:
    return _mask_rows(np.atleast_2d(mat), EstimatorKind.GREEDY_MSE, pattern)[0]


def relu_then_prune(mat: np.ndarray, pattern: SparsityPattern) -> np.ndarray:
    return prune_only(np.maximum(mat, 0.0), pattern)


class TestActivationMasking:
    def test_relu_then_prune_example(self):
        out = relu_then_prune(np.array([-1.0, -2.0, 3.0, 4.0]), P24)
        np.testing.assert_array_equal(out, [[0.0, 0.0, 3.0, 4.0]])

    def test_prune_only_keeps_negatives(self):
        out = prune_only(np.array([-5.0, -4.0, 1.0, 2.0]), P24)
        np.testing.assert_array_equal(out, [[-5.0, -4.0, 0.0, 0.0]])

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        mat = rng.normal(size=(16, 8))
        once = prune_only(mat, P24)
        np.testing.assert_array_equal(prune_only(once, P24), once)

    def test_remainder_columns_pass_through(self):
        mat = np.arange(12.0).reshape(2, 6)
        out, keep = _mask_rows(mat, EstimatorKind.GREEDY_MSE, P24)
        np.testing.assert_array_equal(out[:, 4:], mat[:, 4:])
        assert np.all(keep[:, 4:])
        assert np.count_nonzero(out[0, :4]) == 2

    def test_stochastic_remainder_passes_through(self):
        mat = np.arange(1.0, 13.0).reshape(2, 6)
        out, keep = _mask_rows(mat, EstimatorKind.MVUE24_EXACT, P24, RandomStream(3))
        np.testing.assert_array_equal(out[:, 4:], mat[:, 4:])
        np.testing.assert_array_equal(keep.sum(axis=1), [4, 4])
        np.testing.assert_array_equal(out != 0.0, keep)

    def test_blocks_satisfy_pattern(self):
        rng = np.random.default_rng(2)
        mat = rng.normal(size=(64, 16))
        out = relu_then_prune(mat, P24)
        blocks = out.reshape(-1, 4)
        assert np.all(np.count_nonzero(blocks, axis=1) <= 2)
        assert np.all(out >= 0.0)

    def test_2d_matches_rowwise_1d(self):
        rng = np.random.default_rng(3)
        mat = rng.normal(size=(5, 8))
        out = prune_only(mat, P24)
        for r in range(5):
            np.testing.assert_array_equal(out[r], prune_only(mat[r], P24)[0])


class TestMlpConfig:
    def test_defaults_are_valid(self):
        config = MlpConfig()
        assert config.act_mask in ACT_MODES

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            MlpConfig(epochs=0)
        with pytest.raises(ValueError):
            MlpConfig(lr=0.0)
        with pytest.raises(ValueError):
            MlpConfig(batch_size=0)
        with pytest.raises(ValueError):
            MlpConfig(act_mask="sometimes")

    def test_rejects_greedy_gradient_mask(self):
        with pytest.raises(ValueError, match="stochastic"):
            MlpConfig(grad_mask=EstimatorKind.GREEDY_MSE)


class TestTrain:
    def smoke_config(self, **kwargs):
        defaults = dict(epochs=4, batch_size=64, seed=1)
        defaults.update(kwargs)
        return MlpConfig(**defaults)

    def test_records_per_epoch(self):
        records = train(self.smoke_config())
        assert len(records) == 4
        assert [r.epoch for r in records] == [0, 1, 2, 3]
        for r in records:
            assert isinstance(r, TrainRecord)
            assert np.isfinite(r.loss) and r.loss > 0
            assert 0.0 <= r.val_acc <= 1.0

    def test_deterministic(self):
        a = train(self.smoke_config())
        b = train(self.smoke_config())
        assert a == b

    def test_deterministic_with_stochastic_masking(self):
        config = self.smoke_config(grad_mask=EstimatorKind.MVUE12)
        assert train(config) == train(config)
        other = train(self.smoke_config(grad_mask=EstimatorKind.MVUE12, seed=2))
        assert other != train(config)

    def test_loss_decreases_dense(self):
        records = train(self.smoke_config(epochs=20))
        assert records[-1].loss < records[0].loss

    def test_explicit_data(self):
        data = generate_dataset("spirals", 256, 0.05, seed=9)
        records = train(self.smoke_config(), data=data)
        assert len(records) == 4

    def test_activation_masking_runs_with_validation(self, monkeypatch):
        checked = []

        def checked_mask_rows(mat, kind, pattern, stream=None):
            out, keep = _mask_rows(mat, kind, pattern, stream)
            if kind is EstimatorKind.GREEDY_MSE:
                assert pattern_violations(BlockedTensor.from_array(out), pattern) == 0
                checked.append(out.shape)
            return out, keep

        monkeypatch.setattr(traindemo, "_mask_rows", checked_mask_rows)
        for mode in ("greedy", "relu-greedy"):
            checked.clear()
            records = train(self.smoke_config(act_mask=mode))
            assert len(records) == 4
            assert checked  # every hidden layer's activations, at every step

    def test_divergence_raises(self):
        config = self.smoke_config(lr=1e100, epochs=2)
        with pytest.raises(FloatingPointError, match="non-finite loss"):
            with np.errstate(all="ignore"), warnings.catch_warnings():
                warnings.simplefilter("ignore")
                train(config)


class TestMaskedGradientCheck:
    def test_unbiased_estimator_passes(self):
        res = masked_gradient_check(MlpConfig(), kind=EstimatorKind.MVUE12, redraws=2_000)
        assert isinstance(res, GradCheckResult)
        assert res.kind is EstimatorKind.MVUE12
        assert res.redraws == 2_000
        assert res.components > 0
        assert res.max_z < 5.0
        assert res.fraction_above(5.0) == 0.0

    def test_biased_estimator_fails(self):
        res = masked_gradient_check(MlpConfig(), kind=EstimatorKind.BIASED12, redraws=2_000)
        assert res.fraction_above(5.0) > 0.05
        assert res.max_z > 50.0

    def test_uses_config_grad_mask_by_default(self):
        config = MlpConfig(grad_mask=EstimatorKind.UNBIASED_UNIFORM12)
        res = masked_gradient_check(config, redraws=1_000)
        assert res.kind is EstimatorKind.UNBIASED_UNIFORM12
        assert res.fraction_above(5.0) == 0.0

    def test_requires_stochastic_kind(self):
        with pytest.raises(ValueError, match="stochastic"):
            masked_gradient_check(MlpConfig())

    def test_deterministic(self):
        a = masked_gradient_check(MlpConfig(), kind=EstimatorKind.MVUE12, redraws=500)
        b = masked_gradient_check(MlpConfig(), kind=EstimatorKind.MVUE12, redraws=500)
        np.testing.assert_array_equal(a.z_scores, b.z_scores)
