"""Tests for the seeded trainable models (repro.learn.models)."""

import numpy as np
import pytest

from repro.learn.models import (
    MODEL_KINDS,
    TrainingConfig,
    fit_gbm,
    fit_model,
    fit_ridge,
    predict_model,
)


class TestTrainingConfig:
    def test_defaults_valid(self):
        TrainingConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_train_days": 0},
            {"refit_days": 0},
            {"window_days": 3, "min_train_days": 5},
            {"ridge_lambda": -0.1},
            {"gbm_rounds": 0},
            {"gbm_learning_rate": 0.0},
            {"gbm_thresholds": 0},
            {"gbm_subsample": 0.0},
            {"gbm_subsample": 1.5},
            {"gbm_min_leaf": 0},
            {"seed": -1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TrainingConfig(**kwargs)

    def test_round_trip(self):
        config = TrainingConfig(seed=7, gbm_rounds=12)
        assert TrainingConfig.from_dict(config.to_dict()) == config

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            TrainingConfig.from_dict({"seed": 1, "bogus": 2})


class TestStandardizer:
    def test_zero_variance_column_gets_unit_scale(self):
        X = np.column_stack([np.arange(10.0), np.full(10, 3.0)])
        params = fit_ridge(X, np.arange(10.0), lam=1e-3)
        mean, scale = params["mean"], params["scale"]
        assert scale[1] == 1.0
        Xs = (X - mean) / scale
        assert np.isfinite(Xs).all()
        np.testing.assert_allclose(Xs[:, 1], 0.0)


class TestRidge:
    def test_recovers_linear_function(self, rng):
        X = rng.normal(size=(400, 5))
        true_w = np.array([2.0, -1.0, 0.5, 0.0, 3.0])
        y = X @ true_w + 7.0
        params = fit_ridge(X, y, lam=1e-8)
        pred = predict_model(params, X)
        np.testing.assert_allclose(pred, y, atol=1e-6)

    def test_handles_constant_column(self, rng):
        X = rng.normal(size=(100, 3))
        X[:, 1] = 4.2
        y = X[:, 0] * 2.0 + 1.0
        params = fit_ridge(X, y, lam=1e-6)
        assert np.isfinite(params["weights"]).all()
        pred = predict_model(params, X)
        np.testing.assert_allclose(pred, y, atol=1e-4)

    def test_deterministic(self, rng):
        X = rng.normal(size=(60, 4))
        y = rng.normal(size=60)
        a = fit_ridge(X, y, lam=1e-3)
        b = fit_ridge(X, y, lam=1e-3)
        np.testing.assert_array_equal(a["weights"], b["weights"])


class TestGbm:
    def test_reduces_training_error(self, rng):
        X = rng.uniform(-2, 2, size=(300, 4))
        y = np.where(X[:, 0] > 0, 5.0, -5.0) + 0.1 * X[:, 1]
        config = TrainingConfig(gbm_rounds=40, gbm_subsample=1.0)
        params = fit_gbm(X, y, config)
        pred = predict_model(params, X)
        base_mse = np.mean((y - y.mean()) ** 2)
        assert np.mean((y - pred) ** 2) < 0.2 * base_mse

    def test_same_seed_bitwise_identical(self, rng):
        X = rng.uniform(0, 1, size=(200, 6))
        y = rng.normal(size=200)
        config = TrainingConfig(gbm_rounds=20)
        a = fit_gbm(X, y, config, rng=np.random.default_rng([3, 0]))
        b = fit_gbm(X, y, config, rng=np.random.default_rng([3, 0]))
        for key in ("feat", "thr", "left", "right"):
            np.testing.assert_array_equal(a[key], b[key])

    def test_stump_arrays_rectangular_on_degenerate_data(self):
        # Constant features admit no split; arrays must still have
        # gbm_rounds entries (neutral stumps) for stacked fleet storage.
        X = np.full((50, 3), 2.0)
        y = np.arange(50.0)
        config = TrainingConfig(gbm_rounds=10, gbm_subsample=1.0)
        params = fit_gbm(X, y, config)
        assert params["feat"].shape == (10,)
        np.testing.assert_allclose(predict_model(params, X), y.mean())


class TestDispatch:
    def test_known_kinds(self, rng):
        X = rng.uniform(size=(64, 3))
        y = rng.normal(size=64)
        for kind in MODEL_KINDS:
            params = fit_model(
                kind, X, y, TrainingConfig(), rng=np.random.default_rng(0)
            )
            assert params["kind"] == kind
            assert predict_model(params, X).shape == (64,)

    def test_unknown_kind_rejected(self):
        X = np.zeros((10, 2))
        with pytest.raises(ValueError, match="unknown model kind"):
            fit_model("forest", X, np.zeros(10), TrainingConfig())
        with pytest.raises(ValueError, match="unknown model kind"):
            predict_model({"kind": "forest"}, X)
