"""Bitwise parity pins for the learned-tier fast path.

The batched training kernels (``fit_ridge_batch`` / ``fit_gbm_batch``),
the vectorized scalar ``fit_gbm``, and the online kernel's stacked
refit must reproduce the frozen original scalar loops in the
``tests.oracles.learn`` oracle *bitwise* -- GBM split selection is an
argmax over gains, so any last-ulp drift can flip a split and break the
byte-pinned robustness goldens.  Every assertion here is exact
equality, not a tolerance.
"""

import dataclasses

import numpy as np
import pytest

from repro.learn import models as M
from repro.learn.models import (
    TrainingConfig,
    fit_gbm,
    fit_gbm_batch,
    fit_model_batch,
    fit_ridge,
    fit_ridge_batch,
    predict_model,
    score_stumps,
    unstack_params,
)
from repro.learn import predictor as learned
from repro.learn.features import FeatureConfig
from repro.learn.predictor import LearnedKernel, LearnedPredictor
from repro.solar.datasets import build_dataset
from repro.solar.slots import SlotView
from tests.oracles.learn import (
    fit_gbm_reference,
    fit_model_batch_reference,
    fit_model_reference,
    fit_ridge_reference,
)

FAST = TrainingConfig(
    min_train_days=2,
    refit_days=2,
    window_days=5,
    gbm_rounds=10,
    gbm_thresholds=7,
)


def _assert_params_equal(expected: dict, actual: dict) -> None:
    assert set(expected) == set(actual)
    for key in expected:
        a, b = expected[key], actual[key]
        if isinstance(a, (int, float, str)):
            assert a == b, key
        else:
            assert np.asarray(a).dtype == np.asarray(b).dtype, key
            assert np.array_equal(a, b), key


def _window(rng, n, B, F=18):
    """A training window with realistic structure: mixed scales, a
    constant column (night slots / unfired flags), some exact ties."""
    X = rng.normal(size=(n, B, F)) * rng.uniform(0.5, 60.0, size=(1, 1, F))
    X[:, :, -1] = 3.25
    X[: n // 3, :, 0] = X[0, :, 0]  # repeated values -> threshold ties
    y = rng.uniform(0.0, 900.0, size=(n, B))
    return X, y


class TestScalarGbmVsReference:
    """The rewritten ``fit_gbm`` (vectorized split search) is bitwise
    the frozen per-feature loop."""

    @pytest.mark.parametrize("seed", [0, 3, 11])
    @pytest.mark.parametrize(
        "n,config",
        [
            (60, FAST),
            (96, TrainingConfig(min_train_days=2, window_days=5)),
            (40, TrainingConfig(min_train_days=2, window_days=5, gbm_min_leaf=15)),
            (30, TrainingConfig(min_train_days=2, window_days=5, gbm_subsample=1.0)),
        ],
    )
    def test_bitwise(self, seed, n, config, rng):
        X, y = _window(rng, n, 1)
        expected = fit_gbm_reference(
            X[:, 0, :], y[:, 0], config, np.random.default_rng([seed, 0])
        )
        actual = fit_gbm(
            X[:, 0, :], y[:, 0], config, np.random.default_rng([seed, 0])
        )
        _assert_params_equal(expected, actual)

    def test_bitwise_without_rng(self, rng):
        """``rng=None`` disables subsampling in both implementations."""
        X, y = _window(rng, 50, 1)
        expected = fit_gbm_reference(X[:, 0, :], y[:, 0], FAST, None)
        actual = fit_gbm(X[:, 0, :], y[:, 0], FAST, None)
        _assert_params_equal(expected, actual)

    def test_degenerate_data_neutral_stumps(self):
        """Constant features admit no split: all stumps stay neutral."""
        X = np.full((40, 4), 7.0)
        y = np.linspace(0.0, 1.0, 40)
        expected = fit_gbm_reference(X, y, FAST, None)
        actual = fit_gbm(X, y, FAST, None)
        _assert_params_equal(expected, actual)
        assert not actual["left"].any() and not actual["right"].any()

    def test_ridge_unchanged_vs_reference(self, rng):
        X, y = _window(rng, 70, 1)
        _assert_params_equal(
            fit_ridge_reference(X[:, 0, :], y[:, 0], 1e-3),
            fit_ridge(X[:, 0, :], y[:, 0], 1e-3),
        )


class TestBatchVsPerNode:
    """Stacked ``(n, B, F)`` fits equal ``B`` scalar reference fits."""

    @pytest.mark.parametrize("B", [1, 3, 17])
    @pytest.mark.parametrize("kind", ["ridge", "gbm"])
    def test_bitwise(self, kind, B, rng):
        X, y = _window(rng, 72, B)
        batch = fit_model_batch(
            kind, X, y, FAST, np.random.default_rng([FAST.seed, 0])
        )
        for b in range(B):
            expected = fit_model_reference(
                kind, X[:, b, :], y[:, b],
                FAST, np.random.default_rng([FAST.seed, 0]),
            )
            _assert_params_equal(expected, unstack_params(batch, b))

    def test_gbm_streaming_strategy_bitwise(self, rng, monkeypatch):
        """Every split-mask chunking -- all pairs at once, one
        (node, feature) pair at a time, and chunks that split a node's
        features -- produces identical bits, so the chunk budget is a
        pure performance knob."""
        X, y = _window(rng, 72, 6)
        seeded = lambda: np.random.default_rng([0, 0])  # noqa: E731
        full = fit_gbm_batch(X, y, FAST, seeded())
        n_sub = 58  # FAST subsamples 72 rows at 0.8
        assert X.shape[1] * X.shape[2] * n_sub * FAST.gbm_thresholds <= M.GBM_MASK_CHUNK
        for budget in (0, 7 * n_sub * FAST.gbm_thresholds):
            monkeypatch.setattr(M, "GBM_MASK_CHUNK", budget)
            streamed = fit_gbm_batch(X, y, FAST, seeded())
            _assert_params_equal(full, streamed)

    def test_mixed_node_deactivation(self, rng):
        """Nodes stop splitting independently: a degenerate column next
        to live ones must not perturb either side."""
        X, y = _window(rng, 48, 3)
        X[:, 1, :] = 5.0  # node 1 has no admissible split
        batch = fit_gbm_batch(X, y, FAST, np.random.default_rng([0, 0]))
        for b in range(3):
            expected = fit_gbm_reference(
                X[:, b, :], y[:, b], FAST, np.random.default_rng([0, 0])
            )
            _assert_params_equal(expected, unstack_params(batch, b))
        assert not batch["left"][1].any()

    def test_unknown_kind_rejected(self, rng):
        X, y = _window(rng, 48, 2)
        with pytest.raises(ValueError, match="unknown model kind"):
            fit_model_batch("forest", X, y, FAST)
        with pytest.raises(ValueError, match="unknown model kind"):
            unstack_params({"kind": "forest"})

    def test_ridge_batch_matches_scalar_fit(self, rng):
        """`fit_ridge` itself (not just the frozen copy) agrees with
        the batch kernel -- the two live paths cannot drift apart."""
        X, y = _window(rng, 60, 4)
        batch = fit_ridge_batch(X, y, 1e-3)
        for b in range(4):
            _assert_params_equal(
                fit_ridge(X[:, b, :], y[:, b], 1e-3), unstack_params(batch, b)
            )


class TestSharedStumpWalk:
    def test_predict_model_uses_shared_kernel(self, rng):
        """Offline GBM scoring is exactly one ``score_stumps`` call."""
        X, y = _window(rng, 64, 1)
        params = fit_gbm(X[:, 0, :], y[:, 0], FAST, np.random.default_rng([0, 0]))
        direct = score_stumps(
            X[:, 0, params["feat"]],
            params["thr"],
            params["left"],
            params["right"],
            params["base"],
            params["learning_rate"],
        )
        assert np.array_equal(predict_model(params, X[:, 0, :]), direct)

    def test_kernel_predict_matches_predict_model(self, rng):
        """The online kernel's stacked stump walk scores a feature row
        exactly like the offline path given the same fitted params."""
        X, y = _window(rng, 64, 1)
        params = fit_gbm(X[:, 0, :], y[:, 0], FAST, np.random.default_rng([0, 0]))
        kernel = LearnedKernel(6, batch_size=1, model="gbm", training=FAST)
        kernel._store_params(0, params)
        feats = np.ascontiguousarray(X[:1, 0, :])
        assert np.array_equal(
            kernel._predict(feats), predict_model(params, feats)
        )


class TestEngineParity:
    """The kernel's stacked refit and the frozen per-node oracle
    (patched in for ``fit_model_batch``) emit identical predictions
    over a full online run."""

    @staticmethod
    def _stream(model, n_slots, values, means):
        kernel = LearnedKernel(
            n_slots, batch_size=values.shape[1], model=model, training=FAST
        )
        out = []
        for t, row in enumerate(values):
            if t > 0:
                kernel.provide_slot_mean(means[t - 1])
            out.append(kernel.observe(row.copy()))
        return np.array(out), kernel.fit_count

    @pytest.mark.parametrize("model", ["ridge", "gbm"])
    def test_observe_stream_bitwise(self, model, rng, monkeypatch):
        n_slots, n_days, B = 6, 9, 5
        values = rng.uniform(0, 900, size=(n_slots * n_days, B))
        means = rng.uniform(0, 900, size=(n_slots * n_days, B))
        batched, batched_fits = self._stream(model, n_slots, values, means)

        oracle_calls = []

        def per_node(*args, **kwargs):
            oracle_calls.append(args[1].shape)
            return fit_model_batch_reference(*args, **kwargs)

        monkeypatch.setattr(learned, "fit_model_batch", per_node)
        loop, loop_fits = self._stream(model, n_slots, values, means)
        assert len(oracle_calls) == loop_fits == batched_fits > 0
        for t in range(values.shape[0]):
            assert np.array_equal(batched[t], loop[t]), f"fits diverged at t={t}"


class TestColumnStackingExact:
    """Strengthen PR 9's 1e-9 vector parity to exact equality: the
    column-stacked robustness slabs rely on bitwise column
    independence to keep the golden matrix byte-stable."""

    @pytest.mark.parametrize("model", ["ridge", "gbm"])
    def test_kernel_columns_equal_scalar_runs(self, model, rng):
        n_slots, n_days, B = 6, 8, 4
        values = rng.uniform(0, 900, size=(n_slots * n_days, B))
        means = rng.uniform(0, 900, size=(n_slots * n_days, B))
        kernel = LearnedKernel(n_slots, batch_size=B, model=model, training=FAST)
        scalars = [
            LearnedPredictor(n_slots, model=model, training=FAST)
            for _ in range(B)
        ]
        for t, row in enumerate(values):
            if t > 0:
                kernel.provide_slot_mean(means[t - 1])
                for b, p in enumerate(scalars):
                    p.provide_slot_mean(means[t - 1][b])
            batch = kernel.observe(row.copy())
            for b, p in enumerate(scalars):
                assert batch[b] == p.observe(row[b]), (model, t, b)

    @pytest.mark.parametrize("model", ["ridge", "gbm"])
    def test_deep_mu_columns_equal_single_node(self, model):
        """At ``mu_days=10`` the day-history mean features average up to
        10 days; a 3-node kernel's columns must still equal 1-node
        kernels bit for bit (numpy's ``mean`` sums a lone column
        pairwise from 8 rows on, wider batches in order).  The first
        fit waits for 10 days, so the pre-fit fallback blend reads the
        deep means directly too."""
        views = [
            SlotView.from_trace(build_dataset(site, n_days=20), 48)
            for site in ("HSU", "PFCI", "ORNL")
        ]
        starts = np.stack([v.flat_starts() for v in views], axis=1)
        means = np.stack([v.flat_means() for v in views], axis=1)
        features = FeatureConfig(mu_days=10)
        training = dataclasses.replace(FAST, min_train_days=10, window_days=10)

        def run(columns):
            kernel = LearnedKernel(
                48, batch_size=len(columns), model=model,
                features=features, training=training,
            )
            out = np.empty((starts.shape[0], len(columns)))
            for t in range(starts.shape[0]):
                if t > 0:
                    kernel.provide_slot_mean(means[t - 1, columns])
                out[t] = kernel.observe(starts[t, columns])
            assert kernel.fit_count > 0
            return out

        stacked = run([0, 1, 2])
        for b in range(3):
            np.testing.assert_array_equal(
                stacked[:, b], run([b])[:, 0], err_msg=f"{model} column {b}"
            )

