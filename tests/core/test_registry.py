"""Tests for the predictor registry."""

import numpy as np
import pytest

from repro.core.base import ScalarColumns, VectorPredictor
from repro.core.baselines import PersistencePredictor, PersistenceVector
from repro.core.proenergy import ProEnergyPredictor
from repro.core.registry import (
    available_predictors,
    make_predictor,
    make_vector_predictor,
    register,
    unregister,
)
from repro.core.wcma import WCMAPredictor, WCMAVector
from repro.learn.models import TrainingConfig
from repro.solar.slots import SlotView

#: A quick online-learning config, so the learned names refit within
#: the parity test's few days.
FAST_TRAINING = TrainingConfig(
    min_train_days=2, refit_days=1, window_days=3, gbm_rounds=4, gbm_thresholds=3
)


class TestRegistry:
    def test_defaults_registered(self):
        names = available_predictors()
        for expected in ("wcma", "ewma", "persistence", "previous-day", "moving-average"):
            assert expected in names

    def test_make_wcma_with_kwargs(self):
        predictor = make_predictor("wcma", 48, alpha=0.5, days=7, k=3)
        assert isinstance(predictor, WCMAPredictor)
        assert predictor.params.alpha == 0.5
        assert predictor.params.days == 7
        assert predictor.params.k == 3

    def test_case_insensitive(self):
        assert isinstance(make_predictor("WCMA", 24), WCMAPredictor)

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown predictor"):
            make_predictor("nope", 48)

    def test_register_new_and_reject_duplicates(self):
        register("test-custom", lambda n_slots: PersistencePredictor(n_slots))
        try:
            assert isinstance(make_predictor("test-custom", 8), PersistencePredictor)
            with pytest.raises(ValueError, match="already registered"):
                register("test-custom", lambda n_slots: PersistencePredictor(n_slots))
        finally:
            unregister("test-custom")

    def test_register_overwrite_replaces(self):
        register("test-overwrite", lambda n_slots: PersistencePredictor(n_slots))
        try:
            register(
                "test-overwrite",
                lambda n_slots: PersistencePredictor(n_slots + 1),
                overwrite=True,
            )
            assert make_predictor("test-overwrite", 8).n_slots == 9
        finally:
            unregister("test-overwrite")

    def test_overwrite_without_vector_factory_drops_vector_support(self):
        register(
            "test-vec",
            lambda n_slots: PersistencePredictor(n_slots),
            vector_factory=lambda n_slots, batch_size: PersistenceVector(
                n_slots, batch_size
            ),
        )
        try:
            assert isinstance(make_vector_predictor("test-vec", 8, 2), PersistenceVector)
            register(
                "test-vec",
                lambda n_slots: PersistencePredictor(n_slots),
                overwrite=True,
            )
            assert isinstance(make_vector_predictor("test-vec", 8, 2), ScalarColumns)
        finally:
            unregister("test-vec")

    def test_unregister_removes(self):
        register("test-gone", lambda n_slots: PersistencePredictor(n_slots))
        unregister("test-gone")
        assert "test-gone" not in available_predictors()
        with pytest.raises(KeyError):
            make_predictor("test-gone", 8)

    def test_unregister_unknown_raises(self):
        with pytest.raises(KeyError, match="not registered"):
            unregister("never-registered")


class TestVectorRegistry:
    def test_defaults_have_vector_kernels(self):
        for name in (
            "wcma",
            "ewma",
            "persistence",
            "previous-day",
            "moving-average",
            "ridge",
            "gbm",
            "adaptive",
            "adaptive-greedy",
            "hedge",
        ):
            assert not isinstance(make_vector_predictor(name, 48, 2), ScalarColumns)

    def test_scalar_only_predictors_run_as_scalar_columns(self):
        for name in ("pro-energy", "ar", "linear-trend"):
            kernel = make_vector_predictor(name, 48, 3)
            assert isinstance(kernel, ScalarColumns)
            assert kernel.batch_size == 3
            assert len({id(p) for p in kernel.predictors}) == 3  # one per node

    def test_make_vector_predictor(self):
        kernel = make_vector_predictor("wcma", 48, 16, alpha=0.5, days=7, k=3)
        assert isinstance(kernel, WCMAVector)
        assert isinstance(kernel, VectorPredictor)
        assert kernel.batch_size == 16
        assert kernel.params.alpha == 0.5

    def test_make_vector_predictor_without_kernel_wraps_scalar_instances(self):
        register(
            "test-scalar",
            lambda n_slots, pool_size=10: ProEnergyPredictor(n_slots, pool_size=pool_size),
        )
        try:
            kernel = make_vector_predictor("test-scalar", 8, 2, pool_size=4)
            assert isinstance(kernel, ScalarColumns)
            assert [p.pool_size for p in kernel.predictors] == [4, 4]
        finally:
            unregister("test-scalar")

    def test_make_vector_predictor_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown predictor"):
            make_vector_predictor("nope", 48, 4)

    @pytest.mark.parametrize("name", available_predictors())
    def test_every_name_steps_in_lock_step_like_its_scalar(self, name, hsu_trace):
        """Each column of a 3-node lock-step form equals the scalar
        predictor on that column's samples, bit for bit, under the
        evaluator's protocol (slot means first when asked for)."""
        kwargs = {"training": FAST_TRAINING} if name in ("ridge", "gbm") else {}
        view = SlotView.from_trace(hsu_trace, 48)
        starts = view.flat_starts()[: 48 * 6]
        means = view.flat_means()[: 48 * 6]
        scales = np.array([1.0, 0.5, 2.0])
        kernel = make_vector_predictor(name, 48, 3, **kwargs)
        assert isinstance(kernel, VectorPredictor)
        feedback = getattr(kernel, "uses_slot_mean_feedback", False)
        kernel.reset()
        got = np.empty((starts.size, 3))
        for t in range(starts.size):
            if feedback and t > 0:
                kernel.provide_slot_mean(means[t - 1] * scales)
            got[t] = kernel.observe(starts[t] * scales)
        for b, scale in enumerate(scales):
            scalar = make_predictor(name, 48, **kwargs)
            assert getattr(scalar, "uses_slot_mean_feedback", False) == feedback
            for t in range(starts.size):
                if feedback and t > 0:
                    scalar.provide_slot_mean(float(means[t - 1] * scale))
                assert scalar.observe(float(starts[t] * scale)) == got[t, b], (b, t)
