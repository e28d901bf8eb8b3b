"""Tests for the EWMA predictor and the simple baselines."""

import numpy as np
import pytest

from repro.core.baselines import (
    MovingAveragePredictor,
    MovingAverageVector,
    PersistencePredictor,
    PreviousDayPredictor,
)
from repro.core.ewma import EWMAPredictor
from repro.metrics.evaluate import evaluate_predictor
from repro.solar.datasets import build_dataset
from repro.solar.slots import SlotView


class TestEWMA:
    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            EWMAPredictor(0)
        with pytest.raises(ValueError):
            EWMAPredictor(4, gamma=1.5)

    def test_first_day_persistence(self):
        predictor = EWMAPredictor(3, gamma=0.5)
        assert predictor.observe(10.0) == 10.0

    def test_repeating_days_converge_to_profile(self):
        profile = [10.0, 50.0, 30.0]
        predictor = EWMAPredictor(3, gamma=0.5)
        predictions = []
        for _ in range(8):
            for value in profile:
                predictions.append(predictor.observe(value))
        # Late predictions for slot 1 (made at slot 0) approach 50.
        assert predictions[-3] == pytest.approx(50.0, abs=1e-2)

    def test_gamma_one_tracks_yesterday(self):
        predictor = EWMAPredictor(2, gamma=1.0)
        predictor.observe(10.0)
        predictor.observe(20.0)
        # Day 2: prediction made at slot 0 for slot 1 = yesterday's 20.
        predictor_out = predictor.observe(999.0)
        assert predictor_out == 20.0

    def test_update_uses_todays_observation(self):
        predictor = EWMAPredictor(1, gamma=0.5)
        predictor.observe(100.0)  # avg = 100
        assert predictor.observe(50.0) == pytest.approx(75.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            EWMAPredictor(2).observe(-1.0)

    def test_reset(self):
        predictor = EWMAPredictor(2, gamma=0.5)
        first = [predictor.observe(v) for v in (1.0, 2.0, 3.0, 4.0)]
        predictor.reset()
        second = [predictor.observe(v) for v in (1.0, 2.0, 3.0, 4.0)]
        assert first == second

    def test_wcma_beats_ewma_on_variable_site(self, hsu_trace):
        """The paper's premise: conditioning on the current day helps."""
        from repro.core.wcma import WCMAParams, WCMAPredictor

        ewma = evaluate_predictor(EWMAPredictor(48), hsu_trace, 48)
        wcma = evaluate_predictor(
            WCMAPredictor(48, WCMAParams(0.7, 10, 2)), hsu_trace, 48
        )
        assert wcma.mape < ewma.mape


class TestPersistence:
    def test_identity(self):
        predictor = PersistencePredictor(4)
        assert predictor.observe(42.0) == 42.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            PersistencePredictor(4).observe(-0.1)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            PersistencePredictor(0)


class TestPreviousDay:
    def test_first_day_persistence(self):
        predictor = PreviousDayPredictor(2)
        assert predictor.observe(5.0) == 5.0

    def test_uses_yesterday_next_slot(self):
        predictor = PreviousDayPredictor(2)
        predictor.observe(10.0)  # day 0 slot 0
        predictor.observe(20.0)  # day 0 slot 1
        # Day 1 slot 0: predicts slot 1 from yesterday -> 20.
        assert predictor.observe(99.0) == 20.0
        # Day 1 slot 1: predicts slot 0 (tomorrow) from yesterday -> 10.
        assert predictor.observe(99.0) == 10.0


class TestMovingAverage:
    def test_averages_past_days(self):
        predictor = MovingAveragePredictor(2, days=2)
        for day_values in ([10.0, 0.0], [30.0, 0.0]):
            for value in day_values:
                predictor.observe(value)
        # Day 2 slot 1 -> predicts slot 0: mean(10, 30) = 20.
        predictor.observe(0.0)
        assert predictor.observe(0.0) == pytest.approx(20.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            MovingAveragePredictor(2, days=0)

    def test_equals_wcma_alpha0_with_neutral_phi(self, repeating_day_trace):
        """On identical repeating days eta == 1, so WCMA(alpha=0) and the
        unconditioned moving average coincide (in the scored region)."""
        from repro.core.wcma import WCMAParams, WCMAPredictor

        ma = evaluate_predictor(
            MovingAveragePredictor(48, days=5), repeating_day_trace, 48
        )
        wcma = evaluate_predictor(
            WCMAPredictor(48, WCMAParams(0.0, 5, 2)), repeating_day_trace, 48
        )
        assert ma.mape == pytest.approx(wcma.mape, abs=1e-9)

    def test_columns_independent_of_batch_size(self):
        """Column ``b`` of a 3-node kernel is the 1-node kernel fed that
        node's samples, bit for bit, at a depth (D=10) where numpy's
        ``mean`` would sum a lone column pairwise but wider batches in
        order."""
        starts = np.stack(
            [
                SlotView.from_trace(build_dataset(site, n_days=20), 48).flat_starts()
                for site in ("HSU", "PFCI", "ORNL")
            ],
            axis=1,
        )
        stacked = MovingAverageVector(48, 3, days=10).run(starts)
        for b in range(3):
            alone = MovingAverageVector(48, 1, days=10).run(starts[:, b : b + 1])
            np.testing.assert_array_equal(stacked[:, b], alone[:, 0], err_msg=str(b))
