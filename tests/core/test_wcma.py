"""Tests for the WCMA predictor: parameters, online form, batch engine."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.wcma import (
    ETA_FLOOR_FRACTION,
    WCMABatch,
    WCMAParams,
    WCMAPredictor,
    WCMAVector,
    mu_matrix,
)
from repro.solar.slots import SlotView


class TestWCMAParams:
    def test_valid(self):
        p = WCMAParams(alpha=0.5, days=10, k=3)
        assert (p.alpha, p.days, p.k) == (0.5, 10, 3)

    @pytest.mark.parametrize(
        "alpha,days,k",
        [(-0.1, 10, 3), (1.1, 10, 3), (0.5, 0, 3), (0.5, 10, 0)],
    )
    def test_invalid(self, alpha, days, k):
        with pytest.raises(ValueError):
            WCMAParams(alpha=alpha, days=days, k=k)

    def test_theta_weights(self):
        theta = WCMAParams.theta(4)
        assert theta.tolist() == [0.25, 0.5, 0.75, 1.0]
        # Eq. 5: weights rise from 1/K to 1.
        assert theta[0] == pytest.approx(1 / 4)


class TestMuMatrix:
    def test_window_mean(self):
        starts = np.arange(12, dtype=float).reshape(4, 3)
        mu = mu_matrix(starts, days=2)
        assert np.isnan(mu[:2]).all()
        # Row 2 = mean of rows 0 and 1.
        assert mu[2].tolist() == [1.5, 2.5, 3.5]
        assert mu[3].tolist() == [4.5, 5.5, 6.5]

    def test_insufficient_days_all_nan(self):
        mu = mu_matrix(np.ones((3, 2)), days=5)
        assert np.isnan(mu).all()

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            mu_matrix(np.ones(5), days=2)
        with pytest.raises(ValueError):
            mu_matrix(np.ones((3, 2)), days=0)

    @settings(max_examples=25, deadline=None)
    @given(
        n_days=st.integers(3, 15),
        n_slots=st.integers(1, 6),
        days=st.integers(1, 6),
        seed=st.integers(0, 999),
    )
    def test_matches_naive_computation(self, n_days, n_slots, days, seed):
        rng = np.random.default_rng(seed)
        starts = rng.uniform(0, 100, (n_days, n_slots))
        mu = mu_matrix(starts, days)
        for d in range(n_days):
            if d < days:
                assert np.isnan(mu[d]).all()
            else:
                assert mu[d] == pytest.approx(starts[d - days : d].mean(axis=0))


class TestOnlinePredictor:
    def test_warmup_is_persistence(self):
        predictor = WCMAPredictor(4, WCMAParams(0.5, 2, 2))
        assert predictor.observe(10.0) == 10.0
        assert predictor.observe(20.0) == 20.0

    def test_identical_days_alpha_zero_predicts_next_slot(self):
        """With D identical days, mu = profile and Phi = 1, so the
        alpha=0 prediction equals the next slot's (historical) value."""
        profile = [0.0, 100.0, 200.0, 100.0]
        predictor = WCMAPredictor(4, WCMAParams(0.0, 2, 1))
        predictions = []
        for _ in range(4):
            for value in profile:
                predictions.append(predictor.observe(value))
        # Day 3 (index 3): prediction at slot 1 targets slot 2 -> 200.
        day3 = predictions[12:]
        assert day3[1] == pytest.approx(200.0)
        assert day3[2] == pytest.approx(100.0)

    def test_alpha_blend(self):
        """alpha blends persistence and the conditioned average."""
        profile = [0.0, 100.0, 200.0, 100.0]
        outputs = {}
        for alpha in (0.0, 0.5, 1.0):
            predictor = WCMAPredictor(4, WCMAParams(alpha, 2, 1))
            seq = []
            for _ in range(4):
                for value in profile:
                    seq.append(predictor.observe(value))
            outputs[alpha] = seq[13]  # day 3, slot 1 -> targets 200
        assert outputs[1.0] == pytest.approx(100.0)
        assert outputs[0.0] == pytest.approx(200.0)
        assert outputs[0.5] == pytest.approx(150.0)

    def test_rejects_negative_power(self):
        predictor = WCMAPredictor(4, WCMAParams(0.5, 2, 1))
        with pytest.raises(ValueError):
            predictor.observe(-1.0)

    def test_reset_restores_cold_start(self):
        predictor = WCMAPredictor(2, WCMAParams(0.3, 2, 1))
        first = [predictor.observe(v) for v in (1.0, 2.0, 3.0, 4.0, 5.0)]
        predictor.reset()
        second = [predictor.observe(v) for v in (1.0, 2.0, 3.0, 4.0, 5.0)]
        assert first == second

    def test_rejects_bad_eta_floor(self):
        with pytest.raises(ValueError):
            WCMAPredictor(4, WCMAParams(0.5, 2, 1), eta_floor_fraction=1.0)

    def test_conditioning_factor_tracks_brightness(self):
        """A day twice as bright as history doubles the conditioned term."""
        n = 4
        base = [0.0, 100.0, 200.0, 100.0]
        predictor = WCMAPredictor(n, WCMAParams(0.0, 3, 1))
        for _ in range(3):
            for value in base:
                predictor.observe(value)
        # Bright day: everything x2.
        predictor.observe(0.0)
        prediction = predictor.observe(200.0)  # slot 1, eta = 2
        # mu(slot 2) = 200, phi = 2 -> prediction 400.
        assert prediction == pytest.approx(400.0)


class TestVectorKernel:
    GRID = [
        WCMAParams(0.7, 10, 2),
        WCMAParams(0.45, 5, 3),
        WCMAParams(0.9, 15, 10),
        WCMAParams(0.55, 1, 1),
        WCMAParams(0.0, 4, 7),
        WCMAParams(1.0, 2, 5),
    ]

    def test_per_column_params_equal_single_params_kernels(
        self, hsu_trace, pfci_trace
    ):
        hsu = SlotView.from_trace(hsu_trace, 48).flat_starts()
        pfci = SlotView.from_trace(pfci_trace, 48).flat_starts()[: hsu.size]
        samples = np.column_stack([hsu, pfci] * 3)
        mixed = WCMAVector(48, self.GRID, batch_size=len(self.GRID)).run(samples)
        for b, params in enumerate(self.GRID):
            alone = WCMAVector(48, params, batch_size=1).run(samples[:, [b]])
            np.testing.assert_array_equal(mixed[:, b], alone[:, 0], err_msg=str(params))

    def test_params_kept_and_validated(self):
        params = WCMAParams(0.7, 10, 2)
        assert WCMAVector(48, params, batch_size=3).params is params
        assert WCMAPredictor(48, params).params is params
        with pytest.raises(ValueError, match="2 parameter sets for batch_size=3"):
            WCMAVector(48, [params, params], batch_size=3)


class TestBatchEngine:
    def test_matches_online_exactly(self, hsu_trace):
        params = WCMAParams(0.6, 7, 3)
        batch = WCMABatch.from_trace(hsu_trace, 48)
        batch_pred = batch.predictions(params)
        online = WCMAPredictor(48, params)
        online_pred = online.run(batch.view.flat_starts())[:-1]
        valid = np.isfinite(batch_pred)
        # The final boundary of each day is excluded: the batch engine
        # uses the next day's mu there (one more completed day than the
        # online predictor has at that moment); both values feed only
        # night slots.
        t = np.arange(batch_pred.size)
        compare = valid & ((t % 48) != 47)
        assert np.abs(batch_pred[compare] - online_pred[compare]).max() < 1e-9

    def test_five_minute_site_matches_online(self, spmd_trace):
        params = WCMAParams(0.7, 5, 2)
        batch = WCMABatch.from_trace(spmd_trace, 96)
        batch_pred = batch.predictions(params)
        online_pred = WCMAPredictor(96, params).run(batch.view.flat_starts())[:-1]
        t = np.arange(batch_pred.size)
        compare = np.isfinite(batch_pred) & ((t % 96) != 95)
        assert np.abs(batch_pred[compare] - online_pred[compare]).max() < 1e-9

    def test_nan_during_warmup(self, hsu_trace):
        batch = WCMABatch.from_trace(hsu_trace, 24)
        pred = batch.predictions(WCMAParams(0.5, 10, 2))
        assert np.isnan(pred[: 10 * 24 - 1]).all()
        assert np.isfinite(pred[11 * 24 :]).all()

    def test_caches_reused(self, hsu_trace):
        batch = WCMABatch.from_trace(hsu_trace, 24)
        q1 = batch.conditioned_term(5, 2)
        q2 = batch.conditioned_term(5, 2)
        assert q1 is q2

    def test_alpha_one_is_persistence(self, hsu_trace):
        batch = WCMABatch.from_trace(hsu_trace, 48)
        pred = batch.predictions(WCMAParams(1.0, 5, 2))
        s = batch.starts_flat[:-1]
        valid = np.isfinite(pred)
        assert np.abs(pred[valid] - s[valid]).max() < 1e-12

    def test_references_aligned(self, hsu_trace):
        batch = WCMABatch.from_trace(hsu_trace, 48)
        assert batch.reference_mean.shape == batch.reference_next_start.shape
        assert batch.reference_mean.size == batch.n_boundaries - 1
        assert np.array_equal(batch.reference_next_start, batch.starts_flat[1:])

    def test_prediction_linear_in_alpha(self, hsu_trace):
        """p(alpha) must be the convex combination of p(0) and p(1)."""
        batch = WCMABatch.from_trace(hsu_trace, 48)
        p0 = batch.predictions(WCMAParams(0.0, 5, 2))
        p1 = batch.predictions(WCMAParams(1.0, 5, 2))
        p_mid = batch.predictions(WCMAParams(0.3, 5, 2))
        valid = np.isfinite(p0)
        expect = 0.3 * p1[valid] + 0.7 * p0[valid]
        assert np.allclose(p_mid[valid], expect, atol=1e-9)

    def test_eta_floor_guard_bounds_phi_at_dawn(self, clearsky_trace):
        """Without the dawn guard, Phi explodes on clear mornings; with
        it, Phi stays within a sane band inside the ROI."""
        batch = WCMABatch.from_trace(clearsky_trace, 48)
        phi = batch.phi_flat(10, 2)
        means = batch.means_flat
        bright = means >= 0.10 * means.max()
        valid = np.isfinite(phi) & bright
        assert phi[valid].max() < 2.0
        assert phi[valid].min() > 0.5

    def test_rejects_bad_eta_floor(self, hsu_trace):
        view = SlotView.from_trace(hsu_trace, 48)
        with pytest.raises(ValueError):
            WCMABatch(view, eta_floor_fraction=-0.1)


class TestEtaFloorDefault:
    def test_constant_exported(self):
        assert 0.0 < ETA_FLOOR_FRACTION < 0.2
