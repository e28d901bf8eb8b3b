"""Cross-cutting property-based tests (hypothesis).

These complement the per-module suites with randomized invariants that
span module boundaries: trace/io round trips, predictor output bounds,
metric algebra, and fixed-point consistency.
"""


import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.registry import available_predictors, make_predictor
from repro.core.wcma import WCMABatch, WCMAParams, WCMAPredictor
from repro.hardware.fixedpoint import Q13_MAX, FixedPointWCMA
from repro.metrics.errors import mape
from repro.metrics.roi import roi_mask
from repro.solar.io import loads, dumps
from repro.solar.slots import SlotView
from repro.solar.trace import SolarTrace


def trace_strategy(max_days=4, spd=96):
    """Random non-negative traces of whole days."""
    return st.integers(1, max_days).flatmap(
        lambda days: arrays(
            float,
            days * spd,
            elements=st.floats(0.0, 1000.0, allow_nan=False),
        ).map(lambda v: SolarTrace(v, (24 * 60) // spd, "prop"))
    )


class TestTraceProperties:
    @settings(max_examples=20, deadline=None)
    @given(trace=trace_strategy())
    def test_io_round_trip_preserves_everything(self, trace):
        again = loads(dumps(trace))
        assert again.resolution_minutes == trace.resolution_minutes
        assert np.allclose(again.values, trace.values, rtol=1e-5, atol=1e-4)

    @settings(max_examples=20, deadline=None)
    @given(trace=trace_strategy(), n=st.sampled_from([96, 48, 24, 12]))
    def test_slot_means_bounded_by_extremes(self, trace, n):
        view = SlotView.from_trace(trace, n)
        shaped = trace.as_days().reshape(trace.n_days, n, -1)
        assert (view.means <= shaped.max(axis=2) + 1e-9).all()
        assert (view.means >= shaped.min(axis=2) - 1e-9).all()

    @settings(max_examples=20, deadline=None)
    @given(trace=trace_strategy())
    def test_daily_energy_additive(self, trace):
        total = trace.daily_energy().sum()
        dt_hours = trace.resolution_minutes / 60.0
        assert total == pytest.approx(trace.values.sum() * dt_hours)


class TestPredictorProperties:
    @settings(max_examples=10, deadline=None)
    @given(
        samples=arrays(float, 96 * 3, elements=st.floats(0.0, 900.0)),
        alpha=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
        k=st.integers(1, 4),
    )
    def test_wcma_outputs_finite_and_nonnegative(self, samples, alpha, k):
        predictor = WCMAPredictor(96, WCMAParams(alpha, 2, k))
        out = predictor.run(samples)
        assert np.isfinite(out).all()
        assert (out >= 0.0).all()

    @settings(max_examples=10, deadline=None)
    @given(samples=arrays(float, 48 * 3, elements=st.floats(0.0, 900.0)))
    def test_all_registered_predictors_stay_finite(self, samples):
        for name in available_predictors():
            predictor = make_predictor(name, 48)
            out = predictor.run(samples)
            assert np.isfinite(out).all(), name
            assert (out >= 0.0).all(), name

    @settings(max_examples=10, deadline=None)
    @given(
        samples=arrays(float, 48 * 3, elements=st.floats(0.0, 1400.0)),
        alpha=st.sampled_from([0.0, 0.5, 1.0]),
    )
    def test_q15_close_to_float_everywhere(self, samples, alpha):
        params = WCMAParams(alpha, 2, 2)
        flt = WCMAPredictor(48, params)
        q15 = FixedPointWCMA(48, params, full_scale_watts=1500.0)
        q13_ceiling = ((1 << 16) - 1) / (1 << 13)  # ratio saturation, ~8.0
        for value in samples:
            a = flt.observe(float(value))
            b = q15.observe(float(value))
            # Within 2% of full scale at every single step; on
            # adversarial inputs the float path may exceed full scale
            # (clamped below) and the float eta ratio may exceed the
            # Q13 ceiling -- there the Q15 port saturates by design and
            # the two paths legitimately diverge, so those steps are
            # exempt.  The divergence can also appear on the fixed-point
            # side only: when mu sits within one quantisation step of
            # the dawn-guard floor, the float path substitutes the
            # neutral ratio while the Q15 path lets the (saturating)
            # division through -- a saturated Q13 ratio marks the same
            # by-design divergence.
            if any(eta > q13_ceiling for eta in flt.state_dict()["recent_eta"]):
                continue
            if any(eta_q >= Q13_MAX for eta_q in q15._recent_eta_q13):
                continue
            assert abs(min(a, 1500.0) - b) <= 30.0 + 1e-9

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        alpha=st.sampled_from([0.2, 0.5, 0.8]),
    )
    def test_determinism_across_runs(self, seed, alpha):
        rng = np.random.default_rng(seed)
        samples = rng.uniform(0, 800, 48 * 3)
        predictor = make_predictor("wcma", 48, alpha=alpha, days=2, k=2)
        first = predictor.run(samples.copy())
        predictor.reset()
        second = predictor.run(samples.copy())
        assert np.array_equal(first, second)


class TestMetricProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        reference=arrays(float, 30, elements=st.floats(1.0, 500.0)),
        noise=arrays(float, 30, elements=st.floats(-50.0, 50.0)),
    )
    def test_mape_zero_iff_exact(self, reference, noise):
        exact = mape(np.zeros_like(reference), reference)
        assert exact == 0.0
        if np.abs(noise).max() > 0:
            assert mape(noise, reference) > 0.0

    @settings(max_examples=25, deadline=None)
    @given(
        reference=arrays(float, 64, elements=st.floats(0.0, 500.0)),
        fraction=st.sampled_from([0.05, 0.1, 0.3]),
    )
    def test_roi_mask_monotone_in_threshold(self, reference, fraction):
        if reference.max() <= 0:
            return
        loose = roi_mask(reference, 8, roi_fraction=fraction, warmup_days=0)
        tight = roi_mask(reference, 8, roi_fraction=min(0.9, fraction * 2), warmup_days=0)
        # Tightening the threshold can only remove samples.
        assert not (tight & ~loose).any()

    @settings(max_examples=10, deadline=None)
    @given(
        days=st.integers(1, 4),
        k=st.integers(1, 3),
        seed=st.integers(0, 1000),
    )
    def test_batch_conditioned_term_nonnegative(self, days, k, seed):
        rng = np.random.default_rng(seed)
        values = rng.uniform(0, 1000, 6 * 96)
        trace = SolarTrace(values, 15, "prop")
        batch = WCMABatch.from_trace(trace, 96)
        q = batch.conditioned_term(days, k)
        finite = np.isfinite(q)
        assert (q[finite] >= 0.0).all()
