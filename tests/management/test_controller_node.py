"""Tests for controllers and the full node simulation."""

import numpy as np
import pytest

from repro.core.baselines import PersistencePredictor
from repro.core.wcma import WCMAParams, WCMAPredictor
from repro.management.consumer import DutyCycledLoad
from repro.management.controller import (
    FixedDutyController,
    KansalController,
    MinimumVarianceController,
    OracleController,
)
from repro.management.harvester import PVHarvester
from repro.management.node import SensorNodeSimulation
from repro.management.storage import Battery, Supercapacitor

LOAD = DutyCycledLoad(
    active_power_watts=40e-3, sleep_power_watts=40e-6, min_duty=0.02
)


class TestFixedDuty:
    def test_constant(self):
        controller = FixedDutyController(0.3)
        assert controller.decide(0.0, 0.1) == 0.3
        assert controller.decide(5.0, 0.9) == 0.3

    def test_validation(self):
        with pytest.raises(ValueError):
            FixedDutyController(1.5)


class TestKansal:
    def test_budget_tracks_prediction(self):
        controller = KansalController(LOAD, 100.0, target_soc=0.5, correction_gain=0.0)
        low = controller.decide(LOAD.power(0.1), 0.5)
        high = controller.decide(LOAD.power(0.8), 0.5)
        assert high > low

    def test_soc_correction_direction(self):
        controller = KansalController(
            LOAD, 10_000.0, target_soc=0.5, correction_gain=10.0
        )
        surplus = controller.decide(LOAD.power(0.5), 0.9)
        deficit = controller.decide(LOAD.power(0.5), 0.1)
        assert surplus > deficit

    def test_validation(self):
        with pytest.raises(ValueError):
            KansalController(LOAD, 0.0)
        with pytest.raises(ValueError):
            KansalController(LOAD, 10.0, target_soc=2.0)
        controller = KansalController(LOAD, 10.0)
        with pytest.raises(ValueError):
            controller.decide(-1.0, 0.5)


class TestMinimumVariance:
    def test_smooths_predictions(self):
        controller = MinimumVarianceController(
            LOAD, 10_000.0, smoothing=0.01, correction_gain=0.0
        )
        duties = []
        rng = np.random.default_rng(3)
        for _ in range(200):
            prediction = float(rng.uniform(0.0, LOAD.power(1.0)))
            duties.append(controller.decide(prediction, 0.6))
        # Later decisions barely move despite noisy predictions.
        late = np.diff(duties[100:])
        assert np.abs(late).max() < 0.05

    def test_reset_clears_average(self):
        controller = MinimumVarianceController(LOAD, 100.0)
        controller.decide(1.0, 0.5)
        controller.reset()
        assert controller._average_watts is None

    def test_validation(self):
        with pytest.raises(ValueError):
            MinimumVarianceController(LOAD, 100.0, smoothing=0.0)


@pytest.mark.parametrize(
    "cls", [KansalController, OracleController, MinimumVarianceController]
)
@pytest.mark.parametrize(
    "capacity", [np.nan, np.inf, -np.inf, np.array([250.0, np.nan])]
)
def test_non_finite_capacity_rejected(cls, capacity):
    """``capacity <= 0`` is False for NaN and for infinity, so the check
    asks for a finite positive capacity instead."""
    with pytest.raises(ValueError, match="capacity_joules must be positive"):
        cls(LOAD, capacity)


@pytest.mark.parametrize("duty", [np.nan, np.array([0.2, np.nan])])
def test_nan_fixed_duty_rejected(duty):
    with pytest.raises(ValueError, match="duty"):
        FixedDutyController(duty)


@pytest.mark.parametrize(
    "cls", [KansalController, OracleController, MinimumVarianceController]
)
@pytest.mark.parametrize(
    "field, value",
    [
        ("target_soc", np.nan),
        ("correction_gain", np.nan),
        ("correction_gain", np.inf),
        ("horizon_seconds", np.nan),
        ("horizon_seconds", np.inf),
    ],
)
def test_non_finite_steering_rejected(cls, field, value):
    with pytest.raises(ValueError, match=field):
        cls(LOAD, 250.0, **{field: value})


def test_nan_smoothing_rejected():
    with pytest.raises(ValueError, match="smoothing"):
        MinimumVarianceController(LOAD, 250.0, smoothing=np.nan)


class TestNodeSimulation:
    def make_sim(self, trace, predictor=None, controller=None, storage=None):
        predictor = predictor or WCMAPredictor(48, WCMAParams(0.7, 5, 2))
        controller = controller or KansalController(LOAD, 250.0, target_soc=0.6)
        storage = storage or Supercapacitor(capacity_joules=250.0, initial_soc=0.5)
        return SensorNodeSimulation(
            trace=trace,
            n_slots=48,
            predictor=predictor,
            controller=controller,
            harvester=PVHarvester(area_m2=25e-4),
            storage=storage,
            load=LOAD,
        )

    def test_records_every_slot(self, hsu_trace):
        result = self.make_sim(hsu_trace).run()
        total = hsu_trace.n_days * 48
        assert result.duty_achieved.shape == (total,)
        assert result.state_of_charge.shape == (total,)

    def test_energy_conservation_signs(self, hsu_trace):
        result = self.make_sim(hsu_trace).run()
        assert (result.harvested_joules >= 0).all()
        assert (result.consumed_joules >= -1e-9).all()
        assert (result.wasted_joules >= -1e-9).all()
        assert (result.shortfall_joules >= -1e-9).all()

    def test_soc_bounds(self, hsu_trace):
        result = self.make_sim(hsu_trace).run()
        assert (result.state_of_charge >= 0.0).all()
        assert (result.state_of_charge <= 1.0 + 1e-12).all()

    def test_achieved_never_exceeds_requested(self, hsu_trace):
        result = self.make_sim(hsu_trace).run()
        assert (result.duty_achieved <= result.duty_requested + 1e-12).all()

    def test_fixed_duty_high_demand_browns_out(self, hsu_trace):
        """A greedy fixed duty on a small cap must hit downtime at night."""
        result = self.make_sim(
            hsu_trace, controller=FixedDutyController(1.0)
        ).run()
        assert result.downtime_fraction > 0.05

    def test_adaptive_beats_fixed_duty(self, hsu_trace):
        adaptive = self.make_sim(hsu_trace).run()
        fixed = self.make_sim(hsu_trace, controller=FixedDutyController(1.0)).run()
        assert adaptive.downtime_fraction < fixed.downtime_fraction

    def test_oracle_controller_uses_true_mean(self, hsu_trace):
        oracle = self.make_sim(
            hsu_trace,
            predictor=PersistencePredictor(48),
            controller=OracleController(LOAD, 250.0, target_soc=0.6),
        ).run()
        assert oracle.downtime_fraction <= 0.02

    def test_summary_keys(self, hsu_trace):
        summary = self.make_sim(hsu_trace).run().summary()
        assert set(summary) == {
            "mean_duty",
            "duty_std",
            "downtime_fraction",
            "waste_fraction",
            "final_soc",
        }

    def test_minvar_duty_smoother_than_kansal(self, hsu_trace):
        battery = lambda: Battery(capacity_joules=4000.0, initial_soc=0.6)
        kansal = self.make_sim(
            hsu_trace,
            controller=KansalController(LOAD, 4000.0, target_soc=0.6),
            storage=battery(),
        ).run()
        minvar = self.make_sim(
            hsu_trace,
            controller=MinimumVarianceController(LOAD, 4000.0, target_soc=0.6),
            storage=battery(),
        ).run()
        assert minvar.duty_std < kansal.duty_std
