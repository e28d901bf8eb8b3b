"""Tests for the PV harvester and duty-cycled load models."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.management.consumer import DutyCycledLoad
from repro.management.harvester import PVHarvester


class TestPVHarvester:
    def test_gain(self):
        harvester = PVHarvester(
            area_m2=0.01, panel_efficiency=0.2, conditioning_efficiency=0.5
        )
        assert harvester.gain == pytest.approx(0.001)
        assert harvester.power(1000.0) == pytest.approx(1.0)

    def test_vectorised(self):
        harvester = PVHarvester()
        out = harvester.power(np.array([0.0, 500.0, 1000.0]))
        assert out.shape == (3,)
        assert out[0] == 0.0
        assert out[2] == pytest.approx(2 * out[1])

    def test_energy(self):
        harvester = PVHarvester(
            area_m2=0.01, panel_efficiency=0.2, conditioning_efficiency=1.0
        )
        # 2 W electrical for 100 s = 200 J.
        assert harvester.energy(1000.0, 100.0) == pytest.approx(200.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            PVHarvester(area_m2=0.0)
        with pytest.raises(ValueError):
            PVHarvester(panel_efficiency=1.5)
        harvester = PVHarvester()
        with pytest.raises(ValueError):
            harvester.power(-1.0)
        with pytest.raises(ValueError):
            harvester.energy(100.0, -1.0)


@pytest.mark.parametrize("area", [np.nan, np.inf])
def test_non_finite_panel_area_rejected(area):
    with pytest.raises(ValueError, match="area_m2"):
        PVHarvester(area_m2=area)


@pytest.mark.parametrize(
    "field", ["active_power_watts", "sleep_power_watts", "min_duty", "max_duty"]
)
@pytest.mark.parametrize("value", [np.nan, np.inf, np.array([0.5, np.nan])])
def test_non_finite_load_rejected(field, value):
    """Each bound is an inclusion test, so NaN and infinity fail it
    (``x <= 0`` alone is False for NaN)."""
    with pytest.raises(ValueError):
        DutyCycledLoad(**{field: value})


class TestDutyCycledLoad:
    def test_power_endpoints(self):
        load = DutyCycledLoad(
            active_power_watts=0.1,
            sleep_power_watts=0.001,
            min_duty=0.0,
            max_duty=1.0,
        )
        assert load.power(0.0) == pytest.approx(0.001)
        assert load.power(1.0) == pytest.approx(0.1)

    def test_clamping(self):
        load = DutyCycledLoad(min_duty=0.1, max_duty=0.8)
        assert load.clamp(0.05) == 0.1
        assert load.clamp(0.95) == 0.8
        assert load.clamp(0.5) == 0.5

    def test_energy(self):
        load = DutyCycledLoad(
            active_power_watts=1.0, sleep_power_watts=0.0, min_duty=0.0
        )
        assert load.energy(0.5, 100.0) == pytest.approx(50.0)

    def test_duty_for_power_inverts_power(self):
        load = DutyCycledLoad(min_duty=0.0, max_duty=1.0)
        for duty in (0.0, 0.25, 0.6, 1.0):
            watts = load.power(duty)
            assert load.duty_for_power(watts) == pytest.approx(duty, abs=1e-12)

    def test_duty_for_power_clamps(self):
        load = DutyCycledLoad(min_duty=0.1, max_duty=0.9)
        assert load.duty_for_power(0.0) == 0.1
        assert load.duty_for_power(10.0) == 0.9

    def test_validation(self):
        with pytest.raises(ValueError):
            DutyCycledLoad(active_power_watts=0.0)
        with pytest.raises(ValueError):
            DutyCycledLoad(active_power_watts=1e-6, sleep_power_watts=1e-3)
        with pytest.raises(ValueError):
            DutyCycledLoad(min_duty=0.5, max_duty=0.2)
        load = DutyCycledLoad()
        with pytest.raises(ValueError):
            load.energy(0.5, -1.0)
        with pytest.raises(ValueError):
            load.duty_for_power(-0.1)

    @given(st.floats(0.0, 1.0))
    def test_power_monotone_in_duty(self, duty):
        load = DutyCycledLoad(min_duty=0.0, max_duty=1.0)
        assert load.power(duty) <= load.power(1.0)
        assert load.power(duty) >= load.power(0.0)
