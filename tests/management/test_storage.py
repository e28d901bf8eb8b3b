"""Tests for battery and supercapacitor models."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.management.storage import Battery, Supercapacitor


class TestBattery:
    def test_initial_state(self):
        battery = Battery(capacity_joules=100.0, initial_soc=0.25)
        assert battery.stored_joules == 25.0
        assert battery.state_of_charge == 0.25
        assert not battery.is_depleted

    def test_charge_applies_efficiency(self):
        battery = Battery(100.0, charge_efficiency=0.8, initial_soc=0.0)
        stored = battery.charge(10.0)
        assert stored == pytest.approx(8.0)
        assert battery.stored_joules == pytest.approx(8.0)

    def test_charge_overflow_wasted(self):
        battery = Battery(100.0, charge_efficiency=1.0, initial_soc=0.95)
        stored = battery.charge(50.0)
        assert stored == pytest.approx(5.0)
        assert battery.state_of_charge == 1.0

    def test_discharge_applies_efficiency(self):
        battery = Battery(100.0, discharge_efficiency=0.5, initial_soc=1.0)
        supplied = battery.discharge(10.0)
        assert supplied == 10.0
        assert battery.stored_joules == pytest.approx(80.0)  # drew 20 J

    def test_discharge_partial_when_empty(self):
        battery = Battery(100.0, discharge_efficiency=1.0, initial_soc=0.05)
        supplied = battery.discharge(50.0)
        assert supplied == pytest.approx(5.0)
        assert battery.is_depleted

    def test_leak(self):
        battery = Battery(100.0, leakage_watts=1.0, initial_soc=0.5)
        lost = battery.leak(10.0)
        assert lost == pytest.approx(10.0)
        assert battery.stored_joules == pytest.approx(40.0)

    def test_leak_capped_at_stored(self):
        battery = Battery(100.0, leakage_watts=1.0, initial_soc=0.01)
        lost = battery.leak(1e6)
        assert lost == pytest.approx(1.0)
        assert battery.is_depleted

    def test_validation(self):
        with pytest.raises(ValueError):
            Battery(capacity_joules=0.0)
        with pytest.raises(ValueError):
            Battery(100.0, charge_efficiency=0.0)
        with pytest.raises(ValueError):
            Battery(100.0, initial_soc=1.5)
        with pytest.raises(ValueError):
            Battery(100.0, leakage_watts=-1.0)
        battery = Battery(100.0)
        with pytest.raises(ValueError):
            battery.charge(-1.0)
        with pytest.raises(ValueError):
            battery.discharge(-1.0)
        with pytest.raises(ValueError):
            battery.leak(-1.0)

    @settings(max_examples=50, deadline=None)
    @given(
        operations=st.lists(
            st.tuples(
                st.sampled_from(["charge", "discharge", "leak"]),
                st.floats(0.0, 50.0),
            ),
            max_size=60,
        )
    )
    def test_soc_invariant_under_any_sequence(self, operations):
        """Property: stored energy never leaves [0, capacity]."""
        battery = Battery(100.0, initial_soc=0.5)
        for op, amount in operations:
            getattr(battery, op)(amount)
            assert 0.0 <= battery.stored_joules <= 100.0 + 1e-9
            assert 0.0 <= battery.state_of_charge <= 1.0 + 1e-12


@pytest.mark.parametrize("cls", [Battery, Supercapacitor])
@pytest.mark.parametrize(
    "capacity", [np.nan, np.inf, -np.inf, np.array([250.0, np.nan])]
)
def test_non_finite_capacity_rejected(cls, capacity):
    """``capacity <= 0`` is False for NaN and for infinity, so the check
    asks for a finite positive capacity instead."""
    with pytest.raises(ValueError, match="capacity_joules must be positive"):
        cls(capacity_joules=capacity)


@pytest.mark.parametrize("cls", [Battery, Supercapacitor])
@pytest.mark.parametrize(
    "field, value",
    [
        ("charge_efficiency", np.nan),
        ("discharge_efficiency", np.nan),
        ("initial_soc", np.nan),
        ("initial_soc", np.array([0.5, np.nan])),
    ],
)
def test_nan_parameters_rejected(cls, field, value):
    with pytest.raises(ValueError, match=field):
        cls(250.0, **{field: value})


@pytest.mark.parametrize(
    "cls, field", [(Battery, "leakage_watts"), (Supercapacitor, "leakage_watts_full")]
)
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_leakage_rejected(cls, field, value):
    with pytest.raises(ValueError, match=field):
        cls(250.0, **{field: value})


class TestSupercapacitor:
    def test_leakage_scales_with_soc(self):
        full = Supercapacitor(100.0, leakage_watts_full=1.0, initial_soc=1.0)
        half = Supercapacitor(100.0, leakage_watts_full=1.0, initial_soc=0.5)
        assert full.leak(1.0) == pytest.approx(1.0)
        assert half.leak(1.0) == pytest.approx(0.5)

    def test_high_round_trip_efficiency(self):
        cap = Supercapacitor(100.0, initial_soc=0.0)
        cap.charge(10.0)
        assert cap.stored_joules == pytest.approx(9.8)

    def test_validation(self):
        with pytest.raises(ValueError):
            Supercapacitor(100.0, leakage_watts_full=-1.0)
        cap = Supercapacitor(100.0)
        with pytest.raises(ValueError):
            cap.leak(-1.0)
