"""Tests for the lock-step fleet engine and its building blocks."""

import numpy as np
import pytest

from repro.core.base import FleetDayHistory
from repro.core.registry import make_vector_predictor
from repro.management.consumer import DutyCycledLoad
from repro.management.controller import (
    FixedDutyController,
    KansalController,
    MinimumVarianceController,
)
from repro.management.fleet import FleetNodeSpec, FleetSimulator
from repro.management.harvester import PVHarvester
from repro.management.planning import ProfilePlanningController
from repro.management.storage import Battery, Supercapacitor
from repro.solar.datasets import build_dataset

N_SLOTS = 48
LOAD = DutyCycledLoad(active_power_watts=40e-3, sleep_power_watts=40e-6)


@pytest.fixture(scope="module")
def short_trace():
    return build_dataset("HSU", n_days=8)


def _spec(trace, capacity=250.0, predictor="persistence", **kwargs):
    return FleetNodeSpec(
        trace=trace,
        controller=KansalController(LOAD, capacity, target_soc=0.6),
        predictor=predictor,
        predictor_kwargs=kwargs,
        harvester=PVHarvester(area_m2=25e-4),
        storage=Supercapacitor(capacity_joules=capacity, initial_soc=0.5),
        load=LOAD,
    )


class TestVectorisedModels:
    """Array-parameter paths of the physical models."""

    def test_battery_stack_preserves_state_and_params(self):
        batteries = [
            Battery(capacity_joules=100.0, initial_soc=0.2),
            Battery(capacity_joules=400.0, initial_soc=0.9),
        ]
        batteries[0].charge(10.0)
        stacked = Battery.stack(batteries)
        np.testing.assert_array_equal(
            stacked.stored_joules,
            [batteries[0].stored_joules, batteries[1].stored_joules],
        )
        np.testing.assert_array_equal(stacked.capacity_joules, [100.0, 400.0])

    def test_battery_array_ops_match_scalar(self):
        scalars = [
            Battery(capacity_joules=100.0, initial_soc=0.5),
            Battery(capacity_joules=50.0, initial_soc=0.1),
        ]
        stacked = Battery.stack(scalars)
        charge = np.array([30.0, 80.0])
        discharge = np.array([10.0, 200.0])
        got_charge = stacked.charge(charge)
        got_discharge = stacked.discharge(discharge)
        stacked.leak(3600.0)
        want_charge = [s.charge(float(c)) for s, c in zip(scalars, charge)]
        want_discharge = [s.discharge(float(d)) for s, d in zip(scalars, discharge)]
        for s in scalars:
            s.leak(3600.0)
        np.testing.assert_array_equal(got_charge, want_charge)
        np.testing.assert_array_equal(got_discharge, want_discharge)
        np.testing.assert_array_equal(
            stacked.stored_joules, [s.stored_joules for s in scalars]
        )

    def test_stack_rejects_mixed_classes(self):
        with pytest.raises(TypeError):
            Battery.stack([Battery(), Supercapacitor()])

    def test_supercapacitor_stack_takes_batteries_bit_for_bit(self):
        """One supercapacitor array steps a mixed fleet's stores, each
        under its own leakage law, exactly as the scalar stores do."""
        scalars = [
            Supercapacitor(capacity_joules=250.0, initial_soc=0.5),
            Battery(capacity_joules=9000.0, initial_soc=0.3, leakage_watts=2e-3),
            Supercapacitor(capacity_joules=400.0, initial_soc=0.9),
            Battery(capacity_joules=50.0, initial_soc=0.1),
        ]
        stacked = Supercapacitor.stack(scalars)
        for step in range(30):
            joules = np.array([3.0, 40.0, 0.5, 7.0]) * (step % 4)
            got = [stacked.charge(joules), stacked.discharge(joules[::-1])]
            stacked.leak(1800.0)
            want = [
                [s.charge(float(j)) for s, j in zip(scalars, joules)],
                [s.discharge(float(j)) for s, j in zip(scalars, joules[::-1])],
            ]
            for store in scalars:
                store.leak(1800.0)
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(
                stacked.stored_joules, [s.stored_joules for s in scalars]
            )

        class LeakFree(Battery):
            def leak(self, seconds):
                return 0.0

        with pytest.raises(TypeError):
            Supercapacitor.stack([Battery(), LeakFree()])

    def test_load_stack_elementwise(self):
        loads = [
            DutyCycledLoad(active_power_watts=40e-3, sleep_power_watts=40e-6),
            DutyCycledLoad(active_power_watts=60e-3, sleep_power_watts=30e-6),
        ]
        stacked = DutyCycledLoad.stack(loads)
        duty = np.array([0.3, 0.7])
        np.testing.assert_array_equal(
            stacked.power(duty),
            [ld.power(float(d)) for ld, d in zip(loads, duty)],
        )
        watts = np.array([0.01, 0.02])
        np.testing.assert_array_equal(
            stacked.duty_for_power(watts),
            [ld.duty_for_power(float(w)) for ld, w in zip(loads, watts)],
        )

    def test_controller_stack_elementwise(self):
        controllers = [
            KansalController(LOAD, 100.0, target_soc=0.4),
            KansalController(LOAD, 900.0, target_soc=0.8),
        ]
        stacked = KansalController.stack(controllers)
        watts = np.array([0.005, 0.02])
        soc = np.array([0.3, 0.9])
        np.testing.assert_array_equal(
            stacked.decide(watts, soc),
            [
                c.decide(float(w), float(s))
                for c, w, s in zip(controllers, watts, soc)
            ],
        )

    def test_minvar_stack_keeps_state_per_node(self):
        controllers = [
            MinimumVarianceController(LOAD, 100.0, smoothing=0.5),
            MinimumVarianceController(LOAD, 100.0, smoothing=0.5),
        ]
        stacked = MinimumVarianceController.stack(controllers)
        stacked.decide(np.array([0.01, 0.03]), np.array([0.6, 0.6]))
        stacked.decide(np.array([0.02, 0.01]), np.array([0.6, 0.6]))
        assert stacked._average_watts.shape == (2,)
        assert stacked._average_watts[0] != stacked._average_watts[1]


class TestFleetDayHistory:
    def test_matches_scalar_day_history_semantics(self):
        history = FleetDayHistory(n_slots=3, depth=2, batch_size=2)
        assert np.isnan(history.slot_mean(0)).all()
        for day in range(3):
            for slot in range(3):
                history.push_slot(np.array([day + slot, 10.0 * (day + slot)]))
        # Last two complete days: day 1 and day 2.
        np.testing.assert_allclose(history.slot_mean(0), [1.5, 15.0])
        np.testing.assert_allclose(history.slot_mean(0, 1), [2.0, 20.0])
        assert history.n_complete_days == 2
        assert history.total_days_completed == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            FleetDayHistory(0, 1, 1)
        with pytest.raises(ValueError):
            FleetDayHistory(1, 0, 1)
        with pytest.raises(ValueError):
            FleetDayHistory(1, 1, 0)


class TestVectorKernels:
    def test_observe_rejects_wrong_shape(self):
        kernel = make_vector_predictor("ewma", 4, 3)
        with pytest.raises(ValueError):
            kernel.observe(np.zeros(2))

    def test_observe_rejects_negative(self):
        kernel = make_vector_predictor("wcma", 4, 2, days=2, k=1)
        with pytest.raises(ValueError):
            kernel.observe(np.array([1.0, -1.0]))

    def test_run_shape(self):
        kernel = make_vector_predictor("persistence", 4, 3)
        samples = np.arange(24, dtype=float).reshape(8, 3)
        out = kernel.run(samples)
        np.testing.assert_array_equal(out, samples)


class TestFleetSimulator:
    def test_record_shapes_and_names(self, short_trace):
        specs = [_spec(short_trace) for _ in range(3)]
        specs[1].name = "custom"
        result = FleetSimulator(specs, N_SLOTS).run()
        total = short_trace.n_days * N_SLOTS
        assert result.n_nodes == 3
        assert result.total_slots == total
        for field in (
            "duty_requested",
            "duty_achieved",
            "state_of_charge",
            "harvested_joules",
            "consumed_joules",
            "wasted_joules",
            "shortfall_joules",
        ):
            assert getattr(result, field).shape == (total, 3), field
        assert result.node_names == ("node0", "custom", "node2")

    def test_soc_bounds_and_signs(self, short_trace):
        specs = [_spec(short_trace, capacity=c) for c in (150.0, 250.0, 4000.0)]
        result = FleetSimulator(specs, N_SLOTS).run()
        assert (result.state_of_charge >= 0.0).all()
        assert (result.state_of_charge <= 1.0 + 1e-12).all()
        assert (result.harvested_joules >= 0).all()
        assert (result.wasted_joules >= -1e-9).all()
        assert (result.shortfall_joules >= -1e-9).all()
        assert (result.duty_achieved <= result.duty_requested + 1e-12).all()

    def test_summary_and_node_summary(self, short_trace):
        result = FleetSimulator([_spec(short_trace)], N_SLOTS).run()
        assert set(result.summary()) == {
            "n_nodes",
            "total_slots",
            "mean_duty",
            "mean_duty_std",
            "downtime_fraction",
            "waste_fraction",
            "mean_final_soc",
        }
        node = result.node_summary(0)
        assert node["name"] == "node0"
        assert set(node) == {
            "name",
            "mean_duty",
            "duty_std",
            "downtime_fraction",
            "waste_fraction",
            "final_soc",
        }

    def test_per_node_metrics_are_arrays(self, short_trace):
        specs = [_spec(short_trace) for _ in range(4)]
        result = FleetSimulator(specs, N_SLOTS).run()
        for metric in (
            result.mean_duty,
            result.duty_std,
            result.downtime_fraction,
            result.waste_fraction,
            result.final_soc,
        ):
            assert metric.shape == (4,)

    def test_rejects_empty_fleet(self):
        with pytest.raises(ValueError, match="at least one"):
            FleetSimulator([], N_SLOTS)

    def test_rejects_non_controller(self, short_trace):
        spec = _spec(short_trace)
        spec.controller = "kansal"
        with pytest.raises(TypeError, match="Controller instance"):
            FleetSimulator([spec], N_SLOTS)

    def test_rejects_mismatched_trace_lengths(self, short_trace):
        longer = build_dataset("HSU", n_days=10)
        with pytest.raises(ValueError, match="same days"):
            FleetSimulator([_spec(short_trace), _spec(longer)], N_SLOTS)

    def test_unknown_predictor_name_raises(self, short_trace):
        with pytest.raises(KeyError, match="unknown predictor"):
            FleetSimulator([_spec(short_trace, predictor="nope")], N_SLOTS).run()

    def test_custom_controller_falls_back_to_scalar_column(self, short_trace):
        spec = _spec(short_trace)
        spec.controller = ProfilePlanningController(
            LOAD, 250.0, n_slots=N_SLOTS, target_soc=0.6
        )
        result = FleetSimulator([spec, _spec(short_trace)], N_SLOTS).run()
        assert np.isfinite(result.duty_achieved).all()

    def test_learning_controller_hears_every_slot(self, short_trace):
        """Only controllers that ignore ``feedback`` skip it: one that
        overrides it hears each slot's realized harvest power."""
        heard = []

        class Listening(FixedDutyController):
            def feedback(self, harvest_watts):
                heard.append(harvest_watts)

        spec = _spec(short_trace)
        spec.controller = Listening(0.2)
        result = FleetSimulator([spec, _spec(short_trace)], N_SLOTS).run()
        slot_seconds = 24.0 / N_SLOTS * 3600.0
        np.testing.assert_array_equal(heard, result.harvested_joules[:, 0] / slot_seconds)

    def test_specs_not_dirtied_between_runs(self, short_trace):
        """Two runs of the same simulator give identical results."""
        simulator = FleetSimulator([_spec(short_trace)], N_SLOTS)
        first = simulator.run()
        second = simulator.run()
        np.testing.assert_array_equal(
            first.state_of_charge, second.state_of_charge
        )
        np.testing.assert_array_equal(first.duty_achieved, second.duty_achieved)

    def test_custom_storage_spec_not_mutated(self, short_trace):
        """Scalar-fallback stores are copied, like the stacked path."""

        class LeakFreeCap(Supercapacitor):
            def leak(self, seconds):
                return 0.0

        store = LeakFreeCap(capacity_joules=250.0, initial_soc=0.5)
        spec = _spec(short_trace)
        spec.storage = store
        FleetSimulator([spec], N_SLOTS).run()
        assert store.state_of_charge == 0.5

    def test_custom_harvester_power_is_honoured(self, short_trace):
        """A subclass overriding power() keeps its non-linear curve."""
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class SaturatingHarvester(PVHarvester):
            max_watts: float = 0.02

            def power(self, irradiance_wm2):
                return np.minimum(super().power(irradiance_wm2), self.max_watts)

        harvester = SaturatingHarvester(area_m2=25e-4)
        spec = _spec(short_trace)
        spec.harvester = harvester
        result = FleetSimulator([spec], N_SLOTS).run()

        from repro.solar.slots import SlotView

        means = SlotView.from_trace(short_trace, N_SLOTS).flat_means()
        slot_seconds = 24.0 / N_SLOTS * 3600.0
        expected = np.minimum(means * harvester.gain, 0.02) * slot_seconds
        np.testing.assert_allclose(
            result.harvested_joules[:, 0], expected, rtol=1e-12
        )
        # Saturation bites: some slots harvest less than the linear gain
        # path would have produced.
        assert (result.harvested_joules[:, 0] < means * harvester.gain * slot_seconds - 1e-9).any()

    def test_custom_harvester_energy_is_honoured(self, short_trace):
        """A subclass overriding energy() (not power()) keeps it too."""
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class ConverterOverheadHarvester(PVHarvester):
            overhead_joules: float = 0.5

            def energy(self, irradiance_wm2, seconds):
                return np.maximum(
                    super().energy(irradiance_wm2, seconds) - self.overhead_joules,
                    0.0,
                )

        harvester = ConverterOverheadHarvester(area_m2=25e-4)
        spec = _spec(short_trace)
        spec.harvester = harvester
        result = FleetSimulator([spec], N_SLOTS).run()

        from repro.solar.slots import SlotView

        means = SlotView.from_trace(short_trace, N_SLOTS).flat_means()
        slot_seconds = 24.0 / N_SLOTS * 3600.0
        expected = np.maximum(means * harvester.gain * slot_seconds - 0.5, 0.0)
        np.testing.assert_allclose(
            result.harvested_joules[:, 0], expected, atol=1e-12
        )

    def test_negative_harvest_is_refused_up_front(self, short_trace):
        """The stacked stores charge unchecked, so the simulator checks
        its harvest table once, before the first slot."""
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class LeakyConverterHarvester(PVHarvester):
            def energy(self, irradiance_wm2, seconds):
                return super().energy(irradiance_wm2, seconds) - 1.0

        spec = _spec(short_trace)
        spec.harvester = LeakyConverterHarvester(area_m2=25e-4)
        with pytest.raises(ValueError, match="harvested energy"):
            FleetSimulator([spec], N_SLOTS)

    def test_inputs_are_kept_per_trace_not_per_node(self):
        """4,096 nodes on one 30-day trace hold one input column, not
        two float64 (slots x nodes) tables (~94 MB)."""
        import tracemalloc

        trace = build_dataset("HSU", n_days=30)
        specs = [_spec(trace) for _ in range(4096)]
        tracemalloc.start()
        try:
            fleet = FleetSimulator(specs, N_SLOTS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert fleet.total_slots == 30 * N_SLOTS
        assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MB"

    def test_vector_predictor_with_unhashable_kwargs(self, short_trace):
        """Factory kwargs holding lists must not break grouping."""
        from repro.core.baselines import PersistencePredictor, PersistenceVector
        from repro.core.registry import register, unregister

        register(
            "test-listkw",
            lambda n_slots, profile=None: PersistencePredictor(n_slots),
            vector_factory=lambda n_slots, batch_size, profile=None: (
                PersistenceVector(n_slots, batch_size)
            ),
        )
        try:
            specs = []
            for _ in range(2):
                spec = _spec(short_trace, predictor="test-listkw")
                spec.predictor_kwargs = {"profile": [0.1, 0.2]}
                specs.append(spec)
            result = FleetSimulator(specs, N_SLOTS).run()
            assert result.n_nodes == 2
            # Equal list kwargs land in one shared vector kernel group.
            columns = FleetSimulator(specs, N_SLOTS)._build_predictor_columns()
            assert len(columns) == 1
        finally:
            unregister("test-listkw")

    def test_repeated_run_reuses_cached_engine(self, short_trace):
        """The B=1 wrapper rebuilds only when a component is swapped."""
        from repro.core.baselines import PersistencePredictor
        from repro.management.node import SensorNodeSimulation

        sim = SensorNodeSimulation(
            trace=short_trace,
            n_slots=N_SLOTS,
            predictor=PersistencePredictor(N_SLOTS),
            controller=KansalController(LOAD, 250.0, target_soc=0.6),
            storage=Supercapacitor(capacity_joules=250.0),
            load=LOAD,
        )
        first = sim.run()
        engine = sim._fleet
        second = sim.run()
        assert sim._fleet is engine
        np.testing.assert_array_equal(first.duty_achieved, second.duty_achieved)
        sim.predictor = PersistencePredictor(N_SLOTS)
        sim.run()
        assert sim._fleet is not engine
