"""Fleet-vs-scalar parity: the lock-step engine must not change numbers.

For every built-in predictor and every built-in controller, a B-node
fleet run with per-node configurations identical to B independent
:class:`~repro.management.node.SensorNodeSimulation` runs must match
those runs elementwise across every per-slot record array: exactly for
the five vectorized predictors, whose scalar predictors are the fleet
kernels' B=1 faces, and to ~1e-9 for the scalar-only fallback.

The fleet nodes deliberately differ from *each other* (different
traces, storage capacities and types) so the test exercises real
array-state heterogeneity, not just a broadcast scalar.
"""

import numpy as np
import pytest

from repro.core.registry import make_predictor
from repro.management.consumer import DutyCycledLoad
from repro.management.controller import (
    FixedDutyController,
    KansalController,
    MinimumVarianceController,
    OracleController,
)
from repro.management.fleet import FleetNodeSpec, FleetSimulator
from repro.management.harvester import PVHarvester
from repro.management.node import SensorNodeSimulation
from repro.management.storage import Battery, Supercapacitor
from repro.solar.datasets import build_dataset

N_SLOTS = 48
LOAD = DutyCycledLoad(active_power_watts=40e-3, sleep_power_watts=40e-6)
HARVESTER = PVHarvester(area_m2=25e-4)

RECORD_FIELDS = (
    "duty_requested",
    "duty_achieved",
    "state_of_charge",
    "harvested_joules",
    "consumed_joules",
    "wasted_joules",
    "shortfall_joules",
)

#: (id, name, factory kwargs) for every registered predictor exercised
#: by the fleet engine -- the five vectorized ones plus a scalar-only
#: fallback.  Small D keeps warm-up short on the 12-day test traces;
#: the D=10 moving average reaches the depths (>= 8) where a lone
#: column's history mean once took numpy's pairwise-summation path.
PREDICTOR_CASES = [
    ("wcma", "wcma", {"alpha": 0.7, "days": 3, "k": 2}),
    ("ewma", "ewma", {"gamma": 0.5}),
    ("persistence", "persistence", {}),
    ("previous-day", "previous-day", {}),
    ("moving-average", "moving-average", {"days": 3}),
    ("moving-average-d10", "moving-average", {"days": 10}),
    ("pro-energy", "pro-energy", {}),  # no vector kernel: per-node scalar fallback
]

CONTROLLER_KINDS = ("kansal", "minvar", "fixed", "oracle")


@pytest.fixture(scope="module")
def traces():
    """Two short site traces the fleet nodes alternate over."""
    return (build_dataset("HSU", n_days=12), build_dataset("PFCI", n_days=12))


def _make_controller(kind: str, capacity: float):
    if kind == "kansal":
        return KansalController(LOAD, capacity, target_soc=0.6)
    if kind == "minvar":
        return MinimumVarianceController(LOAD, capacity, target_soc=0.6)
    if kind == "fixed":
        return FixedDutyController(0.4)
    if kind == "oracle":
        return OracleController(LOAD, capacity, target_soc=0.6)
    raise ValueError(kind)


def _make_storage(capacity: float):
    # Small stores as supercaps, larger as batteries: mixes both
    # storage classes (and their different leak laws) into one fleet.
    if capacity < 1000.0:
        return Supercapacitor(capacity_joules=capacity, initial_soc=0.5)
    return Battery(capacity_joules=capacity, initial_soc=0.5)


def _node_configs(traces):
    """Three heterogeneous per-node configurations."""
    hsu, pfci = traces
    return [
        (hsu, 250.0),
        (pfci, 400.0),
        (hsu, 4000.0),
    ]


#: Predictors whose scalar form is the ``B == 1`` face of the fleet
#: kernel: one code path, so the fleet must match its scalar runs
#: exactly rather than to 1e-9.
EXACT_PREDICTORS = ("wcma", "ewma", "persistence", "previous-day", "moving-average")


def _assert_fleet_matches_scalars(traces, predictor_name, predictor_kwargs, kind):
    configs = _node_configs(traces)
    specs = [
        FleetNodeSpec(
            trace=trace,
            controller=_make_controller(kind, capacity),
            predictor=predictor_name,
            predictor_kwargs=predictor_kwargs,
            harvester=HARVESTER,
            storage=_make_storage(capacity),
            load=LOAD,
        )
        for trace, capacity in configs
    ]
    fleet_result = FleetSimulator(specs, N_SLOTS).run()
    assert fleet_result.n_nodes == len(configs)

    for node, (trace, capacity) in enumerate(configs):
        scalar_result = SensorNodeSimulation(
            trace=trace,
            n_slots=N_SLOTS,
            predictor=make_predictor(predictor_name, N_SLOTS, **predictor_kwargs),
            controller=_make_controller(kind, capacity),
            harvester=HARVESTER,
            storage=_make_storage(capacity),
            load=LOAD,
        ).run()
        node_result = fleet_result.node_result(node)
        for field in RECORD_FIELDS:
            np.testing.assert_allclose(
                getattr(node_result, field),
                getattr(scalar_result, field),
                atol=0.0 if predictor_name in EXACT_PREDICTORS else 1e-9,
                rtol=0.0,
                err_msg=f"{predictor_name}/{kind}, node {node}, {field}",
            )


class TestPredictorParity:
    """Every predictor, under the Kansal controller."""

    @pytest.mark.parametrize(
        "name,kwargs",
        [case[1:] for case in PREDICTOR_CASES],
        ids=[case[0] for case in PREDICTOR_CASES],
    )
    def test_fleet_matches_scalar_runs(self, traces, name, kwargs):
        _assert_fleet_matches_scalars(traces, name, kwargs, "kansal")


class TestControllerParity:
    """Every controller, under the WCMA predictor."""

    @pytest.mark.parametrize("kind", CONTROLLER_KINDS)
    def test_fleet_matches_scalar_runs(self, traces, kind):
        _assert_fleet_matches_scalars(
            traces, "wcma", {"alpha": 0.7, "days": 3, "k": 2}, kind
        )


class TestMixedFleetParity:
    """One fleet mixing predictors, controllers, storage and sites."""

    def test_heterogeneous_fleet_matches_scalar_runs(self, traces):
        hsu, pfci = traces
        cases = [
            (hsu, "wcma", {"alpha": 0.7, "days": 3, "k": 2}, "kansal", 250.0),
            (pfci, "ewma", {}, "minvar", 400.0),
            (hsu, "persistence", {}, "oracle", 250.0),
            (pfci, "moving-average", {"days": 3}, "fixed", 4000.0),
            (hsu, "pro-energy", {}, "kansal", 4000.0),
            # Same predictor/params as node 0 but another site: lands in
            # the same vector-kernel group with a different column.
            (pfci, "wcma", {"alpha": 0.7, "days": 3, "k": 2}, "kansal", 250.0),
        ]
        specs = [
            FleetNodeSpec(
                trace=trace,
                controller=_make_controller(kind, capacity),
                predictor=name,
                predictor_kwargs=kwargs,
                harvester=HARVESTER,
                storage=_make_storage(capacity),
                load=LOAD,
            )
            for trace, name, kwargs, kind, capacity in cases
        ]
        fleet_result = FleetSimulator(specs, N_SLOTS).run()

        for node, (trace, name, kwargs, kind, capacity) in enumerate(cases):
            scalar_result = SensorNodeSimulation(
                trace=trace,
                n_slots=N_SLOTS,
                predictor=make_predictor(name, N_SLOTS, **kwargs),
                controller=_make_controller(kind, capacity),
                harvester=HARVESTER,
                storage=_make_storage(capacity),
                load=LOAD,
            ).run()
            node_result = fleet_result.node_result(node)
            for field in RECORD_FIELDS:
                np.testing.assert_allclose(
                    getattr(node_result, field),
                    getattr(scalar_result, field),
                    atol=0.0 if name in EXACT_PREDICTORS else 1e-9,
                    rtol=0.0,
                    err_msg=f"{name}/{kind}, node {node}, {field}",
                )


class TestLegacyReferenceParity:
    """The engine must reproduce the historical scalar loop's numbers.

    ``SensorNodeSimulation`` is itself a B=1 fleet now, so comparing
    fleet vs ``SensorNodeSimulation`` alone would check the vectorized
    physics against itself.  This reference reimplements the pre-fleet
    per-slot loop -- harvester, supercapacitor, load and Kansal
    controller arithmetic inlined as plain Python floats, straight from
    their documented semantics -- and pins the engine to it.
    """

    @staticmethod
    def _legacy_run(trace, predictor, n_slots, capacity, area_m2, controller_kind,
                    storage_kind):
        from repro.solar.slots import SlotView

        view = SlotView.from_trace(trace, n_slots)
        starts = view.flat_starts()
        means = view.flat_means()
        slot_seconds = view.slot_duration_hours * 3600.0

        gain = area_m2 * 0.15 * 0.85  # panel * conditioning efficiency
        if storage_kind == "supercap":
            charge_eff, discharge_eff = 0.98, 0.98
        else:  # battery
            charge_eff, discharge_eff = 0.90, 0.95
        stored = 0.5 * capacity
        active, sleep = LOAD.active_power_watts, LOAD.sleep_power_watts
        min_duty, max_duty = LOAD.min_duty, LOAD.max_duty
        target_soc, horizon = 0.6, 86_400.0
        correction_gain = 1.0 if controller_kind == "kansal" else 0.5
        smoothing, average_watts = 0.02, None

        predictor.reset()
        records = {
            "duty_achieved": [],
            "state_of_charge": [],
            "wasted_joules": [],
            "shortfall_joules": [],
        }
        for t in range(starts.size):
            predicted = predictor.observe(float(starts[t]))
            predicted_power = max(0.0, predicted) * gain

            if controller_kind == "minvar":
                if average_watts is None:
                    average_watts = predicted_power
                else:
                    average_watts += smoothing * (predicted_power - average_watts)
                planned_power = average_watts
            else:
                planned_power = predicted_power
            soc = stored / capacity
            correction = correction_gain * (soc - target_soc) * capacity / horizon
            budget = max(0.0, planned_power + correction)
            duty = (budget - sleep) / (active - sleep)
            duty = max(min_duty, min(max_duty, duty))

            incoming = (float(means[t]) * gain) * slot_seconds
            charged = min(incoming * charge_eff, capacity - stored)
            stored += charged
            records["wasted_joules"].append(incoming * charge_eff - charged)

            request = (duty * active + (1.0 - duty) * sleep) * slot_seconds
            drawn = request / discharge_eff
            if drawn <= stored:
                stored -= drawn
                supplied = request
            else:
                supplied = stored * discharge_eff
                stored = 0.0
            records["shortfall_joules"].append(request - supplied)
            records["duty_achieved"].append(
                duty * (supplied / request) if request > 0 else 0.0
            )

            if storage_kind == "supercap":
                leakage = 200e-6 * (stored / capacity)
            else:
                leakage = 10e-6
            stored -= min(stored, leakage * slot_seconds)
            records["state_of_charge"].append(stored / capacity)
        return {key: np.array(vals) for key, vals in records.items()}

    @pytest.mark.parametrize(
        "controller_kind,storage_kind,capacity",
        [("kansal", "supercap", 250.0), ("minvar", "battery", 4000.0)],
    )
    def test_engine_matches_legacy_loop(
        self, traces, controller_kind, storage_kind, capacity
    ):
        hsu, _ = traces
        area = 25e-4
        reference = self._legacy_run(
            hsu,
            make_predictor("wcma", N_SLOTS, alpha=0.7, days=3, k=2),
            N_SLOTS,
            capacity,
            area,
            controller_kind,
            storage_kind,
        )
        controller = (
            KansalController(LOAD, capacity, target_soc=0.6)
            if controller_kind == "kansal"
            else MinimumVarianceController(LOAD, capacity, target_soc=0.6)
        )
        storage = (
            Supercapacitor(capacity_joules=capacity, initial_soc=0.5)
            if storage_kind == "supercap"
            else Battery(capacity_joules=capacity, initial_soc=0.5)
        )
        engine = SensorNodeSimulation(
            trace=hsu,
            n_slots=N_SLOTS,
            predictor=make_predictor("wcma", N_SLOTS, alpha=0.7, days=3, k=2),
            controller=controller,
            harvester=PVHarvester(area_m2=area),
            storage=storage,
            load=LOAD,
        ).run()
        for field, expected in reference.items():
            np.testing.assert_allclose(
                getattr(engine, field), expected, atol=1e-9, rtol=0.0,
                err_msg=f"{controller_kind}/{storage_kind}: {field}",
            )


class TestSingleNodeParity:
    """B=1 fleet output matches the single-node simulation exactly."""

    def test_b1_fleet_equals_scalar_simulation(self, traces):
        hsu, _ = traces
        spec = FleetNodeSpec(
            trace=hsu,
            controller=_make_controller("kansal", 250.0),
            predictor="wcma",
            predictor_kwargs={"alpha": 0.7, "days": 3, "k": 2},
            harvester=HARVESTER,
            storage=_make_storage(250.0),
            load=LOAD,
        )
        fleet_result = FleetSimulator([spec], N_SLOTS).run()
        scalar_result = SensorNodeSimulation(
            trace=hsu,
            n_slots=N_SLOTS,
            predictor=make_predictor("wcma", N_SLOTS, alpha=0.7, days=3, k=2),
            controller=_make_controller("kansal", 250.0),
            harvester=HARVESTER,
            storage=_make_storage(250.0),
            load=LOAD,
        ).run()
        node_result = fleet_result.node_result(0)
        for field in RECORD_FIELDS:
            np.testing.assert_allclose(
                getattr(node_result, field),
                getattr(scalar_result, field),
                atol=0.0,
                rtol=0.0,
                err_msg=field,
            )
