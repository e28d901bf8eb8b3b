"""Fleet-scale node-management experiment harness (extension).

Lowers a :class:`~repro.parallel.fleet.FleetPlan` -- nodes cycled over
sites, scenarios, predictors, controllers and storage capacities -- to
the per-node specs of the lock-step
:class:`~repro.management.fleet.FleetSimulator`, and digests a run's
:class:`~repro.management.fleet.FleetAggregate` into per-predictor
rows.  The ``repro-solar fleet`` CLI subcommand, the robustness fleet,
``examples/fleet_simulation.py`` and the fleet benchmarks run plans
through :func:`~repro.parallel.fleet.run_fleet_blocks`, which builds
each block's specs here.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.experiments.common import ExperimentResult
from repro.management.consumer import DutyCycledLoad
from repro.management.controller import (
    Controller,
    FixedDutyController,
    KansalController,
    MinimumVarianceController,
    OracleController,
)
from repro.management.fleet import FleetAggregate, FleetNodeSpec
from repro.management.harvester import PVHarvester
from repro.management.storage import Battery, Supercapacitor
from repro.parallel.fleet import FleetPlan
from repro.solar.datasets import build_dataset, samples_per_day_for
from repro.solar.scenarios import make_scenario

__all__ = [
    "CONTROLLER_KINDS",
    "build_fleet_specs",
    "make_controller",
    "fleet_result_table",
]

#: Controller kinds the fleet harness can build by name.
CONTROLLER_KINDS = ("kansal", "minvar", "fixed", "oracle")


def make_controller(
    kind: str,
    capacity_joules: float,
    load: DutyCycledLoad,
    target_soc: float = 0.6,
) -> Controller:
    """Instantiate one of :data:`CONTROLLER_KINDS` for one node."""
    kind = kind.lower()
    if kind == "kansal":
        return KansalController(load, capacity_joules, target_soc=target_soc)
    if kind == "minvar":
        return MinimumVarianceController(load, capacity_joules, target_soc=target_soc)
    if kind == "fixed":
        return FixedDutyController(0.5)
    if kind == "oracle":
        return OracleController(load, capacity_joules, target_soc=target_soc)
    raise ValueError(f"unknown controller {kind!r}; available: {CONTROLLER_KINDS}")


def build_fleet_specs(
    plan: FleetPlan, node_range: Optional[Tuple[int, int]] = None
) -> List[FleetNodeSpec]:
    """The specs of ``plan``'s heterogeneous fleet: node ``i`` cycles
    through every axis.

    The axes (predictor, controller kind, capacity, scenario, site) are
    enumerated mixed-radix -- the predictor varies fastest, the site
    slowest -- so equal-length axes do not alias (plain round-robin
    would pair predictor ``j`` with controller ``j`` forever) and a
    large enough fleet covers every combination.  Stores below
    ``plan.supercap_threshold_joules`` are modelled as supercapacitors,
    larger ones as batteries.

    ``plan.scenarios`` optionally cycles registered trace-degradation
    scenarios (:mod:`repro.solar.scenarios`) across the fleet: each
    (site, scenario) pair shares one perturbed trace object, so the
    simulator still groups nodes per trace.  ``None`` keeps every node
    on the clean trace (and the node names unchanged).

    ``node_range=(start, stop)`` builds only that *block* of the fleet:
    node ``i`` keeps its global mixed-radix identity (axes, name,
    trace), so the sharded fleet engine can materialise one fixed-size
    block per worker instead of all ``n_nodes`` specs at once --
    ``build_fleet_specs(plan)`` equals the concatenation of its
    blocks, spec for spec.
    """
    n_nodes, n_slots = plan.n_nodes, plan.n_slots
    start, stop = (0, n_nodes) if node_range is None else node_range
    if not (0 <= start <= stop <= n_nodes):
        raise ValueError(f"node_range {node_range!r} outside [0, {n_nodes}]")
    site_list = plan.site_list()
    # Fail on a bad (site, N) pairing before any simulation work, and
    # cheaply -- without building a single trace: a *block* of a large
    # fleet (node_range) must only pay for the sites its nodes draw, so
    # base traces are built lazily below alongside the perturbed ones.
    for site in site_list:
        if n_slots <= 0 or samples_per_day_for(site) % n_slots:
            raise ValueError(
                f"N={n_slots} does not divide samples per day "
                f"({samples_per_day_for(site)}) of site {site}"
            )
    traces: Dict[str, object] = {}
    scenario_names = (
        tuple(s.lower() for s in plan.scenarios) if plan.scenarios else ("clean",)
    )
    # Scenario *names* are validated eagerly (cheap); the perturbed
    # traces themselves are built lazily below -- a small fleet only
    # pays for the (site, scenario) pairs its nodes actually draw.
    built = {name: make_scenario(name, seed=plan.scenario_seed) for name in scenario_names}
    perturbed: Dict[Tuple[str, str], object] = {}
    label_scenarios = plan.scenarios is not None
    load = DutyCycledLoad(plan.active_power_watts, plan.sleep_power_watts)
    specs: List[FleetNodeSpec] = []
    for i in range(start, stop):
        digits = i
        predictor = plan.predictors[digits % len(plan.predictors)]
        digits //= len(plan.predictors)
        controller_kind = plan.controllers[digits % len(plan.controllers)]
        digits //= len(plan.controllers)
        capacity = float(plan.capacities[digits % len(plan.capacities)])
        digits //= len(plan.capacities)
        scenario_name = scenario_names[digits % len(scenario_names)]
        digits //= len(scenario_names)
        site = site_list[digits % len(site_list)]
        store_cls = Supercapacitor if capacity < plan.supercap_threshold_joules else Battery
        name = f"{site.lower()}-{predictor}-{controller_kind}-{i}"
        if label_scenarios:
            name = f"{site.lower()}-{scenario_name}-{predictor}-{controller_kind}-{i}"
        key = (site, scenario_name)
        if key not in perturbed:
            if site not in traces:
                traces[site] = build_dataset(site, n_days=plan.n_days)
            perturbed[key] = built[scenario_name].apply(traces[site])
        specs.append(
            FleetNodeSpec(
                trace=perturbed[key],
                controller=make_controller(controller_kind, capacity, load),
                predictor=predictor,
                harvester=PVHarvester(area_m2=plan.panel_area_m2),
                storage=store_cls(capacity_joules=capacity, initial_soc=0.5),
                load=load,
                name=name,
            )
        )
    return specs


def fleet_result_table(aggregate: FleetAggregate, plan: FleetPlan) -> ExperimentResult:
    """Per-predictor aggregate rows of one run of ``plan``.

    Node ``i`` runs ``plan.predictors[i % len(plan.predictors)]`` (the
    fastest axis); each predictor's row reports its nodes' duty /
    downtime / waste aggregates -- the fleet-scale version of the
    node-management benchmark's comparison table.
    """
    labels = np.array([p.lower() for p in plan.predictors])
    node_labels = labels[np.arange(aggregate.n_nodes) % labels.size]
    rows = []
    for label in np.unique(node_labels):
        idx = np.flatnonzero(node_labels == label)
        harvest = float(aggregate.harvested_joules_total[idx].sum())
        wasted = float(aggregate.wasted_joules_total[idx].sum())
        rows.append(
            {
                "predictor": str(label),
                "nodes": int(idx.size),
                "mean duty %": 100.0 * float(aggregate.mean_duty[idx].mean()),
                "downtime %": 100.0
                * float(aggregate.shortfall_slots[idx].sum())
                / (aggregate.total_slots * idx.size),
                "waste %": 100.0 * (wasted / harvest if harvest > 0 else 0.0),
                "mean final soc %": 100.0 * float(aggregate.final_soc[idx].mean()),
            }
        )
    return ExperimentResult(
        experiment="fleet",
        title=(
            f"fleet simulation: {aggregate.n_nodes} nodes x "
            f"{aggregate.total_slots} slots (N={aggregate.n_slots})"
        ),
        headers=[
            "predictor",
            "nodes",
            "mean duty %",
            "downtime %",
            "waste %",
            "mean final soc %",
        ],
        rows=rows,
        meta={"n_nodes": aggregate.n_nodes, "total_slots": aggregate.total_slots},
    )
