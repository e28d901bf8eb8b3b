"""Lock-step fleet simulation: thousands of harvesting nodes at once.

:class:`~repro.management.node.SensorNodeSimulation` steps one node
through the predict -> control -> store chain with scalar Python
arithmetic; at fleet scale (hundreds to thousands of nodes) that loop is
the bottleneck.  This module refactors the whole chain around
array-shaped state: a :class:`FleetSimulator` advances ``B``
heterogeneous nodes -- mixed sites, predictors, controllers, batteries,
loads -- through every slot boundary in lock-step, so the per-slot work
is a handful of ``(B,)`` numpy operations instead of ``B`` Python loops.

How the vectorization is organised:

* **Predictors** are grouped by (name, parameters).  Groups whose
  registry entry ships a vector kernel
  (:func:`repro.core.registry.supports_vector`) run one
  :class:`~repro.core.base.VectorPredictor` per group; anything else --
  scalar-only registry entries or explicit
  :class:`~repro.core.base.OnlinePredictor` instances -- falls back to
  one scalar predictor per node inside an adapter column.
* **Controllers** of the four built-in types are merged with their
  ``stack`` classmethods into one array-parameterised instance per
  type; unknown controller classes fall back to a per-node adapter (so
  e.g. :class:`~repro.management.planning.ProfilePlanningController`
  still works, just without the speedup).
* **Storage** is stacked per concrete class
  (:class:`~repro.management.storage.Battery` /
  :class:`~repro.management.storage.Supercapacitor`), again with a
  per-node fallback for custom subclasses.

Because every stacked model is elementwise, a ``B``-node fleet run is
bitwise identical (parity-tested exactly for every vector-kernel
predictor) to ``B`` independent ``SensorNodeSimulation`` runs -- and
20x+ faster for a 256-node fleet (``benchmarks/test_bench_fleet.py``).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace as dataclasses_replace
from typing import Dict, List, Mapping, Sequence, Tuple, Union

import numpy as np

from repro.core.base import OnlinePredictor
from repro.core.registry import (
    make_predictor,
    make_vector_predictor,
    supports_vector,
)
from repro.management.consumer import DutyCycledLoad
from repro.management.controller import (
    Controller,
    FixedDutyController,
    KansalController,
    MinimumVarianceController,
    OracleController,
)
from repro.management.harvester import PVHarvester
from repro.management.storage import Battery, Supercapacitor
from repro.solar.slots import SlotView
from repro.solar.trace import SolarTrace

__all__ = ["FleetAggregate", "FleetNodeSpec", "FleetRunResult", "FleetSimulator"]

#: Controller classes the simulator can merge into one array instance.
_STACKABLE_CONTROLLERS = (
    FixedDutyController,
    KansalController,
    MinimumVarianceController,
    OracleController,
)

#: Storage classes the simulator can merge into one array instance.
_STACKABLE_STORES = (Battery, Supercapacitor)


@dataclass
class FleetNodeSpec:
    """Everything one node of the fleet needs.

    Attributes
    ----------
    trace:
        Native-resolution irradiance trace for this node's site.  Nodes
        may use different traces, but all traces must cover the same
        number of days (the fleet steps every node through the same
        boundary index).
    controller:
        Duty-cycle policy instance (scalar-configured, one per node).
        :class:`~repro.management.controller.OracleController` nodes are
        automatically fed the true slot mean.
    predictor:
        Registry name (vectorized when the registry has a kernel for
        it) or an explicit :class:`~repro.core.base.OnlinePredictor`
        instance (always scalar fallback).
    predictor_kwargs:
        Factory keyword arguments when ``predictor`` is a name.
    harvester, storage, load:
        Physical models; defaults give a plausible mote.  The spec's
        instances are treated as read-only templates -- the simulator
        stacks copies, so one run never dirties the spec.
    name:
        Label used in summaries; defaults to ``node<i>``.
    """

    trace: SolarTrace
    controller: Controller
    predictor: Union[str, OnlinePredictor] = "wcma"
    predictor_kwargs: Mapping[str, object] = field(default_factory=dict)
    harvester: PVHarvester = field(default_factory=PVHarvester)
    storage: Battery = field(default_factory=Battery)
    load: DutyCycledLoad = field(default_factory=DutyCycledLoad)
    name: str = ""

    def predictor_label(self) -> str:
        """Short human-readable predictor identifier."""
        if isinstance(self.predictor, str):
            return self.predictor.lower()
        return type(self.predictor).__name__


@dataclass(frozen=True)
class FleetRunResult:
    """Per-slot, per-node records and summary metrics of one fleet run.

    All record arrays have shape ``(total_slots, n_nodes)``, time-major,
    with node columns in spec order.
    """

    n_slots: int
    node_names: Tuple[str, ...]
    duty_requested: np.ndarray
    duty_achieved: np.ndarray
    state_of_charge: np.ndarray
    harvested_joules: np.ndarray
    consumed_joules: np.ndarray
    wasted_joules: np.ndarray
    shortfall_joules: np.ndarray

    # ------------------------------------------------------------------
    # Per-node metrics: (B,) arrays, spec order.
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Number of nodes simulated (``B``)."""
        return self.duty_achieved.shape[1]

    @property
    def total_slots(self) -> int:
        """Slots simulated per node."""
        return self.duty_achieved.shape[0]

    @property
    def mean_duty(self) -> np.ndarray:
        """Per-node average achieved duty cycle."""
        return self.duty_achieved.mean(axis=0)

    @property
    def duty_std(self) -> np.ndarray:
        """Per-node standard deviation of the achieved duty."""
        return self.duty_achieved.std(axis=0)

    @property
    def downtime_fraction(self) -> np.ndarray:
        """Per-node fraction of slots with an unmet load request."""
        return (self.shortfall_joules > 0).mean(axis=0)

    @property
    def waste_fraction(self) -> np.ndarray:
        """Per-node harvested energy lost to a full store, as a fraction."""
        total_harvest = self.harvested_joules.sum(axis=0)
        wasted = self.wasted_joules.sum(axis=0)
        out = np.zeros_like(total_harvest)
        np.divide(wasted, total_harvest, out=out, where=total_harvest > 0)
        return out

    @property
    def final_soc(self) -> np.ndarray:
        """Per-node state of charge after the last slot."""
        return self.state_of_charge[-1].copy()

    # ------------------------------------------------------------------
    def node_result(self, node: int):
        """The :class:`~repro.management.node.NodeRunResult` of one node.

        Column ``node`` extracted into the exact single-node result
        object, so existing analysis code works unchanged.
        """
        from repro.management.node import NodeRunResult

        return NodeRunResult(
            n_slots=self.n_slots,
            duty_requested=self.duty_requested[:, node].copy(),
            duty_achieved=self.duty_achieved[:, node].copy(),
            state_of_charge=self.state_of_charge[:, node].copy(),
            harvested_joules=self.harvested_joules[:, node].copy(),
            consumed_joules=self.consumed_joules[:, node].copy(),
            wasted_joules=self.wasted_joules[:, node].copy(),
            shortfall_joules=self.shortfall_joules[:, node].copy(),
        )

    def node_summary(self, node: int) -> dict:
        """Digest of one node's headline metrics (see ``NodeRunResult``)."""
        return {
            "name": self.node_names[node],
            "mean_duty": float(self.mean_duty[node]),
            "duty_std": float(self.duty_std[node]),
            "downtime_fraction": float(self.downtime_fraction[node]),
            "waste_fraction": float(self.waste_fraction[node]),
            "final_soc": float(self.final_soc[node]),
        }

    def summary(self) -> dict:
        """Fleet-aggregate digest of the headline metrics."""
        total_harvest = float(self.harvested_joules.sum())
        waste = (
            float(self.wasted_joules.sum()) / total_harvest
            if total_harvest > 0
            else 0.0
        )
        return {
            "n_nodes": self.n_nodes,
            "total_slots": self.total_slots,
            "mean_duty": float(self.duty_achieved.mean()),
            "mean_duty_std": float(self.duty_std.mean()),
            "downtime_fraction": float((self.shortfall_joules > 0).mean()),
            "waste_fraction": waste,
            "mean_final_soc": float(self.final_soc.mean()),
        }


@dataclass(frozen=True)
class FleetAggregate:
    """Per-node summary metrics of one fleet run, without the records.

    The structure-of-arrays form the sharded fleet engine streams and
    checkpoints: a handful of ``(B,)`` arrays instead of the
    ``(total_slots, B)`` records of :class:`FleetRunResult`, so memory
    stays flat in the horizon and a million-node block result is a few
    megabytes.  Produced by :meth:`FleetSimulator.run_aggregate`, which
    accumulates these online during the slot loop (plain running sums
    in time order -- deterministic, and invariant to how the fleet is
    partitioned into blocks).

    ``astype(np.float32)`` halves the storage/IPC footprint (metrics
    are reports, not further simulation inputs); accumulation itself
    always runs in float64.
    """

    n_slots: int
    total_slots: int
    node_names: Tuple[str, ...]
    mean_duty: np.ndarray
    duty_std: np.ndarray
    downtime_fraction: np.ndarray
    waste_fraction: np.ndarray
    final_soc: np.ndarray
    harvested_joules_total: np.ndarray
    wasted_joules_total: np.ndarray
    consumed_joules_total: np.ndarray
    shortfall_slots: np.ndarray

    _FLOAT_FIELDS = (
        "mean_duty",
        "duty_std",
        "downtime_fraction",
        "waste_fraction",
        "final_soc",
        "harvested_joules_total",
        "wasted_joules_total",
        "consumed_joules_total",
    )

    @property
    def n_nodes(self) -> int:
        """Number of nodes covered (``B``)."""
        return self.mean_duty.shape[0]

    def astype(self, dtype) -> "FleetAggregate":
        """The same aggregate with float metrics cast to ``dtype``."""
        replacements = {
            name: getattr(self, name).astype(dtype)
            for name in self._FLOAT_FIELDS
        }
        return dataclasses_replace(self, **replacements)

    def node_summary(self, node: int) -> dict:
        """Digest of one node's headline metrics (``FleetRunResult`` keys)."""
        return {
            "name": self.node_names[node],
            "mean_duty": float(self.mean_duty[node]),
            "duty_std": float(self.duty_std[node]),
            "downtime_fraction": float(self.downtime_fraction[node]),
            "waste_fraction": float(self.waste_fraction[node]),
            "final_soc": float(self.final_soc[node]),
        }

    def summary(self) -> dict:
        """Fleet-aggregate digest (same keys as ``FleetRunResult.summary``)."""
        total_harvest = float(self.harvested_joules_total.sum(dtype=np.float64))
        waste = (
            float(self.wasted_joules_total.sum(dtype=np.float64)) / total_harvest
            if total_harvest > 0
            else 0.0
        )
        return {
            "n_nodes": self.n_nodes,
            "total_slots": self.total_slots,
            "mean_duty": float(self.mean_duty.mean(dtype=np.float64)),
            "mean_duty_std": float(self.duty_std.mean(dtype=np.float64)),
            "downtime_fraction": float(self.shortfall_slots.sum())
            / (self.total_slots * self.n_nodes),
            "waste_fraction": waste,
            "mean_final_soc": float(self.final_soc.mean(dtype=np.float64)),
        }

    @staticmethod
    def concat(parts: Sequence["FleetAggregate"]) -> "FleetAggregate":
        """Concatenate block aggregates along the node axis, in order."""
        if not parts:
            raise ValueError("need at least one aggregate to concatenate")
        first = parts[0]
        for part in parts[1:]:
            if (part.n_slots, part.total_slots) != (first.n_slots, first.total_slots):
                raise ValueError(
                    "cannot concatenate aggregates with different slot "
                    f"geometry: {(part.n_slots, part.total_slots)} vs "
                    f"{(first.n_slots, first.total_slots)}"
                )
        if len(parts) == 1:
            return first
        arrays = {
            name: np.concatenate([getattr(p, name) for p in parts])
            for name in FleetAggregate._FLOAT_FIELDS + ("shortfall_slots",)
        }
        return FleetAggregate(
            n_slots=first.n_slots,
            total_slots=first.total_slots,
            node_names=tuple(n for p in parts for n in p.node_names),
            **arrays,
        )


# ----------------------------------------------------------------------
# Group adapters: each covers a subset of node columns.  ``sel`` is a
# slice when the subset is the whole fleet (no gather/scatter copies on
# the homogeneous fast path) and an index array otherwise.
# ----------------------------------------------------------------------
class _VectorPredictorColumn:
    """A registry vector kernel driving a group of node columns."""

    def __init__(self, sel, kernel):
        self.sel = sel
        self.kernel = kernel

    def reset(self) -> None:
        self.kernel.reset()

    def observe(self, values: np.ndarray) -> np.ndarray:
        return self.kernel.observe(values)


class _ScalarPredictorColumn:
    """Per-node scalar predictors for configurations without a kernel."""

    def __init__(self, sel, predictors: List[OnlinePredictor]):
        self.sel = sel
        self.predictors = predictors

    def reset(self) -> None:
        for predictor in self.predictors:
            predictor.reset()

    def observe(self, values: np.ndarray) -> np.ndarray:
        return np.array(
            [p.observe(float(v)) for p, v in zip(self.predictors, values)],
            dtype=float,
        )


class _StackedControllerColumn:
    """One array-parameterised controller covering its node columns."""

    def __init__(self, sel, controller: Controller):
        self.sel = sel
        self.controller = controller

    def reset(self) -> None:
        self.controller.reset()

    def decide(self, predicted_watts, state_of_charge):
        return self.controller.decide(predicted_watts, state_of_charge)

    def feedback(self, harvest_watts) -> None:
        self.controller.feedback(harvest_watts)


class _ScalarControllerColumn:
    """Per-node controllers for classes without a ``stack``."""

    def __init__(self, sel, controllers: List[Controller]):
        self.sel = sel
        self.controllers = controllers

    def reset(self) -> None:
        for controller in self.controllers:
            controller.reset()

    def decide(self, predicted_watts, state_of_charge):
        return np.array(
            [
                c.decide(float(p), float(s))
                for c, p, s in zip(self.controllers, predicted_watts, state_of_charge)
            ],
            dtype=float,
        )

    def feedback(self, harvest_watts) -> None:
        for controller, watts in zip(self.controllers, harvest_watts):
            controller.feedback(float(watts))


class _StackedStoreColumn:
    """One array-parameterised store covering its node columns."""

    def __init__(self, sel, store: Battery):
        self.sel = sel
        self.store = store
        self.charge_efficiency = np.asarray(store.charge_efficiency, dtype=float)

    @property
    def state_of_charge(self):
        return self.store.state_of_charge

    def charge(self, joules):
        return self.store.charge(joules)

    def discharge(self, joules):
        return self.store.discharge(joules)

    def leak(self, seconds):
        self.store.leak(seconds)


class _ScalarStoreColumn:
    """Per-node stores for custom storage classes without a ``stack``.

    Operates on deep copies of the spec's instances (made by the
    column builder), so the spec stays pristine between runs exactly
    as on the stacked path.
    """

    def __init__(self, sel, stores: List[Battery]):
        self.sel = sel
        self.stores = stores
        self.charge_efficiency = np.array(
            [s.charge_efficiency for s in stores], dtype=float
        )

    @property
    def state_of_charge(self):
        return np.array([s.state_of_charge for s in self.stores], dtype=float)

    def charge(self, joules):
        return np.array(
            [s.charge(float(j)) for s, j in zip(self.stores, joules)], dtype=float
        )

    def discharge(self, joules):
        return np.array(
            [s.discharge(float(j)) for s, j in zip(self.stores, joules)], dtype=float
        )

    def leak(self, seconds):
        for store in self.stores:
            store.leak(seconds)


def _column_selector(indices: List[int], n_nodes: int):
    """A slice when ``indices`` is the whole fleet, else an index array."""
    if len(indices) == n_nodes:
        return slice(None)
    return np.array(indices, dtype=np.intp)


class FleetSimulator:
    """Step a heterogeneous fleet of harvesting nodes in lock-step.

    Parameters
    ----------
    specs:
        One :class:`FleetNodeSpec` per node.  All traces must span the
        same number of days and support ``n_slots``.
    n_slots:
        Slots per day (``N``), shared by the whole fleet -- lock-step
        means every node crosses the same slot boundary together.
    """

    def __init__(self, specs: Sequence[FleetNodeSpec], n_slots: int):
        specs = list(specs)
        if not specs:
            raise ValueError("fleet needs at least one node spec")
        for i, spec in enumerate(specs):
            if not isinstance(spec.controller, Controller):
                raise TypeError(
                    f"spec {i}: controller must be a Controller instance, "
                    f"got {type(spec.controller).__name__}"
                )
        self.specs = specs
        self.n_slots = n_slots
        self.node_names = tuple(
            spec.name or f"node{i}" for i, spec in enumerate(specs)
        )

        # One SlotView per distinct trace object; nodes sharing a trace
        # share the flattened sample arrays.
        self.slot_duration_hours = 24.0 / n_slots
        slot_seconds = self.slot_duration_hours * 3600.0
        views: Dict[int, SlotView] = {}
        starts_cols = []
        energy_cols = []
        oracle_power_cols = []
        n_days = None
        for i, spec in enumerate(specs):
            key = id(spec.trace)
            if key not in views:
                views[key] = SlotView.from_trace(spec.trace, n_slots)
            view = views[key]
            if n_days is None:
                n_days = view.n_days
            elif view.n_days != n_days:
                raise ValueError(
                    f"spec {i}: trace covers {view.n_days} days, fleet "
                    f"steps {n_days}; all traces must span the same days"
                )
            starts_cols.append(view.flat_starts())
            # Realized harvest per slot is a pure function of the trace,
            # so it is precomputed through each node's own harvester --
            # custom PVHarvester subclasses overriding power() and/or
            # energy() keep their behaviour.
            means = view.flat_means()
            energy_cols.append(
                np.asarray(spec.harvester.energy(means, slot_seconds), dtype=float)
            )
            if isinstance(spec.controller, OracleController):
                oracle_power_cols.append(
                    np.asarray(spec.harvester.power(means), dtype=float)
                )
        self.n_days = n_days
        self._starts = np.column_stack(starts_cols)
        self._harvest_energy = np.column_stack(energy_cols)
        self._gains = PVHarvester.stack_gains([s.harvester for s in specs])
        self._oracle_indices = np.array(
            [
                i
                for i, spec in enumerate(specs)
                if isinstance(spec.controller, OracleController)
            ],
            dtype=np.intp,
        )
        # True harvest power the oracle controllers plan with, one
        # column per oracle node (in self._oracle_indices order).
        self._oracle_power = (
            np.column_stack(oracle_power_cols)
            if oracle_power_cols
            else np.empty((self._starts.shape[0], 0))
        )
        # Nodes whose harvester overrides the linear power() cannot use
        # the gains fast path for converting *predictions* to power.
        self._custom_harvester_nodes = [
            i
            for i, spec in enumerate(specs)
            if type(spec.harvester).power is not PVHarvester.power
        ]

    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Fleet size ``B``."""
        return len(self.specs)

    @property
    def total_slots(self) -> int:
        """Boundaries each node is stepped through."""
        return self._starts.shape[0]

    # ------------------------------------------------------------------
    def _build_predictor_columns(self):
        n_nodes = self.n_nodes
        # Grouped by (name, kwargs) *equality*, not hashability, so
        # factory kwargs holding lists/dicts still group correctly; a
        # comparison that cannot produce a bool (e.g. ndarray kwargs)
        # conservatively starts a new group.
        groups: List[Tuple[str, dict, List[int]]] = []
        scalar_members: List[Tuple[int, OnlinePredictor]] = []
        for i, spec in enumerate(self.specs):
            predictor = spec.predictor
            kwargs = dict(spec.predictor_kwargs or {})
            if isinstance(predictor, str):
                if supports_vector(predictor):
                    name = predictor.lower()
                    for group_name, group_kwargs, indices in groups:
                        try:
                            same = group_name == name and group_kwargs == kwargs
                        except (TypeError, ValueError):
                            same = False
                        if same:
                            indices.append(i)
                            break
                    else:
                        groups.append((name, kwargs, [i]))
                else:
                    scalar_members.append(
                        (i, make_predictor(predictor, self.n_slots, **kwargs))
                    )
            else:
                # Deep-copied so a run never mutates (or is polluted
                # by) the instance the caller handed in.
                scalar_members.append((i, copy.deepcopy(predictor)))
        columns = []
        for name, kwargs, indices in groups:
            kernel = make_vector_predictor(
                name, self.n_slots, len(indices), **kwargs
            )
            columns.append(
                _VectorPredictorColumn(_column_selector(indices, n_nodes), kernel)
            )
        if scalar_members:
            indices = [i for i, _ in scalar_members]
            columns.append(
                _ScalarPredictorColumn(
                    _column_selector(indices, n_nodes),
                    [p for _, p in scalar_members],
                )
            )
        return columns

    def _build_controller_columns(self):
        n_nodes = self.n_nodes
        by_type: Dict[type, List[Tuple[int, Controller]]] = {}
        scalar_members: List[Tuple[int, Controller]] = []
        for i, spec in enumerate(self.specs):
            controller = spec.controller
            if type(controller) in _STACKABLE_CONTROLLERS:
                by_type.setdefault(type(controller), []).append((i, controller))
            else:
                scalar_members.append((i, copy.deepcopy(controller)))
        columns = []
        for cls, members in by_type.items():
            indices = [i for i, _ in members]
            stacked = cls.stack([c for _, c in members])
            columns.append(
                _StackedControllerColumn(_column_selector(indices, n_nodes), stacked)
            )
        if scalar_members:
            indices = [i for i, _ in scalar_members]
            columns.append(
                _ScalarControllerColumn(
                    _column_selector(indices, n_nodes),
                    [c for _, c in scalar_members],
                )
            )
        return columns

    def _build_storage_columns(self):
        n_nodes = self.n_nodes
        by_type: Dict[type, List[Tuple[int, Battery]]] = {}
        scalar_members: List[Tuple[int, Battery]] = []
        for i, spec in enumerate(self.specs):
            store = spec.storage
            if type(store) in _STACKABLE_STORES:
                by_type.setdefault(type(store), []).append((i, store))
            else:
                scalar_members.append((i, copy.deepcopy(store)))
        columns = []
        for cls, members in by_type.items():
            indices = [i for i, _ in members]
            stacked = cls.stack([s for _, s in members])
            columns.append(
                _StackedStoreColumn(_column_selector(indices, n_nodes), stacked)
            )
        if scalar_members:
            indices = [i for i, _ in scalar_members]
            columns.append(
                _ScalarStoreColumn(
                    _column_selector(indices, n_nodes),
                    [s for _, s in scalar_members],
                )
            )
        return columns

    # ------------------------------------------------------------------
    def run(self) -> FleetRunResult:
        """Simulate every slot for every node; returns the full record."""
        sink = _RecordSink(self.total_slots, self.n_nodes)
        self._simulate(sink)
        return FleetRunResult(
            n_slots=self.n_slots,
            node_names=self.node_names,
            duty_requested=sink.duty_requested,
            duty_achieved=sink.duty_achieved,
            state_of_charge=sink.soc,
            harvested_joules=sink.harvested,
            consumed_joules=sink.consumed,
            wasted_joules=sink.wasted,
            shortfall_joules=sink.shortfall,
        )

    def run_aggregate(self) -> FleetAggregate:
        """Simulate every slot, accumulating per-node metrics online.

        Identical simulation to :meth:`run` -- same kernels, same slot
        loop, same float64 arithmetic -- but per-slot records are folded
        into running per-node sums instead of being stored, so memory is
        ``O(B)`` instead of ``O(total_slots * B)``.  This is what lets
        the sharded fleet engine stream million-node fleets through
        fixed-size blocks.  (Derived statistics reduce in time order,
        which can differ from :class:`FleetRunResult`'s pairwise numpy
        reductions by float rounding -- the metrics agree to ~1e-12,
        and are bitwise-reproducible run to run and across any node
        partitioning.)
        """
        sink = _AggregateSink(self.n_nodes)
        self._simulate(sink)
        total = self.total_slots
        mean_duty = sink.duty_sum / total
        variance = np.maximum(sink.duty_sq_sum / total - mean_duty**2, 0.0)
        waste_fraction = np.zeros(self.n_nodes)
        np.divide(
            sink.wasted_sum,
            sink.harvested_sum,
            out=waste_fraction,
            where=sink.harvested_sum > 0,
        )
        return FleetAggregate(
            n_slots=self.n_slots,
            total_slots=total,
            node_names=self.node_names,
            mean_duty=mean_duty,
            duty_std=np.sqrt(variance),
            downtime_fraction=sink.shortfall_slots / total,
            waste_fraction=waste_fraction,
            final_soc=sink.final_soc.copy(),
            harvested_joules_total=sink.harvested_sum,
            wasted_joules_total=sink.wasted_sum,
            consumed_joules_total=sink.consumed_sum,
            shortfall_slots=sink.shortfall_slots.astype(np.int64),
        )

    def _simulate(self, sink) -> None:
        """The slot loop, feeding per-slot ``(B,)`` vectors to ``sink``."""
        n_nodes = self.n_nodes
        total = self.total_slots
        slot_seconds = self.slot_duration_hours * 3600.0

        predictor_cols = self._build_predictor_columns()
        controller_cols = self._build_controller_columns()
        storage_cols = self._build_storage_columns()
        for column in predictor_cols:
            column.reset()
        for column in controller_cols:
            column.reset()
        load = DutyCycledLoad.stack([spec.load for spec in self.specs])
        gains = self._gains

        oracle_indices = self._oracle_indices
        any_oracle = oracle_indices.size > 0

        predictions = np.empty(n_nodes)
        soc_now = np.empty(n_nodes)
        duty = np.empty(n_nodes)
        wasted_now = np.empty(n_nodes)
        starts, harvest_energy = self._starts, self._harvest_energy
        oracle_power = self._oracle_power
        custom_harvesters = self._custom_harvester_nodes

        for t in range(total):
            values = starts[t]
            for column in predictor_cols:
                predictions[column.sel] = column.observe(values[column.sel])

            # Electrical power the controller plans with: predicted for
            # normal nodes, the true slot power for oracle nodes.
            predicted_power = np.maximum(predictions, 0.0) * gains
            for i in custom_harvesters:
                predicted_power[i] = self.specs[i].harvester.power(
                    max(0.0, float(predictions[i]))
                )
            if any_oracle:
                predicted_power[oracle_indices] = oracle_power[t]

            for column in storage_cols:
                soc_now[column.sel] = column.state_of_charge
            for column in controller_cols:
                duty[column.sel] = column.decide(
                    predicted_power[column.sel], soc_now[column.sel]
                )

            # The slot plays out with the *true* mean power.
            incoming = harvest_energy[t]
            for column in storage_cols:
                incoming_here = incoming[column.sel]
                stored = column.charge(incoming_here)
                wasted_now[column.sel] = (
                    incoming_here * column.charge_efficiency - stored
                )

            request = load.energy(duty, slot_seconds)
            supplied = np.empty(n_nodes)
            for column in storage_cols:
                supplied[column.sel] = column.discharge(request[column.sel])
            shortfall_now = request - supplied
            ratio = np.zeros(n_nodes)
            np.divide(supplied, request, out=ratio, where=request > 0)
            achieved = duty * ratio

            for column in storage_cols:
                column.leak(slot_seconds)
                soc_now[column.sel] = column.state_of_charge
            sink.record(
                t, duty, achieved, soc_now, incoming, supplied,
                wasted_now, shortfall_now,
            )
            harvest_watts = incoming / slot_seconds
            for column in controller_cols:
                column.feedback(harvest_watts[column.sel])


class _RecordSink:
    """Full ``(total_slots, B)`` records (the :meth:`FleetSimulator.run` form)."""

    def __init__(self, total: int, n_nodes: int):
        self.duty_requested = np.empty((total, n_nodes))
        self.duty_achieved = np.empty((total, n_nodes))
        self.soc = np.empty((total, n_nodes))
        self.harvested = np.empty((total, n_nodes))
        self.consumed = np.empty((total, n_nodes))
        self.wasted = np.empty((total, n_nodes))
        self.shortfall = np.empty((total, n_nodes))

    def record(self, t, duty, achieved, soc, incoming, supplied, wasted, shortfall):
        self.duty_requested[t] = duty
        self.duty_achieved[t] = achieved
        self.soc[t] = soc
        self.harvested[t] = incoming
        self.consumed[t] = supplied
        self.wasted[t] = wasted
        self.shortfall[t] = shortfall


class _AggregateSink:
    """Online per-node accumulators (the :meth:`FleetSimulator.run_aggregate` form)."""

    def __init__(self, n_nodes: int):
        self.duty_sum = np.zeros(n_nodes)
        self.duty_sq_sum = np.zeros(n_nodes)
        self.shortfall_slots = np.zeros(n_nodes)
        self.harvested_sum = np.zeros(n_nodes)
        self.consumed_sum = np.zeros(n_nodes)
        self.wasted_sum = np.zeros(n_nodes)
        self.final_soc = np.zeros(n_nodes)

    def record(self, t, duty, achieved, soc, incoming, supplied, wasted, shortfall):
        self.duty_sum += achieved
        self.duty_sq_sum += achieved * achieved
        self.shortfall_slots += shortfall > 0
        self.harvested_sum += incoming
        self.consumed_sum += supplied
        self.wasted_sum += wasted
        self.final_soc[:] = soc
