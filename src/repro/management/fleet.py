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

* **Predictors** are grouped by (name, parameters), and each group
  runs as the one lock-step form
  :func:`repro.core.registry.make_vector_predictor` builds for it (a
  native kernel, or per-node scalar instances side by side for names
  without one); explicit :class:`~repro.core.base.OnlinePredictor`
  instances run as one :class:`~repro.core.base.ScalarColumns` of
  deep copies.
* **Controllers** of the four built-in types are merged with their
  ``stack`` classmethods into one array-parameterised instance per
  type; any other controller class runs as one ``_ControllerColumns``,
  per-node copies side by side (so e.g.
  :class:`~repro.management.planning.ProfilePlanningController` still
  works, just without the speedup).
* **Storage** is stacked the same way
  (:class:`~repro.management.storage.Battery` /
  :class:`~repro.management.storage.Supercapacitor`, a mix of both as
  one supercapacitor array); custom storage classes run as one
  ``_StoreColumns``.

Because every stacked model is elementwise, a ``B``-node fleet run is
bitwise identical (parity-tested exactly for every registered
predictor) to ``B`` independent ``SensorNodeSimulation`` runs -- and
20x+ faster for a 256-node fleet (``benchmarks/test_bench_fleet.py``).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace as dataclasses_replace
from typing import Dict, List, Mapping, Sequence, Tuple, Union

import numpy as np

from repro.core.base import OnlinePredictor, ScalarColumns
from repro.core.registry import make_vector_predictor
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
        Registry name (run in its registry lock-step form) or an
        explicit :class:`~repro.core.base.OnlinePredictor` instance
        (run as a :class:`~repro.core.base.ScalarColumns` column).
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
    _ARRAY_FIELDS = _FLOAT_FIELDS + ("shortfall_slots",)

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
            for name in FleetAggregate._ARRAY_FIELDS
        }
        return FleetAggregate(
            n_slots=first.n_slots,
            total_slots=first.total_slots,
            node_names=tuple(n for p in parts for n in p.node_names),
            **arrays,
        )

    def split(self, sizes: Sequence[int]) -> List["FleetAggregate"]:
        """Consecutive node-axis parts of ``sizes`` nodes (undoes :meth:`concat`).

        Each part owns copies of its slices, so it pickles to exactly
        the bytes of an aggregate simulated over those nodes alone.
        """
        if sum(sizes) != self.n_nodes:
            raise ValueError(f"sizes {list(sizes)} do not cover {self.n_nodes} nodes")
        parts = []
        start = 0
        for size in sizes:
            stop = start + size
            parts.append(dataclasses_replace(
                self,
                node_names=self.node_names[start:stop],
                **{name: getattr(self, name)[start:stop].copy()
                   for name in self._ARRAY_FIELDS},
            ))
            start = stop
        return parts


# ----------------------------------------------------------------------
# Lock-step forms of node models.  Each simulator column is a ``(sel,
# model)`` pair covering a subset of node columns: ``sel`` is a slice
# when the subset is the whole fleet (no gather/scatter copies on the
# homogeneous fast path) and an index array otherwise.
# ----------------------------------------------------------------------
def _learns(controller: Controller) -> bool:
    """Whether ``controller`` overrides the no-op :meth:`Controller.feedback`."""
    return type(controller).feedback is not Controller.feedback


class _ControllerColumns(Controller):
    """``B`` controllers side by side, column ``b`` running
    ``controllers[b]``: the lock-step form of a :class:`Controller`
    class without a ``stack``.  Only the members that learn hear
    :meth:`feedback`.
    """

    def __init__(self, controllers: Sequence[Controller]):
        self.controllers = list(controllers)
        self._learners = [(b, c) for b, c in enumerate(self.controllers) if _learns(c)]

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
        for b, controller in self._learners:
            controller.feedback(float(harvest_watts[b]))


class _StoreColumns:
    """``B`` stores side by side, column ``b`` running ``stores[b]``: the
    lock-step form of a storage class without a ``stack``.

    It has the slot loop's store surface; ``_charge`` and ``_discharge``
    go through each member's own (checked) ``charge`` and
    ``discharge``, which a custom class may override.
    """

    def __init__(self, stores: Sequence[Battery]):
        self.stores = list(stores)
        self.charge_efficiency = np.array(
            [s.charge_efficiency for s in self.stores], dtype=float
        )

    @property
    def state_of_charge(self):
        return np.array([s.state_of_charge for s in self.stores], dtype=float)

    def _charge(self, joules):
        return np.array(
            [s.charge(float(j)) for s, j in zip(self.stores, joules)], dtype=float
        )

    def _discharge(self, joules):
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


def _model_columns(models: Sequence, stackable: Tuple[type, ...], columns, merge=None):
    """``(sel, model)`` pairs covering ``models``, one model per node.

    Each ``stackable`` class stacks into one array instance (all of
    them into one ``merge.stack`` when several appear); the rest run as
    one ``columns`` of deep copies, so a run never dirties the specs.
    Nodes keep ascending order within each pair.
    """
    n_nodes = len(models)
    by_type: Dict[type, List[int]] = {}
    custom: List[int] = []
    for i, model in enumerate(models):
        if type(model) in stackable:
            by_type.setdefault(type(model), []).append(i)
        else:
            custom.append(i)
    if merge is not None and len(by_type) > 1:
        by_type = {merge: sorted(i for indices in by_type.values() for i in indices)}
    pairs = [
        (_column_selector(indices, n_nodes), cls.stack([models[i] for i in indices]))
        for cls, indices in by_type.items()
    ]
    if custom:
        pairs.append((
            _column_selector(custom, n_nodes),
            columns([copy.deepcopy(models[i]) for i in custom]),
        ))
    return pairs


class FleetSimulator:
    """Step a heterogeneous fleet of harvesting nodes in lock-step.

    The slot loop's fixed Python cost is paid once per step for the
    whole fleet, so wider fleets cost less per node; what grows with
    width is per-node state only.  The trace-derived inputs (slot
    starts, harvested energy, the oracle nodes' true power) are kept
    once per distinct (trace, harvester) column -- a 4096-node fleet
    over six sites and three scenarios holds 18 columns, not two
    ``(total_slots, B)`` tables -- and each step gathers its ``(B,)``
    vectors through a node-to-column index.  The sharded engine
    (:mod:`repro.parallel.fleet`) runs each of its passes -- several
    small blocks, or one large block -- through one simulator.

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

        # Trace-derived inputs: one column per distinct (trace,
        # harvester), and each node's column in ``_node_column``.
        self.slot_duration_hours = 24.0 / n_slots
        slot_seconds = self.slot_duration_hours * 3600.0
        views: Dict[int, SlotView] = {}
        columns: Dict[tuple, int] = {}
        sources: List[Tuple[SlotView, PVHarvester]] = []
        starts_cols = []
        energy_cols = []
        self._node_column = np.empty(len(specs), dtype=np.intp)
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
            # Plain harvesters are values; a subclass may hold state
            # its fields do not show, so only the instance itself is
            # known to behave the same.
            harvester = spec.harvester
            column_key = (
                key,
                harvester if type(harvester) is PVHarvester else id(harvester),
            )
            column = columns.get(column_key)
            if column is None:
                column = columns[column_key] = len(sources)
                sources.append((view, harvester))
                starts_cols.append(view.flat_starts())
                # Realized harvest per slot is a pure function of the
                # trace, so it is precomputed through the column's own
                # harvester -- custom PVHarvester subclasses overriding
                # power() and/or energy() keep their behaviour.
                energy_cols.append(np.asarray(
                    harvester.energy(view.flat_means(), slot_seconds), dtype=float
                ))
            self._node_column[i] = column
        self.n_days = n_days
        self._starts = np.column_stack(starts_cols)
        self._harvest_energy = np.column_stack(energy_cols)
        # Checked once here, so the stacked stores charge unchecked.
        if (self._harvest_energy < 0).any():
            raise ValueError("harvested energy must be non-negative")
        self._gains = PVHarvester.stack_gains([s.harvester for s in specs])
        self._oracle_indices = np.array(
            [
                i
                for i, spec in enumerate(specs)
                if isinstance(spec.controller, OracleController)
            ],
            dtype=np.intp,
        )
        # True harvest power the oracle controllers plan with: one
        # column per (trace, harvester) column an oracle node uses, and
        # each oracle node's column in it (self._oracle_indices order).
        oracle_columns: Dict[int, int] = {}
        for i in self._oracle_indices:
            oracle_columns.setdefault(int(self._node_column[i]), len(oracle_columns))
        self._oracle_column = np.array(
            [oracle_columns[int(self._node_column[i])] for i in self._oracle_indices],
            dtype=np.intp,
        )
        self._oracle_power = np.empty((self._starts.shape[0], len(oracle_columns)))
        for column, j in oracle_columns.items():
            view, harvester = sources[column]
            self._oracle_power[:, j] = harvester.power(view.flat_means())
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
        """``(sel, kernel)`` pairs: one lock-step form per (name,
        kwargs) group, then one for the caller-supplied instances."""
        n_nodes = self.n_nodes
        # Grouped by (name, kwargs) *equality*, not hashability, so
        # factory kwargs holding lists/dicts still group correctly; a
        # comparison that cannot produce a bool (e.g. ndarray kwargs)
        # conservatively starts a new group.
        groups: List[Tuple[str, dict, List[int]]] = []
        instances: List[Tuple[int, OnlinePredictor]] = []
        for i, spec in enumerate(self.specs):
            if not isinstance(spec.predictor, str):
                # Deep-copied so a run never mutates (or is polluted
                # by) the instance the caller handed in.
                instances.append((i, copy.deepcopy(spec.predictor)))
                continue
            name = spec.predictor.lower()
            kwargs = dict(spec.predictor_kwargs or {})
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
        columns = [
            (
                _column_selector(indices, n_nodes),
                make_vector_predictor(name, self.n_slots, len(indices), **kwargs),
            )
            for name, kwargs, indices in groups
        ]
        if instances:
            columns.append((
                _column_selector([i for i, _ in instances], n_nodes),
                ScalarColumns([p for _, p in instances]),
            ))
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
        controller_cols = _model_columns(
            [spec.controller for spec in self.specs], _STACKABLE_CONTROLLERS, _ControllerColumns
        )
        # A supercapacitor array also models plain batteries, so a
        # mixed fleet steps one store column instead of two.
        storage_cols = _model_columns(
            [spec.storage for spec in self.specs], _STACKABLE_STORES, _StoreColumns,
            merge=Supercapacitor,
        )
        for _, kernel in predictor_cols:
            kernel.reset()
        for _, controller in controller_cols:
            controller.reset()
        load = DutyCycledLoad.stack([spec.load for spec in self.specs])
        gains = self._gains

        oracle_indices = self._oracle_indices
        any_oracle = oracle_indices.size > 0

        predictions = np.empty(n_nodes)
        soc_now = np.empty(n_nodes)
        duty = np.empty(n_nodes)
        wasted_now = np.empty(n_nodes)
        starts, harvest_energy = self._starts, self._harvest_energy
        node_column = self._node_column
        oracle_power, oracle_column = self._oracle_power, self._oracle_column
        custom_harvesters = self._custom_harvester_nodes
        learning_cols = [(sel, c) for sel, c in controller_cols if _learns(c)]
        # The state of charge at a slot boundary: read once up front,
        # then after each slot's leak (nothing moves it in between).
        for sel, store in storage_cols:
            soc_now[sel] = store.state_of_charge

        for t in range(total):
            values = starts[t].take(node_column)
            for sel, kernel in predictor_cols:
                predictions[sel] = kernel.observe(values[sel])

            # Electrical power the controller plans with: predicted for
            # normal nodes, the true slot power for oracle nodes.
            predicted_power = np.maximum(predictions, 0.0) * gains
            for i in custom_harvesters:
                predicted_power[i] = self.specs[i].harvester.power(
                    max(0.0, float(predictions[i]))
                )
            if any_oracle:
                predicted_power[oracle_indices] = oracle_power[t].take(oracle_column)

            for sel, controller in controller_cols:
                duty[sel] = controller.decide(predicted_power[sel], soc_now[sel])

            # The slot plays out with the *true* mean power.  Stores
            # charge and discharge unchecked: the harvest table was
            # checked once in the constructor, and requests are
            # non-negative by construction.
            incoming = harvest_energy[t].take(node_column)
            for sel, store in storage_cols:
                incoming_here = incoming[sel]
                stored = store._charge(incoming_here)
                wasted_now[sel] = incoming_here * store.charge_efficiency - stored

            request = load.energy(duty, slot_seconds)
            supplied = np.empty(n_nodes)
            for sel, store in storage_cols:
                supplied[sel] = store._discharge(request[sel])
            shortfall_now = request - supplied
            ratio = np.zeros(n_nodes)
            np.divide(supplied, request, out=ratio, where=request > 0)
            achieved = duty * ratio

            for sel, store in storage_cols:
                store.leak(slot_seconds)
                soc_now[sel] = store.state_of_charge
            sink.record(
                t, duty, achieved, soc_now, incoming, supplied,
                wasted_now, shortfall_now,
            )
            if learning_cols:
                harvest_watts = incoming / slot_seconds
                for sel, controller in learning_cols:
                    controller.feedback(harvest_watts[sel])


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
