"""Sharded fleet execution: spec-shipped blocks with checkpoint/resume.

The lock-step :class:`~repro.management.fleet.FleetSimulator` holds its
whole fleet in memory; at a million nodes that is the wrong shape --
the full per-slot record alone would be terabytes, and one process
pins one core.  This module scales the same simulation out by slicing
the fleet into **fixed-size node blocks** that stream through the
shared executor:

* A :class:`FleetPlan` is the *whole fleet as a value*: axis lists
  (sites / predictors / controllers / capacities / scenarios) plus
  primitive hardware parameters.  It is a few hundred bytes however
  many nodes it describes -- workers rebuild their own block's specs
  from the plan via ``build_fleet_specs(..., node_range=...)`` (the
  mixed-radix node identity is global, so block boundaries never change
  which node gets which axes).
* Each block runs :meth:`~repro.management.fleet.FleetSimulator.run_aggregate`,
  producing a structure-of-arrays
  :class:`~repro.management.fleet.FleetAggregate` of ``O(block)``
  memory whatever the horizon (``dtype="float32"`` halves it again for
  storage/IPC).  Per-node results are invariant to the block
  partitioning (bitwise -- every kernel is elementwise across nodes),
  so block size is purely a memory/scheduling knob.
* With a :class:`~repro.parallel.cache.ResultCache`, every finished
  block is **checkpointed** under a digest of (plan, block range,
  dtype, dataset identities, code salt): an interrupted fleet year
  resumes from its completed blocks, and re-running a grown fleet
  recomputes only the new tail.

``run_fleet_blocks(plan)`` is therefore the resumable, multicore form
of ``FleetSimulator(build_fleet_specs(...)).run_aggregate()`` -- same
numbers, flat memory, near-linear in cores and shards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.management.fleet import FleetAggregate
from repro.solar.scenarios import DEFAULT_SCENARIO_SEED
from repro.parallel.cache import ResultCache, dataset_identity
from repro.parallel.executor import ExecutionStats, execute_units

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "FleetPlan",
    "plan_blocks",
    "run_fleet_blocks",
]

#: Default nodes per block: large enough that per-block spec building
#: and dispatch are noise next to the slot loop, small enough that a
#: block's full simulator state (SlotView columns + records) stays in
#: the tens of megabytes.
DEFAULT_BLOCK_SIZE = 4096


@dataclass(frozen=True)
class FleetPlan:
    """A whole heterogeneous fleet as a small picklable value.

    Mirrors the axes of
    :func:`~repro.experiments.fleet.build_fleet_specs` -- node ``i``
    cycles predictor fastest, site slowest -- but carries only names
    and primitives (the load is two floats, not an object), so shipping
    a plan to a worker costs the same whether it describes 64 nodes or
    a million.
    """

    n_nodes: int
    sites: Optional[Tuple[str, ...]] = ("SPMD",)
    n_days: int = 30
    predictors: Tuple[str, ...] = ("wcma",)
    controllers: Tuple[str, ...] = ("kansal",)
    capacities: Tuple[float, ...] = (250.0,)
    n_slots: int = 48
    panel_area_m2: float = 25e-4
    active_power_watts: float = 40e-3
    sleep_power_watts: float = 40e-6
    supercap_threshold_joules: float = 1000.0
    scenarios: Optional[Tuple[str, ...]] = None
    scenario_seed: int = DEFAULT_SCENARIO_SEED

    def __post_init__(self):
        if self.n_nodes <= 0:
            raise ValueError("n_nodes must be positive")

    def spec_kwargs(self) -> dict:
        """Keyword arguments for ``build_fleet_specs`` (minus node_range)."""
        from repro.management.consumer import DutyCycledLoad

        return dict(
            n_nodes=self.n_nodes,
            sites=self.sites,
            n_days=self.n_days,
            predictors=self.predictors,
            controllers=self.controllers,
            capacities=self.capacities,
            n_slots=self.n_slots,
            panel_area_m2=self.panel_area_m2,
            load=DutyCycledLoad(
                active_power_watts=self.active_power_watts,
                sleep_power_watts=self.sleep_power_watts,
            ),
            supercap_threshold_joules=self.supercap_threshold_joules,
            scenarios=self.scenarios,
            scenario_seed=self.scenario_seed,
        )

    def site_list(self) -> Tuple[str, ...]:
        from repro.experiments.common import sites_for

        return sites_for(self.sites)


def plan_blocks(n_nodes: int, block_size: int) -> List[Tuple[int, int]]:
    """Contiguous ``(start, stop)`` node ranges covering the fleet."""
    if block_size <= 0:
        raise ValueError(f"block_size must be positive, got {block_size}")
    return [
        (start, min(start + block_size, n_nodes))
        for start in range(0, n_nodes, block_size)
    ]


def _run_block(plan: FleetPlan, start: int, stop: int, dtype: str) -> FleetAggregate:
    """Simulate one node block (module-level so pools can pickle it).

    The worker rebuilds exactly this block's specs from the plan --
    traces come from the worker's own dataset memo, so consecutive
    blocks of one worker share them -- and returns the ``O(block)``
    aggregate, cast to ``dtype`` for transport.
    """
    from repro.experiments.fleet import build_fleet_specs
    from repro.management.fleet import FleetSimulator

    specs = build_fleet_specs(node_range=(start, stop), **plan.spec_kwargs())
    aggregate = FleetSimulator(specs, plan.n_slots).run_aggregate()
    if dtype != "float64":
        aggregate = aggregate.astype(np.dtype(dtype))
    return aggregate


def _block_key(cache: ResultCache, plan: FleetPlan, start: int, stop: int,
               dtype: str, identities: dict) -> str:
    return cache.key(
        {
            "kind": "fleet-block",
            "plan": plan,
            "block": [start, stop],
            "dtype": dtype,
            "datasets": identities,
        }
    )


def run_fleet_blocks(
    plan: FleetPlan,
    block_size: int = DEFAULT_BLOCK_SIZE,
    jobs: Optional[int] = None,
    backend: Optional[str] = None,
    cache: Optional[ResultCache] = None,
    dtype: str = "float64",
    chunk_size: Optional[int] = None,
) -> Tuple[FleetAggregate, ExecutionStats]:
    """Run the planned fleet in sharded blocks; returns (aggregate, stats).

    Parameters
    ----------
    plan:
        The fleet (see :class:`FleetPlan`).
    block_size:
        Nodes per block; the memory/checkpoint granularity.
    jobs / backend / chunk_size:
        Executor policy (``None``/1 jobs = inline).  Blocks are
        independent, so sequential and parallel aggregates are
        byte-identical.
    cache:
        Optional result cache; completed blocks checkpoint into it and
        a re-run resumes from them.
    dtype:
        ``"float64"`` (default) or ``"float32"`` for half-width block
        metrics.
    """
    if dtype not in ("float64", "float32"):
        raise ValueError(f"dtype must be 'float64' or 'float32', got {dtype!r}")
    blocks = plan_blocks(plan.n_nodes, block_size)
    units = [(plan, start, stop, dtype) for start, stop in blocks]

    keys = None
    initializer = None
    initargs = ()
    identities = {
        site: dataset_identity(site)
        for site in plan.site_list()
    }
    if cache is not None:
        keys = [
            _block_key(cache, plan, start, stop, dtype, identities)
            for start, stop in blocks
        ]
    if backend != "thread":
        from repro.experiments.common import warm_worker
        from repro.solar.ingest.sites import measured_specs_for

        initializer = warm_worker
        initargs = (measured_specs_for(plan.site_list()),)

    results, stats = execute_units(
        _run_block,
        units,
        jobs=jobs,
        backend=backend,
        chunk_size=chunk_size,
        initializer=initializer,
        initargs=initargs,
        cache=cache,
        keys=keys,
    )
    return FleetAggregate.concat(results), stats
