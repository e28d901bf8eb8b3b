"""Sharded fleet execution: spec-shipped blocks with checkpoint/resume.

The lock-step :class:`~repro.management.fleet.FleetSimulator` holds its
whole fleet in memory; at a million nodes that is the wrong shape --
the full per-slot record alone would be terabytes, and one process
pins one core.  This module scales the same simulation out by slicing
the fleet into **fixed-size node blocks** that stream through the
shared executor:

* A :class:`FleetPlan` is the *whole fleet as a value*: axis lists
  (sites / predictors / controllers / capacities / scenarios) plus
  primitive hardware parameters.  It is the one description of a
  generated fleet, a few hundred bytes however many nodes it
  describes -- workers rebuild their own nodes' specs from the plan
  via ``build_fleet_specs(plan, node_range)`` (the mixed-radix node
  identity is global, so block boundaries never change which node gets
  which axes).
* **Blocks are the checkpoint unit; small blocks share passes.**  The
  slot loop costs per step, not per node, so :func:`group_blocks`
  packs contiguous missing blocks into one lock-step pass while the
  pass stays within :data:`MAX_PASS_NODES` nodes.  Packing therefore
  needs ``block_size <= MAX_PASS_NODES // 2``: perfbench's 256-node
  blocks all pack (16 blocks, 4 passes), but a block of more than 512
  nodes -- the default 4096, the sharded and 1M-node benchmarks -- is
  its own pass, so there the block size still is the lock-step width.
  A pool still gets at least ``min(jobs, missing)`` passes.  Each pass
  is one :meth:`~repro.management.fleet.FleetSimulator.run_aggregate`
  over its nodes, producing a structure-of-arrays
  :class:`~repro.management.fleet.FleetAggregate` of ``O(pass)``
  memory whatever the horizon (``dtype="float32"`` halves it again for
  storage/IPC).  Per-node results are invariant to how the fleet is
  partitioned (bitwise -- every kernel is elementwise across nodes),
  so neither the block size nor the pass grouping changes a number.
* With a :class:`~repro.parallel.cache.ResultCache`, every finished
  block is **checkpointed** under a digest of (plan, block range,
  dtype, dataset identities, code salt), through
  :func:`~repro.parallel.executor.execute_passes`: a pass of several
  blocks is split and stored as its block entries only, one entry per
  block.  An interrupted fleet year resumes from its completed blocks,
  losing at most the passes in flight (up to ``MAX_PASS_NODES`` nodes
  each when blocks pack, one block each otherwise), and re-running a
  grown fleet recomputes only the new tail.

``run_fleet_blocks(plan)`` is therefore the resumable, multicore form
of ``FleetSimulator(build_fleet_specs(plan)).run_aggregate()`` -- same
numbers, flat memory, near-linear in cores and shards -- and the one
way the CLI ``fleet`` command, the robustness fleet and the examples
run a generated fleet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.management.fleet import FleetAggregate
from repro.solar.scenarios import DEFAULT_SCENARIO_SEED
from repro.parallel.cache import ResultCache, dataset_identity
from repro.parallel.executor import ExecutionStats, execute_passes, split_widest

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "MAX_PASS_NODES",
    "FleetPlan",
    "group_blocks",
    "plan_blocks",
    "run_fleet_blocks",
]

#: Default nodes per block: the checkpoint unit (a resumed run skips
#: whole blocks) and, being wider than ``MAX_PASS_NODES // 2``, also
#: the lock-step width -- default blocks never share a pass.  Large
#: enough that per-block spec building and dispatch are noise next to
#: the slot loop, small enough that a block's simulator state stays in
#: the tens of megabytes.
DEFAULT_BLOCK_SIZE = 4096

#: Widest pass that packs several blocks, in nodes.  Blocks share a
#: pass only while it stays within this width, so only blocks of at
#: most half of it ever do; a larger block is its own pass, as wide as
#: the block.  Wider passes spread the slot loop's fixed per-step cost
#: over more nodes, but the kernels' state grows with width (WCMA holds
#: about 5 KB per node).  On perfbench's fleet plan (4096 nodes in
#: 256-node blocks, one CPU of a 2-core Xeon) caps of 256 / 1024 /
#: 2048 / 4096 nodes took 3.5 / 1.9 / 1.6 / 1.2 s of CPU at 46 / 51 /
#: 56 / 66 MB peak RSS: 1024 is the widest at which that plan stays
#: under the 53.7 MB its 256-node passes reached over per-node inputs.
MAX_PASS_NODES = 1024


@dataclass(frozen=True)
class FleetPlan:
    """A whole heterogeneous fleet as a small picklable value.

    Node ``i`` cycles every axis mixed-radix -- predictor fastest, site
    slowest (see :func:`~repro.experiments.fleet.build_fleet_specs`).
    The plan carries only names and primitives (the load is two floats,
    not an object), so shipping it to a worker costs the same whether
    it describes 64 nodes or a million.  ``sites=None`` is the paper's
    six and ``scenarios=None`` the clean trace; every axis given must
    be non-empty, every capacity, the panel area and the active power
    finite and positive, the sleep power finite and non-negative, and
    the supercapacitor threshold non-negative (infinity makes every
    store a supercapacitor).
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
        for axis in ("sites", "predictors", "controllers", "capacities", "scenarios"):
            values = getattr(self, axis)
            if values is not None and len(values) == 0:
                raise ValueError(f"{axis} must not be empty")
        for capacity in self.capacities:
            if not 0.0 < capacity < math.inf:
                raise ValueError(
                    f"capacities must be finite and positive, got {capacity!r}"
                )
        for name in ("panel_area_m2", "active_power_watts"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if not 0.0 <= self.sleep_power_watts < math.inf:
            raise ValueError(
                "sleep_power_watts must be finite and non-negative, "
                f"got {self.sleep_power_watts!r}"
            )
        if not self.supercap_threshold_joules >= 0.0:
            raise ValueError(
                "supercap_threshold_joules must be non-negative, "
                f"got {self.supercap_threshold_joules!r}"
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


def group_blocks(
    blocks: Sequence[Tuple[int, int]], missing: Sequence[int], jobs: Optional[int] = None
) -> List[List[int]]:
    """Group the missing blocks' indices into lock-step passes.

    Contiguous missing blocks pack greedily into passes of at most
    :data:`MAX_PASS_NODES` nodes; a block wider than that is a pass of
    its own, and a cached block between two missing ones ends a pass.
    The pass with the most blocks is then halved until there are at
    least ``min(jobs, len(missing))`` passes, so no worker idles.
    """
    passes: List[List[int]] = []
    width = 0
    for i in missing:
        size = blocks[i][1] - blocks[i][0]
        if passes and passes[-1][-1] == i - 1 and width + size <= MAX_PASS_NODES:
            passes[-1].append(i)
            width += size
        else:
            passes.append([i])
            width = size
    return split_widest(passes, min(jobs or 1, len(missing)))


def _run_block(plan: FleetPlan, start: int, stop: int, dtype: str) -> FleetAggregate:
    """Simulate nodes ``[start, stop)`` in one lock-step pass.

    Module-level so pools can pickle it.  The worker rebuilds exactly
    these nodes' specs from the plan -- traces come from the worker's
    own dataset memo, so consecutive passes of one worker share them --
    and returns the ``O(nodes)`` aggregate, cast to ``dtype`` for
    transport.
    """
    from repro.experiments.fleet import build_fleet_specs
    from repro.management.fleet import FleetSimulator

    specs = build_fleet_specs(plan, node_range=(start, stop))
    aggregate = FleetSimulator(specs, plan.n_slots).run_aggregate()
    if dtype != "float64":
        aggregate = aggregate.astype(np.dtype(dtype))
    return aggregate


def _block_key(cache: ResultCache, plan: FleetPlan, block: Tuple[int, int],
               dtype: str, identities: dict) -> str:
    """Key of one block's aggregate."""
    return cache.key({"plan": plan, "dtype": dtype, "datasets": identities,
                      "kind": "fleet-block", "block": list(block)})


def run_fleet_blocks(
    plan: FleetPlan,
    block_size: int = DEFAULT_BLOCK_SIZE,
    jobs: Optional[int] = None,
    backend: Optional[str] = None,
    cache: Optional[ResultCache] = None,
    dtype: str = "float64",
) -> Tuple[FleetAggregate, ExecutionStats]:
    """Run the planned fleet in sharded blocks; returns (aggregate, stats).

    Parameters
    ----------
    plan:
        The fleet (see :class:`FleetPlan`).
    block_size:
        Nodes per block: the checkpoint unit.  Uncached blocks of at
        most ``MAX_PASS_NODES // 2`` nodes share passes of up to
        :data:`MAX_PASS_NODES` nodes (see :func:`group_blocks`); a
        larger block is its own pass, so its size is also the lock-step
        width (and sets the pass's memory).
    jobs / backend:
        Executor policy (``None``/1 jobs = inline).  Nodes are
        independent, so sequential and parallel aggregates are
        byte-identical.
    cache:
        Optional result cache; completed passes checkpoint into it
        block by block, one entry per block, and a re-run resumes from
        them.  The stats count blocks.
    dtype:
        ``"float64"`` (default) or ``"float32"`` for half-width block
        metrics.
    """
    if dtype not in ("float64", "float32"):
        raise ValueError(f"dtype must be 'float64' or 'float32', got {dtype!r}")
    blocks = plan_blocks(plan.n_nodes, block_size)
    keys = None
    if cache is not None:
        identities = {site: dataset_identity(site) for site in plan.site_list()}
        keys = [_block_key(cache, plan, block, dtype, identities) for block in blocks]

    def passes(missing):
        return [
            (members, (plan, blocks[members[0]][0], blocks[members[-1]][1], dtype))
            for members in group_blocks(blocks, missing, jobs)
        ]

    def split(aggregate, members):
        return aggregate.split([blocks[i][1] - blocks[i][0] for i in members])

    from repro.solar.ingest.sites import install_measured_sites, measured_specs_for

    results, stats = execute_passes(
        _run_block,
        len(blocks),
        passes,
        split=split,
        cache=cache,
        keys=keys,
        jobs=jobs,
        backend=backend,
        initializer=install_measured_sites,
        initargs=(measured_specs_for(plan.site_list()),),
    )
    return FleetAggregate.concat(results), stats
