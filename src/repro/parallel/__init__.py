"""Shared parallel execution layer: executor, result cache, fleet shards.

Every parallel harness in the repo -- the experiment runner
(:mod:`repro.experiments.runner`), the robustness matrix
(:mod:`repro.experiments.robustness`) and the sharded fleet engine
(:mod:`repro.parallel.fleet`) -- dispatches the same shape of work:
a module-level function over small picklable unit specs, merged in
unit order.  This package owns that machinery once:

* :mod:`repro.parallel.executor` -- inline / thread / process
  backends, chunked dispatch, warm-worker initializers, stats, and
  the one cache path (one entry per unit, computed in wide passes).
* :mod:`repro.parallel.cache` -- content-addressed on-disk result
  cache (spec + dataset identity + code salt), which turns
  interrupted runs into resumable ones.
* :mod:`repro.parallel.fleet` -- fixed-size node blocks streaming a
  million-node fleet year through the executor with per-block
  checkpoints.

See ``src/repro/experiments/README.md`` ("Parallel architecture &
result cache") for the end-to-end picture.
"""

from repro.parallel.cache import (
    MISS,
    ResultCache,
    cache_key,
    dataset_identity,
    default_cache_dir,
    default_salt,
    file_fingerprint,
)
from repro.parallel.executor import (
    BACKENDS,
    DEFAULT_BACKEND,
    ExecutionStats,
    execute_units,
)
from repro.parallel.fleet import (
    DEFAULT_BLOCK_SIZE,
    FleetPlan,
    plan_blocks,
    run_fleet_blocks,
)

__all__ = [
    "MISS",
    "ResultCache",
    "cache_key",
    "dataset_identity",
    "default_cache_dir",
    "default_salt",
    "file_fingerprint",
    "BACKENDS",
    "DEFAULT_BACKEND",
    "ExecutionStats",
    "execute_units",
    "DEFAULT_BLOCK_SIZE",
    "FleetPlan",
    "plan_blocks",
    "run_fleet_blocks",
]
