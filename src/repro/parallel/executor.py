"""Shared work-unit executor: inline / thread / process backends.

Every parallel harness in the repo dispatches the same shape of work: a
module-level function applied to a list of small picklable argument
tuples (**unit specs** -- names and primitive parameters, never
arrays), whose results merge in unit order.  This module centralises
the execution policy those harnesses used to duplicate:

* **Inline short-circuit** -- ``jobs`` of ``None``/1, a single pending
  unit, or ``backend="inline"`` runs in-process with zero pool
  overhead (a process pool costs ~100 ms of fixed start-up plus a
  fork+pickle per submit; spawning one for one unit is pure loss).
* **Chunked dispatch** -- units are batched into chunks so one submit
  (one pickle round-trip, one future) covers many small units; the
  chunk size targets ~4 chunks per worker for load balance.
* **Warm workers** -- an ``initializer`` runs once per worker before
  any unit, re-installing per-process registries (measured sites), so
  a spawned worker resolves the same names as the parent.
* **Thread backend** -- for workloads dominated by numpy kernels that
  release the GIL, ``backend="thread"`` gets parallelism without any
  fork/pickle cost (and shares the parent's caches for free).
* **Passes and the result cache** -- :func:`execute_passes` is the one
  cache path, and it separates the checkpoint grain from the compute
  grain: each unit is one entry of a
  :class:`~repro.parallel.cache.ResultCache` under its own digest key,
  but the missing units run grouped into wide passes (a lock-step fleet
  pass over many node blocks, one kernel slab over many matrix cells),
  and each pass's output is split back into its units' entries as it
  completes.  Cached units never reach the pool, which is what makes
  interrupted runs *resume* instead of recompute.
  :func:`execute_units` is the uncached dispatcher under it.

Results always come back in unit order, whatever the backend, chunking
or completion order -- sequential and parallel output stay
byte-identical by construction.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from typing import Callable, List, Optional, Sequence, Tuple

from repro.parallel.cache import MISS, ResultCache

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "ExecutionStats",
    "execute_passes",
    "execute_units",
    "split_widest",
]

#: Supported execution backends.
BACKENDS = ("process", "thread", "inline")

DEFAULT_BACKEND = "process"


@dataclass
class ExecutionStats:
    """How one ``execute_units`` call actually ran (for benchmarks/CLI)."""

    backend: str
    jobs: int
    n_units: int
    cache_hits: int
    cache_misses: int
    chunk_size: int
    n_chunks: int
    dispatch_s: float  #: submit + collect overhead, excl. inline unit work
    elapsed_s: float

    @property
    def dispatch_per_unit_s(self) -> float:
        """Dispatch overhead amortised per executed unit."""
        executed = self.n_units - self.cache_hits
        return self.dispatch_s / executed if executed else 0.0

    def as_dict(self) -> dict:
        payload = asdict(self)
        payload["dispatch_per_unit_s"] = round(self.dispatch_per_unit_s, 6)
        return payload


def _run_chunk(fn: Callable, chunk: List[tuple]) -> list:
    """Execute one batch of units in a worker (module-level: picklable)."""
    return [fn(*args) for args in chunk]


def _auto_chunk_size(n_units: int, jobs: int) -> int:
    """~4 chunks per worker: coarse enough to amortise dispatch, fine
    enough that one slow chunk cannot serialise the tail."""
    return max(1, -(-n_units // (jobs * 4)))


def execute_units(
    fn: Callable,
    units: Sequence[tuple],
    *,
    jobs: Optional[int] = None,
    backend: Optional[str] = None,
    initializer: Optional[Callable] = None,
    initargs: tuple = (),
    on_result: Optional[Callable[[int, object], None]] = None,
) -> Tuple[list, ExecutionStats]:
    """Run ``fn(*unit)`` for every unit, uncached; results in unit order.

    Parameters
    ----------
    fn:
        Module-level callable (process backend pickles it by reference).
    units:
        Argument tuples -- small picklable specs, never arrays.
    jobs:
        Worker count; ``None``/1 runs inline.
    backend:
        One of :data:`BACKENDS` (default ``"process"``).  ``"thread"``
        suits numpy-heavy units that release the GIL; ``"inline"``
        forces in-process execution at any ``jobs``.
    initializer / initargs:
        Per-worker warm-up hook (process and thread backends).
    on_result:
        Optional ``on_result(i, result)`` hook, run in the calling
        thread as each unit completes.

    Returns
    -------
    (results, stats):
        Results in unit order and the :class:`ExecutionStats` record.
    """
    backend = backend if backend is not None else DEFAULT_BACKEND
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; available: {BACKENDS}")
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    t_start = time.perf_counter()
    n_units = len(units)
    results: List[object] = [None] * n_units

    def _store(i: int, value) -> None:
        results[i] = value
        if on_result is not None:
            on_result(i, value)

    effective_jobs = 1 if jobs is None else min(jobs, max(1, n_units))
    if backend == "inline" or effective_jobs == 1 or n_units <= 1:
        for i, args in enumerate(units):
            _store(i, fn(*args))
        stats = ExecutionStats(
            backend="inline",
            jobs=1,
            n_units=n_units,
            cache_hits=0,
            cache_misses=n_units,
            chunk_size=n_units or 1,
            n_chunks=1 if units else 0,
            dispatch_s=0.0,
            elapsed_s=time.perf_counter() - t_start,
        )
        return results, stats

    size = _auto_chunk_size(n_units, effective_jobs)
    starts = range(0, n_units, size)
    pool_cls = ProcessPoolExecutor if backend == "process" else ThreadPoolExecutor
    pool_kwargs = {}
    if initializer is not None:
        pool_kwargs.update(initializer=initializer, initargs=initargs)

    dispatch = 0.0
    with pool_cls(max_workers=effective_jobs, **pool_kwargs) as pool:
        t0 = time.perf_counter()
        futures = [
            pool.submit(_run_chunk, fn, list(units[start:start + size]))
            for start in starts
        ]
        dispatch += time.perf_counter() - t0
        for start, future in zip(starts, futures):
            values = future.result()
            t0 = time.perf_counter()
            for i, value in enumerate(values, start):
                _store(i, value)
            dispatch += time.perf_counter() - t0

    stats = ExecutionStats(
        backend=backend,
        jobs=effective_jobs,
        n_units=n_units,
        cache_hits=0,
        cache_misses=n_units,
        chunk_size=size,
        n_chunks=len(starts),
        dispatch_s=dispatch,
        elapsed_s=time.perf_counter() - t_start,
    )
    return results, stats


def execute_passes(
    fn: Callable,
    n_units: int,
    group: Callable[[List[int]], Sequence[Tuple[Sequence[int], tuple]]],
    *,
    split: Optional[Callable[[object, Sequence[int]], list]] = None,
    cache: Optional[ResultCache] = None,
    keys: Optional[Sequence[Optional[str]]] = None,
    **policy,
) -> Tuple[list, ExecutionStats]:
    """Run ``n_units`` units in caller-grouped passes, cached per unit.

    A **unit** is the checkpoint grain: its value is cached under
    ``keys[i]`` (``None`` keys are uncacheable).  A **pass** is the
    compute grain: ``fn(*args)`` computes every one of its member units
    at once.  The helper

    1. looks up every unit's key;
    2. hands the (ascending) indices of the missing units to ``group``,
       which returns ``(members, args)`` passes covering each of them
       exactly once;
    3. runs the passes through :func:`execute_units` (``policy`` is its
       jobs/backend/initializer/initargs).  As each pass completes, its
       output -- cut by ``split(output, members)`` into member values,
       in ``members`` order, when it has several members -- is cached
       one entry per unit, under the unit's key.

    The cache therefore holds exactly one entry per unit, and a kill
    loses at most the passes in flight: a pass killed before all of its
    member entries were written runs again on resume (its missing
    members regroup into new passes), just as if the kill had come
    while it ran.  The stats count units, not passes:
    ``cache_hits + cache_misses == n_units``.
    """
    t_start = time.perf_counter()
    cached = cache is not None and keys is not None
    if cached and len(keys) != n_units:
        raise ValueError(f"got {len(keys)} cache keys for {n_units} units")
    values: List[object] = [None] * n_units
    missing: List[int] = []
    for i in range(n_units):
        key = keys[i] if cached else None
        value = cache.get(key) if key is not None else MISS
        if value is MISS:
            missing.append(i)
        else:
            values[i] = value
    passes = list(group(missing))
    if sorted(i for members, _ in passes for i in members) != missing:
        raise ValueError("passes must cover every missing unit exactly once")

    def on_result(j: int, output) -> None:
        """Record a pass's member values, caching each under its unit key."""
        members = passes[j][0]
        parts = [output] if len(members) == 1 else split(output, members)
        for i, value in zip(members, parts):
            values[i] = value
            if cached and keys[i] is not None:
                cache.put(keys[i], value)

    _, stats = execute_units(
        fn, [args for _, args in passes], on_result=on_result, **policy
    )
    stats = replace(
        stats,
        n_units=n_units,
        cache_hits=n_units - len(missing),
        cache_misses=len(missing),
        elapsed_s=time.perf_counter() - t_start,
    )
    return values, stats


def split_widest(passes: List[List[int]], count: int) -> List[List[int]]:
    """Halve the pass with the most units until there are ``count`` passes.

    The grouping callbacks of :func:`execute_passes` call this with
    ``min(jobs, len(missing))``, so no worker idles while another runs a
    wide pass.  Halves keep their unit order.
    """
    while len(passes) < count:
        widest = max(range(len(passes)), key=lambda j: len(passes[j]))
        members = passes[widest]
        half = len(members) // 2
        passes[widest:widest + 1] = [members[:half], members[half:]]
    return passes
