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
  auto chunk size targets ~4 chunks per worker for load balance.
* **Warm workers** -- an ``initializer`` runs once per worker before
  any unit, re-installing per-process registries (measured sites) and
  optionally pre-building per-worker trace/batch caches, so the first
  unit of every worker does not pay a cold start.
* **Thread backend** -- for workloads dominated by numpy kernels that
  release the GIL, ``backend="thread"`` gets parallelism without any
  fork/pickle cost (and shares the parent's caches for free).
* **Result cache** -- with a :class:`~repro.parallel.cache.ResultCache`
  and per-unit digest keys, cached units never reach the pool and
  fresh results are written back as they complete, which is what makes
  interrupted runs *resume* instead of recompute.
* **Passes** -- :func:`execute_passes` separates the checkpoint grain
  from the compute grain: units are cached one by one, but the missing
  ones run grouped into wide passes (a lock-step fleet pass over many
  node blocks, one kernel slab over many matrix cells), and each pass's
  output is split back into per-unit entries as it completes.

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
    "Timed",
    "execute_passes",
    "execute_units",
    "run_units",
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
    #: Optional per-stage unit-work seconds (e.g. the learned slabs'
    #: features/refit/predict split), summed over the passes that ran
    #: and returned a :class:`Timed`.  ``None`` when none did.
    stage_seconds: Optional[dict] = None

    @property
    def dispatch_per_unit_s(self) -> float:
        """Dispatch overhead amortised per executed unit."""
        executed = self.n_units - self.cache_hits
        return self.dispatch_s / executed if executed else 0.0

    def as_dict(self) -> dict:
        payload = asdict(self)
        payload["dispatch_per_unit_s"] = round(self.dispatch_per_unit_s, 6)
        if self.stage_seconds is None:
            payload.pop("stage_seconds")
        else:
            payload["stage_seconds"] = {
                stage: round(seconds, 6)
                for stage, seconds in self.stage_seconds.items()
            }
        return payload


@dataclass(frozen=True)
class Timed:
    """A pass's output plus the seconds its work spent per stage.

    Returned by a pass function whose kernels time their own stages
    (the learned slabs' features/refit/predict): :func:`execute_passes`
    caches and splits only ``value`` -- so an entry stays a function of
    its key -- and sums ``stage_seconds`` into the run's
    :attr:`ExecutionStats.stage_seconds`.
    """

    value: object
    stage_seconds: dict


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
    chunk_size: Optional[int] = None,
    initializer: Optional[Callable] = None,
    initargs: tuple = (),
    cache: Optional[ResultCache] = None,
    keys: Optional[Sequence[Optional[str]]] = None,
    on_result: Optional[Callable[[int, object], None]] = None,
) -> Tuple[list, ExecutionStats]:
    """Run ``fn(*unit)`` for every unit; results in unit order.

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
    chunk_size:
        Units per submit (default: auto, ~4 chunks per worker).
    initializer / initargs:
        Per-worker warm-up hook (process and thread backends).
    cache / keys:
        Optional result cache and one digest key per unit (``None``
        entries are uncacheable).  Hits skip execution entirely;
        misses are written back as they complete.  A cached call is
        :func:`execute_passes` with one unit per pass.
    on_result:
        Optional ``on_result(i, result)`` hook of an uncached call,
        run in the calling thread as each unit completes.

    Returns
    -------
    (results, stats):
        Results in unit order and the :class:`ExecutionStats` record.
    """
    if cache is not None and keys is not None:
        if on_result is not None:
            raise ValueError("on_result is only for uncached calls")
        return execute_passes(
            fn, len(units), lambda missing: [([i], units[i]) for i in missing],
            cache=cache, keys=keys, jobs=jobs, backend=backend,
            chunk_size=chunk_size, initializer=initializer, initargs=initargs,
        )
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

    size = chunk_size or _auto_chunk_size(n_units, effective_jobs)
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
    pass_key: Optional[Callable[[Sequence[int]], str]] = None,
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
    3. serves a multi-unit pass from its own entry when one is cached
       (``pass_key(members)``, a key that names the members);
    4. runs the other passes through :func:`execute_units` (``policy``
       is its jobs/backend/chunk_size/initializer/initargs).  As each
       pass completes, a one-unit pass's output is cached under its
       unit key.  A multi-unit pass's output is cached under its pass
       key first (unless ``pass_key`` is ``None``), then cut by
       ``split(output, members)`` into member values (in ``members``
       order), each cached under its unit key.

    A kill therefore loses at most the passes in flight.  A pass killed
    after its pass entry was stored but before any member entry was
    resumes from the pass entry without running again; once some member
    entries exist, the missing rest regroups under another pass key and
    runs again.  Pass entries stay on disk beside their members' entries
    (a second copy of those values) and are read only by such a resume;
    a caller whose split is cheap to redo passes ``pass_key=None`` and
    writes no second copy.  A pass output may be a :class:`Timed`, of
    which only the value is cached.  The stats count units, not passes:
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
    hits = n_units - len(missing)
    passes = list(group(missing))
    if sorted(i for members, _ in passes for i in members) != missing:
        raise ValueError("passes must cover every missing unit exactly once")

    def store_members(members: Sequence[int], output) -> None:
        """Record a pass's member values, caching each under its unit key."""
        parts = [output] if len(members) == 1 else split(output, members)
        for i, value in zip(members, parts):
            values[i] = value
            if cached and keys[i] is not None:
                cache.put(keys[i], value)

    todo = []
    for members, args in passes:
        multi = cached and pass_key is not None and len(members) > 1
        key = pass_key(members) if multi else None
        if key is not None:
            output = cache.get(key)
            if output is not MISS:  # a pass killed before its split
                store_members(members, output)
                hits += len(members)
                continue
        todo.append((members, args, key))

    stage_totals: dict = {}

    def on_result(j: int, output) -> None:
        members, _, key = todo[j]
        if isinstance(output, Timed):
            for stage, seconds in output.stage_seconds.items():
                stage_totals[stage] = stage_totals.get(stage, 0.0) + seconds
            output = output.value
        if key is not None:
            cache.put(key, output)
        store_members(members, output)

    _, stats = execute_units(
        fn, [args for _, args, _ in todo], on_result=on_result, **policy
    )
    stats = replace(
        stats,
        n_units=n_units,
        cache_hits=hits,
        cache_misses=n_units - hits,
        elapsed_s=time.perf_counter() - t_start,
        stage_seconds=stage_totals or None,
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


def run_units(fn: Callable, units: Sequence[tuple], **kwargs) -> list:
    """:func:`execute_units` without the stats record."""
    results, _ = execute_units(fn, units, **kwargs)
    return results
