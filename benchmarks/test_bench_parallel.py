"""Bench (extension): the shared parallel execution layer.

Three measurements, recorded into ``BENCH_parallel.json`` at the repo
root under ``REPRO_BENCH_RECORD=1`` (uploaded as a CI artifact):

* **run_all backends** -- the full experiment selection at a CI-sized
  trace length, sequential vs process pool vs thread pool, through the
  shared executor.  The >= 2x wall-clock bar applies on machines with
  >= 4 cores; backend, chunking and per-unit dispatch overhead are
  recorded either way.
* **Robustness resume** -- an "interrupted" matrix: 9 of the 10
  default scenarios pre-populate a result cache, then the full matrix
  re-runs against it.  Asserts >= 90% of cells hit and the resumed
  output is byte-identical to a fresh full run.
* **Sharded fleet** -- a 4096-node heterogeneous fleet month streamed
  through fixed-size node blocks.  Asserts the block partitioning is
  bitwise-invariant and its overhead vs one monolithic run is small;
  records node-slots/sec and the projected wall-clock of the 1M-node
  *year* the shards are sized for.  ``REPRO_BENCH_FLEET_1M=1`` runs
  that full configuration for real (hours -- checkpoint/resume via the
  cache is the point), block by block.
"""

import os
import time

import numpy as np

from conftest import record
from repro.experiments.common import clear_batch_cache
from repro.experiments.robustness import DEFAULT_SCENARIOS
from repro.experiments.robustness import run as run_robustness
from repro.experiments.runner import render_report, run_all
from repro.management.fleet import FleetAggregate
from repro.parallel import FleetPlan, ResultCache, run_fleet_blocks
from repro.solar.datasets import clear_cache as clear_trace_cache

IS_CI = bool(os.environ.get("CI"))
MIN_PARALLEL_SPEEDUP = 1.3 if IS_CI else 2.0

#: CI-sized run_all: long enough that unit work dominates dispatch,
#: short enough that three full runs stay cheap on one core.
RUN_ALL_DAYS = 120

ROBUSTNESS_KWARGS = dict(
    n_days=45, sites=("PFCI", "HSU"), seed=7, tune_wcma=False
)

#: The sharded fleet month: heterogeneous axes, 4 default-size blocks.
#: Blocks much smaller than the default pay the slot loop's fixed
#: Python cost once per block; at 4096 nodes a block's per-slot arrays
#: also still fit cache, so sharding tends to *beat* one monolithic
#: pass even before any parallelism.
FLEET_PLAN = FleetPlan(
    n_nodes=16384,
    sites=("SPMD",),
    n_days=30,
    predictors=("wcma", "ewma", "persistence"),
    controllers=("kansal", "fixed"),
    capacities=(250.0, 9000.0),
)
FLEET_BLOCK = 4096

#: The full-scale target the shards are sized for.
MILLION_PLAN = FleetPlan(
    n_nodes=1_000_000,
    sites=("SPMD",),
    n_days=365,
    predictors=("wcma", "ewma", "persistence"),
    controllers=("kansal", "fixed"),
    capacities=(250.0, 9000.0),
)


def _timed_run_all(**kwargs):
    clear_batch_cache()
    clear_trace_cache()
    stats = []
    start = time.perf_counter()
    results = run_all(n_days=RUN_ALL_DAYS, stats=stats, **kwargs)
    return results, time.perf_counter() - start, stats[0]


def test_bench_parallel_run_all_backends():
    """Sequential vs process vs thread on the same unit split."""
    jobs = 4
    cores = os.cpu_count() or 1

    sequential, seq_s, seq_stats = _timed_run_all()
    process, proc_s, proc_stats = _timed_run_all(jobs=jobs)
    threaded, thread_s, thread_stats = _timed_run_all(jobs=jobs, backend="thread")

    assert render_report(sequential) == render_report(process)
    assert render_report(sequential) == render_report(threaded)

    entry = {"n_days": RUN_ALL_DAYS, "jobs": jobs, "sequential_s": round(seq_s, 4)}
    for label, seconds, stats in (
        ("process", proc_s, proc_stats),
        ("thread", thread_s, thread_stats),
    ):
        entry[label] = {
            "seconds": round(seconds, 4),
            "speedup": round(seq_s / seconds, 2),
            "backend": stats.backend,
            "n_units": stats.n_units,
            "chunk_size": stats.chunk_size,
            "n_chunks": stats.n_chunks,
            "dispatch_s": round(stats.dispatch_s, 4),
            "dispatch_per_unit_s": round(stats.dispatch_per_unit_s, 6),
        }
    record("parallel", "run_all_backends", entry)
    print(
        f"\nrun_all({RUN_ALL_DAYS}d) backends: sequential {seq_s:.2f}s, "
        f"process {proc_s:.2f}s ({seq_s / proc_s:.2f}x), "
        f"thread {thread_s:.2f}s ({seq_s / thread_s:.2f}x) on {cores} core(s)"
    )
    assert seq_stats.backend == "inline"
    if cores >= jobs:
        speedup = seq_s / proc_s
        assert speedup >= MIN_PARALLEL_SPEEDUP, (
            f"expected >= {MIN_PARALLEL_SPEEDUP}x with {jobs} process "
            f"workers on {cores} cores, measured sequential {seq_s:.2f}s vs "
            f"parallel {proc_s:.2f}s = {speedup:.2f}x (dispatch "
            f"{proc_stats.dispatch_s:.3f}s over {proc_stats.n_chunks} chunks)"
        )


def test_bench_robustness_resume(tmp_path):
    """An interrupted matrix resumes: >= 90% cell hits, identical rows."""
    cache = ResultCache(tmp_path / "cache", salt="bench")
    partial_scenarios = DEFAULT_SCENARIOS[:-1]  # "interrupted" before the last
    run_robustness(
        scenarios=partial_scenarios, cache=cache, **ROBUSTNESS_KWARGS
    )

    stats = []
    start = time.perf_counter()
    resumed = run_robustness(cache=cache, stats=stats, **ROBUSTNESS_KWARGS)
    resumed_s = time.perf_counter() - start

    start = time.perf_counter()
    fresh = run_robustness(**ROBUSTNESS_KWARGS)
    fresh_s = time.perf_counter() - start

    hit_fraction = stats[0].cache_hits / stats[0].n_units
    print(
        f"\nRobustness resume: {stats[0].cache_hits}/{stats[0].n_units} "
        f"cells from cache ({100 * hit_fraction:.0f}%), resumed "
        f"{resumed_s:.2f}s vs fresh {fresh_s:.2f}s"
    )
    record(
        "parallel",
        "robustness_resume",
        {
            "n_days": ROBUSTNESS_KWARGS["n_days"],
            "sites": list(ROBUSTNESS_KWARGS["sites"]),
            "n_cells": stats[0].n_units,
            "cache_hits": stats[0].cache_hits,
            "hit_fraction": round(hit_fraction, 3),
            "resumed_s": round(resumed_s, 4),
            "fresh_s": round(fresh_s, 4),
        },
    )
    assert hit_fraction >= 0.9, (
        "resume should serve >= 90% of cells from cache, got "
        f"{stats[0].cache_hits}/{stats[0].n_units}"
    )
    assert resumed.rows == fresh.rows
    assert resumed.render() == fresh.render()


def test_bench_fleet_sharded():
    """Blocked fleet month: bitwise partition invariance, flat overhead."""
    start = time.perf_counter()
    monolithic, _ = run_fleet_blocks(FLEET_PLAN, block_size=FLEET_PLAN.n_nodes)
    monolithic_s = time.perf_counter() - start

    start = time.perf_counter()
    sharded, stats = run_fleet_blocks(FLEET_PLAN, block_size=FLEET_BLOCK)
    sharded_s = time.perf_counter() - start

    assert sharded.node_names == monolithic.node_names
    for name in FleetAggregate._FLOAT_FIELDS:
        assert np.array_equal(getattr(sharded, name), getattr(monolithic, name)), name

    node_slots = sharded.n_nodes * sharded.total_slots
    rate = node_slots / sharded_s
    overhead = sharded_s / monolithic_s - 1.0
    million_slots = MILLION_PLAN.n_nodes * MILLION_PLAN.n_days * MILLION_PLAN.n_slots
    projected_hours = million_slots / rate / 3600.0
    print(
        f"\nSharded fleet: {sharded.n_nodes} nodes x {sharded.total_slots} "
        f"slots in {stats.n_units} blocks of {FLEET_BLOCK}: {sharded_s:.2f}s "
        f"({rate:,.0f} node-slots/sec, {100 * overhead:+.1f}% vs monolithic); "
        f"projected 1M-node year: {projected_hours:.1f}h on one core"
    )
    record(
        "parallel",
        "fleet_sharded",
        {
            "n_nodes": FLEET_PLAN.n_nodes,
            "n_days": FLEET_PLAN.n_days,
            "block_size": FLEET_BLOCK,
            "n_blocks": stats.n_units,
            "node_slots": node_slots,
            "monolithic_s": round(monolithic_s, 4),
            "sharded_s": round(sharded_s, 4),
            "sharding_overhead": round(overhead, 4),
            "node_slots_per_sec": round(rate),
            "projected_1m_node_year_hours": round(projected_hours, 2),
        },
    )
    # Fixed-size blocks are a memory/checkpoint knob, not a tax: the
    # same month in 4 blocks must cost within 25% of one monolithic run
    # (measured: it usually *wins*, the block's arrays fit cache).
    assert overhead < 0.25, (
        f"sharding cost {100 * overhead:.1f}% over monolithic "
        f"({sharded_s:.2f}s vs {monolithic_s:.2f}s)"
    )


def test_bench_fleet_million_node_year(tmp_path):
    """The full 1M-node fleet year, block by block, checkpointed.

    Hours of work -- opt in with ``REPRO_BENCH_FLEET_1M=1``.  The cache
    makes it resumable: re-running after an interruption (or flipping
    ``REPRO_SOLAR_CACHE_DIR`` to a persistent path) only computes the
    missing blocks.
    """
    import pytest

    if not os.environ.get("REPRO_BENCH_FLEET_1M"):
        pytest.skip("set REPRO_BENCH_FLEET_1M=1 to run the 1M-node year")

    cache_dir = os.environ.get("REPRO_SOLAR_CACHE_DIR") or str(tmp_path / "cache")
    cache = ResultCache(cache_dir)
    jobs = max(1, (os.cpu_count() or 1) - 1)
    start = time.perf_counter()
    aggregate, stats = run_fleet_blocks(
        MILLION_PLAN, jobs=jobs, cache=cache, dtype="float32"
    )
    elapsed = time.perf_counter() - start
    node_slots = aggregate.n_nodes * aggregate.total_slots
    record(
        "parallel",
        "fleet_million_node_year",
        {
            "n_nodes": aggregate.n_nodes,
            "total_slots": aggregate.total_slots,
            "jobs": stats.jobs,
            "backend": stats.backend,
            "n_blocks": stats.n_units,
            "cache_hits": stats.cache_hits,
            "seconds": round(elapsed, 1),
            "node_slots_per_sec": round(node_slots / elapsed),
            "summary": {
                k: (round(v, 6) if isinstance(v, float) else v)
                for k, v in aggregate.summary().items()
            },
        },
    )
    assert aggregate.n_nodes == 1_000_000
