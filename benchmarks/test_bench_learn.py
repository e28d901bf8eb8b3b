"""Bench (extension): the learned-tier fast path.

Two measurements, recorded into ``BENCH_learn.json`` at the repo root
under ``REPRO_BENCH_RECORD=1`` (uploaded as a CI artifact beside
``BENCH_parallel.json``):

* **Batched refit kernels** -- ``fit_model_batch`` (the stacked ridge
  solve and cross-node GBM stump search) vs the frozen per-node scalar
  loop from the ``tests.oracles.learn`` oracle, over a grid of fleet
  shapes.
  The gate applies at the early-window fleet refit shape (``B=64``
  nodes, ``n=96`` rows -- two 48-slot days): the GBM kernel and the
  combined ridge+GBM refit must both clear
  :data:`MIN_REFIT_SPEEDUP`; the steady-state 60-day window (``n=2880``)
  is recorded honestly (its speedup is smaller -- the per-node loop is
  already matmul-bound there) but not gated.
* **Matrix throughput** -- the learned robustness slice, column-stacked
  (one B-cell :class:`~repro.learn.predictor.LearnedKernel` slab per
  predictor) vs the per-cell scalar path it replaced, with learned
  cells/sec and the kernel's features/refit/predict stage split.

Both paths are bitwise-identical by construction (pinned in
``tests/learn/test_fast_path.py`` and the goldens), so everything here
is pure wall-clock.
"""

import os
import time

import numpy as np

from conftest import record
from repro.experiments import robustness
from repro.learn.features import N_FEATURES
from repro.learn.models import TrainingConfig, fit_model_batch, unstack_params
from tests.oracles.learn import fit_model_reference

IS_CI = bool(os.environ.get("CI"))
#: The ISSUE gate: >= 5x batched-vs-loop refit at the fleet shape.
#: Softened on shared CI runners the same way the parallel bench is.
MIN_REFIT_SPEEDUP = 3.0 if IS_CI else 5.0

#: (B nodes, n window rows) refit shapes.  (64, 96) is the gated fleet
#: shape: a 64-node fleet's first online refit after ``min_train_days``
#: worth of 48-slot days.  (64, 2880) is the steady-state 60-day window.
REFIT_SHAPES = ((64, 96), (256, 96), (64, 2880))
GATE_SHAPE = (64, 96)

MATRIX_KWARGS = dict(
    n_days=45,
    sites=("PFCI", "HSU"),
    scenarios=("dropout", "regime-shift", "jitter"),
    predictors=("ridge", "gbm"),
    seed=7,
    tune_wcma=False,
)


def _refit_window(B, n, seed=12345):
    """A stacked training window shaped like the online kernel's."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, size=(n, B, N_FEATURES))
    X *= rng.uniform(0.5, 60.0, size=(1, 1, N_FEATURES))
    y = rng.uniform(0.0, 900.0, size=(n, B))
    return X, y


def _time_refit(kind, X, y, config, repeats=3):
    """Best-of-``repeats`` seconds for batched and per-node-loop refits.

    The loop reseeds per node from ``(seed, fit_count)``, exactly what
    a dedicated single-node kernel would draw, which is what makes the
    two bitwise-comparable in the first place.
    """
    B = X.shape[1]
    batched_s = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        batched = fit_model_batch(
            kind, X, y, config, np.random.default_rng([config.seed, 0])
        )
        batched_s = min(batched_s, time.perf_counter() - start)
    loop_s = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        loop = [
            fit_model_reference(
                kind, X[:, b, :], y[:, b], config,
                np.random.default_rng([config.seed, 0]),
            )
            for b in range(B)
        ]
        loop_s = min(loop_s, time.perf_counter() - start)
    return batched, loop, batched_s, loop_s


def test_bench_learn_refit_speedup():
    """Batched refit kernels vs the scalar loop, gated at B=64, n=96."""
    config = TrainingConfig()
    entry = {"shapes": {}, "gate_shape": list(GATE_SHAPE)}
    gate = {}
    for B, n in REFIT_SHAPES:
        X, y = _refit_window(B, n)
        shape_entry = {}
        # Best-of-3 where the gate needs a stable number; the
        # recorded-only shapes get one (slow, honest) measurement.
        repeats = 3 if (B, n) == GATE_SHAPE else 1
        for kind in ("ridge", "gbm"):
            batched, loop, batched_s, loop_s = _time_refit(
                kind, X, y, config, repeats=repeats
            )
            if (B, n) == GATE_SHAPE:
                # The speedup claim only means anything if the two
                # paths compute the same fit -- spot-check it here too.
                for b in range(0, B, 16):
                    got = unstack_params(batched, b)
                    for key, value in loop[b].items():
                        assert np.array_equal(got[key], value), (kind, b, key)
                gate[kind] = (batched_s, loop_s)
            shape_entry[kind] = {
                "batched_s": round(batched_s, 5),
                "loop_s": round(loop_s, 5),
                "batched_per_node_ms": round(1e3 * batched_s / B, 4),
                "speedup": round(loop_s / batched_s, 2),
            }
            print(
                f"\nrefit {kind} B={B} n={n}: batched {batched_s * 1e3:.1f}ms "
                f"vs loop {loop_s * 1e3:.1f}ms = {loop_s / batched_s:.2f}x"
            )
        entry["shapes"][f"B{B}_n{n}"] = shape_entry

    gbm_speedup = gate["gbm"][1] / gate["gbm"][0]
    combined_speedup = (gate["ridge"][1] + gate["gbm"][1]) / (
        gate["ridge"][0] + gate["gbm"][0]
    )
    entry["gate"] = {
        "min_speedup": MIN_REFIT_SPEEDUP,
        "gbm_speedup": round(gbm_speedup, 2),
        "combined_speedup": round(combined_speedup, 2),
    }
    record("learn", "refit_speedup", entry)
    B, n = GATE_SHAPE
    assert gbm_speedup >= MIN_REFIT_SPEEDUP, (
        f"batched GBM refit at B={B}, n={n} is {gbm_speedup:.2f}x the "
        f"scalar loop; the gate is >= {MIN_REFIT_SPEEDUP}x"
    )
    assert combined_speedup >= MIN_REFIT_SPEEDUP, (
        f"combined ridge+GBM refit at B={B}, n={n} is "
        f"{combined_speedup:.2f}x the scalar loop; the gate is "
        f">= {MIN_REFIT_SPEEDUP}x"
    )


def test_bench_learn_matrix_throughput():
    """Column-stacked learned slabs vs the per-cell path they replace."""
    stats = []
    start = time.perf_counter()
    stacked = robustness.run(stats=stats, **MATRIX_KWARGS)
    stacked_s = time.perf_counter() - start

    # The pre-stacking baseline: force every learned predictor through
    # the per-cell scalar path by emptying the stacked set.
    original = robustness.STACKED_MATRIX_PREDICTORS
    robustness.STACKED_MATRIX_PREDICTORS = ()
    try:
        start = time.perf_counter()
        per_cell = robustness.run(**MATRIX_KWARGS)
        per_cell_s = time.perf_counter() - start
    finally:
        robustness.STACKED_MATRIX_PREDICTORS = original

    assert stacked.rows == per_cell.rows, (
        "stacked and per-cell learned matrices must be byte-identical"
    )
    n_cells = sum(
        1
        for row in stacked.rows
        if row["predictor"] in robustness.STACKED_MATRIX_PREDICTORS
    )
    stages = stats[0].stage_seconds or {}
    print(
        f"\nlearned matrix ({n_cells} cells): stacked {stacked_s:.2f}s "
        f"({n_cells / stacked_s:.2f} cells/s) vs per-cell {per_cell_s:.2f}s "
        f"= {per_cell_s / stacked_s:.2f}x; stages "
        + ", ".join(f"{k}={v:.2f}s" for k, v in sorted(stages.items()))
    )
    record(
        "learn",
        "matrix_throughput",
        {
            "n_days": MATRIX_KWARGS["n_days"],
            "sites": list(MATRIX_KWARGS["sites"]),
            "n_learned_cells": n_cells,
            "stacked_s": round(stacked_s, 4),
            "per_cell_s": round(per_cell_s, 4),
            "speedup": round(per_cell_s / stacked_s, 2),
            "cells_per_sec": round(n_cells / stacked_s, 3),
            "stage_seconds": {k: round(v, 4) for k, v in stages.items()},
        },
    )
    assert n_cells == 16  # 2 sites x 4 scenarios (clean included) x 2 models
