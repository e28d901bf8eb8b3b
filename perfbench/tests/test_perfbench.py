"""Tests of the benchmark harness itself, at tiny input sizes.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import probe, run  # noqa: E402
from perfbench.stats import percentile  # noqa: E402
from perfbench.tracer import Tracer, install  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

#: Inputs small enough that a pass takes well under a second.
TINY = {
    "reproduce": dict(n_days=30),
    "matrix": dict(n_days=22, sites=("PFCI",)),
    "fleet": dict(n_nodes=48, block_size=16, n_days=3),
    "serve": dict(n_sites=12, rounds=2, warm_days=11),
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_of_every_workload(workload, tmp_path):
    """One untraced and one traced pass: outputs check, every metric prints."""
    measured = run.measure(workload, 7, seconds=0, trace=True, work_dir=tmp_path,
                           params=TINY[workload], min_passes=2)
    assert [p["traced"] for p in measured["passes"]] == [False, True]

    for p in measured["passes"]:
        assert p["wall_s"] == p["wall_cpu_s"] * p["wall_scale"] and p["wall_scale"] > 0
    untraced = run.summarize(measured, trace=False)
    assert untraced["correct"] and untraced["failed"] == 0
    assert untraced["attempted"] >= 2
    assert [name for name in untraced["metrics"]] == [n for n, _ in run.END_TO_END]
    assert all(entry["value"] > 0 for entry in untraced["metrics"].values())

    traced = run.summarize(measured, trace=True)
    assert list(traced["metrics"]) == [name for name, _ in run.PER_LAYER]
    assert 0.5 < traced["metrics"]["trace.coverage"]["value"] <= 1.0
    json.loads(json.dumps(untraced))


def test_corrupted_forecast_counts_as_failed(tmp_path):
    serve = WORKLOADS["serve"](**TINY["serve"])
    serve.prepare(tmp_path, 7)
    serve.prepare_pass(tmp_path, tmp_path)
    serve.setup(tmp_path, tmp_path, 7)
    loop = serve.run()
    assert serve.check(loop, 7).failed == 0

    index = next(i for i, line in enumerate(loop.lines) if '"forecast"' in line)
    response = json.loads(loop.responses[index])
    response["prediction"] += 1.0
    loop.responses[index] = json.dumps(response)
    check = serve.check(loop, 7)
    assert check.failed == 1 and check.attempted > 1


def test_failed_outputs_reach_the_result_line(tmp_path):
    fleet = WORKLOADS["fleet"](**TINY["fleet"])
    fleet.setup(tmp_path, tmp_path, 7)
    aggregate = fleet.run()
    aggregate.final_soc[3] = math.nan
    check = fleet.check(aggregate, 7)
    assert check.failed == 1

    passes = [
        {"traced": False, "setup_s": 0.2, "wall_s": 1.0, "peak_rss_mb": 50.0,
         "attempted": check.attempted, "failed": check.failed},
    ]
    summary = run.summarize({"passes": passes}, trace=False)
    assert summary["correct"] is False
    assert (summary["attempted"], summary["failed"]) == (check.attempted, 1)
    assert summary["metrics"]["wall_s"]["value"] == 1.0


def test_speed_scale_reads_the_kernels_of_the_window():
    ref = probe.REFERENCE_KERNEL_S
    calm = [(float(t), ref) for t in range(30)]
    slow = [(float(t), 2 * ref) for t in range(30, 60)]
    samples = calm + slow
    assert probe.speed_scale(samples, 0.0, 29.5) == pytest.approx(1.0)
    assert probe.speed_scale(samples, 30.0, 59.5) == pytest.approx(0.5)
    assert probe.speed_scale(samples, 20.0, 39.5) == pytest.approx(2 / 3)
    # Too short a window for MIN_WINDOW_SAMPLES kernels: the nearest ones.
    assert probe.speed_scale(samples, 45.0, 45.5) == pytest.approx(0.5)


@pytest.mark.parametrize("q,enough", [(50, 20), (90, 100), (99, 1000)])
def test_percentile_needs_ten_samples_beyond_it(q, enough):
    samples = [float(i) for i in range(enough)]
    assert percentile(samples, q) == samples[enough - 11]
    with pytest.raises(ValueError, match="need at least 10"):
        percentile(samples[:-1], q)


def test_tracer_patches_every_import_and_counts_both_digests(tmp_path):
    from repro.serve import service, state

    original = state.state_digest
    tracer = Tracer()
    install(tracer)
    try:
        assert service.state_digest is state.state_digest is not original
        forecaster = service.ForecastService(state_dir=tmp_path)
        forecaster.handle({"op": "register", "site": "SPMD"})
        for value in (0.0, 120.0, 340.5):
            assert forecaster.handle({"op": "observe", "site": "SPMD", "value": value})["ok"]
    finally:
        tracer.uninstall()
    assert state.state_digest is original and service.state_digest is original

    layers = tracer.layer_stats()
    assert tracer.counters["serve.digests"] == 2 * 3
    assert tracer.counters["serve.snapshots"] == 2 * 3
    assert layers["serve.checkpoint"]["calls"] == 3
    handle = layers["serve.handle"]
    assert handle["calls"] == 4 and handle["self"] < handle["busy"]


def test_layer_stats_busy_and_self():
    tracer = Tracer()
    inner = tracer.span("b", lambda: sum(range(1000)))
    recursive = tracer.span("a", lambda depth: recursive(depth - 1) if depth else inner())
    recursive(2)
    layers = tracer.layer_stats()
    assert layers["a"]["calls"] == 3 and layers["b"]["calls"] == 1
    outer = tracer.ends[0] - tracer.starts[0]
    assert layers["a"]["busy"] == pytest.approx(outer)
    assert layers["a"]["self"] + layers["b"]["self"] == pytest.approx(outer)
