"""Bench (extension): the always-on forecast service.

Measures the serve layer end to end and records the numbers into
``BENCH_serve.json`` at the repo root under ``REPRO_BENCH_RECORD=1``
(uploaded as a CI artifact):

* **Query throughput** -- hundreds of logical sites (``node-NNN``
  backed by the six synthetic datasets via the register op's
  ``dataset`` alias) are registered, warmed up with a replay, then
  driven through ``ForecastService.handle`` with a full JSON round
  trip per request -- the serialisation cost every transport
  (stdin-JSONL, HTTP) pays.  Asserts a conservative queries/sec floor.
* **Durable observe** -- the same observe stream against a state
  store at ``checkpoint_every=1`` (every slot written to its own
  atomic checkpoint, temp file + ``os.replace`` without fsync -- the
  always-on-node setting) and at a batched interval, recording the
  checkpoint overhead, then verifies a fresh service resumes every
  node at the full observed count.
"""

import json
import os
import time

from conftest import record
from repro.serve import ForecastService
from repro.solar.sites import SITE_ORDER

IS_CI = bool(os.environ.get("CI"))

#: Logical fleet size: hundreds of per-node predictors sharing the six
#: synthetic datasets through the register op's ``dataset`` alias.
N_SITES = 300
WARMUP_DAYS = 2
QUERY_ROUNDS = 10  # observe+forecast pairs per site in the timed loop

#: Conservative floors -- the measured rates are orders of magnitude
#: higher; these only catch catastrophic regressions (an accidental
#: O(sites) scan per request, state digests gone quadratic, ...).
MIN_QUERY_QPS = 300 if IS_CI else 1000
MIN_DURABLE_QPS = 30 if IS_CI else 60

#: Durable-observe leg: small enough that per-slot atomic writes (one
#: temp file + rename each) stay a few hundred IOs.
N_DURABLE_SITES = 40
DURABLE_ROUNDS = 5


def _query(service, request):
    """One request through handle() with the transport's JSON round trip."""
    response = service.handle(json.loads(json.dumps(request)))
    json.dumps(response)
    return response


def _register_fleet(service, n_sites):
    for i in range(n_sites):
        r = _query(
            service,
            {
                "op": "register",
                "site": f"node-{i:03d}",
                "dataset": SITE_ORDER[i % len(SITE_ORDER)],
            },
        )
        assert r["ok"], r


def test_bench_serve_query_throughput():
    """Mixed observe/forecast load over a replay-warmed logical fleet."""
    service = ForecastService(n_slots=48)

    start = time.perf_counter()
    _register_fleet(service, N_SITES)
    register_s = time.perf_counter() - start

    start = time.perf_counter()
    samples = 0
    for i in range(N_SITES):
        r = _query(
            service,
            {"op": "replay", "site": f"node-{i:03d}", "days": WARMUP_DAYS},
        )
        assert r["ok"], r
        samples += r["samples"]
    replay_s = time.perf_counter() - start

    start = time.perf_counter()
    queries = 0
    for round_no in range(QUERY_ROUNDS):
        for i in range(N_SITES):
            site = f"node-{i:03d}"
            obs = _query(
                service,
                {"op": "observe", "site": site,
                 "value": float((i + round_no) % 11) * 40.0},
            )
            fc = _query(service, {"op": "forecast", "site": site})
            assert obs["ok"] and fc["ok"]
            assert fc["prediction"] == obs["prediction"]
            queries += 2
    query_s = time.perf_counter() - start
    qps = queries / query_s

    print(
        f"\nServe load: {N_SITES} sites registered in {register_s:.2f}s, "
        f"{samples} replay samples in {replay_s:.2f}s "
        f"({samples / replay_s:,.0f}/s), {queries} queries in "
        f"{query_s:.2f}s ({qps:,.0f} qps)"
    )
    record(
        "serve",
        "query_throughput",
        {
            "n_sites": N_SITES,
            "warmup_days": WARMUP_DAYS,
            "register_s": round(register_s, 4),
            "replay_samples": samples,
            "replay_samples_per_sec": round(samples / replay_s),
            "queries": queries,
            "queries_per_sec": round(qps),
        },
    )
    assert qps >= MIN_QUERY_QPS, (
        f"serve throughput collapsed: {qps:,.0f} qps < {MIN_QUERY_QPS}"
    )


def test_bench_serve_durable_observe(tmp_path):
    """Observe throughput with per-slot vs batched checkpointing."""
    rates = {}
    for label, every in (("every_slot", 1), ("every_25", 25)):
        service = ForecastService(
            n_slots=48, state_dir=tmp_path / label, checkpoint_every=every
        )
        _register_fleet(service, N_DURABLE_SITES)
        start = time.perf_counter()
        for round_no in range(DURABLE_ROUNDS):
            for i in range(N_DURABLE_SITES):
                r = _query(
                    service,
                    {"op": "observe", "site": f"node-{i:03d}",
                     "value": float(round_no) * 25.0},
                )
                assert r["ok"], r
        elapsed = time.perf_counter() - start
        rates[label] = N_DURABLE_SITES * DURABLE_ROUNDS / elapsed
        service.checkpoint_all()

        # A fresh service must resume every node at the full count.
        resumed = ForecastService(n_slots=48, state_dir=tmp_path / label)
        for i in range(N_DURABLE_SITES):
            reg = resumed.handle({"op": "register", "site": f"node-{i:03d}",
                                  "dataset": SITE_ORDER[i % len(SITE_ORDER)]})
            assert reg["observed"] == DURABLE_ROUNDS, reg

    overhead = rates["every_25"] / rates["every_slot"]
    print(
        f"\nDurable observe: {rates['every_slot']:,.0f} qps at "
        f"checkpoint_every=1 vs {rates['every_25']:,.0f} qps batched "
        f"({overhead:.1f}x)"
    )
    record(
        "serve",
        "durable_observe",
        {
            "n_sites": N_DURABLE_SITES,
            "observes_per_site": DURABLE_ROUNDS,
            "qps_checkpoint_every_1": round(rates["every_slot"]),
            "qps_checkpoint_every_25": round(rates["every_25"]),
            "batching_speedup": round(overhead, 2),
        },
    )
    assert rates["every_slot"] >= MIN_DURABLE_QPS, (
        f"durable observe collapsed: {rates['every_slot']:,.0f} qps "
        f"< {MIN_DURABLE_QPS}"
    )
