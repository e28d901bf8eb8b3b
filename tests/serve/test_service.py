"""Tests for the transport-agnostic forecast service.

Covers the request/response protocol (audit-line schema included), the
register -> observe -> forecast lifecycle, replay warm-up parity with
the evaluation layer, checkpoint/resume through a real state store, and
thread safety of concurrent queries.
"""

import threading

import numpy as np
import pytest

from repro.core.registry import available_predictors, make_predictor
from repro.serve import ForecastService
from repro.solar.datasets import build_dataset
from repro.solar.slots import SlotView

AUDIT_FIELDS = {
    "ok", "op", "site", "day", "slot", "predictor", "value",
    "prediction", "state_digest", "checkpointed",
}


class TestProtocol:
    def test_register_observe_forecast(self):
        svc = ForecastService(n_slots=48)
        reg = svc.handle({"op": "register", "site": "spmd"})
        assert reg["ok"] and reg["created"] and reg["site"] == "SPMD"

        obs = svc.handle({"op": "observe", "site": "SPMD", "value": 120.5})
        assert set(obs) == AUDIT_FIELDS
        assert obs["ok"] and obs["day"] == 0 and obs["slot"] == 0
        assert obs["value"] == 120.5
        assert obs["prediction"] == 120.5  # warm-up persistence
        assert len(obs["state_digest"]) == 16

        fc = svc.handle({"op": "forecast", "site": "SPMD"})
        assert fc["ok"] and fc["prediction"] == obs["prediction"]
        assert fc["state_digest"] == obs["state_digest"]
        assert fc["slot"] == 1  # the upcoming slot

    def test_register_idempotent(self):
        svc = ForecastService(n_slots=48)
        svc.handle({"op": "register", "site": "SPMD"})
        again = svc.handle({"op": "register", "site": "SPMD"})
        assert again["ok"] and again["created"] is False

    def test_slot_day_positions_advance(self):
        svc = ForecastService(n_slots=48)
        svc.handle({"op": "register", "site": "SPMD"})
        for i in range(50):
            obs = svc.handle({"op": "observe", "site": "SPMD", "value": 1.0})
            assert obs["day"] == i // 48 and obs["slot"] == i % 48

    def test_errors_are_responses_not_exceptions(self):
        svc = ForecastService(n_slots=48)
        cases = [
            "not a dict",
            {"op": "bogus"},
            {"op": "observe", "site": "SPMD", "value": 1.0},  # unregistered
            {"op": "register", "site": "NOSUCH"},
            {"op": "register"},
            {"op": "forecast", "site": "SPMD"},
        ]
        for request in cases:
            response = svc.handle(request)
            assert response["ok"] is False and response["error"]
        svc.handle({"op": "register", "site": "SPMD"})
        bad_values = [None, "12", True, float("nan"), float("inf")]
        for value in bad_values:
            r = svc.handle({"op": "observe", "site": "SPMD", "value": value})
            assert r["ok"] is False
        r = svc.handle({"op": "observe", "site": "SPMD", "value": -5.0})
        assert r["ok"] is False and "non-negative" in r["error"]

    def test_geometry_mismatch_rejected(self):
        svc = ForecastService(n_slots=7)
        r = svc.handle({"op": "register", "site": "SPMD"})
        assert r["ok"] is False and "does not divide" in r["error"]

    def test_unknown_predictor_rejected_at_construction(self):
        with pytest.raises(KeyError, match="nope"):
            ForecastService(predictor="nope")

    @pytest.mark.parametrize("name", available_predictors())
    def test_every_predictor_serves_or_is_refused(self, name, tmp_path):
        """Register, observe and restart-resume -- or refuse up front."""
        if name not in ("wcma", "ewma", "ridge", "gbm"):
            with pytest.raises(NotImplementedError):
                make_predictor(name, 48).state_dict()
            with pytest.raises(ValueError, match=f"{name!r} cannot be served"):
                ForecastService(n_slots=48, predictor=name, state_dir=tmp_path)
            return
        values = [0.0, 120.0, 340.5, 80.25, 15.0]
        unbroken = ForecastService(n_slots=48, predictor=name)
        unbroken.handle({"op": "register", "site": "SPMD"})
        expected = [
            unbroken.handle({"op": "observe", "site": "SPMD", "value": v})
            for v in values
        ]
        first = ForecastService(n_slots=48, predictor=name, state_dir=tmp_path)
        assert first.handle({"op": "register", "site": "SPMD"})["ok"]
        head = [
            first.handle({"op": "observe", "site": "SPMD", "value": v})
            for v in values[:3]
        ]
        second = ForecastService(n_slots=48, predictor=name, state_dir=tmp_path)
        reg = second.handle({"op": "register", "site": "SPMD"})
        assert reg["resumed_from"] == head[-1]["state_digest"]
        tail = [
            second.handle({"op": "observe", "site": "SPMD", "value": v})
            for v in values[3:]
        ]
        for got, want in zip(head + tail, expected):
            assert got["ok"]
            assert got["prediction"] == want["prediction"]
            assert got["state_digest"] == want["state_digest"]

    def test_sites_and_stats(self):
        svc = ForecastService(n_slots=48)
        svc.handle({"op": "register", "site": "SPMD"})
        svc.handle({"op": "register", "site": "ECSU"})
        svc.handle({"op": "observe", "site": "ECSU", "value": 3.0})
        sites = svc.handle({"op": "sites"})
        assert [s["site"] for s in sites["sites"]] == ["ECSU", "SPMD"]
        assert sites["sites"][0]["observed"] == 1
        stats = svc.handle({"op": "stats"})
        assert stats["n_sites"] == 2
        assert stats["ops"]["register"] == 2
        assert stats["persistent"] is False


class TestReplay:
    def test_replay_matches_manual_feed(self):
        days = 4
        svc = ForecastService(n_slots=48)
        svc.handle({"op": "register", "site": "SPMD"})
        rep = svc.handle({"op": "replay", "site": "SPMD", "days": days})
        assert rep["ok"] and rep["samples"] == 48 * days

        manual = make_predictor("wcma", 48)
        trace = build_dataset("SPMD", n_days=days)
        last = None
        for v in SlotView.from_trace(trace, 48).flat_starts():
            last = manual.observe(float(v))
        assert rep["prediction"] == last

        # Forecast position continues from the replayed history.
        fc = svc.handle({"op": "forecast", "site": "SPMD"})
        assert fc["day"] == days and fc["slot"] == 0

    def test_dataset_alias_backs_logical_site(self):
        """A logical node name replays its backing dataset's trace."""
        svc = ForecastService(n_slots=48)
        svc.handle({"op": "register", "site": "SPMD"})
        alias = svc.handle(
            {"op": "register", "site": "node-17", "dataset": "spmd"}
        )
        assert alias["ok"] and alias["site"] == "NODE-17"
        assert alias["dataset"] == "SPMD"

        direct = svc.handle({"op": "replay", "site": "SPMD", "days": 2})
        via_alias = svc.handle({"op": "replay", "site": "NODE-17", "days": 2})
        assert via_alias["prediction"] == direct["prediction"]
        assert via_alias["state_digest"] == direct["state_digest"]

        listing = svc.handle({"op": "sites"})["sites"]
        assert {s["site"]: s["dataset"] for s in listing} == {
            "SPMD": "SPMD", "NODE-17": "SPMD",
        }

    def test_dataset_alias_validated(self):
        svc = ForecastService(n_slots=48)
        r = svc.handle(
            {"op": "register", "site": "node-1", "dataset": "NOSUCH"}
        )
        assert r["ok"] is False
        r = svc.handle({"op": "register", "site": "node-1", "dataset": 7})
        assert r["ok"] is False and "dataset" in r["error"]

    def test_replay_needs_days(self):
        svc = ForecastService(n_slots=48)
        svc.handle({"op": "register", "site": "SPMD"})
        for bad in (None, 0, -3, "5", True):
            r = svc.handle({"op": "replay", "site": "SPMD", "days": bad})
            assert r["ok"] is False


class TestPersistence:
    def test_restart_resumes_exactly(self, tmp_path):
        state = tmp_path / "state"
        values = np.abs(np.random.default_rng(3).normal(200, 70, 300))

        unbroken = ForecastService(n_slots=48)
        unbroken.handle({"op": "register", "site": "SPMD"})
        expected = [
            unbroken.handle({"op": "observe", "site": "SPMD", "value": float(v)})
            for v in values
        ]

        first = ForecastService(n_slots=48, state_dir=state)
        first.handle({"op": "register", "site": "SPMD"})
        cut = 130
        head = [
            first.handle({"op": "observe", "site": "SPMD", "value": float(v)})
            for v in values[:cut]
        ]
        del first  # simulated crash-after-checkpoint

        second = ForecastService(n_slots=48, state_dir=state)
        reg = second.handle({"op": "register", "site": "SPMD"})
        assert reg["resumed_from"] == head[-1]["state_digest"]
        assert reg["observed"] == cut
        tail = [
            second.handle({"op": "observe", "site": "SPMD", "value": float(v)})
            for v in values[cut:]
        ]
        resumed = head + tail
        for got, want in zip(resumed, expected):
            assert got["prediction"] == want["prediction"]
            assert (got["day"], got["slot"]) == (want["day"], want["slot"])
        diffs = np.abs(
            np.array([r["prediction"] for r in resumed])
            - np.array([e["prediction"] for e in expected])
        )
        assert diffs.max() <= 1e-12

    def test_checkpoint_every_batches_writes(self, tmp_path):
        svc = ForecastService(n_slots=48, state_dir=tmp_path, checkpoint_every=10)
        svc.handle({"op": "register", "site": "SPMD"})
        flags = [
            svc.handle({"op": "observe", "site": "SPMD", "value": 1.0})["checkpointed"]
            for _ in range(25)
        ]
        assert flags.count(True) == 2  # slots 10 and 20
        flushed = svc.checkpoint_all()
        assert flushed == 1  # the 5 pending slots
        assert svc.checkpoint_all() == 0  # nothing pending now

    def test_explicit_checkpoint_op(self, tmp_path):
        svc = ForecastService(n_slots=48, state_dir=tmp_path, checkpoint_every=1000)
        svc.handle({"op": "register", "site": "SPMD"})
        svc.handle({"op": "observe", "site": "SPMD", "value": 1.0})
        r = svc.handle({"op": "checkpoint"})
        assert r["ok"] and r["checkpointed"] == 1

    def test_without_store_checkpoint_is_noop(self):
        svc = ForecastService(n_slots=48)
        svc.handle({"op": "register", "site": "SPMD"})
        svc.handle({"op": "observe", "site": "SPMD", "value": 1.0})
        assert svc.checkpoint_all() == 0


class TestConcurrency:
    def test_parallel_queries_keep_counters_consistent(self, tmp_path):
        svc = ForecastService(n_slots=48, state_dir=tmp_path, checkpoint_every=5)
        sites = ["SPMD", "ECSU", "ORNL", "HSU"]
        for site in sites:
            svc.handle({"op": "register", "site": site})
        per_thread = 120
        errors = []

        def worker(site):
            for i in range(per_thread):
                r = svc.handle({"op": "observe", "site": site, "value": float(i)})
                if not r.get("ok"):
                    errors.append(r)

        threads = [
            threading.Thread(target=worker, args=(site,))
            for site in sites
            for _ in range(2)  # two threads hammer each site
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
        listing = svc.handle({"op": "sites"})["sites"]
        assert [s["observed"] for s in listing] == [2 * per_thread] * len(sites)
        svc.checkpoint_all()
        # A fresh service resumes each site at the full observed count.
        resumed = ForecastService(n_slots=48, state_dir=tmp_path)
        for site in sites:
            reg = resumed.handle({"op": "register", "site": site})
            assert reg["observed"] == 2 * per_thread
