"""Tests for the robustness experiment matrix and fleet harness."""

import collections

import numpy as np
import pytest

from repro.experiments.robustness import (
    DEFAULT_MATRIX_PREDICTORS,
    DEFAULT_SCENARIOS,
    TUNED_WCMA_LABEL,
    run,
    run_fleet_robustness,
    scenarios_for,
)
from repro.metrics import format_robustness_summary, summarise_robustness

#: Small but tuning-capable configuration: > 2 * max(D) days, two sites
#: of different native resolution, three degradations plus clean.
DAYS = 45
SITES = ("PFCI", "HSU")
SCENARIOS = ("dropout", "regime-shift", "jitter")


@pytest.fixture(scope="module")
def matrix():
    return run(
        n_days=DAYS, sites=SITES, scenarios=SCENARIOS, seed=7, tune_wcma=True
    )


class TestScenariosFor:
    def test_default(self):
        assert scenarios_for(None) == DEFAULT_SCENARIOS
        assert len(DEFAULT_SCENARIOS) >= 8
        assert DEFAULT_SCENARIOS[0] == "clean"

    def test_clean_always_included_first(self):
        assert scenarios_for(("dropout",)) == ("clean", "dropout")
        assert scenarios_for(("clean", "dropout")) == ("clean", "dropout")

    def test_dedupe_and_case(self):
        assert scenarios_for(("Dropout", "dropout")) == ("clean", "dropout")

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown scenarios"):
            scenarios_for(("nope",))


class TestMatrix:
    def test_shape(self, matrix):
        scenario_list = ("clean",) + SCENARIOS
        per_cell = len(DEFAULT_MATRIX_PREDICTORS) + 1  # + wcma-tuned
        assert len(matrix.rows) == len(scenario_list) * len(SITES) * per_cell
        assert matrix.meta["scenarios"] == scenario_list
        assert set(matrix.column("predictor")) == set(
            DEFAULT_MATRIX_PREDICTORS
        ) | {TUNED_WCMA_LABEL}

    def test_clean_rows_have_zero_degradation(self, matrix):
        for row in matrix.rows:
            if row["scenario"] == "clean":
                assert row["dMAPE vs clean (pp)"] == 0.0

    def test_degradation_consistent_with_mape(self, matrix):
        clean = {
            (r["site"], r["predictor"]): r["mape"]
            for r in matrix.rows
            if r["scenario"] == "clean"
        }
        for row in matrix.rows:
            expected = 100.0 * (row["mape"] - clean[(row["site"], row["predictor"])])
            assert row["dMAPE vs clean (pp)"] == pytest.approx(expected, abs=5e-3)

    def test_tuned_never_worse_than_fixed_params(self, matrix):
        fixed = {
            (r["scenario"], r["site"]): r["mape"]
            for r in matrix.rows
            if r["predictor"] == "wcma"
        }
        for row in matrix.rows:
            if row["predictor"] == TUNED_WCMA_LABEL:
                key = (row["scenario"], row["site"])
                assert row["mape"] <= fixed[key] + 1e-12
                assert row["tuned params"].startswith("a=")

    def test_regime_shift_degrades_prediction(self, matrix):
        """The headline qualitative result: a weather-regime shift must
        hurt WCMA markedly more than clock jitter does."""
        by_scenario = {}
        for row in matrix.rows:
            if row["predictor"] == "wcma":
                by_scenario.setdefault(row["scenario"], []).append(
                    row["dMAPE vs clean (pp)"]
                )
        regime = np.mean(by_scenario["regime-shift"])
        jitter = np.mean(by_scenario["jitter"])
        assert regime > 1.0
        assert regime > jitter

    def test_same_seed_reproduces(self):
        a = run(n_days=30, sites=("PFCI",), scenarios=("dropout",), seed=3,
                tune_wcma=False)
        b = run(n_days=30, sites=("PFCI",), scenarios=("dropout",), seed=3,
                tune_wcma=False)
        assert a.rows == b.rows
        assert a.render() == b.render()

    def test_seed_changes_stochastic_rows(self):
        kwargs = dict(
            n_days=30, sites=("PFCI",), scenarios=("dropout",), tune_wcma=False
        )
        a = run(seed=3, **kwargs)
        b = run(seed=4, **kwargs)
        mape = lambda res: [
            r["mape"] for r in res.rows if r["scenario"] == "dropout"
        ]
        assert mape(a) != mape(b)

    def test_jobs_identical_to_sequential(self):
        kwargs = dict(
            n_days=30,
            sites=("PFCI", "SPMD"),
            scenarios=("dropout", "shading"),
            seed=11,
            tune_wcma=False,
        )
        sequential = run(jobs=None, **kwargs)
        parallel = run(jobs=3, **kwargs)
        assert sequential.rows == parallel.rows
        assert sequential.render() == parallel.render()

    def test_validation(self):
        with pytest.raises(ValueError, match="jobs"):
            run(n_days=30, jobs=0)
        with pytest.raises(ValueError, match="n_days"):
            run(n_days=0)
        with pytest.raises(ValueError, match="unknown predictors"):
            run(n_days=30, predictors=("nope",))
        with pytest.raises(ValueError, match="unknown scenarios"):
            run(n_days=30, scenarios=("nope",))


class TestFullMatrixAcceptance:
    """The PR's acceptance shape: >= 8 scenarios x all 6 sites,
    deterministic, and sequential == parallel."""

    def test_full_matrix_deterministic_across_jobs(self):
        kwargs = dict(n_days=45, seed=1, tune_wcma=False)
        sequential = run(jobs=None, **kwargs)
        parallel = run(jobs=2, **kwargs)
        assert len(sequential.meta["scenarios"]) >= 8
        assert len(sequential.meta["sites"]) == 6
        assert sequential.rows == parallel.rows
        assert sequential.render() == parallel.render()
        again = run(jobs=None, **kwargs)
        assert again.render() == sequential.render()


class TestRobustnessSummary:
    def test_summary_and_formatting(self, matrix):
        summary = summarise_robustness(matrix.rows, predictor="wcma")
        assert summary.n_sites == len(SITES)
        assert set(summary.scenario_mape) == {"clean", *SCENARIOS}
        assert summary.scenario_degradation_pp["clean"] == pytest.approx(0.0)
        assert summary.worst_scenario in SCENARIOS
        text = format_robustness_summary(summary)
        assert "most harmful" in text
        assert "clean MAPE" in text

    def test_summary_matches_row_means(self, matrix):
        summary = summarise_robustness(matrix.rows, predictor="ewma")
        rows = [
            r["mape"]
            for r in matrix.rows
            if r["predictor"] == "ewma" and r["scenario"] == "dropout"
        ]
        assert summary.scenario_mape["dropout"] == pytest.approx(np.mean(rows))

    def test_summary_requires_predictor_rows(self, matrix):
        with pytest.raises(ValueError, match="no rows"):
            summarise_robustness(matrix.rows, predictor="nope")

    def test_summary_requires_clean_baseline(self):
        rows = [
            {"scenario": "dropout", "site": "PFCI", "predictor": "wcma",
             "mape": 0.1}
        ]
        with pytest.raises(ValueError, match="clean"):
            summarise_robustness(rows, predictor="wcma")


class TestFleetSpecScenarioAxis:
    """The scenarios axis of the fleet-spec builder."""

    def test_scenarios_cycle_and_label(self):
        from repro.experiments.fleet import build_fleet_specs

        specs = build_fleet_specs(
            n_nodes=4,
            sites=("SPMD",),
            n_days=8,
            predictors=("wcma",),
            scenarios=("clean", "dropout"),
        )
        names = [spec.name for spec in specs]
        assert "spmd-clean-wcma-kansal-0" in names
        assert "spmd-dropout-wcma-kansal-1" in names
        # clean nodes share the undegraded trace object (identity).
        assert specs[0].trace is not specs[1].trace
        assert specs[0].trace is specs[2].trace

    def test_default_keeps_legacy_names_and_traces(self):
        from repro.experiments.fleet import build_fleet_specs
        from repro.solar.datasets import build_dataset

        specs = build_fleet_specs(
            n_nodes=2, sites=("SPMD",), n_days=8, predictors=("wcma",)
        )
        assert specs[0].name == "spmd-wcma-kansal-0"
        assert specs[0].trace is build_dataset("SPMD", n_days=8)

    def test_unknown_scenario_raises(self):
        from repro.experiments.fleet import build_fleet_specs

        with pytest.raises(KeyError, match="unknown scenario"):
            build_fleet_specs(
                n_nodes=2, sites=("SPMD",), n_days=8, scenarios=("nope",)
            )


class TestFleetRobustness:
    @pytest.fixture(scope="class")
    def fleet_result(self):
        return run_fleet_robustness(
            n_days=10, sites=SITES, scenarios=("dropout", "harsh-field"), seed=5
        )

    def test_one_node_per_cell(self, fleet_result):
        assert len(fleet_result.rows) == len(SITES) * 3  # clean + 2
        assert fleet_result.meta["n_nodes"] == len(SITES) * 3

    def test_rows_carry_fleet_metrics(self, fleet_result):
        for row in fleet_result.rows:
            assert 0.0 <= row["mean_duty"] <= 1.0
            assert 0.0 <= row["downtime"] <= 1.0
        clean_rows = [r for r in fleet_result.rows if r["scenario"] == "clean"]
        assert all(r["ddowntime (pp)"] == 0.0 for r in clean_rows)

    def test_deterministic(self):
        kwargs = dict(n_days=8, sites=("PFCI",), scenarios=("dropout",), seed=2)
        a = run_fleet_robustness(**kwargs)
        b = run_fleet_robustness(**kwargs)
        assert a.rows == b.rows

    def test_validation(self):
        with pytest.raises(ValueError, match="n_days"):
            run_fleet_robustness(n_days=0)


class TestMatrixCacheResume:
    """The matrix through the result cache: resume semantics."""

    def _cache(self, tmp_path):
        from repro.parallel.cache import ResultCache

        return ResultCache(tmp_path / "cache", salt="test")

    def test_rerun_hits_every_cell_and_matches(self, tmp_path):
        cache = self._cache(tmp_path)
        kwargs = dict(
            n_days=DAYS, sites=SITES, scenarios=("dropout",), seed=7,
            tune_wcma=False,
        )
        stats = []
        first = run(cache=cache, stats=stats, **kwargs)
        # 2 sites x (clean + dropout) wcma cells + the ewma and
        # persistence slabs.
        assert stats[0].cache_misses == 6 and stats[0].cache_hits == 0
        second = run(cache=cache, stats=stats, **kwargs)
        # The 4 wcma cells + 2 x 4 stacked cells, each cached on its own;
        # no slab is left to run.
        assert stats[1].cache_hits == 12 and stats[1].cache_misses == 0
        assert stats[1].n_units == 12
        assert first.rows == second.rows
        assert first.render() == second.render()

    def test_interrupted_matrix_resumes_partial_cells(self, tmp_path):
        """A narrower earlier run seeds the cache; the full matrix
        re-computes only the missing cells and the degradation column
        is still filled across the merged whole."""
        cache = self._cache(tmp_path)
        common = dict(n_days=DAYS, sites=SITES, seed=7, tune_wcma=False)
        run(scenarios=("dropout",), cache=cache, **common)
        stats = []
        full = run(
            scenarios=("dropout", "jitter"), cache=cache, stats=stats, **common
        )
        # clean + dropout cells (2 sites x 2) hit, for wcma and for both
        # stacked predictors; the jitter cells miss: 2 wcma cells and one
        # slab per stacked predictor over its 2 jitter cells.
        assert stats[0].cache_hits == 12 and stats[0].cache_misses == 4
        fresh = run(scenarios=("dropout", "jitter"), **common)
        assert full.rows == fresh.rows
        assert all(
            row["dMAPE vs clean (pp)"] is not None for row in full.rows
        )

    def test_cached_rows_predate_degradation_fill(self, tmp_path):
        """Cached cell rows must carry no baked-in dMAPE: the column is
        computed after the merge, whatever subset the cells came from.
        Stacked predictors cache nothing but MAPEs: each slab's payload
        and the one-cell entries it is split into."""
        cache = self._cache(tmp_path)
        kwargs = dict(
            n_days=DAYS, sites=("PFCI",), scenarios=("dropout",), seed=7,
            tune_wcma=False,
        )
        run(cache=cache, **kwargs)

        entries = 0
        stacked = collections.Counter()
        for sub in sorted((tmp_path / "cache").iterdir()):
            if sub.is_dir():
                for path in sub.glob("*.pkl"):
                    import pickle

                    payload = pickle.loads(path.read_bytes())
                    entries += 1
                    if isinstance(payload, dict):  # a stacked predictor
                        assert set(payload) == {"mape"}
                        assert all(isinstance(m, float) for m in payload["mape"])
                        stacked[len(payload["mape"])] += 1
                        continue
                    assert all(r["dMAPE vs clean (pp)"] is None for r in payload)
        # 2 wcma cells; for ewma and persistence, a 2-cell slab each and
        # its two one-cell entries.
        assert entries == 8 and stacked == {2: 2, 1: 4}

    def test_seed_and_tune_are_in_the_key(self, tmp_path):
        cache = self._cache(tmp_path)
        kwargs = dict(n_days=DAYS, sites=("PFCI",), scenarios=("dropout",))
        run(seed=7, tune_wcma=False, cache=cache, **kwargs)
        stats = []
        run(seed=8, tune_wcma=False, cache=cache, stats=stats, **kwargs)
        assert stats[0].cache_hits == 0

    def test_thread_backend_matches_sequential(self):
        kwargs = dict(
            n_days=DAYS, sites=SITES, scenarios=("dropout",), seed=7,
            tune_wcma=False,
        )
        assert run(**kwargs).rows == run(jobs=2, backend="thread", **kwargs).rows
