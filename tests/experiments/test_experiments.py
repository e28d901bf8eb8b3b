"""Tests for the experiment modules (reduced-size shape checks).

Full-scale (365-day) reproductions live in benchmarks/; here each
experiment runs on short traces and we assert structure plus the
paper's qualitative claims that survive small samples.
"""

import numpy as np
import pytest

from repro.core.optimizer import DEFAULT_DAYS, grid_search
from repro.experiments import (
    common,
    fig2,
    fig6,
    fig7,
    runner,
    table1,
    table2,
    table3,
    table4,
    table5,
)
from repro.experiments.common import (
    PAPER_N_VALUES,
    ExperimentResult,
    batch_for,
    clear_batch_cache,
    format_table,
    sites_for,
    supported_n_for_site,
    sweep_for,
    trace_for,
)
from repro.experiments.runner import EXPERIMENTS, render_report, run_all

DAYS = 45
SITES = ("HSU", "PFCI")


class TestCommon:
    def test_sites_for_default(self):
        assert sites_for(None) == ("SPMD", "ECSU", "ORNL", "HSU", "NPCS", "PFCI")

    def test_sites_for_normalises(self):
        assert sites_for(["pfci"]) == ("PFCI",)

    def test_sites_for_rejects_unknown(self):
        with pytest.raises(ValueError):
            sites_for(["XX"])

    def test_supported_n(self):
        assert supported_n_for_site("SPMD", (288, 96, 24)) == (288, 96, 24)
        assert supported_n_for_site("SPMD", (1440,)) == ()
        assert supported_n_for_site("ORNL", (1440, 288)) == (1440, 288)

    def test_batch_for_cached(self):
        a = batch_for("PFCI", DAYS, 24)
        b = batch_for("pfci", DAYS, 24)
        assert a is b

    def test_batch_cache_is_bounded_lru(self):
        from repro.experiments.common import (
            BATCH_CACHE_MAX_ENTRIES,
            _BATCH_CACHE,
            clear_batch_cache,
        )

        clear_batch_cache()
        try:
            # Fill beyond the bound with distinct (site, days, N) keys.
            n_values = (288, 144, 96, 72, 48, 36, 24, 18, 16, 12)
            assert len(n_values) > BATCH_CACHE_MAX_ENTRIES
            for n in n_values:
                batch_for("PFCI", 3, n)
            assert len(_BATCH_CACHE) == BATCH_CACHE_MAX_ENTRIES
            # Oldest keys were evicted, newest survive.
            assert ("PFCI", 3, n_values[0], None) not in _BATCH_CACHE
            assert ("PFCI", 3, n_values[-1], None) in _BATCH_CACHE
            # A hit refreshes recency: touch the oldest survivor, add one
            # more key, and the survivor must still be cached.
            survivor = next(iter(_BATCH_CACHE))
            batch_for(survivor[0], survivor[1], survivor[2])
            batch_for("PFCI", 3, 8)
            assert survivor in _BATCH_CACHE
        finally:
            clear_batch_cache()

    def test_batch_memo_shared_by_threads_under_stress(self):
        """Six threads (more than the cores of a small box) cycle
        through more keys than the batch LRU holds and grid-search the
        shared batches with a short switch interval, as thread-backend
        units do; every search must equal its single-threaded result."""
        import sys
        import threading

        import numpy as np

        from repro.core.optimizer import grid_search
        from repro.experiments.common import clear_batch_cache

        n_values = (48, 36, 24, 18, 16, 12, 8, 6, 4, 3)
        grid = dict(alphas=(0.3, 0.7), days=(2, 3, 4), ks=(1, 2, 3))
        clear_batch_cache()
        trace = trace_for("PFCI", 30)
        expect = {n: grid_search(trace, n, **grid).errors for n in n_values}
        mismatches, raised = [], []

        def worker(offset):
            try:
                for i in range(2 * len(n_values)):
                    n = n_values[(offset + i) % len(n_values)]
                    batch = batch_for("PFCI", 30, n)
                    got = grid_search(batch.view.trace, n, batch=batch, **grid)
                    if not np.array_equal(got.errors, expect[n], equal_nan=True):
                        mismatches.append(n)
            except Exception as exc:  # surfaced by the assertion below
                raised.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            clear_batch_cache()
        assert raised == [] and mismatches == []

    def test_trace_memo_shared_across_n(self):
        """One native trace build serves every sampling rate: the batch
        engines for different N of one (site, n_days) must wrap the
        *same* trace object."""
        from repro.experiments.common import clear_batch_cache

        clear_batch_cache()
        try:
            a = batch_for("PFCI", DAYS, 48)
            b = batch_for("PFCI", DAYS, 24)
            assert a.view.trace is b.view.trace
            assert trace_for("pfci", DAYS) is a.view.trace
        finally:
            clear_batch_cache()

    def test_trace_memo_survives_batch_eviction(self):
        from repro.experiments.common import (
            BATCH_CACHE_MAX_ENTRIES,
            clear_batch_cache,
        )

        clear_batch_cache()
        try:
            first = trace_for("PFCI", 3)
            n_values = (288, 144, 96, 72, 48, 36, 24, 18, 16, 12)
            assert len(n_values) > BATCH_CACHE_MAX_ENTRIES
            for n in n_values:
                batch_for("PFCI", 3, n)
            # every batch was evicted and rebuilt against the same trace
            assert batch_for("PFCI", 3, 288).view.trace is first
        finally:
            clear_batch_cache()

    def test_format_table(self):
        text = format_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert lines[0].split() == ["a", "bb"]
        assert len(lines) == 4

    def test_format_table_rejects_ragged(self):
        with pytest.raises(ValueError):
            format_table(["a"], [["1", "2"]])

    def test_result_render_and_column(self):
        result = ExperimentResult(
            experiment="x",
            title="t",
            headers=["a"],
            rows=[{"a": 1.0}, {"a": None}],
        )
        text = result.render()
        assert "X: t" in text
        assert "n/a" in text
        assert result.column("a") == [1.0, None]
        with pytest.raises(KeyError):
            result.column("zz")


class TestSweepMemo:
    """``sweep_for``: one grid search per distinct (site, n_days, N,
    objective, D grid), shared read-only."""

    @pytest.fixture(autouse=True)
    def _fresh_memo(self):
        clear_batch_cache()
        yield
        clear_batch_cache()

    def test_hit_is_the_same_object_and_bitwise_a_fresh_search(self):
        first = sweep_for("PFCI", DAYS, 24)
        assert sweep_for("pfci", DAYS, 24) is first
        fresh = grid_search(trace_for("PFCI", DAYS), 24)  # its own batch
        assert first.errors.tobytes() == fresh.errors.tobytes()
        assert (first.best, first.best_error) == (fresh.best, fresh.best_error)

    def test_objective_n_days_n_and_grid_are_separate_entries(self):
        base = sweep_for("PFCI", DAYS, 24)
        others = [
            sweep_for("PFCI", DAYS, 24, objective="mape_prime"),
            sweep_for("PFCI", DAYS, 48),
            sweep_for("PFCI", DAYS - 1, 24),
            sweep_for("PFCI", DAYS, 24, days=(2, 3, 4)),
        ]
        assert len(common._SWEEP_CACHE) == 5
        assert len({id(result) for result in [base] + others}) == 5
        assert others[0].objective == "mape_prime"
        assert others[1].n_slots == 48
        assert others[3].days == (2, 3, 4)

    def test_reregistered_measured_site_misses(self, tmp_path):
        from repro.solar.ingest.sites import (
            clear_measured_sites,
            register_measured_site,
        )

        def write(path, seed):
            power = np.random.default_rng(seed).uniform(50.0, 500.0, (30, 24))
            rows = [
                f"03/{day + 1:02d}/2010,{h:02d}:00,"
                f"{power[day, h] if 6 <= h <= 18 else 0.0:.1f}"
                for day in range(30)
                for h in range(24)
            ]
            path.write_text("DATE,MST,Global [W/m^2]\n" + "\n".join(rows) + "\n")

        write(tmp_path / "a.csv", 1)
        write(tmp_path / "b.csv", 2)
        try:
            register_measured_site(tmp_path / "a.csv", name="MEMO")
            before = sweep_for("MEMO", 30, 12, days=(2, 3))
            register_measured_site(tmp_path / "b.csv", name="MEMO", overwrite=True)
            after = sweep_for("MEMO", 30, 12, days=(2, 3))
        finally:
            clear_measured_sites()
        assert after is not before
        assert not np.array_equal(after.errors, before.errors)

    def test_cached_errors_are_read_only(self):
        result = sweep_for("PFCI", DAYS, 24, days=(2, 3))
        with pytest.raises(ValueError):
            result.errors[0, 0, 0] = 0.0

    def test_bounded_lru_and_cleared_with_the_batches(self):
        keys = [
            (n, objective, d)
            for n in (24, 48)
            for objective in ("mape", "mape_prime")
            for d in DEFAULT_DAYS
        ]
        assert len(keys) > common.SWEEP_CACHE_MAX_ENTRIES
        first = sweep_for("PFCI", DAYS, 24, days=(2,))
        for n, objective, d in keys:
            sweep_for("PFCI", DAYS, n, objective=objective, days=(d,))
        assert len(common._SWEEP_CACHE) == common.SWEEP_CACHE_MAX_ENTRIES
        assert sweep_for("PFCI", DAYS, 24, days=(2,)) is not first  # evicted
        n, objective, d = keys[-1]
        assert ("PFCI", DAYS, n, None, objective, (d,)) in common._SWEEP_CACHE
        clear_batch_cache()
        assert len(common._SWEEP_CACHE) == 0 and len(common._BATCH_CACHE) == 0

    def test_shared_by_threads_under_stress(self, monkeypatch):
        """Six threads (more than the cores of a small box) cycle through
        more keys than a shrunken memo holds, with a short switch
        interval: every hit must equal the single-threaded search and
        the LRU must stay within its bound."""
        import sys
        import threading

        monkeypatch.setattr(common, "SWEEP_CACHE_MAX_ENTRIES", 4)
        n_values = (48, 36, 24, 18, 16, 12, 8, 6)
        grid = (2, 3, 4)
        expect = {
            n: grid_search(trace_for("PFCI", 30), n, days=grid).errors.tobytes()
            for n in n_values
        }
        mismatches, raised = [], []

        def worker(offset):
            try:
                for i in range(2 * len(n_values)):
                    n = n_values[(offset + i) % len(n_values)]
                    if sweep_for("PFCI", 30, n, days=grid).errors.tobytes() != expect[n]:
                        mismatches.append(n)
            except Exception as exc:  # surfaced by the assertion below
                raised.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert raised == [] and mismatches == []
        assert len(common._SWEEP_CACHE) <= 4

    def test_inline_run_all_sweeps_each_distinct_grid_once(self, monkeypatch):
        calls = []
        real = common.grid_search

        def counting(trace, n_slots, **kwargs):
            calls.append((trace.name, n_slots, kwargs["objective"], kwargs["days"]))
            return real(trace, n_slots, **kwargs)

        monkeypatch.setattr(common, "grid_search", counting)
        run_all(n_days=DAYS, sites=SITES)
        expected = set()
        for site in SITES:
            expected.add((site, 48, "mape_prime", DEFAULT_DAYS))
            for n in supported_n_for_site(site, PAPER_N_VALUES):
                expected.add((site, n, "mape", DEFAULT_DAYS))
        assert sorted(calls) == sorted(expected)


class TestTable1:
    def test_rows_match_paper_geometry(self):
        result = table1.run(n_days=DAYS)
        assert len(result.rows) == 6
        by_site = {row["data_set"]: row for row in result.rows}
        assert by_site["SPMD"]["observations"] == 288 * DAYS
        assert by_site["ORNL"]["observations"] == 1440 * DAYS
        assert by_site["PFCI"]["resolution"] == "1 minutes"


class TestTable2:
    @pytest.fixture(scope="class")
    def result(self):
        return table2.run(n_days=DAYS, sites=SITES)

    def test_mape_below_mape_prime(self, result):
        """The paper's central Table II claim."""
        for row in result.rows:
            assert row["mape"] < row["mape_prime"]

    def test_mape_alpha_higher(self, result):
        for row in result.rows:
            assert row["alpha"] >= row["alpha_prime"]

    def test_row_per_site(self, result):
        assert [r["data_set"] for r in result.rows] == list(SITES)


class TestTable3:
    @pytest.fixture(scope="class")
    def result(self):
        return table3.run(n_days=DAYS, sites=("PFCI",), n_values=(96, 48, 24))

    def test_mape_decreases_with_n(self, result):
        rows = {row["n"]: row for row in result.rows}
        assert rows[96]["mape"] < rows[48]["mape"] < rows[24]["mape"]

    def test_alpha_rises_with_n(self, result):
        rows = {row["n"]: row for row in result.rows}
        assert rows[96]["alpha"] >= rows[24]["alpha"]

    def test_k2_close_to_optimum(self, result):
        for row in result.rows:
            if row["mape_k2"] is not None:
                assert row["mape_k2"] >= row["mape"]
                assert row["mape_k2"] - row["mape"] < 0.02

    def test_five_minute_site_skips_unsupported_n(self):
        result = table3.run(n_days=DAYS, sites=("SPMD",), n_values=(1440, 48))
        assert [row["n"] for row in result.rows] == [48]

    def test_alpha1_exact_at_native_resolution(self):
        """The 0-dagger entries: N == native samples/day on a 5-minute
        site makes alpha=1 exact."""
        result = table3.run(n_days=DAYS, sites=("SPMD",), n_values=(288,))
        row = result.rows[0]
        assert row["alpha"] == 1.0
        assert row["mape"] == pytest.approx(0.0, abs=1e-12)


class TestTable4:
    def test_matches_paper_exactly(self):
        result = table4.run()
        values = {r["hardware_activity"]: r["energy"] for r in result.rows}
        assert values["A/D conversion"] == "55.0 uJ"
        assert values["A/D conversion + Prediction (K=1, alpha=0.7)"] == "58.6 uJ"
        assert values["A/D conversion + Prediction (K=7, alpha=0.7)"] == "63.4 uJ"
        assert values["A/D conversion + Prediction (K=7, alpha=0.0)"] == "61.5 uJ"
        assert values["Low power (sleep) mode"] == "356 mJ per day"
        assert "2640" in values["A/D conversion 48 samples per day @55uJ"]
        assert "2880" in values["A/D conversion + prediction 48 times per day @60uJ"]


class TestTable5:
    @pytest.fixture(scope="class")
    def result(self):
        return table5.run(n_days=DAYS, sites=("HSU",), n_values=(48, 24))

    def test_ordering_of_modes(self, result):
        for row in result.rows:
            assert row["both_mape"] <= row["alpha_only_mape"] + 1e-12
            assert row["alpha_only_mape"] <= row["k_only_mape"] + 1e-12
            assert row["k_only_mape"] <= row["static_mape"] + 1e-12

    def test_default_sites_are_papers_four(self):
        assert table5.DYNAMIC_SITES == ("SPMD", "ECSU", "ORNL", "HSU")


class TestFigures:
    def test_fig2_series_shape(self):
        data = fig2.series(site="HSU", start_day=20, n_figure_days=6, n_days=DAYS)
        assert data.shape == (6, 288)
        assert (data >= 0).all()

    def test_fig2_run_rows(self):
        result = fig2.run(site="HSU", start_day=20, n_days=DAYS)
        assert len(result.rows) == 6
        assert result.rows[0]["day"] == 21

    def test_fig2_rejects_bad_window(self):
        with pytest.raises(ValueError):
            fig2.series(site="HSU", start_day=44, n_figure_days=6, n_days=DAYS)

    def test_fig6_exact_paper_numbers(self):
        result = fig6.run()
        percents = {r["n"]: r["overhead_percent"] for r in result.rows}
        assert percents[288] == pytest.approx(4.85, abs=0.01)
        assert percents[48] == pytest.approx(0.81, abs=0.01)

    def test_fig7_flattens(self):
        result = fig7.run(n_days=DAYS, sites=("HSU",), days_grid=tuple(range(2, 16)))
        errors = [row["mape"] for row in result.rows]
        # Early drop is much larger than late drop.
        early_gain = errors[0] - errors[4]
        late_gain = abs(errors[8] - errors[-1])
        assert early_gain > late_gain

    def test_fig7_series_keys(self):
        curves = fig7.series(n_days=DAYS, sites=SITES, days_grid=(2, 5, 8))
        assert set(curves) == set(SITES)
        assert all(len(v) == 3 for v in curves.values())


class TestRunner:
    def test_run_subset(self):
        results = run_all(n_days=DAYS, sites=("PFCI",), only=("table1", "fig6"))
        assert set(results) == {"table1", "fig6"}

    def test_rejects_unknown_experiment(self):
        with pytest.raises(ValueError):
            run_all(only=("table9",))

    def test_render_report_contains_all(self):
        results = run_all(n_days=DAYS, sites=("PFCI",), only=("table1", "table4"))
        report = render_report(results)
        assert "TABLE1" in report and "TABLE4" in report

    def test_experiment_ids(self):
        assert EXPERIMENTS == (
            "table1",
            "table2",
            "table3",
            "table4",
            "table5",
            "fig2",
            "fig6",
            "fig7",
        )


class TestParallelRunner:
    """run_all(jobs=n) must reproduce the sequential output exactly."""

    def test_parallel_matches_sequential(self):
        only = ("table1", "table2", "fig7")
        sequential = run_all(n_days=DAYS, sites=SITES, only=only)
        parallel = run_all(n_days=DAYS, sites=SITES, only=only, jobs=2)
        assert list(sequential) == list(parallel)
        for name in only:
            assert sequential[name].rows == parallel[name].rows
            assert sequential[name].headers == parallel[name].headers
            assert sequential[name].notes == parallel[name].notes
        assert render_report(sequential) == render_report(parallel)

    def test_parallel_table5_default_sites(self):
        """table5 with sites=None uses its own four-site list; the
        per-site work units must reproduce that, not the global six."""
        sequential = run_all(n_days=DAYS, only=("table5",))
        parallel = run_all(n_days=DAYS, only=("table5",), jobs=2)
        assert sequential["table5"].rows == parallel["table5"].rows

    def test_parallel_non_trace_experiments(self):
        parallel = run_all(n_days=DAYS, only=("table4", "fig6"), jobs=2)
        sequential = run_all(n_days=DAYS, only=("table4", "fig6"))
        assert render_report(parallel) == render_report(sequential)

    def test_jobs_one_is_sequential_path(self):
        a = run_all(n_days=DAYS, sites=("PFCI",), only=("table1",), jobs=1)
        b = run_all(n_days=DAYS, sites=("PFCI",), only=("table1",))
        assert a["table1"].rows == b["table1"].rows

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            run_all(n_days=DAYS, only=("table1",), jobs=0)

    def test_duplicate_experiment_ids_run_once(self):
        """A repeated id must not double rows in the parallel merge."""
        sequential = run_all(n_days=DAYS, sites=("PFCI",), only=("table1", "table1"))
        parallel = run_all(
            n_days=DAYS, sites=("PFCI",), only=("table1", "table1"), jobs=2
        )
        assert len(sequential["table1"].rows) == 1
        assert sequential["table1"].rows == parallel["table1"].rows

    def test_empty_site_selection(self):
        """sites=() must yield zero-row results, not drop experiments."""
        sequential = run_all(n_days=DAYS, sites=(), only=("table1", "table4"))
        parallel = run_all(n_days=DAYS, sites=(), only=("table1", "table4"), jobs=2)
        assert sequential["table1"].rows == []
        assert parallel["table1"].rows == []
        assert render_report(sequential) == render_report(parallel)


class TestRunnerCacheAndBackend:
    """run_all through the shared executor: caching, stats, backends."""

    def _cache(self, tmp_path):
        from repro.parallel.cache import ResultCache

        return ResultCache(tmp_path / "cache", salt="test")

    def test_cached_rerun_is_identical_and_all_hits(self, tmp_path):
        cache = self._cache(tmp_path)
        stats = []
        only = ("table1", "table2")
        first = run_all(
            n_days=DAYS, sites=SITES, only=only, cache=cache, stats=stats
        )
        assert stats[0].cache_hits == 0 and stats[0].cache_misses == 4
        second = run_all(
            n_days=DAYS, sites=SITES, only=only, cache=cache, stats=stats
        )
        assert stats[1].cache_hits == 4 and stats[1].cache_misses == 0
        assert render_report(first) == render_report(second)

    def test_cached_matches_uncached(self, tmp_path):
        cache = self._cache(tmp_path)
        plain = run_all(n_days=DAYS, sites=SITES, only=("fig7",))
        cached = run_all(
            n_days=DAYS, sites=SITES, only=("fig7",), cache=cache
        )
        resumed = run_all(
            n_days=DAYS, sites=SITES, only=("fig7",), cache=cache
        )
        assert render_report(plain) == render_report(cached) == render_report(resumed)

    def test_cache_key_separates_configurations(self, tmp_path):
        cache = self._cache(tmp_path)
        stats = []
        run_all(n_days=DAYS, sites=SITES, only=("table1",), cache=cache)
        run_all(
            n_days=DAYS - 1, sites=SITES, only=("table1",),
            cache=cache, stats=stats,
        )
        assert stats[0].cache_hits == 0

    def test_thread_backend_matches_sequential(self):
        sequential = run_all(n_days=DAYS, sites=SITES, only=("table1", "fig7"))
        threaded = run_all(
            n_days=DAYS, sites=SITES, only=("table1", "fig7"),
            jobs=2, backend="thread",
        )
        assert render_report(sequential) == render_report(threaded)

    def test_stats_record_shape(self):
        stats = []
        run_all(n_days=DAYS, sites=("PFCI",), only=("table1",), stats=stats)
        assert len(stats) == 1
        payload = stats[0].as_dict()
        assert payload["backend"] == "inline"
        assert payload["n_units"] == 1
        assert "dispatch_per_unit_s" in payload

    def test_rejects_bad_backend(self):
        with pytest.raises(ValueError, match="backend"):
            run_all(n_days=DAYS, only=("table1",), jobs=2, backend="mpi")

    def test_rejects_too_short_trace_before_any_unit(self, monkeypatch):
        def fail(*args):
            raise AssertionError("a unit ran")

        monkeypatch.setattr(runner, "_run_unit", fail)
        with pytest.raises(ValueError, match="n_days=21 is too short for table2"):
            run_all(n_days=table2.MIN_N_DAYS - 1, only=("table1", "table2"))
        with pytest.raises(ValueError, match="fig2"):
            run_all(n_days=fig2.MIN_N_DAYS - 1, only=("fig2",))


class TestSitePasses:
    """Under a pool, one pass per site; units stay the cache grain."""

    def _record_passes(self, monkeypatch):
        recorded = []
        real = runner._site_passes

        def spy(units, missing, jobs):
            passes = real(units, missing, jobs)
            recorded.append((passes, units))
            return passes

        monkeypatch.setattr(runner, "_site_passes", spy)
        return recorded

    def test_pool_passes_hold_one_site_each(self, monkeypatch):
        recorded = self._record_passes(monkeypatch)
        only = ("table1", "table2", "table4", "fig6")
        pooled = run_all(n_days=DAYS, sites=SITES, only=only, jobs=2)
        assert render_report(pooled) == render_report(
            run_all(n_days=DAYS, sites=SITES, only=only)
        )
        [(passes, units)] = recorded
        assert sorted(i for members in passes for i in members) == list(range(len(units)))
        multi = [members for members in passes if len(members) > 1]
        assert len(multi) == len(SITES)
        for members in multi:
            assert len({units[i][1] for i in members}) == 1
            assert [units[i][0] for i in members] == ["table1", "table2"]
        assert sorted(len(members) for members in passes) == [1, 1, 2, 2]

    def test_one_site_pool_still_gets_a_pass_per_worker(self, monkeypatch):
        recorded = self._record_passes(monkeypatch)
        stats = []
        run_all(
            n_days=DAYS, sites=("PFCI",), only=("table2", "table3"),
            jobs=2, stats=stats,
        )
        [(passes, _)] = recorded
        assert passes == [[0], [1]]
        assert stats[0].backend == "process" and stats[0].n_units == 2

    def test_inline_runs_one_unit_per_pass(self, monkeypatch):
        recorded = self._record_passes(monkeypatch)
        run_all(n_days=DAYS, sites=SITES, only=("table1",), jobs=2, backend="inline")
        run_all(n_days=DAYS, sites=SITES, only=("table1",))
        assert recorded == []

    def test_pooled_and_inline_write_the_same_cache_files(self, tmp_path):
        from repro.parallel.cache import ResultCache

        def files(root):
            return {
                path.relative_to(root): path.read_bytes()
                for path in root.rglob("*.pkl")
            }

        only = ("table1", "table2", "table4")
        inline_root, pooled_root = tmp_path / "inline", tmp_path / "pooled"
        run_all(
            n_days=DAYS, sites=SITES, only=only,
            cache=ResultCache(inline_root, salt="test"),
        )
        pooled_cache = ResultCache(pooled_root, salt="test")
        stats = []
        run_all(
            n_days=DAYS, sites=SITES, only=only, jobs=2,
            cache=pooled_cache, stats=stats,
        )
        # one entry per unit (2 sites x 2 per-site experiments + table4):
        # no entry for the two-unit site passes
        assert len(files(pooled_root)) == stats[0].n_units == 5
        assert files(pooled_root) == files(inline_root)
        run_all(
            n_days=DAYS, sites=SITES, only=only, jobs=2,
            cache=pooled_cache, stats=stats,
        )
        assert (stats[1].cache_hits, stats[1].cache_misses) == (5, 0)
        # Thread workers share the parent's memos; the files are the same.
        thread_root = tmp_path / "thread"
        run_all(
            n_days=DAYS, sites=SITES, only=only, jobs=2, backend="thread",
            cache=ResultCache(thread_root, salt="test"), stats=stats,
        )
        assert len(files(thread_root)) == stats[2].n_units
        assert files(thread_root) == files(inline_root)
