"""Tests for the command-line front-end."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.solar.io import read_csv


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "table9"])

    def test_jobs_option(self):
        args = build_parser().parse_args(["run-all", "--jobs", "4"])
        assert args.jobs == 4
        args = build_parser().parse_args(["run", "table1"])
        assert args.jobs is None

    @pytest.mark.parametrize("value", ["0", "-2", "x"])
    def test_rejects_non_positive_jobs(self, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["run-all", "--jobs", value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--jobs" in err and "Traceback" not in err

    def test_robustness_rejects_non_positive_jobs(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["robustness", "--jobs", "0"])

    def test_robustness_rejects_unknown_scenario(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["robustness", "--scenarios", "nope"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_fleet_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet", "--scenarios", "nope"])


class TestValueErrorsExitCleanly:
    """Library ValueErrors surface as one 'error:' line, status 2."""

    def test_unknown_site(self, capsys):
        code = main(["run", "table1", "--days", "30", "--sites", "NOPE"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "unknown sites" in err

    def test_unknown_predictor(self, capsys):
        code = main(
            ["summarize", "--site", "PFCI", "--days", "30", "--predictor", "nope"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "unknown predictor" in err

    def test_unknown_robustness_predictor(self, capsys):
        code = main(
            ["robustness", "--days", "30", "--sites", "PFCI",
             "--predictors", "nope"]
        )
        assert code == 2
        assert "unknown predictors" in capsys.readouterr().err

    def test_bad_n_for_site(self, capsys):
        code = main(["compare", "--site", "PFCI", "--days", "30", "--n", "7"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "does not divide" in err

    def test_bad_n_for_robustness_defaults(self, capsys):
        code = main(["robustness", "--days", "30", "--n", "7"])
        assert code == 2
        assert "does not divide" in capsys.readouterr().err

    def test_serve_refuses_uncheckpointable_predictor(self, capsys):
        code = main(["serve", "--predictor", "persistence"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "'persistence'" in captured.err and "checkpoint" in captured.err
        assert "ready" not in captured.out  # refused before the ready line

    @pytest.mark.parametrize(
        "argv",
        [
            ["run-all", "--days", "0"],
            ["fleet", "--nodes", "0"],
            ["compare", "--site", "PFCI", "--n", "-3"],
            ["export-trace", "SPMD", "--days", "-1", "--out", "x.csv"],
            ["robustness", "--seed", "-1"],
            ["fleet", "--scenarios", "dropout", "--scenario-seed", "-1"],
            ["export-trace", "SPMD", "--seed", "-1", "--out", "x.csv"],
        ],
    )
    def test_non_positive_sizes_rejected_by_parser(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table3" in out
        assert "PFCI" in out

    def test_run_single_experiment(self, capsys):
        assert main(["run", "table4"]) == 0
        out = capsys.readouterr().out
        assert "55.0 uJ" in out

    def test_run_with_sites_and_days(self, capsys):
        code = main(["run", "table1", "--days", "30", "--sites", "PFCI"])
        assert code == 0
        out = capsys.readouterr().out
        assert "PFCI" in out and "43200" in out  # 30 * 1440 observations

    def test_run_with_jobs(self, capsys):
        code = main(
            ["run", "table1", "--days", "30", "--sites", "PFCI", "--jobs", "2"]
        )
        assert code == 0
        assert "43200" in capsys.readouterr().out

    def test_export_trace(self, tmp_path, capsys):
        out_path = tmp_path / "t.csv"
        code = main(
            ["export-trace", "SPMD", "--days", "2", "--out", str(out_path)]
        )
        assert code == 0
        trace = read_csv(out_path)
        assert trace.n_days == 2
        assert trace.name == "SPMD"
        assert (trace.values >= 0).all()

    def test_export_trace_seed_changes_data(self, tmp_path):
        a_path = tmp_path / "a.csv"
        b_path = tmp_path / "b.csv"
        main(["export-trace", "SPMD", "--days", "2", "--seed", "1", "--out", str(a_path)])
        main(["export-trace", "SPMD", "--days", "2", "--seed", "2", "--out", str(b_path)])
        a = read_csv(a_path)
        b = read_csv(b_path)
        assert not np.array_equal(a.values, b.values)


class TestAnalysisCommands:
    def test_tune(self, capsys):
        assert main(["tune", "--site", "PFCI", "--days", "45", "--n", "48"]) == 0
        out = capsys.readouterr().out
        assert "best on PFCI" in out
        assert "guideline check: K=2" in out

    def test_compare(self, capsys):
        assert main(["compare", "--site", "HSU", "--days", "45", "--n", "24"]) == 0
        out = capsys.readouterr().out
        assert "wcma" in out and "pro-energy" in out and "MAPE" in out

    def test_summarize(self, capsys):
        code = main(
            ["summarize", "--site", "PFCI", "--days", "45", "--n", "48",
             "--predictor", "wcma"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "error quantiles" in out

    def test_tune_from_csv(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        main(["export-trace", "HSU", "--days", "45", "--out", str(path)])
        capsys.readouterr()
        assert main(["tune", "--trace", str(path), "--n", "24"]) == 0
        out = capsys.readouterr().out
        assert "best on HSU" in out

    def test_trace_and_site_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tune", "--site", "PFCI", "--trace", "x.csv"])


class TestFleetCommand:
    def test_fleet_summary_table(self, capsys):
        code = main(
            [
                "fleet",
                "--nodes", "6",
                "--sites", "SPMD", "HSU",
                "--days", "8",
                "--predictors", "wcma", "persistence",
                "--controllers", "kansal",
                "--capacities", "250",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "FLEET: fleet simulation: 6 nodes" in out
        assert "wcma" in out and "persistence" in out
        assert "downtime" in out
        assert "node-slots/sec" in out

    def test_fleet_rejects_unknown_controller(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet", "--controllers", "nope"])

    def test_fleet_with_scenarios(self, capsys):
        code = main(
            [
                "fleet",
                "--nodes", "4",
                "--sites", "SPMD",
                "--days", "8",
                "--predictors", "wcma",
                "--scenarios", "clean", "dropout",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "FLEET: fleet simulation: 4 nodes" in out


class TestIngestCommand:
    def sample(self):
        from repro.solar.ingest import sample_csv_path

        return str(sample_csv_path())

    def test_ingest_summary_and_quality(self, capsys):
        assert main(["ingest", self.sample()]) == 0
        out = capsys.readouterr().out
        assert "ingested SAMPLE-MIDC" in out
        assert "quality:" in out and "dropout" in out
        assert "replay scenario:" in out

    def test_ingest_clean_export_roundtrips(self, tmp_path, capsys):
        out_path = tmp_path / "clean.csv"
        code = main(
            ["ingest", self.sample(), "--name", "M", "--out", str(out_path)]
        )
        assert code == 0
        trace = read_csv(out_path)
        assert trace.name == "M"
        assert trace.n_days == 28
        assert (trace.values >= 0).all()

    def test_ingest_resolution_and_channel(self, capsys):
        code = main(
            ["ingest", self.sample(), "--resolution", "15",
             "--channel", "air temp"]
        )
        assert code == 0
        assert "Air Temperature" in capsys.readouterr().out

    def test_ingest_missing_file_exits_cleanly(self, capsys):
        code = main(["ingest", "/nonexistent/file.csv"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_ingest_bad_channel_exits_cleanly(self, capsys):
        code = main(["ingest", self.sample(), "--channel", "nope"])
        assert code == 2
        assert "unknown channel" in capsys.readouterr().err

    def test_ingest_bad_resolution_exits_cleanly(self, capsys):
        code = main(["ingest", self.sample(), "--resolution", "7"])
        assert code == 2
        assert "target resolution" in capsys.readouterr().err


class TestRobustnessTrace:
    @pytest.fixture(autouse=True)
    def _cleanup_registry(self):
        yield
        from repro.solar.ingest.sites import clear_measured_sites

        clear_measured_sites()

    def test_trace_runs_matrix_and_defects_replay(self, capsys):
        from repro.solar.datasets import available_datasets
        from repro.solar.ingest import sample_csv_path

        code = main(
            ["robustness", "--trace", str(sample_csv_path()),
             "--scenarios", "dropout", "--predictors", "persistence",
             "--no-tune", "--fleet-days", "8"]
        )
        assert code == 0
        captured = capsys.readouterr()
        # --days defaulted past the trace length: clamped with a note.
        assert "running the matrix at 28 days" in captured.err
        out = captured.out
        assert "SAMPLE-MIDC" in out
        assert "sample-midc-defects" in out
        assert "ROBUSTNESS-FLEET" in out
        # The registration is a per-invocation side effect, cleaned up.
        assert "SAMPLE-MIDC" not in available_datasets()

    def test_foreign_measured_site_does_not_veto_default_n(self, tmp_path):
        """A registered measured site whose rate N cannot divide must
        not fail validation of a default (synthetic-six) robustness run."""
        from repro.cli import _validate_names
        from repro.solar.ingest.sites import register_measured_site

        hourly = tmp_path / "hourly.csv"
        hourly.write_text(
            "DATE,MST,Global [W/m^2]\n"
            + "\n".join(f"03/01/2010,{h:02d}:00,10.0" for h in range(24))
            + "\n"
        )
        register_measured_site(hourly, name="HOURLY")  # spd=24, 48 won't divide
        args = build_parser().parse_args(["robustness", "--n", "48"])
        _validate_names(args)  # must not raise

    def test_trace_only_run_skips_synthetic_n_check(self):
        """--trace without --sites runs the measured site alone; an N
        the synthetic six cannot slot must pass validation (the
        measured check happens after ingestion)."""
        from repro.cli import _validate_names

        args = build_parser().parse_args(
            ["robustness", "--trace", "whatever.csv", "--n", "90"]
        )
        _validate_names(args)  # must not raise (90 does not divide 288)

    def test_trace_missing_file_exits_cleanly(self, capsys):
        code = main(["robustness", "--trace", "/nonexistent/file.csv"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_trace_bad_n_exits_cleanly(self, capsys):
        from repro.solar.ingest import sample_csv_path

        code = main(
            ["robustness", "--trace", str(sample_csv_path()), "--n", "54"]
        )
        assert code == 2
        assert "does not divide" in capsys.readouterr().err


class TestRobustnessCommand:
    def test_matrix_and_summary(self, capsys):
        code = main(
            [
                "robustness",
                "--days", "30",
                "--sites", "PFCI",
                "--scenarios", "dropout", "jitter",
                "--no-tune",
                "--fleet-days", "8",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ROBUSTNESS: scenario robustness matrix" in out
        assert "dropout" in out and "jitter" in out and "clean" in out
        assert "most harmful:" in out
        assert "ROBUSTNESS-FLEET: fleet robustness" in out

    def test_no_fleet_skips_fleet_table(self, capsys):
        code = main(
            [
                "robustness",
                "--days", "30",
                "--sites", "PFCI",
                "--scenarios", "jitter",
                "--no-tune",
                "--no-fleet",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ROBUSTNESS-FLEET" not in out

    def test_list_shows_scenarios(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "scenarios:" in out and "regime-shift" in out


class TestCacheCommand:
    """repro-solar cache info/clear + the run-time cache flags."""

    def test_info_on_missing_dir_exits_2(self, tmp_path, capsys):
        code = main(["cache", "info", "--dir", str(tmp_path / "nope")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "does not exist" in err

    def test_clear_on_missing_dir_exits_2(self, tmp_path, capsys):
        code = main(["cache", "clear", "--dir", str(tmp_path / "nope")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_clear_refuses_foreign_dir(self, tmp_path, capsys):
        (tmp_path / "keep.txt").write_text("not a cache")
        code = main(["cache", "clear", "--dir", str(tmp_path)])
        assert code == 2
        assert "refusing" in capsys.readouterr().err
        assert (tmp_path / "keep.txt").exists()

    def test_run_populates_then_info_then_clear(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert main([
            "run", "table1", "--days", "5", "--sites", "PFCI",
            "--cache-dir", str(cache_dir),
        ]) == 0
        captured = capsys.readouterr()
        assert "cache-misses=1" in captured.err
        assert main([
            "run", "table1", "--days", "5", "--sites", "PFCI",
            "--cache-dir", str(cache_dir),
        ]) == 0
        captured = capsys.readouterr()
        assert "cache-hits=1" in captured.err

        assert main(["cache", "info", "--dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "entries:    1" in out
        assert main(["cache", "clear", "--dir", str(cache_dir)]) == 0
        assert "removed 1 entries" in capsys.readouterr().out
        assert main(["cache", "info", "--dir", str(cache_dir)]) == 0
        assert "entries:    0" in capsys.readouterr().out

    def test_no_cache_flag_disables_caching(self, tmp_path, capsys, monkeypatch):
        cache_dir = tmp_path / "cache"
        monkeypatch.setenv("REPRO_SOLAR_CACHE_DIR", str(cache_dir))
        assert main([
            "run", "table1", "--days", "5", "--sites", "PFCI", "--no-cache",
        ]) == 0
        captured = capsys.readouterr()
        assert not cache_dir.exists()
        assert "cache-misses" not in captured.err

    def test_default_cache_dir_honours_env(self, tmp_path, capsys, monkeypatch):
        cache_dir = tmp_path / "from-env"
        monkeypatch.setenv("REPRO_SOLAR_CACHE_DIR", str(cache_dir))
        assert main(["run", "table1", "--days", "5", "--sites", "PFCI"]) == 0
        capsys.readouterr()
        assert cache_dir.is_dir()
        assert main(["cache", "info"]) == 0
        assert str(cache_dir) in capsys.readouterr().out

    def test_robustness_uses_cache(self, tmp_path, capsys):
        argv = [
            "robustness", "--days", "30", "--sites", "PFCI",
            "--scenarios", "dropout", "--no-tune", "--no-fleet",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        first = capsys.readouterr()
        # 2 wcma cells (clean + dropout) + the ewma and persistence slabs.
        assert "cache-misses=4" in first.err
        assert main(argv) == 0
        second = capsys.readouterr()
        # The 2 wcma cells + the 2 x 2 stacked cells, each cached.
        assert "cache-hits=6" in second.err
        assert first.out == second.out

    def test_backend_choice_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run-all", "--backend", "mpi"])
