"""Tests for the real-dataset ingestion pipeline.

Covers the MIDC-shaped parser (channel selection, missing-data forms,
grid inference, error paths; every case also pinned bit for bit to the
frozen parser in ``tests/oracles/midc.py``), the quality-flag
detectors (hand-built cases plus hypothesis determinism/disjointness
properties), the clean repair, the replay round trip on the bundled
sample (the acceptance property: masks byte-identical, values exact),
and measured-site registration through the experiment stack.
"""

import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.experiments.common import (
    clear_batch_cache,
    sites_for,
    supported_n_for_site,
    trace_for,
)
from repro.experiments.robustness import run as run_robustness
from repro.metrics import evaluate_predictor, format_quality_summary, summarise_quality
from repro.core.registry import make_predictor
from repro.solar.datasets import available_datasets, build_dataset, samples_per_day_for
from repro.solar.ingest import (
    IngestError,
    QualityThresholds,
    build_replay_scenario,
    clean_values,
    detect_quality,
    format_ingest_report,
    ingest_csv,
    ingest_sample,
    sample_csv_path,
)
from repro.solar.ingest.replay import (
    ReplayedDropout,
    ReplayedGaps,
    ReplayedSpikes,
    ReplayedStuck,
)
from repro.solar.ingest.sites import (
    clear_measured_sites,
    measured_site,
    register_measured_site,
    unregister_measured_site,
)
from repro.solar.scenarios import Scenario
from repro.solar.sites import SITE_ORDER
from repro.solar.trace import SolarTrace
from tests.oracles.midc import checked_parse_midc


HEADER = "DATE (MM/DD/YYYY),MST,Global Horizontal [W/m^2],Air Temperature [deg C]"


def midc_text(rows, header=HEADER):
    return "\n".join([header] + rows) + "\n"


def hourly_rows(days=1, value=lambda day, hour: 100.0 * (6 <= hour <= 18)):
    rows = []
    for day in range(days):
        for hour in range(24):
            rows.append(
                f"03/{day + 1:02d}/2010,{hour:02d}:00,{value(day, hour)},5.0"
            )
    return rows


@pytest.fixture
def measured_registry_guard():
    yield
    clear_measured_sites()


class TestParser:
    def test_basic_grid_and_resolution(self):
        parsed = checked_parse_midc(io.StringIO(midc_text(hourly_rows(days=2))))
        assert parsed.resolution_minutes == 60
        assert parsed.samples_per_day == 24
        assert parsed.n_days == 2
        assert parsed.channel == "Global Horizontal [W/m^2]"
        assert parsed.channels == (
            "Global Horizontal [W/m^2]",
            "Air Temperature [deg C]",
        )

    def test_default_channel_prefers_global(self):
        header = "DATE,MST,Direct Normal [W/m^2],Global Horizontal [W/m^2]"
        rows = ["03/01/2010,%02d:00,1.0,2.0" % h for h in range(24)]
        parsed = checked_parse_midc(io.StringIO(midc_text(rows, header)))
        assert parsed.channel == "Global Horizontal [W/m^2]"
        assert parsed.values[12] == 2.0

    def test_channel_substring_selection(self):
        parsed = checked_parse_midc(
            io.StringIO(midc_text(hourly_rows())), channel="air temp"
        )
        assert parsed.channel == "Air Temperature [deg C]"
        assert np.nanmax(parsed.values) == 5.0

    def test_unknown_channel_lists_available(self):
        with pytest.raises(IngestError, match="unknown channel.*Global"):
            checked_parse_midc(io.StringIO(midc_text(hourly_rows())), channel="nope")

    def test_rows_in_any_order(self):
        rows = hourly_rows()
        shuffled = rows[::-1]
        a = checked_parse_midc(io.StringIO(midc_text(rows)))
        b = checked_parse_midc(io.StringIO(midc_text(shuffled)))
        assert a.values.tobytes() == b.values.tobytes()

    def test_missing_forms_become_nan(self):
        rows = hourly_rows()
        rows[10] = "03/01/2010,10:00,,5.0"        # empty cell
        rows[11] = "03/01/2010,11:00,-99999,5.0"  # sentinel
        del rows[12]                              # absent row
        parsed = checked_parse_midc(io.StringIO(midc_text(rows)))
        assert np.isnan(parsed.values[[10, 11, 12]]).all()
        assert parsed.values[13] == 100.0

    def test_absent_days_padded(self):
        rows = hourly_rows(days=1) + [
            f"03/03/2010,{h:02d}:00,50.0,5.0" for h in range(24)
        ]
        parsed = checked_parse_midc(io.StringIO(midc_text(rows)))
        assert parsed.n_days == 3
        assert np.isnan(parsed.values[24:48]).all()

    def test_iso_dates_accepted(self):
        rows = [f"2010-03-01,{h:02d}:00,42.0,5.0" for h in range(24)]
        parsed = checked_parse_midc(io.StringIO(midc_text(rows)))
        assert parsed.start_date == "2010-03-01"

    def test_negative_values_survive_parse(self):
        rows = hourly_rows(value=lambda d, h: -1.5 if h < 6 else 100.0)
        parsed = checked_parse_midc(io.StringIO(midc_text(rows)))
        assert parsed.values[0] == -1.5  # clipping happens at ingest


class TestParserErrors:
    def test_empty_file(self):
        with pytest.raises(IngestError, match="empty"):
            checked_parse_midc(io.StringIO(""))

    def test_no_date_column(self):
        text = "TIMESTAMP,GHI\n1,2\n"
        with pytest.raises(IngestError, match="date column"):
            checked_parse_midc(io.StringIO(text))

    def test_no_time_column(self):
        text = "DATE,GHI\n03/01/2010,2\n"
        with pytest.raises(IngestError, match="time column"):
            checked_parse_midc(io.StringIO(text))

    def test_no_channels(self):
        text = "DATE,MST\n03/01/2010,00:00\n"
        with pytest.raises(IngestError, match="no measurement channels"):
            checked_parse_midc(io.StringIO(text))

    def test_header_only(self):
        with pytest.raises(IngestError, match="no data rows"):
            checked_parse_midc(io.StringIO(HEADER + "\n"))

    def test_bad_date(self):
        rows = hourly_rows()
        rows[3] = "garbage,03:00,1.0,5.0"
        with pytest.raises(IngestError, match="cannot parse date"):
            checked_parse_midc(io.StringIO(midc_text(rows)))

    def test_bad_time(self):
        rows = hourly_rows()
        rows[3] = "03/01/2010,25:00,1.0,5.0"
        with pytest.raises(IngestError, match="time"):
            checked_parse_midc(io.StringIO(midc_text(rows)))

    def test_non_numeric_sample(self):
        rows = hourly_rows()
        rows[3] = "03/01/2010,03:00,abc,5.0"
        with pytest.raises(IngestError, match="non-numeric"):
            checked_parse_midc(io.StringIO(midc_text(rows)))

    def test_duplicate_timestamp(self):
        rows = hourly_rows() + ["03/01/2010,07:00,1.0,5.0"]
        with pytest.raises(IngestError, match="duplicate timestamp"):
            checked_parse_midc(io.StringIO(midc_text(rows)))

    def test_irregular_grid(self):
        rows = [
            "03/01/2010,00:00,1.0,5.0",
            "03/01/2010,00:10,1.0,5.0",
            "03/01/2010,00:24,1.0,5.0",  # not on the 10-minute grid
        ]
        with pytest.raises(IngestError, match="irregular time grid"):
            checked_parse_midc(io.StringIO(midc_text(rows)))

    def test_non_divisor_resolution(self):
        rows = [f"03/01/2010,00:{m:02d},1.0,5.0" for m in (0, 7, 14, 21)]
        with pytest.raises(IngestError, match="does not divide a day"):
            checked_parse_midc(io.StringIO(midc_text(rows)))

    def test_stray_offgrid_row_rejected_loudly(self):
        """One logger hiccup must not silently halve the inferred grid."""
        rows = hourly_rows() + ["03/01/2010,07:30,1.0,5.0"]
        with pytest.raises(IngestError, match="irregular time grid"):
            checked_parse_midc(io.StringIO(midc_text(rows)))

    def test_short_row(self):
        rows = hourly_rows()
        rows[3] = "03/01/2010"
        with pytest.raises(IngestError, match="expected at least"):
            checked_parse_midc(io.StringIO(midc_text(rows)))


class TestIngestAndResample:
    def test_negatives_clipped(self):
        rows = hourly_rows(value=lambda d, h: -1.5 if h < 6 else 100.0)
        result = ingest_csv(io.StringIO(midc_text(rows)), name="T")
        assert (result.raw.values >= 0).all()
        assert result.raw.values[0] == 0.0

    def test_resample_block_mean(self):
        rows = hourly_rows(value=lambda d, h: float(h))
        result = ingest_csv(
            io.StringIO(midc_text(rows)), name="T", resolution_minutes=120
        )
        assert result.clean.resolution_minutes == 120
        # Hours (6, 7) average to 6.5 once negatives/zeros are left alone.
        assert result.raw.values[3] == pytest.approx(6.5)

    def test_resample_missing_threshold(self):
        rows = hourly_rows()
        rows[10] = "03/01/2010,10:00,,5.0"  # 1 of 2 samples in its block
        result = ingest_csv(
            io.StringIO(midc_text(rows)), name="T", resolution_minutes=120
        )
        # Half valid == the 0.5 default threshold: still observed.
        assert not result.report.missing[5]
        stricter = ingest_csv(
            io.StringIO(midc_text(rows)),
            name="T",
            resolution_minutes=120,
            min_valid_fraction=0.75,
        )
        assert stricter.report.missing[5]

    def test_bad_target_resolution(self):
        for target in (30, 90, 7):  # finer, non-multiple, non-divisor
            with pytest.raises(IngestError, match="target resolution"):
                ingest_csv(
                    io.StringIO(midc_text(hourly_rows())),
                    resolution_minutes=target,
                )

    def test_default_name_from_path(self, tmp_path):
        path = tmp_path / "My Site 01.csv"
        path.write_text(midc_text(hourly_rows()))
        result = ingest_csv(path)
        assert result.clean.name == "MY-SITE-01"
        assert result.source == str(path)

    def test_report_renders(self):
        result = ingest_sample()
        text = format_ingest_report(result)
        assert "SAMPLE-MIDC" in text and "quality:" in text
        summary = summarise_quality(result.report)
        rendered = format_quality_summary(summary)
        assert "missing" in rendered and "clean days" in rendered


class TestDetectors:
    SPD = 24
    RES = 60

    def day(self, peak=400.0):
        """One synthetic day: night-flanked triangular profile."""
        v = np.zeros(self.SPD)
        v[6:19] = peak * (1.0 - np.abs(np.linspace(-1, 1, 13)) * 0.8)
        return v

    def detect(self, values, missing=None, **kw):
        return detect_quality(
            values, self.SPD, self.RES, missing=missing,
            thresholds=QualityThresholds(**kw) if kw else None,
        )

    def test_clean_trace_unflagged(self):
        report = self.detect(self.day())
        assert not report.any_defect.any()
        assert report.night_slots[0] and not report.night_slots[12]

    def test_spike_threshold(self):
        v = self.day()
        v[12] = 1600.0
        report = self.detect(v)
        assert report.spike[12] and report.spike.sum() == 1

    def test_stuck_flags_repeats_not_onset(self):
        v = self.day()
        v[9:14] = v[9]
        report = self.detect(v)
        assert not report.stuck[9]
        assert report.stuck[10:14].all()
        assert report.stuck.sum() == 4

    def test_short_plateau_unflagged(self):
        v = self.day()
        v[9] = v[10]  # run of 2 at 60-minute slots < 20-minute floor? no:
        # min run is max(2, round(20/60)) == 2, so a pair *is* flagged.
        report = self.detect(v)
        assert report.stuck[10] and report.stuck.sum() == 1

    def test_dropout_inside_daylight(self):
        v = self.day()
        v[10:13] = 0.0
        report = self.detect(v)
        assert report.dropout[10:13].all() and report.dropout.sum() == 3

    def test_night_zeros_not_dropout(self):
        report = self.detect(self.day())
        assert not report.dropout[:6].any()

    def test_missing_excluded_from_dropout(self):
        v = self.day()
        v[10:13] = 0.0
        missing = np.zeros(self.SPD, dtype=bool)
        missing[10:13] = True
        report = self.detect(v, missing=missing)
        assert not report.dropout.any()
        assert report.missing[10:13].all()

    def test_nan_is_missing(self):
        v = self.day()
        v[8] = np.nan
        report = self.detect(v)
        assert report.missing[8] and report.missing.sum() == 1

    def test_clean_values_repairs_and_preserves(self):
        # Three days so the night inference can tell a dropout column
        # (dark on one day, sunny on the others) from real night.
        v = np.concatenate([self.day(), self.day(), self.day()])
        v[12] = 1700.0
        v[8:11] = 0.0
        report = self.detect(v)
        assert report.spike[12] and report.dropout[8:11].all()
        cleaned = clean_values(v, report)
        untouched = ~report.any_defect
        assert np.array_equal(cleaned[untouched], v[untouched])
        assert 0 < cleaned[12] < report.thresholds.spike_wm2  # interpolated
        assert (cleaned[8:11] > 0).all()

    def test_clean_values_nothing_to_do(self):
        v = self.day()
        report = self.detect(v)
        assert clean_values(v, report).tobytes() == v.tobytes()


#: Hypothesis values: mostly plausible irradiance, some spikes, zeros
#: and NaN, over 1-3 days of 24 hourly slots.
_values = st.integers(1, 3).flatmap(
    lambda days: arrays(
        float,
        days * 24,
        elements=st.one_of(
            st.floats(0.0, 1400.0),
            st.just(0.0),
            st.floats(1500.1, 3000.0),
            st.just(float("nan")),
            st.sampled_from([250.0, 250.0, 777.7]),  # encourage repeats
        ),
    )
)


class TestDetectorProperties:
    @settings(max_examples=60, deadline=None)
    @given(values=_values, seed=st.integers(0, 2**31 - 1))
    def test_deterministic_and_disjoint(self, values, seed):
        """Masks are a pure function of the input and pairwise disjoint."""
        rng = np.random.default_rng(seed)
        missing = rng.random(values.size) < 0.1
        first = detect_quality(values, 24, 60, missing=missing)
        second = detect_quality(values, 24, 60, missing=missing)
        names = ("missing", "spike", "stuck", "dropout")
        for name in names:
            assert (
                getattr(first, name).tobytes() == getattr(second, name).tobytes()
            )
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                assert not (getattr(first, a) & getattr(first, b)).any()

    @settings(max_examples=40, deadline=None)
    @given(values=_values)
    def test_flag_value_contracts(self, values):
        """Each flag only ever lands on values matching its definition."""
        report = detect_quality(values, 24, 60)
        filled = np.where(report.missing, 0.0, values)
        assert (filled[report.spike] > report.thresholds.spike_wm2).all()
        assert (filled[report.stuck] > 0).all()
        assert (filled[report.dropout] == 0.0).all()
        assert report.missing.tobytes() == np.isnan(values).tobytes()


class TestReplayTransforms:
    def trace(self):
        v = np.zeros(48)
        v[12:36] = np.linspace(10, 500, 24)
        return SolarTrace(v, 30, "R")

    def test_geometry_bound(self):
        mask = np.zeros(96, dtype=bool)
        mask[50] = True
        scenario = Scenario(name="x", transforms=(ReplayedDropout(mask=mask),))
        with pytest.raises(ValueError, match="geometry"):
            scenario.apply(self.trace())

    def test_masks_require_payload(self):
        with pytest.raises(ValueError, match="mask"):
            ReplayedGaps()
        with pytest.raises(ValueError, match="mask"):
            ReplayedDropout()
        with pytest.raises(ValueError, match="mask"):
            ReplayedStuck()
        with pytest.raises(ValueError, match="mask"):
            ReplayedSpikes()

    def test_stuck_rejects_flagged_first_sample(self):
        mask = np.zeros(48, dtype=bool)
        mask[0] = True
        with pytest.raises(ValueError, match="sample 0"):
            ReplayedStuck(mask=mask)

    def test_spike_amplitude_count_checked(self):
        mask = np.zeros(48, dtype=bool)
        mask[20] = True
        with pytest.raises(ValueError, match="amplitude count"):
            ReplayedSpikes(mask=mask, amplitudes=np.array([1.0, 2.0]))

    def test_replay_is_deterministic_scenario(self):
        trace = self.trace()
        mask = np.zeros(48, dtype=bool)
        mask[20:24] = True
        scenario = Scenario(
            name="drop", transforms=(ReplayedDropout(mask=mask),), seed=1
        )
        a = scenario.apply(trace)
        b = scenario.with_seed(999).apply(trace)
        assert a.values.tobytes() == b.values.tobytes()
        assert (a.values[20:24] == 0).all()


class TestSampleRoundTrip:
    """The acceptance property on the bundled sample file."""

    @pytest.fixture(scope="class")
    def result(self):
        return ingest_sample()

    def test_sample_carries_every_flag(self, result):
        counts = result.report.counts()
        assert all(counts[name] > 0 for name in counts)

    def test_replay_reproduces_raw_values_exactly(self, result):
        replayed = result.scenario.apply(result.clean)
        assert replayed.values.tobytes() == result.raw.values.tobytes()

    def test_replay_reproduces_masks_exactly(self, result):
        replayed = result.scenario.apply(result.clean)
        re_report = detect_quality(
            replayed.values,
            result.report.samples_per_day,
            result.report.resolution_minutes,
            missing=result.report.missing,
            thresholds=result.report.thresholds,
        )
        for name in ("missing", "spike", "stuck", "dropout"):
            assert (
                getattr(re_report, name).tobytes()
                == getattr(result.report, name).tobytes()
            ), name

    def test_clean_differs_from_raw_only_on_flags(self, result):
        same = result.clean.values == result.raw.values
        assert same[~result.report.any_defect].all()
        assert result.clean.n_days == 28
        assert result.clean.resolution_minutes == 5

    def test_scenario_via_builder_matches(self, result):
        rebuilt = build_replay_scenario(
            result.report, result.raw.values, name="again"
        )
        assert (
            rebuilt.apply(result.clean).values.tobytes()
            == result.raw.values.tobytes()
        )

    def test_resampled_ingest_round_trips_too(self):
        result = ingest_sample(resolution_minutes=15)
        assert result.clean.samples_per_day == 96
        replayed = result.scenario.apply(result.clean)
        assert replayed.values.tobytes() == result.raw.values.tobytes()

    def test_night_defects_round_trip_exactly(self):
        """Spike/stuck glitches in night columns repair to zero in the
        clean trace yet replay back to the recorded readings."""
        day = np.zeros(24)
        day[6:19] = 300.0 + np.arange(13) * 7.0
        v = np.concatenate([day, day, day])
        v[2] = 1600.0          # nocturnal spike (night column)
        v[26:29] = 42.0        # nocturnal stuck plateau, onset at 26
        rows = [
            f"03/{1 + i // 24:02d}/2010,{i % 24:02d}:00,{v[i]},5.0"
            for i in range(v.size)
        ]
        result = ingest_csv(io.StringIO(midc_text(rows)), name="NIGHT")
        report = result.report
        assert report.spike[2]
        assert report.stuck[27:29].all() and not report.stuck[26]
        # Clean repairs night-column defects to darkness...
        assert result.clean.values[2] == 0.0
        assert (result.clean.values[27:29] == 0.0).all()
        # ...and the replay still restores the raw readings exactly.
        replayed = result.scenario.apply(result.clean)
        assert replayed.values.tobytes() == result.raw.values.tobytes()


class TestMeasuredSites:
    def test_registration_and_lookup(self, measured_registry_guard):
        site = register_measured_site(sample_csv_path(), name="MEAS")
        assert site.name == "MEAS"
        assert site.n_days == 28 and site.samples_per_day == 288
        assert "MEAS" in available_datasets()
        assert samples_per_day_for("MEAS") == 288
        assert measured_site("meas") is site
        unregister_measured_site("MEAS")
        assert "MEAS" not in available_datasets()
        assert available_datasets() == SITE_ORDER

    def test_duplicate_and_collision_rejected(self, measured_registry_guard):
        register_measured_site(sample_csv_path(), name="MEAS")
        with pytest.raises(ValueError, match="already registered"):
            register_measured_site(sample_csv_path(), name="MEAS")
        register_measured_site(sample_csv_path(), name="MEAS", overwrite=True)
        with pytest.raises(ValueError, match="collides"):
            register_measured_site(sample_csv_path(), name="PFCI")

    def test_build_dataset_serves_clean_trace(self, measured_registry_guard):
        register_measured_site(sample_csv_path(), name="MEAS")
        trace = build_dataset("MEAS", n_days=10)
        assert trace.n_days == 10
        full = build_dataset("MEAS", n_days=28)
        assert np.array_equal(trace.values, full.values[: trace.n_samples])
        with pytest.raises(ValueError, match="cannot be extended"):
            build_dataset("MEAS", n_days=29)
        with pytest.raises(ValueError, match="seed is not applicable"):
            build_dataset("MEAS", n_days=10, seed=3)

    def test_experiment_helpers_accept_measured(self, measured_registry_guard):
        register_measured_site(sample_csv_path(), name="MEAS")
        assert sites_for(("pfci", "meas")) == ("PFCI", "MEAS")
        assert supported_n_for_site("MEAS", (288, 96, 48, 100)) == (288, 96, 48)
        clear_batch_cache()
        trace = trace_for("MEAS", 14)
        assert trace.n_days == 14 and trace.name == "MEAS"

    def test_predictors_and_sweep_consume_measured(self, measured_registry_guard):
        site = register_measured_site(sample_csv_path(), name="MEAS")
        trace = site.build()
        run = evaluate_predictor(make_predictor("ewma", 48), trace, 48)
        assert 0 < run.mape < 2.0

    def test_fleet_specs_accept_measured(self, measured_registry_guard):
        from repro.experiments.fleet import build_fleet_specs
        from repro.parallel.fleet import FleetPlan

        register_measured_site(sample_csv_path(), name="MEAS")
        specs = build_fleet_specs(
            FleetPlan(n_nodes=2, sites=("MEAS",), n_days=8, predictors=("persistence",))
        )
        assert specs[0].trace.name == "MEAS"

    def test_reregistration_invalidates_trace_memo(
        self, measured_registry_guard, tmp_path
    ):
        """Re-registering a name against a different file must not serve
        the previous file's memoised trace."""

        def write(path, level):
            rows = [
                f"03/01/2010,{h:02d}:00,{level if 6 <= h <= 18 else 0.0}"
                for h in range(24)
            ]
            path.write_text("DATE,MST,Global [W/m^2]\n" + "\n".join(rows) + "\n")

        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write(first, 100.0)
        write(second, 50.0)
        register_measured_site(first, name="M")
        before = trace_for("M", 1)
        assert before.values.max() == 100.0
        register_measured_site(second, name="M", overwrite=True)
        after = trace_for("M", 1)
        assert after.values.max() == 50.0

    def test_robustness_matrix_measured_parity(self, measured_registry_guard):
        """Sequential == parallel on a measured site, defects included."""
        site = register_measured_site(sample_csv_path(), name="MEAS")
        kwargs = dict(
            n_days=site.n_days,
            sites=("MEAS",),
            scenarios=("clean", site.defects_scenario_name),
            predictors=("persistence",),
            tune_wcma=False,
        )
        sequential = run_robustness(**kwargs)
        parallel = run_robustness(jobs=2, **kwargs)
        assert sequential.rows == parallel.rows
        defect_rows = [
            r for r in sequential.rows if r["scenario"] == "meas-defects"
        ]
        assert len(defect_rows) == 1
        assert defect_rows[0]["dMAPE vs clean (pp)"] is not None
