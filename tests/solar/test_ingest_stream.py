"""Tests for the MIDC reader's stream contract and the parser hardening.

``parse_midc`` is the one reader: one pass over a path or any iterable
of text lines (seekable or not), rows in any order, kept in typed
arrays.  Its acceptance property is *bit-identity* with the frozen
list-based parser in ``tests/oracles/midc.py``: the same grid bytes and
metadata, or the same ``IngestError`` text, on the bundled sample, a
one-shot line iterator and hypothesis-generated files with shuffled,
duplicate and off-grid rows.  Also covered: the per-row memory ceiling,
the CSV layer's own errors, the sample's ingest bytes, the BOM/CRLF/
sentinel-whitespace hardening, and the thread safety of the
measured-site ingest memo.
"""

import hashlib
import io
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.solar.ingest import IngestError, ingest_csv, parse_midc, sample_csv_path
from tests.oracles.midc import checked_parse_midc, parse_outcome, reference_parse_midc


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


def assert_channels_identical(streamed, parsed):
    assert streamed.values.tobytes() == parsed.values.tobytes()
    assert streamed.resolution_minutes == parsed.resolution_minutes
    assert streamed.channel == parsed.channel
    assert streamed.channels == parsed.channels
    assert streamed.start_date == parsed.start_date


class TestOracleParity:
    def test_sample_file_identical(self):
        checked_parse_midc(sample_csv_path())

    def test_one_shot_line_iterator(self):
        """A non-seekable source is read once, in any row order."""
        text = sample_csv_path().read_text()
        header, *rows = text.splitlines(keepends=True)
        lines = iter([header] + rows[::-1])
        assert not hasattr(lines, "seek")
        assert_channels_identical(parse_midc(lines), reference_parse_midc(sample_csv_path()))

    def test_span_guard(self):
        rows = [
            "01/01/2010,00:00,1.0,5.0",
            "01/01/2019,00:00,1.0,5.0",
        ]
        with pytest.raises(IngestError, match="spans 3288 calendar days"):
            checked_parse_midc(io.StringIO(midc_text(rows)))

    @pytest.mark.parametrize(
        "rows, first_fault",
        [
            # Off-grid rows (the modal step is 60) and a duplicate and a
            # span fault: the first off-grid row in file order wins.
            (hourly_rows() + ["03/01/2010,07:40,1,5", "03/01/2010,05:20,1,5",
                              "03/01/2010,07:00,1,5", "03/01/2019,00:00,1,5"],
             "minute 460 is not on the inferred 60-minute grid"),
            # Span beats duplicates.
            (hourly_rows() + ["03/01/2010,07:00,1,5", "03/01/2019,00:00,1,5"],
             "spans 3288 calendar days"),
            # The first row, in file order, that repeats a taken slot.
            (hourly_rows(days=2)[::-1] + ["03/02/2010,09:00,1,5",
                                          "03/01/2010,03:00,1,5"],
             "duplicate timestamp: day 2, minute 540"),
            # A resolution that does not divide a day beats everything.
            ([f"03/01/2010,00:{m:02d},1.0,5.0" for m in (0, 7, 14, 21, 3)],
             "inferred native resolution 7 minutes does not divide a day"),
        ],
        ids=["off-grid", "span", "duplicate", "resolution"],
    )
    def test_multi_fault_order(self, rows, first_fault):
        with pytest.raises(IngestError, match=first_fault):
            checked_parse_midc(io.StringIO(midc_text(rows)))

    def test_missing_spellings_share_one_nan(self):
        """``-nan``, ``nan``, sentinels and empty cells store the same bits."""
        rows = [f"03/01/2010,{h:02d}:00,{cell},5.0"
                for h, cell in enumerate(["-nan", "nan", "NaN", "", "-99999", "-inf"])]
        parsed = checked_parse_midc(io.StringIO(midc_text(rows)))
        assert len({v.tobytes() for v in parsed.values[:6]}) == 1


class TestStreamParity:
    def test_seekable_stream_source(self):
        """A seekable stream is read once, from where it stands: never rewound."""
        text = midc_text(hourly_rows(days=3))
        stream = io.StringIO("logger preamble\n" + text)
        stream.readline()
        parsed = parse_midc(stream)
        assert stream.read() == ""
        assert_channels_identical(parsed, reference_parse_midc(io.StringIO(text)))

    # Generated files: arbitrary day patterns with missing cells,
    # sentinel values, absent rows, shuffled rows and injected
    # duplicate and off-grid rows must parse bit-identically to the
    # frozen parser, or fail with its error text.
    @settings(max_examples=60, deadline=None)
    @given(
        data=st.lists(
            st.lists(
                st.one_of(
                    st.none(),  # row absent
                    st.just("-9999"),  # sentinel -> NaN
                    st.just(""),  # empty cell -> NaN
                    st.sampled_from(["nan", "-nan", "inf", "-inf"]),
                    st.floats(-5, 900, allow_nan=False).map(lambda v: f"{v:.1f}"),
                ),
                min_size=24,
                max_size=24,
            ),
            min_size=1,
            max_size=5,
        ),
        extra=st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 1439)), max_size=3
        ),
        order=st.randoms(use_true_random=False),
        shuffle=st.booleans(),
    )
    def test_generated_files_stream_identically(self, data, extra, order, shuffle):
        rows = []
        for day, cells in enumerate(data):
            for hour, cell in enumerate(cells):
                if cell is None:
                    continue
                rows.append(f"03/{day + 1:02d}/2010,{hour:02d}:00,{cell},5.0")
        # Extra rows land on the hourly grid (duplicates) or off it.
        rows += [f"03/{day + 1:02d}/2010,{m // 60:02d}:{m % 60:02d},1.0,5.0"
                 for day, m in extra]
        if shuffle:
            order.shuffle(rows)
        text = midc_text(rows)
        expected = parse_outcome(reference_parse_midc, io.StringIO(text))
        assert parse_outcome(parse_midc, io.StringIO(text)) == expected
        lines = iter(text.splitlines(keepends=True))
        assert parse_outcome(parse_midc, lines) == expected


class TestSampleIngestBytes:
    #: sha256 over the raw and clean values and the missing, spike,
    #: stuck and dropout masks of the bundled sample's ingestion, as the
    #: list-based reader produced them.
    PINS = {
        None: "9232f8f21217f1fd6161e02fefe5046f4885ae1320fa1a9a30a373fe5aae0403",
        15: "cfa89e63a379b7a3da069a4219999d779db24a4096a07dd7db0daf8833d3ef24",
    }

    @pytest.mark.parametrize("resolution", [None, 15])
    def test_sample_ingest_bytes_pinned(self, resolution):
        result = ingest_csv(sample_csv_path(), resolution_minutes=resolution)
        digest = hashlib.sha256()
        for array in (result.raw.values, result.clean.values) + tuple(
            getattr(result.report, flag)
            for flag in ("missing", "spike", "stuck", "dropout")
        ):
            digest.update(array.tobytes())
        assert digest.hexdigest() == self.PINS[resolution]
        assert (
            result.scenario.apply(result.clean).values.tobytes()
            == result.raw.values.tobytes()
        )


def test_peak_memory_per_row(tmp_path):
    """A 30-day, 1-minute, single-channel file (43,200 rows) read from
    a path peaks at no more than 64 bytes of traced memory per row."""
    path = tmp_path / "month.csv"
    with open(path, "w") as handle:
        handle.write("DATE,MST,Global Horizontal [W/m^2]\n")
        for day in range(30):
            for minute in range(1440):
                handle.write(
                    f"03/{day + 1:02d}/2010,{minute // 60:02d}:{minute % 60:02d},"
                    f"{minute % 700 * 1.5:.1f}\n"
                )
    # Warm up first: one-time allocations (numpy's lazy internals) are
    # not a per-row cost.
    parse_midc(io.StringIO(midc_text(hourly_rows())))
    tracemalloc.start()
    try:
        parsed = parse_midc(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert parsed.values.size == 30 * 1440
    assert peak <= 64 * 30 * 1440, f"{peak / (30 * 1440):.1f} B/row"


class TestCsvErrors:
    """The CSV layer's own errors end as IngestError naming the row."""

    def test_oversized_field(self):
        rows = hourly_rows()
        rows[2] = "03/01/2010,02:00," + "1" * 200_000 + ",5.0"
        with pytest.raises(IngestError, match=r"^row 4: field larger than field limit"):
            parse_midc(io.StringIO(midc_text(rows)))

    def test_oversized_header_field(self):
        with pytest.raises(IngestError, match=r"^row 1: field larger"):
            parse_midc(io.StringIO("DATE,MST," + "G" * 200_000 + "\n"))

    def test_bare_carriage_return_in_stream(self):
        rows = hourly_rows()
        rows[0] = "03/01/2010,00:00,1\r2,5.0"
        with pytest.raises(IngestError, match=r"^row 2: new-line character"):
            parse_midc(io.StringIO(midc_text(rows)))


class TestParserHardening:
    """BOM, CRLF and padded sentinels must not derail any read mode."""

    def bom_crlf_text(self):
        rows = hourly_rows(days=2)
        return "\ufeff" + "\r\n".join([HEADER] + rows) + "\r\n"

    def test_bom_and_crlf_stream(self):
        plain = parse_midc(io.StringIO(midc_text(hourly_rows(days=2))))
        hardened = parse_midc(io.StringIO(self.bom_crlf_text()))
        assert_channels_identical(hardened, plain)

    def test_bom_and_crlf_path(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(self.bom_crlf_text().encode("utf-8"))
        plain = parse_midc(io.StringIO(midc_text(hourly_rows(days=2))))
        assert_channels_identical(parse_midc(path), plain)

    def test_utf8_sig_double_bom_path(self, tmp_path):
        # Files saved by BOM-happy tooling: encoder adds its own BOM.
        path = tmp_path / "sig.csv"
        path.write_text(midc_text(hourly_rows(days=1)), encoding="utf-8-sig")
        parsed = parse_midc(path)
        assert parsed.channel == "Global Horizontal [W/m^2]"
        assert parsed.n_days == 1

    def test_sentinel_with_padding_is_missing(self):
        rows = [
            "03/01/2010,00:00, -9999.0 ,5.0",
            "03/01/2010,01:00,  -99999 ,5.0",
            "03/01/2010,02:00, 42.0 ,5.0",
        ]
        parsed = parse_midc(io.StringIO(midc_text(rows)))
        assert np.isnan(parsed.values[0])
        assert np.isnan(parsed.values[1])
        assert parsed.values[2] == 42.0


class TestIngestMemoLock:
    def test_concurrent_ingest_runs_once(self, tmp_path, monkeypatch):
        """Racing threads share one ingestion, not one each."""
        from repro.solar.ingest import sites as sites_mod

        csv_path = tmp_path / "memo.csv"
        rows = hourly_rows(days=2)
        csv_path.write_text(midc_text(rows))

        calls = []
        real_ingest = sites_mod.ingest_csv
        started = threading.Barrier(8 + 1, timeout=10)

        def counting_ingest(*args, **kwargs):
            calls.append(threading.get_ident())
            return real_ingest(*args, **kwargs)

        monkeypatch.setattr(sites_mod, "ingest_csv", counting_ingest)
        site = sites_mod.MeasuredSite(
            name="MEMO",
            path=str(csv_path),
            channel=None,
            resolution_minutes=None,
            samples_per_day=24,
            n_days=2,
        )
        results = []

        def worker():
            started.wait()
            results.append(site.ingest())

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        started.wait()
        for t in threads:
            t.join(timeout=30)
        try:
            assert len(results) == 8
            assert len(calls) == 1, "memoised ingest ran more than once"
            assert all(r is results[0] for r in results)
        finally:
            sites_mod._INGEST_CACHE.clear()
