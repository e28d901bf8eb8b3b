"""Tests for CSV trace io."""

import io

import numpy as np
import pytest

from repro.solar.io import ECHO_BYTES, FormatError, dumps, excerpt, loads, read_csv, write_csv
from repro.solar.trace import SolarTrace


def small_trace():
    values = np.linspace(0, 500, 96)  # one day at 15-minute resolution
    return SolarTrace(values, 15, "UNIT")


class TestRoundTrip:
    def test_string_roundtrip(self):
        trace = small_trace()
        again = loads(dumps(trace))
        assert again.name == "UNIT"
        assert again.resolution_minutes == 15
        assert np.allclose(again.values, trace.values)

    def test_file_roundtrip(self, tmp_path):
        trace = small_trace()
        path = tmp_path / "trace.csv"
        write_csv(trace, path)
        again = read_csv(path)
        assert np.allclose(again.values, trace.values)

    def test_multiday_roundtrip(self):
        values = np.abs(np.sin(np.arange(2 * 288))) * 900
        trace = SolarTrace(values, 5, "two-days")
        again = loads(dumps(trace))
        assert again.n_days == 2
        assert np.allclose(again.values, trace.values)


class TestFormatValidation:
    def test_missing_magic(self):
        with pytest.raises(FormatError, match="magic"):
            loads("day,minute,ghi_wm2\n1,0,0\n")

    def test_missing_resolution(self):
        text = "# repro-solar-trace v1\n# name: x\nday,minute,ghi_wm2\n1,0,0\n"
        with pytest.raises(FormatError, match="resolution"):
            loads(text)

    def test_bad_header_row(self):
        text = (
            "# repro-solar-trace v1\n# resolution_minutes: 15\n"
            "a,b,c\n1,0,0\n"
        )
        with pytest.raises(FormatError, match="column header"):
            loads(text)

    def test_grid_mismatch_detected(self):
        good = dumps(small_trace())
        lines = good.splitlines()
        # Corrupt one minute stamp.
        row = lines[5].split(",")
        row[1] = "999"
        lines[5] = ",".join(row)
        with pytest.raises(FormatError, match="grid"):
            loads("\n".join(lines) + "\n")

    def test_non_numeric_sample(self):
        good = dumps(small_trace())
        bad = good.replace(good.splitlines()[4].split(",")[2], "abc", 1)
        with pytest.raises(FormatError):
            loads(bad)

    def test_empty_body(self):
        text = (
            "# repro-solar-trace v1\n# resolution_minutes: 15\n"
            "day,minute,ghi_wm2\n"
        )
        with pytest.raises(FormatError, match="no samples"):
            loads(text)

    def test_bad_resolution_value(self):
        text = (
            "# repro-solar-trace v1\n# resolution_minutes: abc\n"
            "day,minute,ghi_wm2\n1,0,0\n"
        )
        with pytest.raises(FormatError, match="resolution"):
            loads(text)

    @pytest.mark.parametrize("resolution", [0, -5, 25, 7])
    def test_wrong_resolution_rejected(self, resolution):
        """Non-positive or non-day-dividing resolutions are format errors."""
        text = (
            f"# repro-solar-trace v1\n# resolution_minutes: {resolution}\n"
            "day,minute,ghi_wm2\n1,0,0\n"
        )
        with pytest.raises(FormatError, match="does not divide a day"):
            loads(text)

    def test_non_monotonic_day_order(self):
        good = dumps(small_trace())
        lines = good.splitlines()
        # Swap two sample rows: the grid is then non-monotonic.
        lines[4], lines[5] = lines[5], lines[4]
        with pytest.raises(FormatError, match="grid"):
            loads("\n".join(lines) + "\n")

    def test_truncated_final_day(self):
        good = dumps(small_trace())
        lines = good.splitlines()
        with pytest.raises(FormatError, match="whole number of days"):
            loads("\n".join(lines[:-10]) + "\n")

    def test_negative_sample_rejected(self):
        good = dumps(small_trace())
        lines = good.splitlines()
        row = lines[10].split(",")
        row[2] = "-5.0"
        lines[10] = ",".join(row)
        with pytest.raises(FormatError, match="negative"):
            loads("\n".join(lines) + "\n")

    def test_non_finite_sample_rejected(self):
        good = dumps(small_trace())
        lines = good.splitlines()
        row = lines[10].split(",")
        row[2] = "inf"
        lines[10] = ",".join(row)
        with pytest.raises(FormatError, match="non-finite"):
            loads("\n".join(lines) + "\n")


class TestWriteFormat:
    def test_header_content(self):
        text = dumps(small_trace())
        lines = text.splitlines()
        assert lines[0] == "# repro-solar-trace v1"
        assert lines[1] == "# name: UNIT"
        assert lines[2] == "# resolution_minutes: 15"
        assert lines[3] == "day,minute,ghi_wm2"

    def test_write_to_text_buffer(self):
        buffer = io.StringIO()
        write_csv(small_trace(), buffer)
        assert buffer.getvalue().startswith("# repro-solar-trace v1")


class TestExcerpt:
    def test_short_text_unchanged(self):
        text = "x" * ECHO_BYTES
        assert excerpt(text) is text

    def test_long_text_clipped_with_its_length(self):
        assert excerpt("1" * 100_000) == "1" * ECHO_BYTES + "... (100,000 characters)"

    def test_multibyte_text_cut_on_a_character_boundary(self):
        # 1 + 3 * 100 UTF-8 bytes: the byte budget ends inside a euro sign,
        # which is dropped whole.
        clipped = excerpt("a" + "\u20ac" * 100)
        assert clipped == "a" + "\u20ac" * ((ECHO_BYTES - 1) // 3) + "... (101 characters)"

    def test_long_sample_error_is_clipped(self):
        good = dumps(small_trace())
        lines = good.splitlines()
        row = lines[10].split(",")
        row[2] = "x" * 10_000
        lines[10] = ",".join(row)
        pattern = r"^row 8: could not convert string to float: 'x+\.\.\. \([\d,]+ characters\)$"
        with pytest.raises(FormatError, match=pattern):
            loads("\n".join(lines) + "\n")
