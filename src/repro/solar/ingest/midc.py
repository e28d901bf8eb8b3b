"""Parser for raw NREL-MIDC-shaped measurement CSVs.

The NREL Measurement and Instrumentation Data Center exports are plain
CSVs with a date column, a local-time column and one column per
measured channel::

    DATE (MM/DD/YYYY),MST,Global Horizontal [W/m^2],Air Temperature [deg C]
    03/01/2010,00:00,-1.8,4.2
    03/01/2010,00:05,-1.7,4.1
    ...

This module reads that shape -- tolerant of the quirks real downloads
carry -- into a dense NaN-padded grid at the file's native resolution:

* the date column is any header containing ``DATE`` (``MM/DD/YYYY`` or
  ``YYYY-MM-DD`` values); the time column is a timezone code (``MST``,
  ``PST``, ...) or any header containing ``TIME`` (``HH:MM`` or
  ``HH:MM:SS`` values);
* channels are selected by (case-insensitive) exact or unique-substring
  header match; by default the first channel containing ``GLOBAL`` (the
  paper's GHI channel), else the first channel;
* missing data in all three wild forms -- absent rows, empty cells and
  sentinel values (``<= -999``, e.g. MIDC's ``-99999``) -- becomes NaN;
  sentinel and sample cells tolerate stray whitespace;
* a UTF-8 byte-order mark on the header row (Windows re-saves add one,
  and it breaks CSV quoting if left in) and CRLF line endings are
  absorbed;
* rows may arrive in any order; duplicate timestamps are an error;
* the native resolution is inferred from the *modal* time step and
  every row must sit on that grid.

The output covers the whole calendar span of the file (missing rows
padded with NaN), so downstream consumers always see whole days.

:func:`parse_midc` reads its source once, so a one-shot stream will do.
Each row is kept as three fixed-width numbers (day ordinal, minute of
day, sample: 14 bytes) in typed arrays; the grid checks and the grid
itself are then computed from those arrays at once, holding at most
64 bytes per row at the peak.  Any malformed input -- the CSV layer's
own errors included -- raises :class:`IngestError` naming the row.
"""

from __future__ import annotations

import csv
import itertools
import math
from array import array
from dataclasses import dataclass
from datetime import date, datetime
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.solar.io import excerpt
from repro.solar.trace import MINUTES_PER_DAY

__all__ = ["IngestError", "MIDCChannel", "parse_midc"]

#: Values at or below this are treated as missing-data sentinels.
SENTINEL_CEILING = -999.0

#: Time-column headers recognised as-is (timezone codes seen on MIDC).
_TIME_HEADERS = {
    "MST", "MDT", "PST", "PDT", "CST", "CDT", "EST", "EDT",
    "AKST", "HST", "LST", "UTC", "GMT",
}

#: Calendar-span ceiling: a grid this long is a parse gone wrong (e.g.
#: two disjoint deployments concatenated), not a trace.
_MAX_SPAN_DAYS = 2000

#: The one NaN every missing sample is stored as, so the grid's bytes do
#: not depend on how a file spelled its missing values (``-nan`` sets
#: the sign bit).
_MISSING = float("nan")


class IngestError(ValueError):
    """Raised when a measurement CSV cannot be ingested."""


@dataclass(frozen=True, eq=False)
class MIDCChannel:
    """One channel of a parsed measurement file, on a dense grid.

    Attributes
    ----------
    values:
        Flat float array covering whole days at the native resolution;
        NaN marks missing samples.
    resolution_minutes:
        Inferred native sampling resolution.
    channel:
        Header of the selected channel.
    channels:
        Every channel header the file offers.
    start_date:
        ISO date of the first grid day.
    """

    values: np.ndarray
    resolution_minutes: int
    channel: str
    channels: Tuple[str, ...]
    start_date: str

    @property
    def samples_per_day(self) -> int:
        """Samples in each whole day."""
        return MINUTES_PER_DAY // self.resolution_minutes

    @property
    def n_days(self) -> int:
        """Whole days covered by the grid."""
        return self.values.size // self.samples_per_day

    @property
    def missing_fraction(self) -> float:
        """Fraction of grid samples with no recorded value."""
        return float(np.isnan(self.values).mean())


def parse_midc(
    source: Union[str, Path, Iterable[str]], channel: Optional[str] = None
) -> MIDCChannel:
    """Parse one channel of an MIDC-shaped CSV.

    ``source`` is a path or any iterable of text lines: an open file, a
    ``StringIO`` or a one-shot generator, seekable or not.
    """
    if isinstance(source, (str, Path)):
        # utf-8-sig absorbs a leading byte-order mark (a BOM in front of a
        # quoted header cell would otherwise break CSV quote parsing).
        with open(source, "r", newline="", encoding="utf-8-sig") as handle:
            return _parse(handle, channel)
    return _parse(source, channel)


def _lines_without_bom(lines: Iterable[str]) -> Iterator[str]:
    """``lines`` with a leading BOM stripped.

    Covers text streams the caller opened without ``utf-8-sig`` (or
    built in memory); a no-op when no BOM is present.
    """
    lines = iter(lines)
    first = next(lines, None)
    if first is None:
        return lines
    return itertools.chain((first.lstrip("\ufeff"),), lines)


def _parse(lines: Iterable[str], channel: Optional[str]) -> MIDCChannel:
    rows = csv.reader(_lines_without_bom(lines))
    ordinals = array("i")
    minutes = array("h")
    values = array("d")
    try:
        header = next(
            (row for row in rows if row and any(c.strip() for c in row)), None
        )
        if header is None:
            raise IngestError("file is empty")
        header = [cell.strip() for cell in header]
        date_col, time_col = _locate_time_columns(header)
        channel_cols = [
            (i, name)
            for i, name in enumerate(header)
            if i not in (date_col, time_col) and name
        ]
        if not channel_cols:
            raise IngestError("no measurement channels besides the date/time columns")
        value_col, channel_name = _select_channel(channel_cols, channel)
        width = max(date_col, time_col, value_col)
        last_date = ordinal = None
        for line, row in enumerate(rows, start=2):
            if not row or not any(cell.strip() for cell in row):
                continue
            if len(row) <= width:
                raise IngestError(
                    f"row {line}: expected at least "
                    f"{width + 1} fields, got {len(row)}"
                )
            text = row[date_col].strip()
            if text != last_date:  # rows come grouped by date: parse each once
                ordinal = _parse_date(text, line)
                last_date = text
            ordinals.append(ordinal)
            minutes.append(_parse_minute(row[time_col].strip(), line))
            values.append(_parse_value(row[value_col].strip(), line))
    except csv.Error as exc:
        # csv's own refusals (an oversized field, a bare carriage return
        # inside a field) name the line it was reading.
        raise IngestError(f"row {rows.line_num}: {exc}") from None
    if not values:
        raise IngestError("file contains no data rows")

    days = np.frombuffer(ordinals, dtype=np.intc)
    minute = np.frombuffer(minutes, dtype=np.short)
    present = np.zeros(MINUTES_PER_DAY, dtype=bool)
    present[minute] = True
    resolution = _infer_resolution(np.flatnonzero(present).tolist())
    if np.any(minute % resolution):
        first_off = minutes[int(np.argmax(minute % resolution != 0))]
        raise IngestError(
            f"irregular time grid: minute {first_off} is not on the "
            f"inferred {resolution}-minute grid"
        )

    first, last = int(days.min()), int(days.max())
    n_days = last - first + 1
    if n_days > _MAX_SPAN_DAYS:
        raise IngestError(
            f"file spans {n_days} calendar days (> {_MAX_SPAN_DAYS}); "
            "not a contiguous deployment"
        )
    spd = MINUTES_PER_DAY // resolution
    slot = days.astype(np.intp)
    slot -= first
    slot *= spd
    slot += minute // resolution
    grid = np.full(n_days * spd, np.nan)
    grid[slot] = np.frombuffer(values)
    seen = np.zeros(grid.size, dtype=bool)
    seen[slot] = True
    if np.count_nonzero(seen) < len(values):
        # Report the first row, in file order, whose slot an earlier row holds.
        _, first_rows = np.unique(slot, return_index=True)
        repeat = np.ones(slot.size, dtype=bool)
        repeat[first_rows] = False
        row = int(np.argmax(repeat))
        raise IngestError(
            f"duplicate timestamp: day {ordinals[row] - first + 1}, "
            f"minute {minutes[row]}"
        )
    return MIDCChannel(
        values=grid,
        resolution_minutes=resolution,
        channel=channel_name,
        channels=tuple(name for _, name in channel_cols),
        start_date=date.fromordinal(first).isoformat(),
    )


def _locate_time_columns(header: List[str]) -> Tuple[int, int]:
    date_col = next(
        (i for i, name in enumerate(header) if "DATE" in name.upper()), None
    )
    if date_col is None:
        raise IngestError(
            f"no date column (header containing 'DATE') in {excerpt(str(header))}"
        )
    time_col = next(
        (
            i
            for i, name in enumerate(header)
            if i != date_col
            and (name.upper() in _TIME_HEADERS or "TIME" in name.upper())
        ),
        None,
    )
    if time_col is None:
        raise IngestError(
            "no time column (timezone code such as MST, or a header "
            f"containing 'TIME') in {excerpt(str(header))}"
        )
    return date_col, time_col


def _select_channel(
    channel_cols: List[Tuple[int, str]], requested: Optional[str]
) -> Tuple[int, str]:
    if requested is None:
        for i, name in channel_cols:
            if "GLOBAL" in name.upper():
                return i, name
        return channel_cols[0]
    wanted = requested.strip().upper()
    exact = [(i, name) for i, name in channel_cols if name.upper() == wanted]
    if exact:
        return exact[0]
    partial = [(i, name) for i, name in channel_cols if wanted in name.upper()]
    if len(partial) == 1:
        return partial[0]
    available = excerpt(", ".join(name for _, name in channel_cols))
    if not partial:
        raise IngestError(
            f"unknown channel {excerpt(repr(requested))}; available: {available}"
        )
    matches = excerpt(", ".join(name for _, name in partial))
    raise IngestError(
        f"channel {excerpt(repr(requested))} is ambiguous "
        f"({matches}); available: {available}"
    )


def _parse_date(text: str, line: int) -> int:
    for fmt in ("%m/%d/%Y", "%Y-%m-%d"):
        try:
            return datetime.strptime(text, fmt).toordinal()
        except ValueError:
            continue
    raise IngestError(
        f"row {line}: cannot parse date {excerpt(repr(text))} "
        "(expected MM/DD/YYYY or YYYY-MM-DD)"
    )


def _parse_minute(text: str, line: int) -> int:
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise IngestError(
            f"row {line}: cannot parse time {excerpt(repr(text))} "
            "(expected HH:MM[:SS])"
        )
    try:
        numbers = [int(p) for p in parts]
    except ValueError:
        raise IngestError(f"row {line}: cannot parse time {excerpt(repr(text))}")
    hour, minute = numbers[0], numbers[1]
    second = numbers[2] if len(numbers) == 3 else 0
    if not (0 <= hour < 24 and 0 <= minute < 60 and second == 0):
        raise IngestError(
            f"row {line}: time {excerpt(repr(text))} outside the 00:00..23:59 "
            "whole-minute grid"
        )
    return hour * 60 + minute


def _parse_value(text: str, line: int) -> float:
    if not text:
        return _MISSING
    try:
        value = float(text)
    except ValueError:
        raise IngestError(f"row {line}: non-numeric sample {excerpt(repr(text))}")
    if value != value or value <= SENTINEL_CEILING:
        return _MISSING
    if not math.isfinite(value):
        raise IngestError(f"row {line}: non-finite sample {excerpt(repr(text))}")
    return value


def _infer_resolution(minutes: List[int]) -> int:
    """Native resolution from the *modal* minute-of-day step.

    The most common step between consecutive distinct minutes is the
    file's real grid; a single stray off-grid row (a logger hiccup)
    then fails the off-grid check loudly instead of silently redefining
    the resolution and marking half the grid missing (which taking the
    minimum step would do).  Ties break toward the smaller step.
    """
    unique = sorted(set(minutes))
    if len(unique) == 1:
        return MINUTES_PER_DAY
    steps: dict = {}
    for a, b in zip(unique, unique[1:]):
        steps[b - a] = steps.get(b - a, 0) + 1
    resolution = int(min(steps, key=lambda s: (-steps[s], s)))
    if MINUTES_PER_DAY % resolution:
        raise IngestError(
            f"inferred native resolution {resolution} minutes does not "
            "divide a day"
        )
    return resolution
