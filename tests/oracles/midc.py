"""Frozen MIDC parser: the ingest reader's parity baseline.

Verbatim copies of the list-based ``_parse`` and ``_infer_resolution``
of :mod:`repro.solar.ingest.midc`, with the row machinery they call
(header resolution, channel selection, per-cell parsers), from before
the reader kept its rows in typed arrays and filled its grid in one
vectorised step.  The parser tests pin
:func:`~repro.solar.ingest.midc.parse_midc` against
:func:`reference_parse_midc` through :func:`checked_parse_midc`: the
same grid bytes, resolution, channel, channels and start date, or the
same :class:`IngestError` text -- including which fault a file with
several reports first (no rows, then resolution, then the first
off-grid row, then span, then the first duplicate row).

Do not edit the logic here.  If the accepted format changes, the change
lands in :mod:`repro.solar.ingest.midc` first and this file is refrozen
to match.
"""

from __future__ import annotations

import csv
import io
from datetime import datetime
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, TextIO, Tuple, Union

import numpy as np

from repro.solar.ingest.midc import IngestError, MIDCChannel, parse_midc
from repro.solar.trace import MINUTES_PER_DAY

__all__ = ["reference_parse_midc", "checked_parse_midc", "parse_outcome"]

SENTINEL_CEILING = -999.0

_TIME_HEADERS = {
    "MST", "MDT", "PST", "PDT", "CST", "CDT", "EST", "EDT",
    "AKST", "HST", "LST", "UTC", "GMT",
}

_MAX_SPAN_DAYS = 2000


def reference_parse_midc(
    source: Union[str, Path, TextIO], channel: Optional[str] = None
) -> MIDCChannel:
    """Parse one channel of an MIDC-shaped CSV (path or text stream)."""
    if isinstance(source, (str, Path)):
        with _open_path(source) as handle:
            return _parse(handle, channel)
    return _parse(source, channel)


def parse_outcome(read, source, channel: Optional[str] = None) -> tuple:
    """Everything a parse yields, as one comparable value.

    The grid's bytes and metadata, or the :class:`IngestError` text.
    """
    try:
        parsed = read(source, channel)
    except IngestError as exc:
        return ("error", str(exc))
    return (
        parsed.values.tobytes(),
        parsed.resolution_minutes,
        parsed.channel,
        parsed.channels,
        parsed.start_date,
    )


def checked_parse_midc(
    source: Union[str, Path, TextIO], channel: Optional[str] = None
) -> MIDCChannel:
    """:func:`parse_midc`, required to match :func:`reference_parse_midc`.

    Runs both parsers on the same text (a path, or a text stream read
    once) and asserts the same :func:`parse_outcome`; then returns the
    runtime parser's result or raises its error.
    """
    text = None if isinstance(source, (str, Path)) else source.read()

    def fresh():
        return source if text is None else io.StringIO(text)

    expected = parse_outcome(reference_parse_midc, fresh(), channel)
    assert parse_outcome(parse_midc, fresh(), channel) == expected
    return parse_midc(fresh(), channel)


def _open_path(source: Union[str, Path]) -> TextIO:
    return open(source, "r", newline="", encoding="utf-8-sig")


def _lines_without_bom(handle: Iterable[str]) -> Iterator[str]:
    lines = iter(handle)
    try:
        first = next(lines)
    except StopIteration:
        return
    yield first.lstrip("\ufeff")
    yield from lines


class _RowReader:
    def __init__(self, handle: Iterable[str], channel: Optional[str]):
        self._reader = csv.reader(_lines_without_bom(handle))
        header = next(
            (row for row in self._reader if row and any(c.strip() for c in row)),
            None,
        )
        if header is None:
            raise IngestError("file is empty")
        header = [cell.strip() for cell in header]
        self.date_col, self.time_col = _locate_time_columns(header)
        channel_cols = [
            (i, name)
            for i, name in enumerate(header)
            if i not in (self.date_col, self.time_col) and name
        ]
        if not channel_cols:
            raise IngestError("no measurement channels besides the date/time columns")
        self.value_col, self.channel_name = _select_channel(channel_cols, channel)
        self.channels = tuple(name for _, name in channel_cols)

    def iter_rows(self) -> Iterator[Tuple[int, int, int, float]]:
        width = max(self.date_col, self.time_col, self.value_col)
        for line, row in enumerate(self._reader, start=2):
            if not row or not any(cell.strip() for cell in row):
                continue
            if len(row) <= width:
                raise IngestError(
                    f"row {line}: expected at least "
                    f"{width + 1} fields, got {len(row)}"
                )
            yield (
                line,
                _parse_date(row[self.date_col].strip(), line),
                _parse_minute(row[self.time_col].strip(), line),
                _parse_value(row[self.value_col].strip(), line),
            )


def _parse(handle: TextIO, channel: Optional[str]) -> MIDCChannel:
    reader = _RowReader(handle, channel)
    ordinals: List[int] = []
    minutes: List[int] = []
    values: List[float] = []
    for _line, ordinal, minute, value in reader.iter_rows():
        ordinals.append(ordinal)
        minutes.append(minute)
        values.append(value)
    if not ordinals:
        raise IngestError("file contains no data rows")

    resolution = _infer_resolution(minutes)
    off_grid = [m for m in minutes if m % resolution]
    if off_grid:
        raise IngestError(
            f"irregular time grid: minute {off_grid[0]} is not on the "
            f"inferred {resolution}-minute grid"
        )

    first, last = min(ordinals), max(ordinals)
    n_days = last - first + 1
    if n_days > _MAX_SPAN_DAYS:
        raise IngestError(
            f"file spans {n_days} calendar days (> {_MAX_SPAN_DAYS}); "
            "not a contiguous deployment"
        )
    spd = MINUTES_PER_DAY // resolution
    grid = np.full(n_days * spd, np.nan)
    seen = np.zeros(n_days * spd, dtype=bool)
    for ordinal, minute, value in zip(ordinals, minutes, values):
        slot = (ordinal - first) * spd + minute // resolution
        if seen[slot]:
            raise IngestError(
                f"duplicate timestamp: day {ordinal - first + 1}, "
                f"minute {minute}"
            )
        seen[slot] = True
        grid[slot] = value
    return MIDCChannel(
        values=grid,
        resolution_minutes=resolution,
        channel=reader.channel_name,
        channels=reader.channels,
        start_date=datetime.fromordinal(first).date().isoformat(),
    )


def _locate_time_columns(header: List[str]) -> Tuple[int, int]:
    date_col = next(
        (i for i, name in enumerate(header) if "DATE" in name.upper()), None
    )
    if date_col is None:
        raise IngestError(
            f"no date column (header containing 'DATE') in {header}"
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
            f"containing 'TIME') in {header}"
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
    available = ", ".join(name for _, name in channel_cols)
    if not partial:
        raise IngestError(
            f"unknown channel {requested!r}; available: {available}"
        )
    raise IngestError(
        f"channel {requested!r} is ambiguous "
        f"({', '.join(name for _, name in partial)}); available: {available}"
    )


def _parse_date(text: str, line: int) -> int:
    for fmt in ("%m/%d/%Y", "%Y-%m-%d"):
        try:
            return datetime.strptime(text, fmt).toordinal()
        except ValueError:
            continue
    raise IngestError(
        f"row {line}: cannot parse date {text!r} "
        "(expected MM/DD/YYYY or YYYY-MM-DD)"
    )


def _parse_minute(text: str, line: int) -> int:
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise IngestError(
            f"row {line}: cannot parse time {text!r} (expected HH:MM[:SS])"
        )
    try:
        numbers = [int(p) for p in parts]
    except ValueError:
        raise IngestError(f"row {line}: cannot parse time {text!r}")
    hour, minute = numbers[0], numbers[1]
    second = numbers[2] if len(numbers) == 3 else 0
    if not (0 <= hour < 24 and 0 <= minute < 60 and second == 0):
        raise IngestError(
            f"row {line}: time {text!r} outside the 00:00..23:59 "
            "whole-minute grid"
        )
    return hour * 60 + minute


def _parse_value(text: str, line: int) -> float:
    if not text:
        return float("nan")
    try:
        value = float(text)
    except ValueError:
        raise IngestError(f"row {line}: non-numeric sample {text!r}")
    if np.isnan(value) or value <= SENTINEL_CEILING:
        return float("nan")
    if not np.isfinite(value):
        raise IngestError(f"row {line}: non-finite sample {text!r}")
    return value


def _infer_resolution(minutes: List[int]) -> int:
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
