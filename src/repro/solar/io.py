"""NREL-MIDC-like CSV input/output.

The MIDC export format is a simple CSV with a date column, a time
column and one column per measured channel.  We read and write a
minimal, self-describing variant so users can plug in a *real* MIDC
download (converted with :func:`write_csv`-compatible headers) in place
of the synthetic traces.

Format::

    # repro-solar-trace v1
    # name: PFCI
    # resolution_minutes: 1
    day,minute,ghi_wm2
    1,0,0.0
    1,1,0.0
    ...

Day numbers are 1-based; ``minute`` is minutes after local midnight.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import TextIO, Union

import numpy as np

from repro.solar.trace import MINUTES_PER_DAY, SolarTrace

__all__ = ["read_csv", "write_csv", "FormatError", "excerpt"]

_MAGIC = "# repro-solar-trace v1"

#: Most UTF-8 bytes of file text that one echo in an error message
#: quotes: a message echoes at most three pieces, so it stays under 512
#: bytes whatever the file holds.
ECHO_BYTES = 96


def excerpt(text: str) -> str:
    """``text`` as an error message may echo it.

    Whole when its UTF-8 form fits in :data:`ECHO_BYTES`; otherwise that
    much of its head followed by its length, so that one hostile cell,
    line or header cannot put megabytes on stderr or into a log.
    """
    data = text.encode("utf-8", "replace")
    if len(data) <= ECHO_BYTES:
        return text
    head = data[:ECHO_BYTES].decode("utf-8", "ignore")
    return f"{head}... ({len(text):,} characters)"


class FormatError(ValueError):
    """Raised when a trace file does not conform to the expected format."""


def write_csv(trace: SolarTrace, destination: Union[str, Path, TextIO]) -> None:
    """Write ``trace`` to ``destination`` (path or text file object)."""
    if isinstance(destination, (str, Path)):
        with open(destination, "w", newline="") as handle:
            _write(trace, handle)
    else:
        _write(trace, destination)


def _write(trace: SolarTrace, handle: TextIO) -> None:
    handle.write(_MAGIC + "\n")
    handle.write(f"# name: {trace.name}\n")
    handle.write(f"# resolution_minutes: {trace.resolution_minutes}\n")
    writer = csv.writer(handle)
    writer.writerow(["day", "minute", "ghi_wm2"])
    res = trace.resolution_minutes
    spd = trace.samples_per_day
    for i, value in enumerate(trace.values):
        day = i // spd + 1
        minute = (i % spd) * res
        writer.writerow([day, minute, f"{value:.6g}"])


def read_csv(source: Union[str, Path, TextIO]) -> SolarTrace:
    """Read a trace previously written by :func:`write_csv`.

    Raises
    ------
    FormatError
        On a missing magic line, malformed header, inconsistent time
        grid, or non-numeric samples.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", newline="") as handle:
            return _read(handle)
    return _read(source)


def _read(handle: TextIO) -> SolarTrace:
    first = handle.readline().rstrip("\n")
    if first != _MAGIC:
        raise FormatError(
            f"missing magic header {_MAGIC!r} (got {excerpt(repr(first))})"
        )

    name = ""
    resolution = None
    position = handle.tell()
    line = handle.readline()
    while line.startswith("#"):
        body = line[1:].strip()
        if ":" in body:
            key, _, value = body.partition(":")
            key = key.strip()
            value = value.strip()
            if key == "name":
                name = value
            elif key == "resolution_minutes":
                try:
                    resolution = int(value)
                except ValueError:
                    raise FormatError(
                        f"bad resolution_minutes: {excerpt(repr(value))}"
                    )
        position = handle.tell()
        line = handle.readline()
    if resolution is None:
        raise FormatError("header lacks resolution_minutes")
    if resolution <= 0 or MINUTES_PER_DAY % resolution:
        raise FormatError(
            f"resolution_minutes {excerpt(str(resolution))} does not divide "
            f"a day ({MINUTES_PER_DAY} minutes)"
        )

    handle.seek(position)
    reader = csv.reader(handle)
    values = []
    expected_index = 0
    spd = MINUTES_PER_DAY // resolution
    try:
        header = next(reader, None)
        if header != ["day", "minute", "ghi_wm2"]:
            raise FormatError(f"unexpected column header: {excerpt(str(header))}")
        for row in reader:
            if not row:
                continue
            if len(row) != 3:
                raise FormatError(
                    f"row {expected_index + 2}: expected 3 fields, got {len(row)}"
                )
            try:
                day = int(row[0])
                minute = int(row[1])
                value = float(row[2])
            except ValueError as exc:
                raise FormatError(f"row {expected_index + 2}: {excerpt(str(exc))}")
            want_day = expected_index // spd + 1
            want_minute = (expected_index % spd) * resolution
            if day != want_day or minute != want_minute:
                raise FormatError(
                    f"row {expected_index + 2}: time grid mismatch "
                    f"(got day={excerpt(str(day))} minute={excerpt(str(minute))}, "
                    f"expected day={want_day} minute={want_minute})"
                )
            values.append(value)
            expected_index += 1
    except csv.Error as exc:
        # csv's own refusals (an oversized field, a bare carriage return
        # inside a field) are format errors of the line it was reading.
        raise FormatError(f"row {reader.line_num}: {exc}") from None

    if not values:
        raise FormatError("file contains no samples")
    try:
        return SolarTrace(
            values=np.asarray(values), resolution_minutes=resolution, name=name
        )
    except ValueError as exc:
        # A consistent grid can still describe an invalid trace (a
        # truncated final day, negative or non-finite samples); surface
        # those as format errors too, not library tracebacks.
        raise FormatError(str(exc))


def dumps(trace: SolarTrace) -> str:
    """Serialise ``trace`` to a CSV string (convenience for tests)."""
    buffer = io.StringIO()
    write_csv(trace, buffer)
    return buffer.getvalue()


def loads(text: str) -> SolarTrace:
    """Parse a trace from a CSV string (convenience for tests)."""
    return read_csv(io.StringIO(text))
