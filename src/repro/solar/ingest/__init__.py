"""Real-dataset ingestion: measured irradiance files into the pipeline.

The reproduction's predictors, sweeps, fleet engine and robustness
matrix all consume :class:`~repro.solar.trace.SolarTrace`; this package
turns a *raw measured* file -- an NREL-MIDC-shaped CSV with date/time
columns and arbitrary channels -- into that type, with the file's
defects modelled instead of silently absorbed:

* :mod:`repro.solar.ingest.midc` -- the tolerant CSV parser (channel
  selection, missing rows/cells/sentinels, native-grid inference).
* :mod:`repro.solar.ingest.quality` -- the quality-flag model:
  per-slot ``missing`` / ``spike`` / ``stuck`` / ``dropout`` masks
  detected from the data, plus the cleaned-value repair.
* :mod:`repro.solar.ingest.replay` -- the detected defects expressed
  as a deterministic :class:`~repro.solar.scenarios.scenario.Scenario`
  over the existing fault transforms.
* :mod:`repro.solar.ingest.sites` -- :class:`MeasuredSite`
  registration, so an ingested file becomes a site name every
  experiment accepts alongside the synthetic six.

:func:`ingest_csv` is the front door; it returns an
:class:`IngestResult` holding the *raw* trace (defects present, missing
telemetry as zero harvest), the *clean* trace (defects repaired), the
:class:`~repro.solar.ingest.quality.QualityReport` and the
replayed-defects scenario, with the round-trip guarantee
``scenario.apply(clean) == raw`` (byte-identical values).

A deterministic bundled sample file (generated once by
``scripts/generate_sample_midc.py`` from the synthetic generator plus
seeded defects) ships with the package so tests, examples and CI need
no network: see :func:`sample_csv_path` / :func:`ingest_sample`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Union

import numpy as np

from repro.solar.ingest.midc import IngestError, parse_midc
from repro.solar.ingest.quality import (
    FLAG_NAMES,
    QualityReport,
    QualityThresholds,
    clean_values,
    detect_quality,
)
from repro.solar.ingest.replay import build_replay_scenario
from repro.solar.scenarios.scenario import Scenario
from repro.solar.trace import MINUTES_PER_DAY, SolarTrace

__all__ = [
    "IngestError",
    "IngestResult",
    "QualityReport",
    "QualityThresholds",
    "FLAG_NAMES",
    "ingest_csv",
    "format_ingest_report",
    "sample_csv_path",
    "ingest_sample",
    "parse_midc",
    "detect_quality",
    "clean_values",
    "build_replay_scenario",
]

#: Minimum fraction of valid native samples a resampled slot needs
#: before it counts as observed (below it the slot is missing).
DEFAULT_MIN_VALID_FRACTION = 0.5


@dataclass(frozen=True, eq=False)
class IngestResult:
    """Everything ingestion knows about one measured file.

    Attributes
    ----------
    raw:
        The trace as measured (negatives clipped, missing telemetry
        reads zero) -- defects present.
    clean:
        The repaired trace (flagged slots re-imputed); this is what
        :func:`~repro.solar.datasets.build_dataset` serves for a
        registered measured site.
    report:
        Per-slot quality masks (:class:`QualityReport`).
    scenario:
        The detected defects as a deterministic scenario;
        ``scenario.apply(clean)`` reproduces ``raw`` byte-for-byte.
    channel:
        Header of the ingested channel.
    channels:
        Every channel the file offered.
    native_resolution_minutes:
        Resolution inferred from the file (before resampling).
    start_date:
        ISO date of the first day in the file.
    source:
        Path the file was read from (None for in-memory streams).
    """

    raw: SolarTrace
    clean: SolarTrace
    report: QualityReport
    scenario: Scenario
    channel: str
    channels: tuple
    native_resolution_minutes: int
    start_date: str
    source: Optional[str] = None

    @property
    def n_days(self) -> int:
        """Whole days ingested."""
        return self.clean.n_days

    @property
    def resolution_minutes(self) -> int:
        """Resolution of the ingested traces (after resampling)."""
        return self.clean.resolution_minutes


def ingest_csv(
    source: Union[str, Path, Iterable[str]],
    channel: Optional[str] = None,
    resolution_minutes: Optional[int] = None,
    name: Optional[str] = None,
    thresholds: Optional[QualityThresholds] = None,
    min_valid_fraction: float = DEFAULT_MIN_VALID_FRACTION,
) -> IngestResult:
    """Ingest a measured MIDC-shaped CSV into the reproduction pipeline.

    Parameters
    ----------
    source:
        Path of the raw CSV, or any iterable of its text lines (an
        open file, a ``StringIO``, a one-shot stream); read once by
        :func:`parse_midc`.
    channel:
        Channel header to ingest (case-insensitive exact or unique
        substring); default: the first ``GLOBAL`` channel.
    resolution_minutes:
        Target resolution; must be a whole multiple of the file's
        native resolution (slots are averaged over their valid native
        samples).  Default: the native resolution.
    name:
        Site label of the resulting traces (default: derived from the
        file name, or ``"measured"`` for streams).
    thresholds:
        Quality-detector knobs (:class:`QualityThresholds`).
    min_valid_fraction:
        Resampled slots with a smaller fraction of valid native samples
        are marked missing.
    """
    if not 0.0 < min_valid_fraction <= 1.0:
        raise IngestError("min_valid_fraction must be in (0, 1]")
    parsed = parse_midc(source, channel)
    native = parsed.resolution_minutes
    target = resolution_minutes if resolution_minutes is not None else native
    if target < native or target % native or MINUTES_PER_DAY % target:
        raise IngestError(
            f"target resolution {target} min must be a whole multiple of "
            f"the native {native} min and divide a day"
        )
    # Clip thermal-offset negatives; NaN (missing) propagates through.
    values = np.maximum(parsed.values, 0.0)
    if target != native:
        values = _resample(values, target // native, min_valid_fraction)

    label = name or _default_name(source)
    report = detect_quality(
        values, MINUTES_PER_DAY // target, target, thresholds=thresholds
    )
    raw_values = np.where(report.missing, 0.0, values)
    cleaned = clean_values(values, report)

    raw = SolarTrace(raw_values, target, name=f"{label}-raw")
    clean = SolarTrace(cleaned, target, name=label)
    scenario = build_replay_scenario(
        report, raw_values, name=f"{label.lower()}-defects"
    )
    return IngestResult(
        raw=raw,
        clean=clean,
        report=report,
        scenario=scenario,
        channel=parsed.channel,
        channels=parsed.channels,
        native_resolution_minutes=native,
        start_date=parsed.start_date,
        source=str(source) if isinstance(source, (str, Path)) else None,
    )


def _resample(values: np.ndarray, factor: int, min_valid_fraction: float) -> np.ndarray:
    """Block-average ``factor`` native samples per target slot.

    A slot's value is the mean of its *valid* native samples; slots
    with fewer than ``min_valid_fraction`` valid samples are missing.
    """
    blocks = values.reshape(-1, factor)
    valid = ~np.isnan(blocks)
    n_valid = valid.sum(axis=1)
    sums = np.where(valid, blocks, 0.0).sum(axis=1)
    means = sums / np.maximum(n_valid, 1)
    return np.where(n_valid >= min_valid_fraction * factor, means, np.nan)


def _default_name(source) -> str:
    if isinstance(source, (str, Path)):
        stem = Path(source).stem
        cleaned = "".join(c if c.isalnum() else "-" for c in stem).strip("-")
        return (cleaned or "measured").upper()
    return "MEASURED"


def format_ingest_report(result: IngestResult) -> str:
    """Human-readable multi-line summary of one ingestion."""
    clean = result.clean
    report = result.report
    lines = [
        f"ingested {clean.name}: {clean.n_days} days at "
        f"{clean.resolution_minutes}-minute resolution "
        f"({clean.n_samples} samples) from {result.start_date}",
        f"channel: {result.channel} "
        f"(native {result.native_resolution_minutes} min; "
        f"file offers {len(result.channels)} channels)",
        f"peak {clean.peak:.1f} W/m^2; "
        f"mean daily energy {clean.daily_energy().mean():.1f} Wh/m^2",
    ]
    days = report.days_affected()
    flagged = int(report.any_defect.sum())
    lines.append(
        f"quality: {flagged}/{report.n_samples} samples flagged "
        f"({flagged / report.n_samples:.2%}); days affected: "
        + ", ".join(f"{flag}={days[flag]}" for flag in FLAG_NAMES)
    )
    chain = (
        " -> ".join(type(t).__name__ for t in result.scenario.transforms)
        or "identity (no defects)"
    )
    lines.append(f"replay scenario: {result.scenario.name} [{chain}]")
    return "\n".join(lines)


def sample_csv_path() -> Path:
    """Path of the bundled deterministic sample measurement file."""
    return Path(__file__).parent / "data" / "sample_midc.csv"


def ingest_sample(**kwargs) -> IngestResult:
    """Ingest the bundled sample file (kwargs pass to :func:`ingest_csv`)."""
    return ingest_csv(sample_csv_path(), **kwargs)
