"""Trace degradation transforms.

Each transform is a small frozen dataclass mapping one flat sample
array to another of the same shape, given a :class:`TransformContext`
describing the trace geometry and carrying the transform's private
random generator.  Transforms never mutate their input and never touch
global random state: all randomness flows through ``ctx.rng``, which the
owning :class:`~repro.solar.scenarios.scenario.Scenario` derives from
its seed (one spawned child stream per transform, in composition
order), so the same seed always produces byte-identical output.

Two invariants are enforced by the :class:`Transform` base class after
every ``_transform`` call, because every downstream consumer
(:class:`~repro.solar.trace.SolarTrace` validation, the dawn guard of
the predictor, the region-of-interest mask) relies on them:

* **non-negativity** -- degraded power is clamped at zero;
* **night preservation** -- samples that were exactly zero in the input
  stay zero.  Physically: a fault model may corrupt what the sensor
  reads in daylight, but it cannot create irradiance at night, and the
  imputation policies know that a zero-power slot is genuinely dark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.solar.clouds import CloudModelParams, DayTypeModel, IntradayCloudModel

__all__ = [
    "TransformContext",
    "Transform",
    "SoilingRamp",
    "PartialShading",
    "SensorDropout",
    "StuckAtFault",
    "MissingGaps",
    "SpikeNoise",
    "CloudRegimeShift",
    "TimestampJitter",
    "GAP_POLICIES",
    "impute_holes",
]

#: Imputation policies understood by :class:`MissingGaps`.
GAP_POLICIES = ("zero", "hold", "interp")


@dataclass(frozen=True)
class TransformContext:
    """Trace geometry plus the transform's private random stream.

    Attributes
    ----------
    resolution_minutes:
        Minutes between consecutive samples.
    samples_per_day:
        Samples in each whole day.
    n_days:
        Whole days covered by the value array.
    rng:
        Generator spawned by the owning scenario for *this* transform.
        Deterministic transforms simply never draw from it.
    """

    resolution_minutes: int
    samples_per_day: int
    n_days: int
    rng: np.random.Generator

    @property
    def n_samples(self) -> int:
        """Total samples (``n_days * samples_per_day``)."""
        return self.n_days * self.samples_per_day

    def minutes_to_samples(self, minutes: float) -> int:
        """Round a duration in minutes to whole samples (at least 1)."""
        return max(1, int(round(minutes / self.resolution_minutes)))


class Transform:
    """Base class: shape-preserving degradation of a flat sample array.

    Subclasses implement :meth:`_transform`; callers use
    :meth:`__call__`, which validates the output shape and enforces the
    module-level invariants (non-negativity, night preservation).
    """

    def __call__(self, values: np.ndarray, ctx: TransformContext) -> np.ndarray:
        out = np.asarray(self._transform(values, ctx), dtype=float)
        if out.size != values.size:
            raise ValueError(
                f"{type(self).__name__} changed the sample count: "
                f"{values.size} -> {out.size}"
            )
        out = out.reshape(values.shape)
        out = np.maximum(out, 0.0)
        out[values == 0.0] = 0.0
        return out

    def _transform(self, values: np.ndarray, ctx: TransformContext) -> np.ndarray:
        raise NotImplementedError


# ----------------------------------------------------------------------
# Deterministic degradations
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SoilingRamp(Transform):
    """Panel soiling / aging: a slowly accumulating attenuation ramp.

    Dust (and cell aging) multiply the harvest by a factor that decays
    by ``rate_per_day`` each day, clamped at ``floor``.  When
    ``wash_interval_days`` is set, the accumulated soiling resets every
    interval (rain washing the panel), producing the sawtooth seen on
    real deployments.
    """

    rate_per_day: float = 0.002
    floor: float = 0.5
    wash_interval_days: Optional[int] = None

    def __post_init__(self):
        if not 0.0 <= self.rate_per_day < 1.0:
            raise ValueError("rate_per_day must be in [0, 1)")
        if not 0.0 <= self.floor <= 1.0:
            raise ValueError("floor must be in [0, 1]")
        if self.wash_interval_days is not None and self.wash_interval_days <= 0:
            raise ValueError("wash_interval_days must be positive")

    def _transform(self, values, ctx):
        day = np.arange(ctx.n_days, dtype=float)
        if self.wash_interval_days is not None:
            day = day % self.wash_interval_days
        factor = np.maximum(1.0 - self.rate_per_day * day, self.floor)
        return values.reshape(ctx.n_days, -1) * factor[:, None]


@dataclass(frozen=True)
class PartialShading(Transform):
    """A fixed daily shading window (tree, mast, neighbouring roof).

    Samples between ``start_hour`` and ``end_hour`` (local solar time)
    are attenuated by ``attenuation`` (0.6 = drop to 40 %), optionally
    only for the day range ``days = (first, last)`` (half-open) --
    foliage is seasonal.
    """

    start_hour: float = 7.0
    end_hour: float = 9.5
    attenuation: float = 0.6
    days: Optional[Tuple[int, int]] = None

    def __post_init__(self):
        if not 0.0 <= self.start_hour < self.end_hour <= 24.0:
            raise ValueError("require 0 <= start_hour < end_hour <= 24")
        if not 0.0 < self.attenuation <= 1.0:
            raise ValueError("attenuation must be in (0, 1]")
        if self.days is not None and not 0 <= self.days[0] < self.days[1]:
            raise ValueError("days must be an increasing (first, last) pair")

    def _transform(self, values, ctx):
        spd = ctx.samples_per_day
        hour = (np.arange(spd) + 0.5) * (24.0 / spd)
        in_window = (hour >= self.start_hour) & (hour < self.end_hour)
        gain = np.where(in_window, 1.0 - self.attenuation, 1.0)
        shaped = values.reshape(ctx.n_days, spd).copy()
        if self.days is None:
            shaped *= gain[None, :]
        else:
            first, last = self.days
            shaped[first:last] *= gain[None, :]
        return shaped


# ----------------------------------------------------------------------
# Stochastic sensor faults
# ----------------------------------------------------------------------
def _draw_events(
    ctx: TransformContext, rate_per_day: float, mean_duration_minutes: float
):
    """Fault events as ``(start, length)`` pairs (in samples).

    One event model shared by every windowed fault transform: a
    Poisson(``rate_per_day * n_days``) event count, uniform starts,
    exponential durations -- drawn in this exact order so each
    transform's stream stays byte-stable.
    """
    n_events = int(ctx.rng.poisson(rate_per_day * ctx.n_days))
    if n_events == 0:
        return []
    starts = ctx.rng.integers(0, ctx.n_samples, size=n_events)
    durations = ctx.rng.exponential(mean_duration_minutes, size=n_events)
    return [
        (int(start), ctx.minutes_to_samples(duration))
        for start, duration in zip(starts, durations)
    ]


def _draw_windows(
    ctx: TransformContext, rate_per_day: float, mean_duration_minutes: float
) -> np.ndarray:
    """Boolean fault mask over the event windows of :func:`_draw_events`."""
    mask = np.zeros(ctx.n_samples, dtype=bool)
    for start, length in _draw_events(ctx, rate_per_day, mean_duration_minutes):
        mask[start : start + length] = True
    return mask


@dataclass(frozen=True)
class SensorDropout(Transform):
    """Sensor dropout windows: the measurement channel reads zero.

    Poisson(``rate_per_day * n_days``) dropout events, each lasting an
    exponential duration with mean ``mean_duration_minutes``.
    """

    rate_per_day: float = 0.5
    mean_duration_minutes: float = 45.0

    def __post_init__(self):
        if self.rate_per_day < 0:
            raise ValueError("rate_per_day must be non-negative")
        if self.mean_duration_minutes <= 0:
            raise ValueError("mean_duration_minutes must be positive")

    def _transform(self, values, ctx):
        mask = _draw_windows(ctx, self.rate_per_day, self.mean_duration_minutes)
        out = values.copy()
        out[mask] = 0.0
        return out


@dataclass(frozen=True)
class StuckAtFault(Transform):
    """Stuck-at sensor fault: the reading freezes at its onset value.

    During each fault window the output holds the sample observed when
    the fault began (ADC latch-up, ice on the pyranometer).  Night
    samples are exempt by the base-class invariant -- the value cannot
    stick to a nonzero level where the true power is zero.
    """

    rate_per_day: float = 0.3
    mean_duration_minutes: float = 90.0

    def __post_init__(self):
        if self.rate_per_day < 0:
            raise ValueError("rate_per_day must be non-negative")
        if self.mean_duration_minutes <= 0:
            raise ValueError("mean_duration_minutes must be positive")

    def _transform(self, values, ctx):
        out = values.copy()
        for start, length in _draw_events(
            ctx, self.rate_per_day, self.mean_duration_minutes
        ):
            end = min(ctx.n_samples, start + length)
            out[start:end] = values[start]
        return out


@dataclass(frozen=True)
class MissingGaps(Transform):
    """Missing-slot gaps filled by an explicit imputation policy.

    Telemetry gaps (radio loss, logger reboot) leave holes that any real
    pipeline must fill before a fixed-shape predictor can run.  The gap
    windows are drawn like :class:`SensorDropout`; the holes are then
    imputed according to ``policy``:

    * ``"zero"``   -- pessimistic: treat missing as no harvest;
    * ``"hold"``   -- last observation carried forward;
    * ``"interp"`` -- linear interpolation between the gap's edges.
    """

    rate_per_day: float = 0.4
    mean_duration_minutes: float = 60.0
    policy: str = "hold"

    def __post_init__(self):
        if self.rate_per_day < 0:
            raise ValueError("rate_per_day must be non-negative")
        if self.mean_duration_minutes <= 0:
            raise ValueError("mean_duration_minutes must be positive")
        if self.policy not in GAP_POLICIES:
            raise ValueError(
                f"unknown gap policy {self.policy!r}; available: {GAP_POLICIES}"
            )

    def _transform(self, values, ctx):
        missing = _draw_windows(ctx, self.rate_per_day, self.mean_duration_minutes)
        return impute_holes(values, missing, self.policy)


def impute_holes(values: np.ndarray, missing: np.ndarray, policy: str) -> np.ndarray:
    """Fill the ``missing`` samples of ``values`` by ``policy``.

    The shared imputation kernel behind :class:`MissingGaps` (random
    gap windows) and the ingestion replay transforms (measured gap
    masks).  ``policy`` is one of :data:`GAP_POLICIES`; the input is
    never mutated.
    """
    if policy not in GAP_POLICIES:
        raise ValueError(f"unknown gap policy {policy!r}; available: {GAP_POLICIES}")
    if not missing.any():
        return values.copy()
    if policy == "zero":
        out = values.copy()
        out[missing] = 0.0
        return out
    present = np.flatnonzero(~missing)
    if present.size == 0:
        return np.zeros_like(values)
    holes = np.flatnonzero(missing)
    if policy == "hold":
        # Index of the latest present sample at or before each hole;
        # holes before the first present sample fall back to it.
        prev = np.searchsorted(present, holes, side="right") - 1
        fill = values[present[np.maximum(prev, 0)]]
    else:  # "interp"
        fill = np.interp(holes, present, values[present])
    out = values.copy()
    out[holes] = fill
    return out


@dataclass(frozen=True)
class SpikeNoise(Transform):
    """Single-sample spike faults: readings jump to implausible levels.

    Electrical transients (loose connector, ADC glitch) or cloud-edge
    enhancement push isolated samples far above the clear-sky envelope.
    Poisson(``rate_per_day * n_days``) samples are raised to an
    amplitude drawn uniformly from ``amplitude_wm2``; the spike only
    ever *raises* a reading, and the base-class night invariant keeps
    dark slots dark (a spike is a daylight measurement fault).
    """

    rate_per_day: float = 2.0
    amplitude_wm2: Tuple[float, float] = (1600.0, 2200.0)

    def __post_init__(self):
        if self.rate_per_day < 0:
            raise ValueError("rate_per_day must be non-negative")
        low, high = self.amplitude_wm2
        if not 0.0 < low <= high:
            raise ValueError("amplitude_wm2 must be an increasing positive pair")

    def _transform(self, values, ctx):
        n_events = int(ctx.rng.poisson(self.rate_per_day * ctx.n_days))
        out = values.copy()
        if n_events == 0:
            return out
        idx = ctx.rng.integers(0, ctx.n_samples, size=n_events)
        amplitude = ctx.rng.uniform(*self.amplitude_wm2, size=n_events)
        out[idx] = np.maximum(out[idx], amplitude)
        return out


# ----------------------------------------------------------------------
# Weather and clock degradations
# ----------------------------------------------------------------------
#: Day-type chain used by the default regime shift: overcast-heavy with
#: strong persistence -- a stalled front / monsoon season.
_GLOOMY_TRANSITION = (
    (0.30, 0.40, 0.30),
    (0.10, 0.45, 0.45),
    (0.05, 0.25, 0.70),
)


@dataclass(frozen=True)
class CloudRegimeShift(Transform):
    """A persistent weather-regime change starting at ``onset_day``.

    From the onset on, each day is attenuated by an extra clear-sky
    index sampled from the same two-level cloud model the synthetic
    generator uses (:class:`~repro.solar.clouds.DayTypeModel` day-type
    chain, :class:`~repro.solar.clouds.IntradayCloudModel` intra-day
    index), parameterised for a gloomier climate.  This composes with
    whatever weather the base trace already has: it models the *shift*
    (relative to the trained-on climate), not absolute weather, which is
    exactly the non-stationarity that defeats a long history depth D.
    """

    onset_day: int = 0
    day_type_model: DayTypeModel = None
    cloud_params: CloudModelParams = None

    def __post_init__(self):
        if self.onset_day < 0:
            raise ValueError("onset_day must be non-negative")
        if self.day_type_model is None:
            object.__setattr__(
                self,
                "day_type_model",
                DayTypeModel(
                    transition=np.asarray(_GLOOMY_TRANSITION),
                    initial=np.array([0.1, 0.4, 0.5]),
                ),
            )
        if self.cloud_params is None:
            object.__setattr__(self, "cloud_params", CloudModelParams())

    def _transform(self, values, ctx):
        if self.onset_day >= ctx.n_days:
            return values.copy()
        shifted_days = ctx.n_days - self.onset_day
        day_types = self.day_type_model.sample_days(shifted_days, ctx.rng)
        index = IntradayCloudModel(self.cloud_params).sample_days(
            day_types, ctx.samples_per_day, ctx.rng
        )
        # The sampled series is a clear-sky index in [k_min, k_max]; as
        # a *relative* attenuation it must not amplify, so cap it at 1
        # (cloud-edge brightening does not survive a regime this model
        # describes).
        shaped = values.reshape(ctx.n_days, ctx.samples_per_day).copy()
        shaped[self.onset_day:] *= np.minimum(index, 1.0, out=index)
        return shaped


@dataclass(frozen=True)
class TimestampJitter(Transform):
    """Clock drift: each day's samples shift by a few minutes.

    A cheap RTC gains or loses time, so the node's notion of "slot j"
    slides against solar time.  Each day is circularly rolled by an
    integer number of samples drawn uniformly from
    ``[-max_shift_minutes, +max_shift_minutes]``.  The roll is per day,
    so the misalignment decorrelates day-to-day history exactly the way
    an unsynchronised deployment does.
    """

    max_shift_minutes: float = 15.0

    def __post_init__(self):
        if self.max_shift_minutes < 0:
            raise ValueError("max_shift_minutes must be non-negative")

    def _transform(self, values, ctx):
        max_shift = int(self.max_shift_minutes / ctx.resolution_minutes)
        shaped = values.reshape(ctx.n_days, ctx.samples_per_day).copy()
        if max_shift == 0:
            return shaped
        shifts = ctx.rng.integers(-max_shift, max_shift + 1, size=ctx.n_days)
        for day, shift in enumerate(shifts):
            if shift:
                shaped[day] = np.roll(shaped[day], int(shift))
        return shaped
