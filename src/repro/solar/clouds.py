"""Stochastic cloud model.

Measured solar irradiance is commonly decomposed as::

    GHI(t) = k(t) * GHI_clearsky(t)

where ``k`` is the *clear-sky index* in roughly ``[0, 1.1]`` (values
slightly above 1 occur through cloud-edge reflection).  The statistical
structure of ``k`` is what distinguishes a sunny desert site (PFCI, AZ in
the paper) from a coastal or mountain site (HSU, SPMD): sunny sites spend
most days near ``k ~ 1`` with little intra-day movement, variable sites
mix clear, broken-cloud and overcast days with fast intra-day swings.

The model here has two levels:

1. **Day-type Markov chain** (:class:`DayTypeModel`) over the states
   ``CLEAR``, ``PARTLY`` and ``OVERCAST``.  Persistence in the transition
   matrix creates multi-day weather spells, matching the paper's remark
   that traces differ in the "number and distribution of sunny and cloudy
   days".
2. **Intra-day AR(1) clear-sky index** (:class:`IntradayCloudModel`): for
   each day, ``k`` follows a mean-reverting AR(1) process around the day
   type's base level, with day-type-specific volatility and mean-reversion
   speed, plus a slow drift and abrupt regime jumps.  PARTLY days (and
   OVERCAST days, at half the rate) additionally receive short
   multiplicative cloud transients (passing cumulus) that create the
   bursty drops visible in Fig. 2 of the paper.

Both levels draw from a caller-supplied :class:`numpy.random.Generator`
so traces are exactly reproducible from a seed.

**Draw-order invariant.**  A trace's bytes are a function of its seed
only because the stream is consumed in one fixed order: day by day,
and within a day innovations, initial index, drift steps, jumps, then
transients (:meth:`IntradayCloudModel.sample_days` lists them).  The
sampler draws a whole run of days in that order first and only then
does the arithmetic, vectorised across days: the AR(1) is sequential in
time but independent across days, so one step over every day at once
replaces a Python loop per day, with each element's floating-point
operations unchanged.  Any change to the draw order, or to the order of
the operations on one element, changes every trace downstream; the
trace sha256 pins in the test suite catch both.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = ["DayType", "DayTypeModel", "IntradayCloudModel", "CloudModelParams"]


class DayType(enum.IntEnum):
    """Weather class of a whole day."""

    CLEAR = 0
    PARTLY = 1
    OVERCAST = 2


@dataclass(frozen=True)
class DayTypeModel:
    """First-order Markov chain over :class:`DayType`.

    Parameters
    ----------
    transition:
        Row-stochastic 3x3 matrix; ``transition[i][j]`` is the probability
        of moving from day type ``i`` to day type ``j``.
    initial:
        Distribution of the first day's type.
    """

    transition: np.ndarray
    initial: np.ndarray = field(
        default_factory=lambda: np.array([1.0 / 3, 1.0 / 3, 1.0 / 3])
    )

    def __post_init__(self):
        transition = np.asarray(self.transition, dtype=float)
        initial = np.asarray(self.initial, dtype=float)
        if transition.shape != (3, 3):
            raise ValueError(f"transition must be 3x3, got {transition.shape}")
        if initial.shape != (3,):
            raise ValueError(f"initial must have 3 entries, got {initial.shape}")
        if not np.allclose(transition.sum(axis=1), 1.0, atol=1e-9):
            raise ValueError("transition rows must each sum to 1")
        if not np.isclose(initial.sum(), 1.0, atol=1e-9):
            raise ValueError("initial distribution must sum to 1")
        if (transition < 0).any() or (initial < 0).any():
            raise ValueError("probabilities must be non-negative")
        object.__setattr__(self, "transition", transition)
        object.__setattr__(self, "initial", initial)

    def sample_days(self, n_days: int, rng: np.random.Generator) -> np.ndarray:
        """Draw a length-``n_days`` day-type sequence."""
        if n_days <= 0:
            raise ValueError("n_days must be positive")
        states = np.empty(n_days, dtype=np.int64)
        states[0] = rng.choice(3, p=self.initial)
        for day in range(1, n_days):
            states[day] = rng.choice(3, p=self.transition[states[day - 1]])
        return states

    def stationary_distribution(self) -> np.ndarray:
        """Stationary distribution of the chain (left eigenvector for 1)."""
        eigvals, eigvecs = np.linalg.eig(self.transition.T)
        idx = int(np.argmin(np.abs(eigvals - 1.0)))
        vec = np.real(eigvecs[:, idx])
        vec = np.abs(vec)
        return vec / vec.sum()


@dataclass(frozen=True)
class CloudModelParams:
    """Per-day-type parameters of the intra-day clear-sky-index process.

    Attributes
    ----------
    base_index:
        Mean clear-sky index per day type ``(clear, partly, overcast)``.
    volatility:
        Innovation standard deviation of the AR(1) per day type.
    mean_reversion:
        AR(1) mean-reversion coefficient in ``(0, 1]`` per day type;
        larger values revert faster (less persistent excursions).
    day_drift:
        Standard deviation, per day type, of a slow random-walk drift of
        the index accumulated over a whole day.  This models intra-day
        weather evolution (fronts arriving, fog burning off): it makes
        hours-old observations *biased*, not merely noisy, which is what
        limits the useful conditioning-window length ``K`` on real data.
    jump_rate:
        Expected number of *regime jumps* per day, per day type: abrupt
        level changes of the index (a front passing, the marine layer
        clearing).  Jumps decorrelate the index sharply, unlike the
        gradual random walk, and are the main mechanism keeping the
        optimal ``K`` small.
    jump_sd:
        Standard deviation of each jump's level change, per day type.
    transient_rate:
        Expected number of discrete cloud transients per *hour* on PARTLY
        days, half that on OVERCAST days (passing clouds that multiply
        ``k`` down sharply).
    transient_depth:
        Mean fractional attenuation of a transient (0.6 = drop to 40%).
    transient_minutes:
        Mean duration of a transient in minutes.
    k_min, k_max:
        Hard clamp of the clear-sky index.
    """

    base_index: Sequence[float] = (0.97, 0.65, 0.25)
    volatility: Sequence[float] = (0.015, 0.10, 0.05)
    mean_reversion: Sequence[float] = (0.25, 0.08, 0.12)
    day_drift: Sequence[float] = (0.03, 0.18, 0.10)
    jump_rate: Sequence[float] = (0.2, 2.0, 1.0)
    jump_sd: Sequence[float] = (0.05, 0.25, 0.12)
    transient_rate: float = 1.2
    transient_depth: float = 0.55
    transient_minutes: float = 12.0
    k_min: float = 0.02
    k_max: float = 1.15

    def __post_init__(self):
        per_type = (
            self.base_index,
            self.volatility,
            self.mean_reversion,
            self.day_drift,
            self.jump_rate,
            self.jump_sd,
        )
        if any(len(seq) != 3 for seq in per_type):
            raise ValueError("per-day-type parameter tuples must have 3 entries")
        if not 0.0 <= self.k_min < self.k_max:
            raise ValueError("require 0 <= k_min < k_max")
        for coeff in self.mean_reversion:
            if not 0.0 < coeff <= 1.0:
                raise ValueError("mean_reversion coefficients must be in (0, 1]")


class IntradayCloudModel:
    """Generates per-sample clear-sky index series, one row per day."""

    def __init__(self, params: CloudModelParams):
        self.params = params

    def sample_day(
        self,
        day_type: DayType,
        samples_per_day: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Clear-sky index for one day on a uniform grid.

        The one-day face of :meth:`sample_days`: returns an array of
        shape ``(samples_per_day,)`` clamped to ``[k_min, k_max]``.
        """
        return self.sample_days([day_type], samples_per_day, rng)[0]

    def sample_days(
        self,
        day_types: Sequence[int],
        samples_per_day: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Clear-sky index for consecutive days on a uniform grid.

        Returns an array of shape ``(len(day_types), samples_per_day)``
        clamped to ``[k_min, k_max]``.  Row ``d`` is, bit for bit, what a
        day-at-a-time sampler drawing from the same stream gives for day
        ``d`` (the test suite keeps such a sampler as the parity oracle).

        Each day is a mean-reverting AR(1) around the day type's base
        level, plus a slow random-walk drift, plus regime jumps,
        multiplied by a mask of passing-cloud transients (PARTLY and
        OVERCAST days), then clamped.  The work runs in three phases so
        that only the random draws loop over days in Python:

        1. *Draw.*  Walk the days in order and consume ``rng`` exactly
           as a day-at-a-time sampler would: per day the innovation
           vector, the initial index, the drift steps (only if the day
           type drifts), the jump count, ``(position, size)`` per jump,
           then on PARTLY and OVERCAST days the transient count, starts
           and ``(duration, depth)`` per transient.  No draw depends on
           the index, so all of them can precede the arithmetic; only
           the stream order matters.
        2. *Recur.*  Run the AR(1) once per time step over all days at
           once, with each element's operations in the scalar loop's
           order: ``prev + beta * (base - prev)``, then ``+ noise``.
           numpy's elementwise ufuncs never fuse a multiply-add, so
           every row equals the scalar loop exactly; a closed form,
           linear filter or cumulative sum/product would reorder the
           rounding.
        3. *Shape.*  Add the drift, add each jump in draw order,
           multiply by the mask and clip -- all elementwise, so applying
           them to the whole block is exact.
        """
        if samples_per_day <= 0:
            raise ValueError("samples_per_day must be positive")
        types = np.asarray(day_types)
        if types.ndim != 1 or types.size == 0:
            raise ValueError("day_types must be a non-empty 1-D sequence")
        if types.dtype.kind not in "iu" or ((types < 0) | (types > 2)).any():
            raise ValueError("day types must be integers in {0, 1, 2}")
        p = self.params
        spd = samples_per_day
        n_days = types.size

        # Scale the per-step mean reversion and innovation so the
        # *stationary* variance is resolution independent: sampling at
        # 1 minute vs 5 minutes should describe the same weather.
        steps_per_min = spd / (24.0 * 60.0)
        step_beta = [
            1.0 - (1.0 - beta) ** (1.0 / max(steps_per_min * 5.0, 1e-9))
            for beta in p.mean_reversion
        ]
        innovation_sd = [
            sigma * np.sqrt(max(1.0 - (1.0 - b) ** 2, 1e-12))
            for sigma, b in zip(p.volatility, step_beta)
        ]
        # Slow intra-day weather drift: a random walk whose end-of-day
        # standard deviation is day_drift[day_type].
        drift_step_sd = [sd / np.sqrt(spd) for sd in p.day_drift]

        # 1. Draw.  ``k`` holds the innovations (column 0: the initial
        # index) and becomes the AR(1) in place; ``aux`` holds the drift
        # walks and is reused for the transient mask.
        k = np.empty((n_days, spd))
        aux = np.empty((n_days, spd))
        jumps = []  # (day, at, level change), in draw order
        spans = []  # (day, start, end, mask level)
        for day, t in enumerate(types.tolist()):
            k[day] = rng.normal(0.0, innovation_sd[t], size=spd)
            k[day, 0] = p.base_index[t] + rng.normal(0.0, p.volatility[t])
            if p.day_drift[t] > 0:
                np.cumsum(rng.normal(0.0, drift_step_sd[t], size=spd), out=aux[day])
            # Regime jumps: abrupt, persistent level changes at random instants.
            for _ in range(rng.poisson(p.jump_rate[t])):
                at = int(rng.integers(0, spd))
                jumps.append((day, at, rng.normal(0.0, p.jump_sd[t])))
            if t != DayType.CLEAR:
                # Breaks and showers modulate overcast days too, at half rate.
                rate_scale = 1.0 if t == DayType.PARTLY else 0.5
                spans += self._draw_transients(day, spd, rng, rate_scale)

        # 2. Recur, one time step across all days at a time.
        base = np.asarray(p.base_index, dtype=float)[types]
        beta = np.asarray(step_beta)[types]
        step = np.empty(n_days)
        prev = k[:, 0]
        for i in range(1, spd):
            cur = k[:, i]
            np.subtract(base, prev, out=step)
            np.multiply(beta, step, out=step)
            np.add(prev, step, out=step)
            np.add(step, cur, out=cur)
            prev = cur

        # 3. Shape.
        # Rows of days that do not drift were never written in aux.
        drifts = (np.asarray(p.day_drift) > 0)[types]
        np.add(k, aux, out=k, where=drifts[:, None])
        for day, at, change in jumps:
            k[day, at:] += change
        mask = aux
        mask.fill(1.0)
        for day, start, end, level in spans:
            segment = mask[day, start:end]
            np.minimum(segment, level, out=segment)
        k *= mask  # exact on unmasked days: x * 1.0 == x
        return np.clip(k, p.k_min, p.k_max, out=k)

    def _draw_transients(
        self, day: int, samples_per_day: int, rng: np.random.Generator, rate_scale: float
    ) -> list:
        """Day ``day``'s passing-cloud transients as ``(day, start, end, level)`` spans.

        The day's multiplicative mask is 1 outside every span and the
        lowest covering ``level`` inside them.
        """
        p = self.params
        minutes_per_sample = 24.0 * 60.0 / samples_per_day
        n_transients = rng.poisson(p.transient_rate * 24.0 * rate_scale)
        if n_transients == 0:
            return []
        spans = []
        for start in rng.integers(0, samples_per_day, size=n_transients).tolist():
            duration_min = rng.exponential(p.transient_minutes)
            length = max(1, int(round(duration_min / minutes_per_sample)))
            depth = min(max(rng.normal(p.transient_depth, 0.15), 0.1), 0.95)
            spans.append((day, start, min(samples_per_day, start + length), 1.0 - depth))
        return spans
