"""Synthetic one-year irradiance trace generation.

This ties together the geometry, clear-sky, and cloud models into the
``generate_trace`` entry point that stands in for downloading a year of
NREL MIDC measurements (see DESIGN.md, substitution table).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.solar.clearsky import clearsky_profile
from repro.solar.clouds import DayType, IntradayCloudModel
from repro.solar.sites import SiteProfile
from repro.solar.trace import SolarTrace

__all__ = ["generate_trace", "generate_day"]


def generate_day(
    site: SiteProfile,
    day_of_year: int,
    day_type: DayType,
    rng: np.random.Generator,
    clearsky_model: str = "haurwitz",
) -> np.ndarray:
    """One synthetic day of irradiance (W/m^2) at the site's resolution."""
    envelope = clearsky_profile(
        site.latitude_deg, day_of_year, site.samples_per_day, model=clearsky_model
    )
    index = IntradayCloudModel(site.cloud_params).sample_day(
        day_type, site.samples_per_day, rng
    )
    return envelope * index


def generate_trace(
    site: SiteProfile,
    n_days: int = 365,
    seed: Optional[int] = None,
    clearsky_model: str = "haurwitz",
) -> SolarTrace:
    """Generate a seeded synthetic irradiance trace for ``site``.

    Parameters
    ----------
    site:
        Site climate profile (see :mod:`repro.solar.sites`).
    n_days:
        Number of days to generate; the paper uses 365.
    seed:
        RNG seed; defaults to the site's own ``seed`` so that the "year
        of weather" is stable across runs and experiments.
    clearsky_model:
        Clear-sky envelope model name (``"haurwitz"`` or ``"adnot"``).

    Returns
    -------
    SolarTrace
        ``n_days * site.samples_per_day`` non-negative samples in W/m^2.
    """
    if n_days <= 0:
        raise ValueError("n_days must be positive")
    rng = np.random.default_rng(site.seed if seed is None else seed)
    day_types = site.day_type_model.sample_days(n_days, rng)
    spd = site.samples_per_day
    days = IntradayCloudModel(site.cloud_params).sample_days(day_types, spd, rng)
    for day in range(n_days):
        days[day] *= clearsky_profile(
            site.latitude_deg, day % 365 + 1, spd, model=clearsky_model
        )

    return SolarTrace(
        values=days.reshape(-1), resolution_minutes=site.resolution_minutes, name=site.name
    )
