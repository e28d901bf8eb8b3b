"""Fig. 2 -- solar energy measured on six days.

The paper's motivational figure: per-5-minute-interval energy across
six consecutive days, showing intra-day and day-to-day variation.  We
regenerate the series (sampled from a variable site so both effects are
visible) as (day, interval, energy) rows; the render is textual, but
the ``series()`` helper returns plot-ready arrays.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.experiments.common import DEFAULT_N_DAYS, ExperimentResult
from repro.solar.datasets import build_dataset
from repro.solar.slots import SlotView

__all__ = ["run", "series", "MIN_N_DAYS"]

HEADERS = ["day", "peak_wm2", "energy_wh_m2", "day_character"]

#: Interval length of the figure (the paper plots 5-minute energies).
INTERVAL_MINUTES = 5

#: Days the figure plots.
FIGURE_DAYS = 6

#: Shortest trace that holds the figure's day window.
MIN_N_DAYS = FIGURE_DAYS


def series(
    site: str = "SPMD",
    start_day: int = None,
    n_figure_days: int = FIGURE_DAYS,
    n_days: int = DEFAULT_N_DAYS,
) -> np.ndarray:
    """The plotted series: per-5-minute mean power, shape (days, 288).

    ``start_day`` defaults to day 150 (early summer, as the paper's
    figure appears to be), clipped to fit shorter traces.
    """
    trace = build_dataset(site, n_days=n_days)
    view = SlotView.from_trace(trace, (24 * 60) // INTERVAL_MINUTES)
    if start_day is None:
        start_day = max(0, min(150, view.n_days - n_figure_days))
    if not (0 <= start_day and start_day + n_figure_days <= view.n_days):
        raise ValueError(
            f"day window [{start_day}, {start_day + n_figure_days}) outside trace"
        )
    return view.means[start_day : start_day + n_figure_days]


def run(
    site: str = "SPMD",
    start_day: int = None,
    n_figure_days: int = FIGURE_DAYS,
    n_days: int = DEFAULT_N_DAYS,
    sites: Optional[object] = None,  # accepted for runner uniformity
) -> ExperimentResult:
    """Regenerate Fig. 2 as per-day summary rows (series via ``series()``)."""
    data = series(site, start_day, n_figure_days, n_days)
    if start_day is None:
        start_day = max(0, min(150, n_days - n_figure_days))
    dt_hours = INTERVAL_MINUTES / 60.0
    rows = []
    for offset in range(data.shape[0]):
        day_values = data[offset]
        peak = float(day_values.max())
        energy = float(day_values.sum() * dt_hours)
        daylight = day_values[day_values > 0.05 * max(peak, 1e-9)]
        variability = (
            float(np.abs(np.diff(daylight)).mean()) / peak if daylight.size > 1 and peak > 0 else 0.0
        )
        character = "smooth" if variability < 0.01 else ("broken" if variability < 0.05 else "very broken")
        rows.append(
            {
                "day": start_day + offset + 1,
                "peak_wm2": peak,
                "energy_wh_m2": energy,
                "day_character": character,
            }
        )
    return ExperimentResult(
        experiment="fig2",
        title=f"Solar energy on {n_figure_days} days ({site}, 5-minute intervals)",
        headers=HEADERS,
        rows=rows,
        notes=(
            "Summary of the plotted series; use "
            "repro.experiments.fig2.series() for the raw (days x 288) "
            "matrix the figure draws."
        ),
        meta={"site": site, "start_day": start_day},
    )
