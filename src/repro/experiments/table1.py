"""Table I -- details of the data sets used.

Regenerates the inventory row per site from the synthetic stand-in
traces; the observation counts and resolutions must match the paper
exactly (the substitution preserves the sampling geometry).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.common import DEFAULT_N_DAYS, ExperimentResult, sites_for
from repro.solar.datasets import build_dataset

__all__ = ["run", "MIN_N_DAYS"]

#: Shortest trace Table I can describe.
MIN_N_DAYS = 1

HEADERS = ["data_set", "location", "observations", "days", "resolution"]


def run(
    n_days: int = DEFAULT_N_DAYS, sites: Optional[Sequence[str]] = None
) -> ExperimentResult:
    """Build every trace and report its Table I row."""
    rows = []
    for site_name in sites_for(sites):
        trace = build_dataset(site_name, n_days=n_days)
        from repro.solar.sites import get_site

        site = get_site(site_name)
        rows.append(
            {
                "data_set": site.name,
                "location": site.location,
                "observations": trace.n_samples,
                "days": trace.n_days,
                "resolution": f"{trace.resolution_minutes} minutes",
            }
        )
    return ExperimentResult(
        experiment="table1",
        title="Details of the data sets used (synthetic stand-ins)",
        headers=HEADERS,
        rows=rows,
        notes=(
            "Traces are synthetic NREL-MIDC stand-ins (see DESIGN.md); "
            "observation counts and resolutions match Table I at "
            f"n_days={n_days}."
        ),
    )
