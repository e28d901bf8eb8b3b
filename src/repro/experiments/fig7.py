"""Fig. 7 -- MAPE versus history depth D for every site (N=48).

For each site, evaluate MAPE at every D in 2..20 using the (alpha, K)
the Table III optimisation selected for that site at N=48 (the paper
fixes alpha and K the same way).  Shape to reproduce: error drops
steeply for small D and flattens around D ~ 10-11 for every site,
supporting the memory-conserving D~=10 guideline.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.optimizer import DEFAULT_DAYS
from repro.experiments.common import (
    DEFAULT_N_DAYS,
    MIN_SWEEP_N_DAYS,
    ExperimentResult,
    sites_for,
    sweep_for,
)

__all__ = ["run", "series", "MIN_N_DAYS"]

N_SLOTS = 48

#: Shortest trace the sweeps can score.
MIN_N_DAYS = MIN_SWEEP_N_DAYS

HEADERS = ["data_set", "d", "mape"]


def series(
    n_days: int = DEFAULT_N_DAYS,
    sites: Optional[Sequence[str]] = None,
    days_grid: Sequence[int] = DEFAULT_DAYS,
) -> Dict[str, np.ndarray]:
    """Per-site MAPE arrays over ``days_grid`` (plot-ready)."""
    out: Dict[str, np.ndarray] = {}
    for site in sites_for(sites):
        # On the default D grid this is Table III's N=48 sweep, a memo
        # hit once table3 has run.
        sweep = sweep_for(site, n_days, N_SLOTS, days=days_grid)
        best = sweep.best
        alpha_idx = sweep.alphas.index(best.alpha)
        k_idx = sweep.ks.index(best.k)
        out[site] = sweep.errors[:, k_idx, alpha_idx].copy()
    return out


def run(
    n_days: int = DEFAULT_N_DAYS,
    sites: Optional[Sequence[str]] = None,
    days_grid: Sequence[int] = DEFAULT_DAYS,
) -> ExperimentResult:
    """Regenerate the Fig. 7 curves as long-format rows."""
    curves = series(n_days=n_days, sites=sites, days_grid=days_grid)
    rows = []
    for site, errors in curves.items():
        for d_value, mape_value in zip(days_grid, errors):
            rows.append({"data_set": site, "d": d_value, "mape": float(mape_value)})
    return ExperimentResult(
        experiment="fig7",
        title=f"MAPE trends with increasing D (N={N_SLOTS})",
        headers=HEADERS,
        rows=rows,
        notes=(
            "Each site's curve uses the (alpha, K) of its Table III "
            f"optimum at N={N_SLOTS}, as in the paper."
        ),
        meta={"n_days": n_days, "days_grid": tuple(days_grid)},
    )
