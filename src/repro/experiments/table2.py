"""Table II -- parameter optimisation under MAPE' vs MAPE at N=48.

For each site, run the exhaustive (alpha, D, K) sweep twice: once
minimising MAPE' (Eq. 6 reference, as previous works scored) and once
minimising MAPE (Eq. 7, the paper's function).  The paper's findings to
reproduce:

* the MAPE values are much lower than the MAPE' values;
* the two objectives select *different* parameters, most visibly alpha
  (MAPE favours substantially higher alpha).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.common import (
    DEFAULT_N_DAYS,
    MIN_SWEEP_N_DAYS,
    ExperimentResult,
    sites_for,
    sweep_for,
)

__all__ = ["run", "N_SLOTS", "MIN_N_DAYS"]

N_SLOTS = 48

#: Shortest trace the sweeps can score.
MIN_N_DAYS = MIN_SWEEP_N_DAYS

HEADERS = [
    "data_set",
    "alpha_prime",
    "d_prime",
    "k_prime",
    "mape_prime",
    "alpha",
    "d",
    "k",
    "mape",
]


def run(
    n_days: int = DEFAULT_N_DAYS, sites: Optional[Sequence[str]] = None
) -> ExperimentResult:
    """Regenerate Table II."""
    rows = []
    for site in sites_for(sites):
        by_prime = sweep_for(site, n_days, N_SLOTS, objective="mape_prime")
        by_mape = sweep_for(site, n_days, N_SLOTS)
        rows.append(
            {
                "data_set": site,
                "alpha_prime": by_prime.best.alpha,
                "d_prime": by_prime.best.days,
                "k_prime": by_prime.best.k,
                "mape_prime": by_prime.best_error,
                "alpha": by_mape.best.alpha,
                "d": by_mape.best.days,
                "k": by_mape.best.k,
                "mape": by_mape.best_error,
            }
        )
    return ExperimentResult(
        experiment="table2",
        title=(
            "Prediction error and parameter values using different error "
            f"evaluations at N={N_SLOTS}"
        ),
        headers=HEADERS,
        rows=rows,
        notes="MAPE values are fractions (0.158 = 15.8 %).",
        meta={"n_days": n_days, "n_slots": N_SLOTS},
    )
