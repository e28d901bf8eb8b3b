"""Frozen pre-v2 sweep kernels: the parity and benchmark baseline.

This module preserves, verbatim, the sweep implementation the repo
shipped before the sweep-engine v2 rework (prefix-sum μ caches,
sliding-window Φ, fused error cube in :mod:`repro.core.optimizer`):

* :class:`ReferenceBatch` -- the original :class:`~repro.core.wcma.WCMABatch`
  kernels: per-``D`` ``μ`` recomputed with :func:`~repro.core.wcma.mu_matrix`
  (twice -- once for ``mu_flat``, once inside ``eta_flat``, exactly as the
  old code did) and ``Φ_K`` accumulated with one shifted add per window
  position.
* :func:`reference_error_cube` -- the original ``grid_search`` inner
  loop: two nested Python loops over ``(D, K)``, each evaluating all
  alphas with one broadcast multiply-add and a division by the
  reference.

It exists for two reasons and should not grow features:

1. **Parity.** ``tests/core/test_sweep_parity.py`` pins the v2 kernels
   against these to <= 1e-12 on the full default grid, per site.
2. **Benchmarking.** ``benchmarks/test_bench_sweep.py`` measures the
   fused engine against this exact "before" and asserts the >= 5x bar.

:func:`reference_grid_search` is the whole pre-v2 ``grid_search``: the
same batch, reference series and region-of-interest mask as
:func:`repro.core.optimizer.grid_search`, scored by
:func:`reference_error_cube`.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from repro.core.optimizer import (
    DEFAULT_ALPHAS,
    DEFAULT_DAYS,
    DEFAULT_KS,
    GridSearchResult,
)
from repro.core.wcma import (
    ETA_FLOOR_FRACTION,
    MU_EPS,
    WCMABatch,
    WCMAParams,
    mu_matrix,
)
from repro.metrics.roi import DEFAULT_ROI_FRACTION, DEFAULT_WARMUP_DAYS, roi_mask
from repro.solar.slots import SlotView

__all__ = ["ReferenceBatch", "reference_error_cube", "reference_grid_search"]


class ReferenceBatch:
    """The pre-v2 ``WCMABatch`` kernel set (see module docstring).

    Caching mirrors the old class exactly: ``μ`` and ``η`` memoised per
    ``D``, the conditioned term per ``(D, K)``; nothing is shared across
    ``D`` values.
    """

    def __init__(self, view: SlotView, eta_floor_fraction: float = ETA_FLOOR_FRACTION):
        self.view = view
        self.n_slots = view.n_slots
        self.eta_floor_fraction = eta_floor_fraction
        self.starts_flat = view.flat_starts()
        self.means_flat = view.flat_means()
        self._mu_cache: Dict[int, np.ndarray] = {}
        self._eta_cache: Dict[int, np.ndarray] = {}
        self._q_cache: Dict[Tuple[int, int], np.ndarray] = {}

    def mu_flat(self, days: int) -> np.ndarray:
        if days not in self._mu_cache:
            self._mu_cache[days] = mu_matrix(self.view.starts, days).reshape(-1)
        return self._mu_cache[days]

    def eta_flat(self, days: int) -> np.ndarray:
        if days not in self._eta_cache:
            mu2d = mu_matrix(self.view.starts, days)
            finite2d = np.isfinite(mu2d)
            filled = np.where(finite2d, mu2d, -np.inf)
            day_peak = filled.max(axis=1, keepdims=True)
            floor2d = np.maximum(self.eta_floor_fraction * day_peak, MU_EPS)
            mu = mu2d.reshape(-1)
            floor = np.broadcast_to(floor2d, mu2d.shape).reshape(-1)
            s = self.starts_flat
            eta = np.full_like(s, np.nan)
            finite = np.isfinite(mu)
            bright = finite & (mu >= floor)
            eta[bright] = s[bright] / mu[bright]
            eta[finite & ~bright] = 1.0
            self._eta_cache[days] = eta
        return self._eta_cache[days]

    def phi_flat(self, days: int, k_param: int) -> np.ndarray:
        if k_param < 1:
            raise ValueError("K must be >= 1")
        eta = self.eta_flat(days)
        total = eta.size
        theta = WCMAParams.theta(k_param)
        acc = np.zeros(total, dtype=float)
        for k in range(1, k_param + 1):
            shift = k_param - k  # eta index t - shift contributes theta[k-1]
            if shift == 0:
                acc += theta[k - 1] * eta
            else:
                acc[shift:] += theta[k - 1] * eta[:-shift]
        phi = acc / theta.sum()
        phi[: k_param - 1] = np.nan  # incomplete lookback at trace start
        return phi

    def conditioned_term(self, days: int, k_param: int) -> np.ndarray:
        key = (days, k_param)
        if key not in self._q_cache:
            mu = self.mu_flat(days)
            phi = self.phi_flat(days, k_param)
            self._q_cache[key] = mu[1:] * phi[:-1]
        return self._q_cache[key]


def reference_error_cube(
    batch: ReferenceBatch,
    days: Sequence[int],
    ks: Sequence[int],
    alphas: Sequence[float],
    reference: np.ndarray,
    mask: np.ndarray,
) -> np.ndarray:
    """The original grid-search inner loop: one (A, T) pass per (D, K)."""
    ref_sel = reference[mask]
    s_sel = batch.starts_flat[:-1][mask]
    alpha_vec = np.asarray(alphas, dtype=float)[:, None]  # (A, 1)
    errors = np.full((len(days), len(ks), len(alphas)), np.nan)
    for i, d_param in enumerate(days):
        for j, k_param in enumerate(ks):
            q_sel = batch.conditioned_term(d_param, k_param)[mask]
            # predictions for all alphas at once: (A, T_sel)
            preds = alpha_vec * s_sel + (1.0 - alpha_vec) * q_sel
            pct = np.abs(ref_sel - preds) / ref_sel
            errors[i, j, :] = pct.mean(axis=1)
    return errors


def reference_grid_search(
    trace,
    n_slots: int,
    alphas: Sequence[float] = DEFAULT_ALPHAS,
    days: Sequence[int] = DEFAULT_DAYS,
    ks: Sequence[int] = DEFAULT_KS,
    objective: str = "mape",
    roi_fraction: float = DEFAULT_ROI_FRACTION,
    warmup_days: int = DEFAULT_WARMUP_DAYS,
    batch: WCMABatch = None,
) -> GridSearchResult:
    """The pre-v2 ``grid_search``: one reference cube on the same ROI."""
    alphas = tuple(float(a) for a in alphas)
    days = tuple(int(d) for d in days)
    ks = tuple(int(k) for k in ks)
    if batch is None:
        batch = WCMABatch.from_trace(trace, n_slots)
    if objective == "mape":
        reference = batch.reference_mean
    else:
        reference = batch.reference_next_start
    mask = roi_mask(
        reference, n_slots, roi_fraction=roi_fraction, warmup_days=warmup_days
    )
    errors = reference_error_cube(
        ReferenceBatch(batch.view, batch.eta_floor_fraction),
        days, ks, alphas, reference, mask,
    )
    i, j, a = np.unravel_index(np.nanargmin(errors), errors.shape)
    return GridSearchResult(
        best=WCMAParams(alpha=alphas[a], days=days[i], k=ks[j]),
        best_error=float(errors[i, j, a]),
        objective=objective,
        errors=errors,
        alphas=alphas,
        days=days,
        ks=ks,
        n_slots=n_slots,
    )
