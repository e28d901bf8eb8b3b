"""Clairvoyant dynamic parameter selection (Section IV-C, Table V).

The paper's dynamic study asks: *if* the node could pick the best
``alpha`` and/or ``K`` at every single prediction, how low would the
average error go?  The selection is clairvoyant (it looks at the
realized slot before choosing), so the numbers are a lower bound that
motivates realizable adaptive policies (see :mod:`repro.core.adaptive`).

Three modes reproduce the three column groups of Table V:

* ``"both"``   -- choose ``(alpha, K)`` freely at every prediction;
* ``"k_only"`` -- ``K`` adapts, ``alpha`` fixed; the reported ``alpha``
  is the fixed value minimising the resulting average error;
* ``"alpha_only"`` -- symmetric: ``alpha`` adapts, best fixed ``K``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.optimizer import DEFAULT_ALPHAS, DEFAULT_KS
from repro.core.wcma import WCMABatch
from repro.metrics.roi import DEFAULT_ROI_FRACTION, DEFAULT_WARMUP_DAYS, roi_indices
from repro.solar.trace import SolarTrace

__all__ = ["DynamicResult", "clairvoyant_dynamic"]

_MODES = ("both", "k_only", "alpha_only")


@dataclass(frozen=True)
class DynamicResult:
    """Outcome of a clairvoyant dynamic-selection evaluation.

    Attributes
    ----------
    mode:
        ``"both"``, ``"k_only"`` or ``"alpha_only"``.
    mape:
        Average error with per-prediction optimal parameters (fraction).
    fixed_alpha:
        The best fixed ``alpha`` (``k_only`` mode), else ``None``.
    fixed_k:
        The best fixed ``K`` (``alpha_only`` mode), else ``None``.
    n_slots:
        Sampling rate ``N``.
    days:
        History depth ``D`` used for every candidate predictor.
    """

    mode: str
    mape: float
    fixed_alpha: Optional[float]
    fixed_k: Optional[int]
    n_slots: int
    days: int


def _percentage_error_cube(
    batch: WCMABatch,
    days: int,
    alphas: Sequence[float],
    ks: Sequence[int],
    roi_fraction: float,
    warmup_days: int,
) -> np.ndarray:
    """|error|/reference for every (alpha, K) at every scored boundary.

    Returns shape ``(len(alphas), len(ks), n_scored)``, filled one
    ``(alpha, boundary)`` plane per ``K``.
    """
    reference = batch.reference_mean
    idx = roi_indices(
        reference, batch.n_slots, roi_fraction=roi_fraction, warmup_days=warmup_days
    )
    ref_sel = reference[idx]
    s_sel = batch.starts_flat[idx]
    alpha_vec = np.asarray(alphas, dtype=float)[:, None]
    q = batch.conditioned_stack((days,), ks, idx)[0]  # (K, n_scored)

    cube = np.empty((len(alphas), len(ks), idx.size), dtype=float)
    for j, q_sel in enumerate(q):
        preds = alpha_vec * s_sel + (1.0 - alpha_vec) * q_sel
        cube[:, j, :] = np.abs(ref_sel - preds) / ref_sel
    return cube


def clairvoyant_dynamic(
    trace: SolarTrace,
    n_slots: int,
    days: int,
    mode: str = "both",
    alphas: Sequence[float] = DEFAULT_ALPHAS,
    ks: Sequence[int] = DEFAULT_KS,
    roi_fraction: float = DEFAULT_ROI_FRACTION,
    warmup_days: int = DEFAULT_WARMUP_DAYS,
    batch: WCMABatch = None,
) -> DynamicResult:
    """Evaluate clairvoyant dynamic parameter selection.

    Parameters mirror :func:`repro.core.optimizer.grid_search`; ``days``
    (``D``) stays fixed, as in the paper's Table V.
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    alphas = tuple(float(a) for a in alphas)
    ks = tuple(int(k) for k in ks)
    if batch is None:
        batch = WCMABatch.from_trace(trace, n_slots)

    cube = _percentage_error_cube(
        batch, days, alphas, ks, roi_fraction, warmup_days
    )  # (A, K, T)

    if mode == "both":
        per_step = cube.min(axis=(0, 1))
        return DynamicResult(
            mode=mode,
            mape=float(per_step.mean()),
            fixed_alpha=None,
            fixed_k=None,
            n_slots=n_slots,
            days=days,
        )

    if mode == "k_only":
        # K adapts per step; score each candidate fixed alpha.
        per_alpha = cube.min(axis=1).mean(axis=1)  # (A,)
        a = int(np.argmin(per_alpha))
        return DynamicResult(
            mode=mode,
            mape=float(per_alpha[a]),
            fixed_alpha=alphas[a],
            fixed_k=None,
            n_slots=n_slots,
            days=days,
        )

    # alpha_only: alpha adapts per step; score each candidate fixed K.
    per_k = cube.min(axis=0).mean(axis=1)  # (K,)
    j = int(np.argmin(per_k))
    return DynamicResult(
        mode=mode,
        mape=float(per_k[j]),
        fixed_alpha=None,
        fixed_k=ks[j],
        n_slots=n_slots,
        days=days,
    )
