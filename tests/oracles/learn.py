"""Frozen scalar training kernels: the learned tier's parity baseline.

These are verbatim copies of the pre-fast-path ``fit_ridge`` /
``fit_gbm`` loops, kept beside the frozen WCMA sweep loops
(``tests/oracles/sweep.py``): the batched kernels in
:mod:`repro.learn.models` must reproduce these functions *bitwise* --
not to a tolerance -- because GBM split selection is an argmax over
gains and the robustness goldens pin the learned matrix byte-for-byte.
``tests/learn/test_fast_path.py`` pins ``fit_model`` /
``fit_model_batch`` against this module, and
:func:`fit_model_batch_reference` stands in for ``fit_model_batch`` so
a whole online kernel or artifact fit can run on the per-node oracle.

Do not edit the numerics here.  If the model definition changes, the
change lands in :mod:`repro.learn.models` first, this file is refrozen
to match, and the goldens are regenerated -- in that order.
"""

from __future__ import annotations

import copy
from typing import Optional

import numpy as np

from repro.learn.models import MODEL_KINDS, TrainingConfig

__all__ = [
    "fit_standardizer_reference",
    "fit_ridge_reference",
    "fit_gbm_reference",
    "fit_model_reference",
    "fit_model_batch_reference",
]


def fit_standardizer_reference(X: np.ndarray):
    """Frozen copy of the original ``fit_standardizer``."""
    X = np.asarray(X, dtype=float)
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    scale = np.where(std > 1e-12, std, 1.0)
    return mean, scale


def fit_ridge_reference(X: np.ndarray, y: np.ndarray, lam: float) -> dict:
    """Frozen copy of the original scalar ``fit_ridge``."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, n_features = X.shape
    mean, scale = fit_standardizer_reference(X)
    Xs = (X - mean) / scale
    ybar = float(y.mean())
    reg = max(lam, 1e-10) * n
    gram = Xs.T @ Xs + reg * np.eye(n_features)
    weights = np.linalg.solve(gram, Xs.T @ (y - ybar))
    return {
        "kind": "ridge",
        "mean": mean,
        "scale": scale,
        "weights": weights,
        "intercept": ybar,
    }


def fit_gbm_reference(
    X: np.ndarray,
    y: np.ndarray,
    config: TrainingConfig,
    rng: Optional[np.random.Generator] = None,
) -> dict:
    """Frozen copy of the original scalar ``fit_gbm`` (per-feature loop)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, n_features = X.shape
    rounds = config.gbm_rounds
    lr = config.gbm_learning_rate
    min_leaf = config.gbm_min_leaf

    base = float(y.mean())
    residual = y - base

    qs = np.arange(1, config.gbm_thresholds + 1) / (config.gbm_thresholds + 1)
    thresholds = np.quantile(X, qs, axis=0)  # (Q, F)

    feat = np.zeros(rounds, dtype=np.int64)
    thr = np.zeros(rounds, dtype=float)
    left = np.zeros(rounds, dtype=float)
    right = np.zeros(rounds, dtype=float)

    n_sub = n
    if config.gbm_subsample < 1.0 and rng is not None:
        n_sub = max(2 * min_leaf, int(n * config.gbm_subsample + 0.5))
        n_sub = min(n_sub, n)

    for r in range(rounds):
        if n_sub < n:
            idx = np.sort(rng.choice(n, size=n_sub, replace=False))
            Xr, rr = X[idx], residual[idx]
        else:
            Xr, rr = X, residual
        r_total = rr.sum()
        best_gain = 0.0
        best = None
        for f in range(n_features):
            mask = Xr[:, f, None] <= thresholds[None, :, f]  # (n_sub, Q)
            n_left = mask.sum(axis=0)
            n_right = n_sub - n_left
            ok = (n_left >= min_leaf) & (n_right >= min_leaf)
            if not ok.any():
                continue
            s_left = rr @ mask
            s_right = r_total - s_left
            with np.errstate(divide="ignore", invalid="ignore"):
                gain = np.where(
                    ok,
                    s_left**2 / np.maximum(n_left, 1)
                    + s_right**2 / np.maximum(n_right, 1),
                    -np.inf,
                )
            q = int(np.argmax(gain))  # first max -> lowest threshold index
            if gain[q] > best_gain:
                best_gain = float(gain[q])
                best = (
                    f,
                    float(thresholds[q, f]),
                    float(s_left[q] / n_left[q]),
                    float(s_right[q] / n_right[q]),
                )
        if best is None:
            break  # remaining stumps stay neutral (zeros)
        feat[r], thr[r], left[r], right[r] = best
        step = np.where(X[:, feat[r]] <= thr[r], left[r], right[r])
        residual = residual - lr * step

    return {
        "kind": "gbm",
        "base": base,
        "learning_rate": lr,
        "feat": feat,
        "thr": thr,
        "left": left,
        "right": right,
    }


def fit_model_reference(
    kind: str,
    X: np.ndarray,
    y: np.ndarray,
    config: TrainingConfig,
    rng: Optional[np.random.Generator] = None,
) -> dict:
    """Frozen scalar dispatch: one node's fit."""
    if kind == "ridge":
        return fit_ridge_reference(X, y, config.ridge_lambda)
    if kind == "gbm":
        return fit_gbm_reference(X, y, config, rng=rng)
    raise ValueError(f"unknown model kind {kind!r}; known: {MODEL_KINDS}")


def fit_model_batch_reference(
    kind: str,
    X: np.ndarray,
    y: np.ndarray,
    config: TrainingConfig,
    rng: Optional[np.random.Generator] = None,
) -> dict:
    """``fit_model_batch`` computed node by node with the frozen fits.

    Each node gets its own deep copy of ``rng``: the kernel passes a
    fresh ``default_rng([seed, fit_count])``, so every copy reproduces
    the stream a dedicated single-node fit would draw.  Returns the
    stacked ``(B, ...)`` param dict ``fit_model_batch`` returns.
    """
    fits = [
        fit_model_reference(kind, X[:, b, :], y[:, b], config, copy.deepcopy(rng))
        for b in range(X.shape[1])
    ]
    stacked = {
        key: np.stack([fit[key] for fit in fits])
        for key in fits[0]
        if key not in ("kind", "learning_rate")
    }
    stacked["kind"] = kind
    if "learning_rate" in fits[0]:
        stacked["learning_rate"] = fits[0]["learning_rate"]
    return stacked
