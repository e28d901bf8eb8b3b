"""Per-slot error definitions and aggregate error functions.

Alignment convention (derived from Fig. 4 and validated by the paper's
Table III: at N=288 on a 5-minute trace, ``alpha = 1`` must give MAPE
exactly 0):

* time index ``t`` enumerates slot boundaries in time order,
  ``t = day * N + slot``;
* at boundary ``t`` the node measures the start sample ``s[t]`` and
  computes the prediction ``p[t]`` for the upcoming boundary ``t+1``;
* the slot *starting* at boundary ``t`` has true mean power ``m[t]``;
* Eq. 6 (previous works): ``error'[t] = s[t+1] - p[t]``;
* Eq. 7 (this paper):      ``error[t] = m[t]  - p[t]``.

With one native sample per slot (M=1), ``m[t] == s[t]`` and a pure
persistence prediction (``alpha=1``, ``p[t]=s[t]``) gives ``error == 0``
-- exactly the ``0†`` entries of Table III.
"""

from __future__ import annotations

import numpy as np

from repro.metrics.roi import EmptyRegionError

__all__ = [
    "slot_errors",
    "slot_errors_prime",
    "mape",
    "mae",
    "mbe",
    "rmse",
    "percentage_errors",
]


def slot_errors(slot_mean: np.ndarray, prediction: np.ndarray) -> np.ndarray:
    """Eq. 7: ``error[t] = m[t] - p[t]`` (prediction vs slot mean)."""
    slot_mean = np.asarray(slot_mean, dtype=float)
    prediction = np.asarray(prediction, dtype=float)
    if slot_mean.shape != prediction.shape:
        raise ValueError(
            f"shape mismatch: slot_mean {slot_mean.shape} vs prediction "
            f"{prediction.shape}"
        )
    return slot_mean - prediction


def slot_errors_prime(next_start: np.ndarray, prediction: np.ndarray) -> np.ndarray:
    """Eq. 6: ``error'[t] = s[t+1] - p[t]`` (prediction vs next boundary sample)."""
    next_start = np.asarray(next_start, dtype=float)
    prediction = np.asarray(prediction, dtype=float)
    if next_start.shape != prediction.shape:
        raise ValueError(
            f"shape mismatch: next_start {next_start.shape} vs prediction "
            f"{prediction.shape}"
        )
    return next_start - prediction


def percentage_errors(
    error: np.ndarray, reference: np.ndarray, mask: np.ndarray = None
) -> np.ndarray:
    """``|error / reference|`` restricted to ``mask`` (boolean).

    The caller is responsible for ensuring the mask excludes zero
    references (the ROI mask does, since it requires the reference to be
    at least a positive fraction of the peak).
    """
    error = np.asarray(error, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if error.shape != reference.shape:
        raise ValueError(
            f"shape mismatch: error {error.shape} vs reference {reference.shape}"
        )
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != error.shape:
            raise ValueError(f"mask shape {mask.shape} != error shape {error.shape}")
        error = error[mask]
        reference = reference[mask]
    if error.size == 0:
        raise EmptyRegionError("no samples selected for percentage error")
    if (reference == 0).any():
        raise ValueError("reference contains zeros inside the selected region")
    return np.abs(error / reference)


def mape(error: np.ndarray, reference: np.ndarray, mask: np.ndarray = None) -> float:
    """Mean Absolute Percentage Error (Eq. 8), as a fraction (0.158 = 15.8 %)."""
    return float(percentage_errors(error, reference, mask).mean())


def mae(error: np.ndarray, mask: np.ndarray = None) -> float:
    """Mean Absolute Error over the selected region."""
    error = _select(error, mask)
    return float(np.abs(error).mean())


def mbe(error: np.ndarray, mask: np.ndarray = None) -> float:
    """Mean Bias Error (signed) over the selected region."""
    error = _select(error, mask)
    return float(error.mean())


def rmse(error: np.ndarray, mask: np.ndarray = None) -> float:
    """Root Mean Squared Error over the selected region."""
    error = _select(error, mask)
    return float(np.sqrt(np.mean(np.square(error))))


def _select(error: np.ndarray, mask: np.ndarray) -> np.ndarray:
    error = np.asarray(error, dtype=float)
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != error.shape:
            raise ValueError(f"mask shape {mask.shape} != error shape {error.shape}")
        error = error[mask]
    if error.size == 0:
        raise EmptyRegionError("no samples selected")
    return error
