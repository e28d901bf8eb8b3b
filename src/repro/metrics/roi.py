"""Region-of-interest masking for average-error calculation.

Section III argues that night-time samples (prediction trivially exact
but useless) and dawn/dusk samples (tiny denominators that blow up
percentage errors) must be excluded from the averaged error.  Section
IV-A fixes the rule used throughout the paper:

* a sample counts only if its reference power is **at least 10 % of the
  peak value** of the data set, and
* evaluation starts at **day 21** so the D=20 history matrix is full and
  every parameter setting is scored on the same samples.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "EmptyRegionError",
    "roi_mask",
    "roi_indices",
    "DEFAULT_ROI_FRACTION",
    "DEFAULT_WARMUP_DAYS",
]

#: Fraction of the peak below which samples are ignored (Section IV-A).
DEFAULT_ROI_FRACTION = 0.10

#: Days excluded from scoring at the start of the trace ("days 21 to 365").
DEFAULT_WARMUP_DAYS = 20


class EmptyRegionError(ValueError):
    """No sample of the trace falls in the region of interest.

    A property of the data, not a bug: every scored day of a short
    trace can sit below the threshold (an overcast stretch, a dark
    regime), so there is nothing to average an error over.
    """


def roi_mask(
    reference: np.ndarray,
    n_slots: int,
    peak: float = None,
    roi_fraction: float = DEFAULT_ROI_FRACTION,
    warmup_days: int = DEFAULT_WARMUP_DAYS,
) -> np.ndarray:
    """Boolean mask of the samples that count towards the average error.

    Parameters
    ----------
    reference:
        Flat, time-ordered array of reference powers (slot means for
        MAPE, next-boundary samples for MAPE'), length ``days * N`` or
        ``days * N - 1`` (the final boundary has no next sample).
    n_slots:
        Slots per day, used to convert ``warmup_days`` into samples.
    peak:
        Peak value the threshold is relative to.  Defaults to
        ``reference.max()`` — the data set's own peak, as in the paper.
    roi_fraction:
        Threshold as a fraction of ``peak``.
    warmup_days:
        Leading days masked out entirely.

    Returns
    -------
    numpy.ndarray
        Boolean array of ``reference.shape``.
    """
    reference = np.asarray(reference, dtype=float)
    if reference.ndim != 1:
        raise ValueError(f"reference must be 1-D, got shape {reference.shape}")
    if not 0.0 < roi_fraction < 1.0:
        raise ValueError(f"roi_fraction must be in (0, 1), got {roi_fraction}")
    if warmup_days < 0:
        raise ValueError("warmup_days must be non-negative")
    if peak is None:
        peak = float(reference.max())
    if peak <= 0:
        raise ValueError("peak must be positive (all-dark trace?)")
    mask = reference >= roi_fraction * peak
    warmup_samples = min(warmup_days * n_slots, reference.size)
    mask[:warmup_samples] = False
    return mask


def roi_indices(
    reference: np.ndarray,
    n_slots: int,
    peak: float = None,
    roi_fraction: float = DEFAULT_ROI_FRACTION,
    warmup_days: int = DEFAULT_WARMUP_DAYS,
) -> np.ndarray:
    """Sorted integer indices of the in-ROI samples.

    The gather-friendly form of :func:`roi_mask` (same parameters): the
    fused sweep kernels index ``Φ``/``μ``/``q`` arrays directly at the
    scored positions rather than boolean-masking full-length series, so
    they want ``np.flatnonzero`` of the mask once, up front.
    """
    return np.flatnonzero(
        roi_mask(
            reference,
            n_slots,
            peak=peak,
            roi_fraction=roi_fraction,
            warmup_days=warmup_days,
        )
    )
