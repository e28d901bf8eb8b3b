"""Exhaustive parameter optimisation (Section IV of the paper).

For a given trace and sampling rate ``N``, sweep the full
``(alpha, D, K)`` grid and find the combination minimising the average
error.  Both error definitions are supported so Table II (MAPE vs
MAPE') can be reproduced:

* ``objective="mape"``  -- Eq. 7 / Eq. 8 (slot-mean reference), the
  paper's preferred function;
* ``objective="mape_prime"`` -- Eq. 6 (next-boundary-sample reference),
  as used by previous works.

Sweep-engine v2 architecture
----------------------------
The sweep is a tensor pipeline with one cache level per parameter axis
(see :class:`repro.core.wcma.WCMABatch` for the kernel details):

* **per trace** -- one day-axis prefix sum gives ``μ_D`` for every
  ``D`` as a slice; the region of interest is resolved once to integer
  indices (:func:`repro.metrics.roi.roi_indices`) so all later kernels
  gather the ~25 % of scored boundaries instead of masking full series;
* **per D** -- flat ``μ``/``η`` memoised on the batch;
* **per (D, K)** -- ``Φ_K`` advances by a sliding-window recurrence
  (two shifted adds per unit of ``K``);
* **per (D, K, alpha)** -- the whole error cube is materialised by one
  fused kernel: the stacked conditioned terms
  (:meth:`~repro.core.wcma.WCMABatch.conditioned_stack`) are normalised
  once (``g = q/r``, ``h = s/r``) so grid point ``alpha`` costs
  ``mean |1 - alpha*h - (1-alpha)*g|``, and consecutive alphas differ by
  the precomputed drift ``d_alpha*(g - h)`` -- one in-place add, one
  abs and one row-sum per alpha, swept over cache-sized row blocks
  (:func:`_alpha_profile_means`).  No division, no full-size
  prediction tensor, no DRAM round trip per alpha.

Memory of the fused cube is bounded by chunking the ``D`` axis
(``d_chunk``; the default targets ~96 MB of temporaries).  The
pre-change per-``(D, K)`` Python loop is preserved verbatim as a test
oracle (``tests/oracles/sweep.py``); the parity suite pins the fused
cube to it to <= 1e-12 on the full default grid and the sweep benchmark
asserts the >= 5x speedup of the fused path.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple, Union

import numpy as np

from repro.core.wcma import WCMABatch, WCMAParams
from repro.metrics.roi import (
    DEFAULT_ROI_FRACTION, DEFAULT_WARMUP_DAYS, EmptyRegionError, roi_mask,
)
from repro.solar.trace import SolarTrace

__all__ = [
    "DEFAULT_ALPHAS",
    "DEFAULT_DAYS",
    "DEFAULT_KS",
    "GridSearchResult",
    "SweepSpec",
    "grid_search",
    "sweep_many",
    "mape_for_params",
]

#: Paper grid: 0 <= alpha <= 1 in steps of 0.1.
DEFAULT_ALPHAS: Tuple[float, ...] = tuple(round(a * 0.1, 1) for a in range(11))
#: Paper grid: 2 <= D <= 20.
DEFAULT_DAYS: Tuple[int, ...] = tuple(range(2, 21))
#: Paper grid: 1 <= K <= 6.
DEFAULT_KS: Tuple[int, ...] = tuple(range(1, 7))

#: Temporary-memory target (bytes) used to pick the default ``d_chunk``.
_CHUNK_BYTES = 96 * 1024 * 1024

#: Working-set target (bytes) of one row block in the alpha kernel --
#: sized so the ~5 per-block arrays stay cache-resident while all
#: alphas sweep over them (see :func:`_alpha_profile_means`).
_TILE_BYTES = 2 * 1024 * 1024


@dataclass(frozen=True)
class GridSearchResult:
    """Outcome of one exhaustive sweep.

    Attributes
    ----------
    best:
        The error-minimising :class:`WCMAParams`.
    best_error:
        The minimised average error (fraction).
    objective:
        ``"mape"`` or ``"mape_prime"``.
    errors:
        Full error cube, shape ``(len(days), len(ks), len(alphas))``.
    alphas, days, ks:
        The grids the cube is indexed by.
    n_slots:
        Sampling rate ``N`` the sweep was run at.
    meta:
        Sweep provenance: whether the trace was flagged
        ``thin_history`` (``2*max(D) > n_days`` -- legal, but the
        warm-up convention leaves little scored data).
    """

    best: WCMAParams
    best_error: float
    objective: str
    errors: np.ndarray
    alphas: Tuple[float, ...]
    days: Tuple[int, ...]
    ks: Tuple[int, ...]
    n_slots: int
    meta: dict = field(default_factory=dict)

    def error_at(self, alpha: float, days: int, k: int) -> float:
        """Error of one grid point (exact match on grid values)."""
        try:
            i = self.days.index(days)
            j = self.ks.index(k)
            a = self.alphas.index(alpha)
        except ValueError:
            raise KeyError(f"({alpha}, {days}, {k}) is not on the sweep grid")
        return float(self.errors[i, j, a])

    def best_for_k(self, k: int) -> Tuple[WCMAParams, float]:
        """Best (alpha, D) and error for a fixed ``K`` (Table III, last column)."""
        j = self.ks.index(k)
        plane = self.errors[:, j, :]
        i, a = np.unravel_index(np.nanargmin(plane), plane.shape)
        params = WCMAParams(alpha=self.alphas[a], days=self.days[i], k=k)
        return params, float(plane[i, a])

    def best_for_days(self, days: int) -> Tuple[WCMAParams, float]:
        """Best (alpha, K) and error for a fixed ``D`` (Fig. 7 series)."""
        i = self.days.index(days)
        plane = self.errors[i, :, :]
        j, a = np.unravel_index(np.nanargmin(plane), plane.shape)
        params = WCMAParams(alpha=self.alphas[a], days=days, k=self.ks[j])
        return params, float(plane[j, a])


# ----------------------------------------------------------------------
# Fused error-cube kernels
# ----------------------------------------------------------------------
def _alpha_profile_means(
    q_rows: np.ndarray,
    inv_ref: np.ndarray,
    s_norm: np.ndarray,
    alphas_sorted: np.ndarray,
) -> np.ndarray:
    """``mean |r - alpha*s - (1-alpha)*q| / r`` per row, for all alphas.

    The residual is evaluated in reference-normalised form: with
    ``g = q/r`` and ``h = s/r`` the percentage error of grid point
    ``alpha`` is ``|1 - alpha*h - (1-alpha)*g|``, whose argument changes
    by exactly ``d_alpha * (g - h)`` between consecutive alphas.  The
    kernel therefore walks the *sorted* alpha grid incrementally -- one
    in-place add, one abs, one row-sum per alpha -- instead of
    rebuilding the prediction from scratch, and it does so over row
    blocks small enough (:data:`_TILE_BYTES`) that ``g``, the step
    array and the scratch buffers stay cache-resident while the whole
    alpha grid sweeps over them.  That keeps the hot loop compute-bound;
    the naive per-alpha broadcast is DRAM-bound and several times
    slower.

    ``q_rows`` is ``(rows, T)``; ``inv_ref``/``s_norm`` are ``(T,)``
    (``1/r`` and ``s/r``).  Returns ``(rows, len(alphas_sorted))`` in
    sorted-alpha order.  NaN ``q`` entries poison every alpha of their
    row, matching the reference loop's ``mean`` over NaN.
    """
    n_rows, total = q_rows.shape
    n_alphas = alphas_sorted.size
    out = np.empty((n_rows, n_alphas), dtype=float)
    steps = np.diff(alphas_sorted)
    uniform_step = (
        n_alphas >= 2
        and steps.size
        and steps.max() - steps.min() <= 1e-12 * max(abs(steps.max()), 1e-300)
    )
    block = max(1, int(_TILE_BYTES // max(total * 8 * 5, 1)))
    alpha0 = alphas_sorted[0]
    base0 = 1.0 - alpha0 * s_norm  # row-independent part of the first alpha
    g = np.empty((block, total), dtype=float)
    drift = np.empty((block, total), dtype=float)
    buf = np.empty((block, total), dtype=float)
    scratch = np.empty((block, total), dtype=float)
    for lo in range(0, n_rows, block):
        n_blk = min(block, n_rows - lo)
        g_b = g[:n_blk]
        drift_b = drift[:n_blk]
        buf_b = buf[:n_blk]
        scratch_b = scratch[:n_blk]
        np.multiply(q_rows[lo : lo + n_blk], inv_ref, out=g_b)
        # d(residual)/d(alpha) = g - h; for a uniform grid pre-scale by
        # the constant step so each alpha advance is a single add.
        np.subtract(g_b, s_norm, out=drift_b)
        if uniform_step:
            drift_b *= steps[0]
        # residual argument at the smallest alpha (one pass when the
        # grid starts at 0, as the paper's does: 1 - 0*h - 1*g = 1 - g)
        if alpha0 == 0.0:
            np.subtract(1.0, g_b, out=buf_b)
        else:
            np.multiply(g_b, alpha0 - 1.0, out=buf_b)
            buf_b += base0
        for j in range(n_alphas):
            if j:
                if uniform_step:
                    buf_b += drift_b
                else:
                    np.multiply(drift_b, steps[j - 1], out=scratch_b)
                    buf_b += scratch_b
            np.abs(buf_b, out=scratch_b)
            out[lo : lo + n_blk, j] = scratch_b.sum(axis=1)
    out /= total
    return out


def _default_chunk(n_days_grid: int, n_ks: int, n_scored: int, n_boundaries: int) -> int:
    """``D``-axis chunk size keeping fused temporaries near _CHUNK_BYTES.

    Per ``D`` the pipeline holds the ``max(K) * n_scored`` lag tensor
    plus the ``n_ks * n_scored`` conditioned-term stack (~8 arrays of
    that order all told) and a few full-length rows of
    ``n_boundaries``.
    """
    per_day = n_ks * n_scored * 64 + n_boundaries * 24
    return max(1, min(n_days_grid, int(_CHUNK_BYTES // max(per_day, 1))))


def _error_cube_fused(
    batch: WCMABatch,
    days: Tuple[int, ...],
    ks: Tuple[int, ...],
    alphas: Tuple[float, ...],
    reference: np.ndarray,
    idx: np.ndarray,
    d_chunk: int = None,
) -> np.ndarray:
    """The (D, K, alpha) error cube in a handful of numpy ops per chunk."""
    ref_sel = reference[idx]
    s_sel = batch.starts_flat[idx]
    inv_ref = 1.0 / ref_sel
    s_norm = s_sel * inv_ref
    alphas_v = np.asarray(alphas, dtype=float)
    order = np.argsort(alphas_v, kind="stable")
    alphas_sorted = alphas_v[order]
    n_scored = idx.size
    errors = np.full((len(days), len(ks), alphas_v.size), np.nan)
    chunk = d_chunk or _default_chunk(
        len(days), len(ks), n_scored, batch.n_boundaries
    )
    q_buf = np.empty((min(chunk, len(days)), len(ks), n_scored), dtype=float)
    for lo in range(0, len(days), chunk):
        block = days[lo : lo + chunk]
        q = batch.conditioned_stack(
            block, ks, idx, out=q_buf[: len(block)]
        )  # (C, nK, n_scored)
        cube = _alpha_profile_means(
            q.reshape(-1, n_scored), inv_ref, s_norm, alphas_sorted
        )
        errors[lo : lo + len(block)][..., order] = cube.reshape(
            len(block), len(ks), -1
        )
    # alpha = 1.0 is pure persistence: the prediction is exactly s for
    # every (D, K), and the paper's 0-dagger invariant (zero error when
    # N equals the native sampling rate) must hold *exactly*, not to
    # within the incremental kernel's ~1e-16 drift.  Recompute that
    # column the way the reference loop does; NaN rows (NaN q poisons
    # every alpha, including 1.0 via 0*q) keep their NaN.
    for a in np.flatnonzero(np.asarray(alphas, dtype=float) == 1.0):
        exact = float(np.mean(np.abs(ref_sel - s_sel) / ref_sel))
        column = errors[:, :, a]
        column[np.isfinite(column)] = exact
    return errors


def grid_search(
    trace: SolarTrace,
    n_slots: int,
    alphas: Sequence[float] = DEFAULT_ALPHAS,
    days: Sequence[int] = DEFAULT_DAYS,
    ks: Sequence[int] = DEFAULT_KS,
    objective: str = "mape",
    roi_fraction: float = DEFAULT_ROI_FRACTION,
    warmup_days: int = DEFAULT_WARMUP_DAYS,
    batch: WCMABatch = None,
    d_chunk: int = None,
) -> GridSearchResult:
    """Sweep the (alpha, D, K) grid on ``trace`` at sampling rate ``N``.

    Parameters
    ----------
    trace:
        Native-resolution solar trace.
    n_slots:
        Slots per day (``N``); must divide the trace's samples/day.
    alphas, days, ks:
        Parameter grids; default to the paper's ranges.
    objective:
        ``"mape"`` (Eq. 7 reference) or ``"mape_prime"`` (Eq. 6).
    roi_fraction, warmup_days:
        Region-of-interest configuration (Section III / IV-A).
    batch:
        Optional pre-built :class:`WCMABatch` to reuse its caches across
        multiple sweeps of the same trace and ``N``.
    d_chunk:
        ``D``-axis chunk size of the fused cube; default is sized from a
        ~96 MB temporary budget.

    Returns
    -------
    GridSearchResult
    """
    if objective not in ("mape", "mape_prime"):
        raise ValueError(f"objective must be 'mape' or 'mape_prime', got {objective!r}")
    if d_chunk is not None and d_chunk < 1:
        raise ValueError(f"d_chunk must be >= 1, got {d_chunk}")
    alphas = tuple(float(a) for a in alphas)
    days = tuple(int(d) for d in days)
    ks = tuple(int(k) for k in ks)
    if not alphas or not days or not ks:
        raise ValueError("parameter grids must be non-empty")
    if max(days) >= trace.n_days:
        raise ValueError(
            f"history depth D={max(days)} needs more days than the "
            f"trace provides ({trace.n_days})"
        )
    thin_history = max(days) * 2 > trace.n_days
    if thin_history:
        # Legal, but the warm-up convention assumes enough days for a
        # full history matrix plus a scored region of comparable size.
        warnings.warn(
            f"thin history: 2*max(D) = {2 * max(days)} exceeds the trace "
            f"length ({trace.n_days} days); deep-D grid points are scored "
            f"on very little data",
            RuntimeWarning,
            stacklevel=2,
        )

    if batch is None:
        batch = WCMABatch.from_trace(trace, n_slots)

    if objective == "mape":
        reference = batch.reference_mean
    else:
        reference = batch.reference_next_start
    mask = roi_mask(
        reference, n_slots, roi_fraction=roi_fraction, warmup_days=warmup_days
    )
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        raise EmptyRegionError("region of interest is empty; trace too short or dark")

    errors = _error_cube_fused(
        batch, days, ks, alphas, reference, idx, d_chunk=d_chunk
    )

    flat_best = np.nanargmin(errors)
    i, j, a = np.unravel_index(flat_best, errors.shape)
    best = WCMAParams(alpha=alphas[a], days=days[i], k=ks[j])
    return GridSearchResult(
        best=best,
        best_error=float(errors[i, j, a]),
        objective=objective,
        errors=errors,
        alphas=alphas,
        days=days,
        ks=ks,
        n_slots=n_slots,
        meta={"thin_history": thin_history},
    )


@dataclass(frozen=True)
class SweepSpec:
    """One unit of work for :func:`sweep_many`.

    ``batch`` optionally injects a pre-built engine (e.g. from the
    experiment-level memo); when omitted, batches are built once per
    distinct ``(trace, n_slots)`` within the call and shared between
    specs -- so e.g. the MAPE and MAPE' sweeps of Table II reuse one
    set of ``μ``/``η`` caches.
    """

    trace: SolarTrace
    n_slots: int
    objective: str = "mape"
    batch: WCMABatch = None


def sweep_many(
    specs: Sequence[Union[SweepSpec, Tuple]],
    alphas: Sequence[float] = DEFAULT_ALPHAS,
    days: Sequence[int] = DEFAULT_DAYS,
    ks: Sequence[int] = DEFAULT_KS,
    roi_fraction: float = DEFAULT_ROI_FRACTION,
    warmup_days: int = DEFAULT_WARMUP_DAYS,
    d_chunk: int = None,
) -> List[GridSearchResult]:
    """Run several grid searches against shared per-(trace, N) caches.

    ``specs`` is a sequence of :class:`SweepSpec` (or bare
    ``(trace, n_slots[, objective])`` tuples); results come back in the
    same order.  Each result is identical to the corresponding
    independent :func:`grid_search` call (property-tested); the point of
    the entry point is cache sharing: one :class:`WCMABatch` per
    distinct ``(trace, n_slots)`` serves every spec that scores it, so
    multi-objective or multi-``N`` table reproductions pay for the
    ``μ``/``η``/``Φ`` kernels once.
    """
    resolved = [
        spec if isinstance(spec, SweepSpec) else SweepSpec(*spec) for spec in specs
    ]
    shared = {}
    for spec in resolved:
        if spec.batch is not None:
            shared.setdefault((id(spec.trace), spec.n_slots), spec.batch)
    results = []
    for spec in resolved:
        key = (id(spec.trace), spec.n_slots)
        batch = spec.batch
        if batch is None:
            batch = shared.get(key)
            if batch is None:
                batch = WCMABatch.from_trace(spec.trace, spec.n_slots)
                shared[key] = batch
        results.append(
            grid_search(
                spec.trace,
                spec.n_slots,
                alphas=alphas,
                days=days,
                ks=ks,
                objective=spec.objective,
                roi_fraction=roi_fraction,
                warmup_days=warmup_days,
                batch=batch,
                d_chunk=d_chunk,
            )
        )
    return results


def mape_for_params(
    trace: SolarTrace,
    n_slots: int,
    params: WCMAParams,
    objective: str = "mape",
    roi_fraction: float = DEFAULT_ROI_FRACTION,
    warmup_days: int = DEFAULT_WARMUP_DAYS,
    batch: WCMABatch = None,
) -> float:
    """Average error of a single parameter set (convenience wrapper)."""
    result = grid_search(
        trace,
        n_slots,
        alphas=(params.alpha,),
        days=(params.days,),
        ks=(params.k,),
        objective=objective,
        roi_fraction=roi_fraction,
        warmup_days=warmup_days,
        batch=batch,
    )
    return result.best_error
