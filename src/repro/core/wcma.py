"""WCMA -- the solar-energy predictor evaluated by the paper.

Implements the algorithm of Recas et al. [5] exactly as specified by
Eqs. 1-5 of the paper (see module docstring of
:mod:`repro.metrics.errors` for the time-alignment convention):

.. math::

    \\hat e_{n+1} = \\alpha\\,\\tilde e(n)
                  + (1-\\alpha)\\,\\mu_D(n+1)\\,\\Phi_K

with :math:`\\mu_D(j)` the mean of the start-of-slot samples of slot *j*
over the last *D* days (Eq. 2) and the conditioning factor

.. math::

    \\Phi_K = \\frac{\\sum_{k=1}^{K} \\theta(k)\\,\\eta(k)}
                   {\\sum_{k=1}^{K} \\theta(k)},\\qquad
    \\eta(k) = \\frac{\\tilde e(n-K+k)}{\\mu_D(n-K+k)},\\qquad
    \\theta(k) = k/K.

Two engines are provided:

* :class:`WCMAVector` -- the *online* recurrence a sensor node runs,
  O(D + K) state per node and one :meth:`observe` call per slot, over
  a ``(B,)`` batch of independent columns in lock-step, each with its
  own (alpha, D, K).  The fleet simulator (:mod:`repro.management.fleet`)
  runs one column per node and the adaptive selectors
  (:mod:`repro.core.adaptive`) one column per expert.
  :class:`WCMAPredictor` is its ``B == 1`` face for single-node
  callers (the node simulation, the serve daemon); being the same
  code, the two agree bitwise.
* :class:`WCMABatch` -- a vectorized engine over a whole trace, used by
  the parameter sweeps (Tables II, III, V; Fig. 7), where thousands of
  (alpha, D, K) combinations must be scored.

Night and dawn handling: where :math:`\\mu_D` is zero the ratio
:math:`\\eta` is undefined, and where it is merely *tiny* (first slots
after sunrise) the ratio explodes -- the sun's day-to-day elevation
drift can grow a near-horizon slot's power by an order of magnitude
over ``D`` days, so :math:`\\tilde e / \\mu_D` reaches 3-10 even on a
perfectly clear morning and would poison :math:`\\Phi_K` for the first
in-ROI predictions of the day.  Both engines therefore
substitute the neutral value 1.0 whenever :math:`\\mu_D` at the ratio's
slot is below ``eta_floor_fraction`` (default 5 %) of the historical
daily peak of :math:`\\mu_D`.  This guard only affects slots the paper's
region-of-interest rule excludes from scoring anyway (Section III);
without it no parameter setting reproduces the paper's single-digit
MAPE values on sunny sites.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple, Union

import numpy as np

from repro.core.base import FleetDayHistory, ScalarFace, VectorPredictor, as_batch
from repro.solar.slots import SlotView

__all__ = [
    "WCMAParams",
    "WCMAPredictor",
    "WCMAVector",
    "WCMABatch",
    "mu_matrix",
    "MU_EPS",
    "ETA_FLOOR_FRACTION",
]

#: Power (W/m^2) below which a past-days slot average counts as "night".
MU_EPS = 1e-6

#: Fraction of the historical daily peak of mu_D below which the eta
#: ratio is replaced by the neutral 1.0 (dawn guard; see module docstring).
ETA_FLOOR_FRACTION = 0.05


@dataclass(frozen=True)
class WCMAParams:
    """The three tunable parameters of the predictor (plus their ranges).

    Attributes
    ----------
    alpha:
        Weight of the persistence term, ``0 <= alpha <= 1`` (Eq. 1).
    days:
        ``D`` -- past days in the history matrix, ``D >= 1`` (the paper
        sweeps 2..20).
    k:
        ``K`` -- number of current-day slots feeding the conditioning
        factor, ``K >= 1`` (the paper sweeps 1..6).
    """

    alpha: float
    days: int
    k: int

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.days < 1:
            raise ValueError(f"days (D) must be >= 1, got {self.days}")
        if self.k < 1:
            raise ValueError(f"k (K) must be >= 1, got {self.k}")

    @staticmethod
    def theta(k_param: int) -> np.ndarray:
        """Weight vector ``θ(k) = k/K`` for ``k = 1..K`` (Eq. 5)."""
        return np.arange(1, k_param + 1, dtype=float) / k_param


class WCMAVector(VectorPredictor):
    """WCMA over ``B`` independent columns in lock-step: the online kernel.

    ``params`` is one :class:`WCMAParams` shared by every column or a
    sequence of ``B`` of them, one per column (the adaptive selectors
    step their whole expert grid this way).  The history matrix is
    ``(max D, N, B)``.  The ``η`` ring holds ``max K`` ratios per
    column, newest last, pre-filled with the neutral 1.0 so that ratios
    missing at the start of a trace count as neutral; its row 0 is a
    constant 1.0 with weight 0, so every ``Φ`` sum starts from +0.0.
    The slot/day counters are shared scalars because every column
    crosses the same boundary at once.

    ``μ_D`` and ``Φ_K`` accumulate row by row, oldest first,
    elementwise, so a column's output depends only on its own samples
    and parameters -- never on ``B`` or on the other columns.
    """

    def __init__(
        self,
        n_slots: int,
        params: Union[WCMAParams, Sequence[WCMAParams]],
        batch_size: int,
        eta_floor_fraction: float = ETA_FLOOR_FRACTION,
    ):
        if n_slots <= 0:
            raise ValueError("n_slots must be positive")
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if not 0.0 <= eta_floor_fraction < 1.0:
            raise ValueError(
                f"eta_floor_fraction must be in [0, 1), got {eta_floor_fraction}"
            )
        columns = (
            (params,) * batch_size if isinstance(params, WCMAParams) else tuple(params)
        )
        if len(columns) != batch_size:
            raise ValueError(
                f"got {len(columns)} parameter sets for batch_size={batch_size}"
            )
        self.n_slots = n_slots
        self.params = params
        self.batch_size = batch_size
        self.eta_floor_fraction = eta_floor_fraction
        self._alpha = np.array([p.alpha for p in columns])
        # theta by ring row: a column's last K rows carry k/K, the rows
        # above them 0, so every column accumulates over the same rows.
        ks = np.array([p.k for p in columns])
        max_k = int(ks.max())
        self._theta = np.zeros((max_k + 1, batch_size), dtype=float)
        self._theta_sum = np.empty(batch_size, dtype=float)
        for k in set(ks.tolist()):
            theta = WCMAParams.theta(k)
            self._theta[max_k + 1 - k :, ks == k] = theta[:, None]
            self._theta_sum[ks == k] = theta.sum()
        # Columns sharing a history depth D average the same days (one
        # group, the usual case, takes a plain slice: no gather copy).
        days = np.array([p.days for p in columns])
        depths = sorted(set(days.tolist()))
        self._depth_groups = (
            [(depths[0], slice(None))]
            if len(depths) == 1
            else [(d, np.flatnonzero(days == d)) for d in depths]
        )
        self._history = FleetDayHistory(
            n_slots=n_slots, depth=int(days.max()), batch_size=batch_size
        )
        self._recent_eta = np.ones((max_k + 1, batch_size), dtype=float)
        self._terms = np.empty_like(self._recent_eta)
        self.reset()

    def reset(self) -> None:
        self._history.reset()
        self._recent_eta.fill(1.0)
        self._mu_days_seen = 0
        # Per-day caches (N, B), rebuilt when a day completes: mu_D with
        # 1.0 on dawn-guarded slots, the guard mask, and (1 - alpha) times
        # mu_D of the next slot.  None until a day of history exists.
        self._divisor = self._dark = self._conditioned = None

    def _refresh_mu(self) -> None:
        """Rebuild the per-day caches after a day completes.

        ``μ_D`` only depends on *complete* days, so it is constant
        within a day; caching it makes ``observe`` O(K) instead of O(D).
        """
        completed = self._history.total_days_completed
        if completed == self._mu_days_seen:
            return
        self._mu_days_seen = completed
        available = self._history.n_complete_days
        if available == 0:
            self._divisor = self._dark = self._conditioned = None
            return
        # mu_D (Eq. 2): each column's last D complete days, summed oldest
        # first (a sequential accumulate, whatever the batch shape).
        mu = np.empty((self.n_slots, self.batch_size), dtype=float)
        for depth, cols in self._depth_groups:
            use = min(depth, available)
            window = self._history._recent_rows(use)[:, :, cols]
            mu[:, cols] = np.add.accumulate(window, axis=0)[-1] / use
        floor = np.maximum(self.eta_floor_fraction * mu.max(axis=0), MU_EPS)
        self._dark = ~(mu >= floor)
        self._divisor = mu.copy()
        self._divisor[self._dark] = 1.0
        self._conditioned = (1.0 - self._alpha) * np.concatenate((mu[1:], mu[:1]))

    def observe(self, values: np.ndarray) -> np.ndarray:
        values = as_batch(values, self.batch_size)
        self._refresh_mu()
        slot = self._history.current_slot
        # Roll the ring: the oldest ratio falls off the front, the
        # current one lands at the back, where theta(K) = 1 weights it
        # most.  It is the neutral 1.0 during warm-up and under the
        # dawn guard.
        eta = self._recent_eta
        eta[1:-1] = eta[2:]
        if self._conditioned is None:
            eta[-1] = 1.0
            prediction = values.copy()  # warm-up: pure persistence
        else:
            newest = eta[-1]
            np.divide(values, self._divisor[slot], newest)
            newest[self._dark[slot]] = 1.0
            terms = self._terms
            np.multiply(self._theta, eta, terms)
            np.add.accumulate(terms, 0, None, terms)
            phi = terms[-1] / self._theta_sum
            prediction = self._alpha * values + self._conditioned[slot] * phi
        self._history.push_slot(values)
        return prediction


class WCMAPredictor(ScalarFace):
    """Online WCMA predictor with O(D*N) memory, as a node would run it.

    The ``B == 1`` face of :class:`WCMAVector`.

    Parameters
    ----------
    n_slots:
        ``N`` -- slots (samples/predictions) per day.
    params:
        The (alpha, D, K) parameter set.

    Notes
    -----
    Until at least one full day of history exists the conditioned
    average term is unavailable and the predictor degrades to pure
    persistence (``ê = ẽ(n)``), which is also what the reference
    implementation of [5] does during warm-up.
    """

    def __init__(
        self,
        n_slots: int,
        params: WCMAParams,
        eta_floor_fraction: float = ETA_FLOOR_FRACTION,
    ):
        super().__init__(
            WCMAVector(n_slots, params, 1, eta_floor_fraction=eta_floor_fraction)
        )
        self.params = params
        self.eta_floor_fraction = eta_floor_fraction

    def state_dict(self) -> dict:
        """Snapshot of the online state (resumes bitwise-exactly).

        The history is laid out as a :class:`~repro.core.base.DayHistory`
        snapshot and ``recent_eta`` lists the (at most K) ratios
        observed so far, oldest first.  The kernel's per-day caches are
        *not* serialised: loading marks them stale so the next
        :meth:`observe` recomputes them from the history matrix, which
        is deterministic -- the resumed predictor emits the same bits as
        one that never stopped.
        """
        history = self._kernel._history.state_dict()
        del history["batch_size"]
        history["rows"] = history["rows"][:, :, 0]
        history["current"] = history["current"][:, 0]
        k = self.params.k
        observed = history["n_complete"] * self.n_slots + history["slot"]
        return {
            "kind": "wcma",
            "n_slots": self.n_slots,
            "params": {"alpha": self.params.alpha, "days": self.params.days, "k": k},
            "eta_floor_fraction": self.eta_floor_fraction,
            "history": history,
            "recent_eta": self._kernel._recent_eta[k + 1 - min(observed, k) :, 0].tolist(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (config must match)."""
        if state.get("kind") != "wcma":
            raise ValueError(
                f"snapshot kind {state.get('kind')!r} is not 'wcma'"
            )
        mine = {"alpha": self.params.alpha, "days": self.params.days, "k": self.params.k}
        if int(state["n_slots"]) != self.n_slots or state["params"] != mine:
            raise ValueError(
                f"snapshot was taken with n_slots={state['n_slots']}, "
                f"params={state['params']}; this predictor has "
                f"n_slots={self.n_slots}, params={mine}"
            )
        if float(state["eta_floor_fraction"]) != self.eta_floor_fraction:
            raise ValueError(
                f"snapshot eta_floor_fraction {state['eta_floor_fraction']} "
                f"!= this predictor's {self.eta_floor_fraction}"
            )
        saved = state["history"]
        ratios = [float(v) for v in state["recent_eta"]]
        observed = int(saved["n_complete"]) * self.n_slots + int(saved["slot"])
        k = self.params.k
        if len(ratios) != min(observed, k):
            raise ValueError(
                f"snapshot holds {len(ratios)} eta ratios after {observed} "
                f"observations; K={k} implies {min(observed, k)}"
            )
        kernel = self._kernel
        kernel._history.load_state_dict(
            {
                **saved,
                "batch_size": 1,
                "rows": np.asarray(saved["rows"], dtype=float)[..., None],
                "current": np.asarray(saved["current"], dtype=float)[:, None],
            }
        )
        kernel._recent_eta.fill(1.0)
        kernel._recent_eta[k + 1 - len(ratios) :, 0] = ratios
        # Derived caches: mark stale (-1 never equals a completed-days
        # count) so _refresh_mu recomputes them on the next observe.
        kernel._mu_days_seen = -1


def mu_matrix(starts: np.ndarray, days: int) -> np.ndarray:
    """``μ_D`` for every (day, slot): mean of the previous ``days`` rows.

    Parameters
    ----------
    starts:
        ``(n_days, N)`` start-of-slot sample matrix.
    days:
        History depth ``D``.

    Returns
    -------
    numpy.ndarray
        ``(n_days, N)`` where row ``d`` holds
        ``mean(starts[d-days:d], axis=0)``; rows ``d < days`` are NaN
        (insufficient history).
    """
    starts = np.asarray(starts, dtype=float)
    if starts.ndim != 2:
        raise ValueError(f"starts must be 2-D, got shape {starts.shape}")
    n_days = starts.shape[0]
    if days < 1:
        raise ValueError("days must be >= 1")
    out = np.full_like(starts, np.nan)
    if n_days <= days:
        return out
    csum = np.vstack([np.zeros((1, starts.shape[1])), np.cumsum(starts, axis=0)])
    out[days:] = (csum[days:-1] - csum[:-days - 1])[: n_days - days] / days
    # the slice above yields rows for d = days..n_days-1
    return out


class WCMABatch:
    """Vectorized WCMA evaluation over an entire trace.

    The sweep-engine v2 kernel set.  Three levels of sharing keep the
    exhaustive grid searches of Tables II/III/V cheap:

    * **Per trace** -- one prefix sum over the day axis
      (:meth:`_day_csum`) from which ``μ_D`` for *every* history depth
      ``D`` is a single slice-subtract-divide (no per-``D``
      recomputation).
    * **Per D** -- the flat ``μ_D`` and ``η`` series are memoised; ``η``
      reuses the cached ``μ`` matrix instead of rebuilding it.
    * **Per (D, K)** -- ``Φ_K`` comes from a sliding-window recurrence:
      with ``θ(k) = k/K`` the numerator is ``(1/K)·Σ k·η`` over the
      window, so two running sums (plain and lag-weighted) advance from
      ``K-1`` to ``K`` with one shifted add each, making every ``K``
      incremental instead of ``O(K)`` passes.  The *conditioned average
      term* ``q[t] = μ_D(t+1) * Φ_K(t)`` is memoised per ``(D, K)``.

    A prediction for any ``alpha`` is then the one-liner
    ``alpha * s[:-1] + (1 - alpha) * q``.  For whole-grid sweeps,
    :meth:`conditioned_stack` additionally evaluates the stacked
    ``(D, K)`` conditioned terms at a set of scored boundary indices in
    one batched pass (the input of the fused error-cube kernel in
    :mod:`repro.core.optimizer`).

    All flat arrays are aligned on the boundary index
    ``t = day * N + slot``; entries where history is incomplete are NaN.
    The pre-v2 kernels are preserved in
    :mod:`repro.core.sweep_reference` and pinned against these by the
    parity suite.

    One batch may serve several threads at once (the thread backend
    runs experiment units that share a memoised batch): the memos only
    ever gain whole, finished arrays, the ``Φ`` running sums advance on
    private copies, and the :meth:`conditioned_stack` workspace is per
    thread.
    """

    def __init__(self, view: SlotView, eta_floor_fraction: float = ETA_FLOOR_FRACTION):
        if not 0.0 <= eta_floor_fraction < 1.0:
            raise ValueError(
                f"eta_floor_fraction must be in [0, 1), got {eta_floor_fraction}"
            )
        self.view = view
        self.n_slots = view.n_slots
        self.eta_floor_fraction = eta_floor_fraction
        self.starts_flat = view.flat_starts()
        self.means_flat = view.flat_means()
        self._csum: np.ndarray = None  # (n_days + 1, N) day-axis prefix sum
        self._mu2d_cache: Dict[int, np.ndarray] = {}
        self._mu_cache: Dict[int, np.ndarray] = {}
        self._eta_cache: Dict[int, np.ndarray] = {}
        self._phi_cache: Dict[Tuple[int, int], np.ndarray] = {}
        self._window_cache: Dict[int, tuple] = {}  # D -> (K_done, B, W)
        self._q_cache: Dict[Tuple[int, int], np.ndarray] = {}
        # conditioned_stack workspace, keyed by its shape: repeated
        # sweep chunks reuse the lag/window buffers instead of paying a
        # fresh multi-MB allocation (page faults) per chunk.  Per thread,
        # so concurrent sweeps on one batch never share a buffer.
        self._stack_scratch = threading.local()

    # ------------------------------------------------------------------
    @classmethod
    def from_trace(cls, trace, n_slots: int) -> "WCMABatch":
        """Build directly from a :class:`~repro.solar.trace.SolarTrace`."""
        return cls(SlotView.from_trace(trace, n_slots))

    @property
    def n_boundaries(self) -> int:
        """Total number of slot boundaries in the trace."""
        return self.starts_flat.size

    # ------------------------------------------------------------------
    def _day_csum(self) -> np.ndarray:
        """Shared day-axis prefix sum: ``csum[d] = Σ starts[:d]``.

        Computed once; ``μ_D`` for any ``D`` is then
        ``(csum[D:-1] - csum[:-D-1]) / D`` -- bit-identical to what
        :func:`mu_matrix` produces, without re-running the cumulative
        sum per depth.
        """
        if self._csum is None:
            starts = self.view.starts
            self._csum = np.vstack(
                [np.zeros((1, starts.shape[1])), np.cumsum(starts, axis=0)]
            )
        return self._csum

    def mu2d(self, days: int) -> np.ndarray:
        """``μ_D`` as a ``(n_days, N)`` matrix (NaN rows during warm-up)."""
        if days < 1:
            raise ValueError("days must be >= 1")
        if days not in self._mu2d_cache:
            starts = self.view.starts
            csum = self._day_csum()
            out = np.empty_like(starts)
            out[: min(days, starts.shape[0])] = np.nan
            if starts.shape[0] > days:
                np.subtract(csum[days:-1], csum[: -days - 1], out=out[days:])
                out[days:] /= days
            self._mu2d_cache[days] = out
        return self._mu2d_cache[days]

    def mu_flat(self, days: int) -> np.ndarray:
        """Flat ``μ_D`` series (NaN during the first ``days`` days)."""
        if days not in self._mu_cache:
            self._mu_cache[days] = self.mu2d(days).reshape(-1)
        return self._mu_cache[days]

    def eta_flat(self, days: int) -> np.ndarray:
        """Flat ``η`` series: ``s/μ_D`` with the night/dawn guard.

        The guard threshold is per day: ``eta_floor_fraction`` times that
        day's peak ``μ_D`` value (mirroring the online predictor, where
        the node knows its own history matrix).
        """
        if days not in self._eta_cache:
            mu2d = self.mu2d(days)
            # mu rows are all-finite (complete history) or all-NaN
            # (warm-up): a plain max propagates NaN into the floor,
            # whose comparison below is then False for the whole row --
            # the same exclusion the old where(-inf) dance produced.
            day_peak = mu2d.max(axis=1, keepdims=True)
            floor2d = np.maximum(self.eta_floor_fraction * day_peak, MU_EPS)
            mu = mu2d.reshape(-1)
            floor = np.broadcast_to(floor2d, mu2d.shape).reshape(-1)
            s = self.starts_flat
            bright = mu >= floor  # False on NaN mu/floor: warm-up stays dark
            # NaN on warm-up rows, neutral 1.0 under the dawn guard, and
            # the true ratio where mu is bright -- the where-divide
            # computes the same element divisions as masked indexing
            # would, without the gather/scatter round trip.
            eta = np.where(np.isfinite(mu), 1.0, np.nan)
            np.divide(s, mu, out=eta, where=bright)
            self._eta_cache[days] = eta
        return self._eta_cache[days]

    def phi_flat(self, days: int, k_param: int) -> np.ndarray:
        """Flat ``Φ_K`` series (Eq. 3); NaN where the lookback is short.

        Sliding-window form: with ``θ(k) = k/K`` the weighted numerator
        over the window is ``(1/K)·Σ_k k·η``, so two running sums --
        ``B[t] = Σ_{j<K} η(t-j)`` (plain) and ``W[t] = Σ_{j<K} j·η(t-j)``
        (lag-weighted) -- give every ``K`` incrementally:

        ``Φ_K(t) = (K·B[t] - W[t]) · 2 / (K·(K+1))``

        Advancing ``K -> K+1`` costs one shifted add per running sum
        instead of the ``O(K)`` shifted adds of the reference kernel.
        The sums are cached per ``D`` and every intermediate ``K``
        passed on the way up is cached too, so requesting a smaller
        ``K`` later is a pure cache hit.
        """
        if k_param < 1:
            raise ValueError("K must be >= 1")
        key = (days, k_param)
        if key not in self._phi_cache:
            # Advance copies of the running sums and publish them whole:
            # another thread may be advancing the same D concurrently.
            k_done, window, weighted = self._window_cache.get(days, (0, None, None))
            if window is None:
                window = np.zeros(self.n_boundaries, dtype=float)
                weighted = np.zeros(self.n_boundaries, dtype=float)
            else:
                window, weighted = window.copy(), weighted.copy()
            eta = self.eta_flat(days)
            for k in range(k_done + 1, k_param + 1):
                lag = k - 1
                if lag == 0:
                    window += eta
                else:
                    window[lag:] += eta[:-lag]
                    weighted[lag:] += lag * eta[:-lag]
                phi = (k * window - weighted) * (2.0 / (k * (k + 1)))
                phi[: k - 1] = np.nan  # incomplete lookback at trace start
                self._phi_cache[(days, k)] = phi
            if k_param > k_done:
                self._window_cache[days] = (k_param, window, weighted)
        return self._phi_cache[key]

    def conditioned_term(self, days: int, k_param: int) -> np.ndarray:
        """``q[t] = μ_D(t+1) · Φ_K(t)``, length ``n_boundaries - 1``."""
        key = (days, k_param)
        if key not in self._q_cache:
            mu = self.mu_flat(days)
            phi = self.phi_flat(days, k_param)
            self._q_cache[key] = mu[1:] * phi[:-1]
        return self._q_cache[key]

    def conditioned_stack(
        self,
        days_seq: Sequence[int],
        ks_seq: Sequence[int],
        idx: np.ndarray,
        out: np.ndarray = None,
    ) -> np.ndarray:
        """Conditioned terms for a block of ``(D, K)`` pairs at ``idx``.

        The sweep-side kernel: evaluates
        ``q[D, K, t] = μ_D(t+1) · Φ_K(t)`` for every ``D`` in
        ``days_seq`` x every ``K`` in ``ks_seq``, but *only* at the
        scored boundary indices ``idx`` (sorted ascending, e.g.
        :func:`repro.metrics.roi.roi_indices`), returning shape
        ``(len(days_seq), len(ks_seq), len(idx))``.

        Compared to gathering from :meth:`conditioned_term`, this skips
        materialising the full-length ``Φ``/``q`` series: the ``η``
        values each window needs (lags ``0..max(K)-1`` of every scored
        boundary, which may straddle unscored slots) are gathered once,
        after which the sliding-window sums, the ``Φ`` scaling, the
        ``μ`` product and every downstream error op touch only the
        scored subset -- typically ~25 % of the trace under the
        region-of-interest rule.  Memory is ``O(len(days_seq) · max(K) ·
        len(idx))`` for the lag tensor -- callers bound it by chunking
        ``days_seq`` (see ``grid_search``'s ``d_chunk``).

        ``μ`` and ``η`` per ``D`` go through the same memos as the
        scalar API, so repeated sweeps on one batch stay shared.  The
        internal lag/window buffers persist on the batch and are reused
        by same-shaped chunks; pass ``out`` (same shape as the result)
        to recycle the output allocation as well.
        """
        idx = np.asarray(idx)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n_boundaries - 1):
            raise ValueError(
                "idx must hold boundary indices in [0, n_boundaries - 1)"
            )
        days_seq = tuple(days_seq)
        ks_seq = tuple(ks_seq)
        if min(ks_seq) < 1:
            raise ValueError("K must be >= 1")
        n_block = len(days_seq)
        max_k = max(ks_seq)
        n_sel = idx.size
        scratch = self._stack_scratch
        scratch_key = (n_block, max_k, n_sel)
        if getattr(scratch, "key", None) != scratch_key:
            scratch.key = scratch_key
            scratch.buffers = (
                np.empty((n_block, max_k, n_sel), dtype=float),
                np.empty((n_block, n_sel), dtype=float),
                np.empty((n_block, n_sel), dtype=float),
            )
        lags, numer, mu_next = scratch.buffers
        nxt = idx + 1
        for ci, d in enumerate(days_seq):
            mu_next[ci] = self.mu_flat(d)[nxt]
        # Gathered eta neighbourhoods: lags[:, j] = eta(t - j) at every
        # scored t.  (Lag indices clamped at 0 are start-of-trace
        # positions whose phi is NaN-masked below.)
        src = np.maximum(idx[None, :] - np.arange(max_k)[:, None], 0)
        for ci, d in enumerate(days_seq):
            lags[ci] = self.eta_flat(d)[src]
        # Double recurrence for the theta-weighted numerator
        # A_K = sum_{j<K} (K-j) eta(t-j):  B_K = B_{K-1} + eta(t-K+1)
        # (plain window sum) and A_K = A_{K-1} + B_K -- one add each per
        # unit of K.  phi_K is then A_K * 2/(K*(K+1)).
        positions = {}
        for j, k in enumerate(ks_seq):
            positions.setdefault(k, []).append(j)
        out_arr = (
            out
            if out is not None
            else np.empty((n_block, len(ks_seq), n_sel), dtype=float)
        )
        window = lags[:, 0]  # B_1; accumulated in place across K
        np.copyto(numer, window)  # A_1 == B_1
        for k in range(1, max_k + 1):
            if k > 1:
                window += lags[:, k - 1]
                numer += window
            slots = positions.get(k)
            if not slots:
                continue
            q_k = out_arr[:, slots[0]]
            np.multiply(numer, mu_next, out=q_k)
            if k > 1:
                q_k *= 2.0 / (k * (k + 1))
                if n_sel and idx[0] < k - 1:
                    # incomplete lookback at trace start (idx sorted)
                    q_k[:, : np.searchsorted(idx, k - 1)] = np.nan
            for j in slots[1:]:
                out_arr[:, j] = q_k
        return out_arr

    def predictions(self, params: WCMAParams) -> np.ndarray:
        """Predictions ``p[t]`` for ``t = 0 .. n_boundaries-2``.

        ``p[t]`` is the prediction made at boundary ``t`` for the slot
        beginning there (Eq. 1).  NaN where history is incomplete.
        """
        q = self.conditioned_term(params.days, params.k)
        return params.alpha * self.starts_flat[:-1] + (1.0 - params.alpha) * q

    # ------------------------------------------------------------------
    # References for error evaluation, aligned with ``predictions``.
    # ------------------------------------------------------------------
    @property
    def reference_mean(self) -> np.ndarray:
        """Slot-mean reference for Eq. 7 (``m[t]``)."""
        return self.means_flat[:-1]

    @property
    def reference_next_start(self) -> np.ndarray:
        """Next-boundary-sample reference for Eq. 6 (``s[t+1]``)."""
        return self.starts_flat[1:]
