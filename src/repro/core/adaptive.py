"""Realizable online dynamic parameter selection (extension).

Section IV-C of the paper establishes, with a clairvoyant selector, that
adapting ``(alpha, K)`` per prediction could cut the average error by
more than half, and concludes "it is promising to develop dynamic
parameters selection algorithms".  This module builds that future work:
*causal* selectors that choose among an ensemble of WCMA experts (one
per ``(alpha, D, K)`` grid point) using only information available on
the node at prediction time.  The ensemble is a single
:class:`~repro.core.wcma.WCMAVector` whose column ``b`` runs
``grid[b]``, so all experts advance in one kernel call per slot.

The feedback signal is causal either way: by default the realized
*slot mean* power (``feedback="slot_mean"``) -- a harvesting node
integrates its input current anyway, so the just-finished slot's mean
is known at the next boundary, and it is exactly the quantity MAPE
scores against (Eq. 7) -- or, for a node without energy metering, the
next start-of-slot sample (``feedback="sample"``, Eq. 6 alignment).
Selectors:

* :class:`FollowTheLeaderSelector` -- pick the expert with the smallest
  discounted cumulative absolute error so far.
* :class:`SoftminSelector` -- blend the leaderboard with softmin
  weights (the registered ``adaptive`` predictor).
* :class:`EpsilonGreedySelector` -- follow the leader, but explore a
  random expert with probability ``epsilon`` (useful when weather
  regimes shift and the leaderboard goes stale).
* :class:`HedgeSelector` -- exponential-weights (full-information Hedge)
  prediction: a *weighted blend* of all experts, with weights updated
  multiplicatively from each expert's loss.

These appear in ``benchmarks/test_bench_adaptive.py`` sandwiched
between the static optimum and the clairvoyant bound of Table V.
"""

from __future__ import annotations

import abc
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.base import OnlinePredictor
from repro.core.optimizer import DEFAULT_ALPHAS, DEFAULT_KS
from repro.core.wcma import MU_EPS, WCMAParams, WCMAVector

__all__ = [
    "AdaptiveSelector",
    "FollowTheLeaderSelector",
    "SoftminSelector",
    "EpsilonGreedySelector",
    "HedgeSelector",
    "COMPACT_ALPHAS",
    "COMPACT_DAYS",
    "COMPACT_KS",
    "compact_grid",
]

#: Expert grid of the *registered* selectors (``make_predictor("adaptive",
#: ...)``): 4 alphas x 4 Ks x 3 Ds = 48 experts.  Deliberately *not* a
#: subset of the paper's tuning grid: alpha=0.45/0.55 sit between its
#: 0.1-step alpha values and K=7/10 extend past its K<=6 cap, so the
#: ensemble contains experts no fixed-parameter grid configuration can
#: match (that is what lets the selectors beat a per-trace re-tuned WCMA
#: on the regime-shift cells of the robustness matrix).  Pass
#: ``alphas=``/``ks=``/``days=`` to the factory (or a ``grid=`` to the
#: class) to change it.
COMPACT_ALPHAS = (0.45, 0.55, 0.7, 0.9)
COMPACT_KS = (3, 5, 7, 10)
COMPACT_DAYS = (5, 10, 15)


def _default_grid(days: int) -> List[WCMAParams]:
    return [
        WCMAParams(alpha=a, days=days, k=k)
        for a in DEFAULT_ALPHAS
        for k in DEFAULT_KS
    ]


def compact_grid(
    days: Sequence[int] = COMPACT_DAYS,
    alphas: Sequence[float] = COMPACT_ALPHAS,
    ks: Sequence[int] = COMPACT_KS,
) -> List[WCMAParams]:
    """The registered selectors' expert grid (``alphas`` x ``ks`` x ``days``).

    ``days`` accepts a single int as well as a sequence, so
    ``compact_grid(days=10)`` still means "every expert at D=10".
    """
    days_list = (days,) if isinstance(days, int) else tuple(days)
    return [
        WCMAParams(alpha=a, days=d, k=k)
        for a in alphas
        for k in ks
        for d in days_list
    ]


class AdaptiveSelector(OnlinePredictor):
    """Base class: a kernel of WCMA experts plus a selection rule.

    Subclasses implement :meth:`_select`, mapping the current expert
    scores to either an expert index or a weight vector.

    Parameters
    ----------
    n_slots:
        Slots per day (``N``).
    days:
        History depth ``D`` shared by all experts (the paper fixes D in
        its dynamic study).
    grid:
        Expert parameter sets; defaults to the full (alpha, K) paper grid.
    discount:
        Per-step multiplicative discount on accumulated scores in
        ``(0, 1]``; values below 1 make the selector forget old weather.
    feedback:
        ``"slot_mean"`` (default) scores experts against the realized
        slot mean supplied via :meth:`provide_slot_mean` (falling back
        to the sample when none was provided); ``"sample"`` always uses
        the next start-of-slot sample.
    """

    def __init__(
        self,
        n_slots: int,
        days: int = 10,
        grid: Optional[Sequence[WCMAParams]] = None,
        discount: float = 0.98,
        feedback: str = "slot_mean",
    ):
        if n_slots <= 0:
            raise ValueError("n_slots must be positive")
        if not 0.0 < discount <= 1.0:
            raise ValueError(f"discount must be in (0, 1], got {discount}")
        if feedback not in ("slot_mean", "sample"):
            raise ValueError(
                f"feedback must be 'slot_mean' or 'sample', got {feedback!r}"
            )
        self.n_slots = n_slots
        self.days = days
        self.grid: Tuple[WCMAParams, ...] = tuple(
            grid if grid is not None else _default_grid(days)
        )
        if not self.grid:
            raise ValueError("expert grid must be non-empty")
        self.discount = discount
        self.feedback = feedback
        self._experts = WCMAVector(n_slots, self.grid, len(self.grid))
        self._scores = np.zeros(len(self.grid), dtype=float)
        self._last_predictions: Optional[np.ndarray] = None
        self._last_choice: Optional[int] = None
        self._pending_slot_mean: Optional[float] = None
        self._reference_peak = 0.0

    # ------------------------------------------------------------------
    @property
    def uses_slot_mean_feedback(self) -> bool:
        """True when evaluators should call :meth:`provide_slot_mean`."""
        return self.feedback == "slot_mean"

    def provide_slot_mean(self, mean_watts: float) -> None:
        """Report the just-finished slot's realized mean power.

        Called (by the node or the evaluator) at a slot boundary,
        *before* ``observe`` for that boundary.
        """
        if mean_watts < 0:
            raise ValueError(f"mean power must be non-negative, got {mean_watts}")
        self._pending_slot_mean = float(mean_watts)

    def reset(self) -> None:
        self._experts.reset()
        self._scores.fill(0.0)
        self._last_predictions = None
        self._last_choice = None
        self._pending_slot_mean = None
        self._reference_peak = 0.0

    def observe(self, value: float) -> float:
        if value < 0:
            raise ValueError(f"power sample must be non-negative, got {value}")
        # 1. Feedback: score every expert's previous prediction against
        #    the realized slot mean (when available) or the sample just
        #    measured (full-information setting either way).
        reference = value
        if self._pending_slot_mean is not None:
            reference = self._pending_slot_mean
            self._pending_slot_mean = None
        if self._last_predictions is not None:
            # Relative loss, mirroring the MAPE objective: references
            # below the ROI floor (10 % of the running peak) are skipped,
            # exactly as Section III skips them when scoring.  Night-level
            # references (below MU_EPS) never count, so a relative loss
            # cannot overflow.
            self._reference_peak = max(self._reference_peak, reference)
            floor = max(0.1 * self._reference_peak, MU_EPS)
            if reference >= floor:
                losses = np.abs(self._last_predictions - reference) / reference
                self._scores *= self.discount
                self._scores += losses
                self._learn(losses)

        # 2. Every expert predicts the next boundary: column b of the
        #    kernel runs grid[b].
        predictions = self._experts.observe(np.full(len(self.grid), value))
        self._last_predictions = predictions

        # 3. Selection rule.
        prediction = self._select(predictions)
        return float(prediction)

    # ------------------------------------------------------------------
    @property
    def last_choice(self) -> Optional[int]:
        """Index of the expert chosen at the previous step (if single)."""
        return self._last_choice

    @property
    def chosen_params(self) -> Optional[WCMAParams]:
        """Parameters of the most recently chosen expert (if single)."""
        if self._last_choice is None:
            return None
        return self.grid[self._last_choice]

    def _learn(self, losses: np.ndarray) -> None:
        """Hook for subclasses needing per-step loss updates."""

    @abc.abstractmethod
    def _select(self, predictions: np.ndarray) -> float:
        """Combine/choose among expert ``predictions`` for this step."""


class FollowTheLeaderSelector(AdaptiveSelector):
    """Always follow the expert with the lowest discounted total loss."""

    def _select(self, predictions: np.ndarray) -> float:
        self._last_choice = int(np.argmin(self._scores))
        return predictions[self._last_choice]


class SoftminSelector(FollowTheLeaderSelector):
    """Softmin-weighted blend of the leaderboard (smoothed FTL).

    Predicts the expert average weighted by
    ``softmin(discounted scores / tau)``: at ``tau -> 0`` this is
    follow-the-leader, at ``tau -> inf`` the uniform ensemble mean.
    Blending removes FTL's hard-switching noise -- near-tied experts
    share the prediction instead of flapping -- which is what lets the
    registered ``adaptive`` predictor edge out even the per-trace
    re-tuned WCMA on the regime-shift robustness cells.
    ``last_choice`` still reports the current single leader.
    """

    def __init__(
        self,
        n_slots: int,
        days: int = 10,
        grid: Optional[Sequence[WCMAParams]] = None,
        discount: float = 0.97,
        tau: float = 0.25,
        feedback: str = "slot_mean",
    ):
        super().__init__(
            n_slots, days=days, grid=grid, discount=discount, feedback=feedback
        )
        if tau <= 0:
            raise ValueError(f"tau must be positive, got {tau}")
        self.tau = tau

    def _select(self, predictions: np.ndarray) -> float:
        shifted = self._scores - self._scores.min()
        weights = np.exp(-shifted / self.tau)
        weights /= weights.sum()
        self._last_choice = int(np.argmin(self._scores))
        return float(np.dot(weights, predictions))


class EpsilonGreedySelector(AdaptiveSelector):
    """Follow the leader, explore uniformly with probability ``epsilon``."""

    def __init__(
        self,
        n_slots: int,
        days: int = 10,
        grid: Optional[Sequence[WCMAParams]] = None,
        discount: float = 0.98,
        epsilon: float = 0.05,
        seed: int = 0,
        feedback: str = "slot_mean",
    ):
        super().__init__(
            n_slots, days=days, grid=grid, discount=discount, feedback=feedback
        )
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
        self.epsilon = epsilon
        self._seed = seed
        self._rng = np.random.default_rng(seed)

    def reset(self) -> None:
        super().reset()
        self._rng = np.random.default_rng(self._seed)

    def _select(self, predictions: np.ndarray) -> float:
        if self._rng.random() < self.epsilon:
            self._last_choice = int(self._rng.integers(len(self.grid)))
        else:
            self._last_choice = int(np.argmin(self._scores))
        return predictions[self._last_choice]


class HedgeSelector(AdaptiveSelector):
    """Exponential-weights blend of all experts (full-information Hedge).

    The prediction is the weight-averaged ensemble prediction; weights
    decay exponentially in each expert's (scale-normalised) loss.
    """

    def __init__(
        self,
        n_slots: int,
        days: int = 10,
        grid: Optional[Sequence[WCMAParams]] = None,
        discount: float = 1.0,
        learning_rate: float = 2.0,
        feedback: str = "slot_mean",
    ):
        super().__init__(
            n_slots, days=days, grid=grid, discount=discount, feedback=feedback
        )
        if learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {learning_rate}")
        self.learning_rate = learning_rate
        self._log_weights = np.zeros(len(self.grid), dtype=float)
        self._loss_scale = 1.0

    def reset(self) -> None:
        super().reset()
        self._log_weights = np.zeros(len(self.grid), dtype=float)
        self._loss_scale = 1.0

    def _learn(self, losses: np.ndarray) -> None:
        # Normalise losses by a running scale so learning_rate is
        # dimensionless (irradiance is O(1000) W/m^2).
        peak = float(losses.max())
        if peak > self._loss_scale:
            self._loss_scale = peak
        self._log_weights -= self.learning_rate * losses / self._loss_scale
        self._log_weights -= self._log_weights.max()  # renormalise

    def _select(self, predictions: np.ndarray) -> float:
        weights = np.exp(self._log_weights)
        weights /= weights.sum()
        self._last_choice = int(np.argmax(weights))
        return float(np.dot(weights, predictions))
