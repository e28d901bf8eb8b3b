"""Realizable online dynamic parameter selection (extension).

Section IV-C of the paper establishes, with a clairvoyant selector, that
adapting ``(alpha, K)`` per prediction could cut the average error by
more than half, and concludes "it is promising to develop dynamic
parameters selection algorithms".  This module builds that future work:
*causal* selectors that choose among an ensemble of WCMA experts (one
per ``(alpha, D, K)`` grid point) using only information available on
the node at prediction time.  Each selector is a lock-step kernel over
``B`` nodes (:class:`SelectorVector`) whose ``B x E`` experts are the
columns of one :class:`~repro.core.wcma.WCMAVector` (column ``b*E + e``
runs ``grid[e]`` for node ``b``), so every expert of every node
advances in one kernel call per slot; the scalar selectors are the
kernels' ``B == 1`` faces.

The feedback signal is causal either way: by default the realized
*slot mean* power (``feedback="slot_mean"``) -- a harvesting node
integrates its input current anyway, so the just-finished slot's mean
is known at the next boundary, and it is exactly the quantity MAPE
scores against (Eq. 7) -- or, for a node without energy metering, the
next start-of-slot sample (``feedback="sample"``, Eq. 6 alignment).
Selectors (each ``...Selector`` is the face of its ``...Vector``):

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
from typing import List, Optional, Sequence

import numpy as np

from repro.core.base import ScalarFace, VectorPredictor, as_batch
from repro.core.optimizer import DEFAULT_ALPHAS, DEFAULT_KS
from repro.core.wcma import MU_EPS, WCMAParams, WCMAVector

__all__ = [
    "SelectorVector",
    "FollowTheLeaderVector",
    "SoftminVector",
    "EpsilonGreedyVector",
    "HedgeVector",
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


def _blend(weights: np.ndarray, predictions: np.ndarray) -> np.ndarray:
    """Each node's weighted expert average: one length-``E`` dot product
    per row, the reduction a lone node's ``np.dot`` runs."""
    return np.matmul(weights[:, None, :], predictions[:, :, None])[:, 0, 0]


class SelectorVector(VectorPredictor):
    """Base kernel: ``B`` nodes, each choosing among the same ``E`` experts.

    Subclasses implement :meth:`_select`, mapping the ``(B, E)`` expert
    predictions to ``(B,)`` predictions (recording each node's single
    choice, if any), and may hook :meth:`_learn` for per-step loss
    updates.  Every node keeps its own row of expert scores, its own
    running reference peak and its own pending slot mean, so node ``b``
    of a ``B``-node kernel equals a lone selector bit for bit.

    Parameters
    ----------
    n_slots:
        Slots per day (``N``).
    batch_size:
        Nodes stepped per ``observe`` call (``B``).
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
        slot means supplied via :meth:`provide_slot_mean` (falling back
        to the samples when none were provided); ``"sample"`` always
        uses the next start-of-slot samples.
    """

    def __init__(
        self,
        n_slots: int,
        batch_size: int,
        days: int = 10,
        grid: Optional[Sequence[WCMAParams]] = None,
        discount: float = 0.98,
        feedback: str = "slot_mean",
    ):
        if n_slots <= 0:
            raise ValueError("n_slots must be positive")
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if not 0.0 < discount <= 1.0:
            raise ValueError(f"discount must be in (0, 1], got {discount}")
        if feedback not in ("slot_mean", "sample"):
            raise ValueError(
                f"feedback must be 'slot_mean' or 'sample', got {feedback!r}"
            )
        self.n_slots = n_slots
        self.batch_size = batch_size
        if grid is None:
            grid = [WCMAParams(a, days, k) for a in DEFAULT_ALPHAS for k in DEFAULT_KS]
        self.grid = tuple(grid)
        if not self.grid:
            raise ValueError("expert grid must be non-empty")
        self.discount = discount
        self.feedback = feedback
        self._experts = WCMAVector(
            n_slots, self.grid * batch_size, batch_size * len(self.grid)
        )
        self._nodes = np.arange(batch_size)
        self.reset()

    @property
    def uses_slot_mean_feedback(self) -> bool:
        """True when evaluators should call :meth:`provide_slot_mean`."""
        return self.feedback == "slot_mean"

    def provide_slot_mean(self, mean_watts: np.ndarray) -> None:
        """Report the just-finished slot's realized ``(B,)`` mean power,
        at a slot boundary, *before* ``observe`` for that boundary."""
        self._pending = as_batch(mean_watts, self.batch_size).copy()

    def reset(self) -> None:
        self._experts.reset()
        self._scores = np.zeros((self.batch_size, len(self.grid)))
        self._peak = np.zeros(self.batch_size)
        self._pending: Optional[np.ndarray] = None
        self._predictions: Optional[np.ndarray] = None
        self._last_choice: Optional[np.ndarray] = None

    def observe(self, values: np.ndarray) -> np.ndarray:
        values = as_batch(values, self.batch_size)
        # 1. Feedback: score every expert's previous prediction against
        #    the realized slot mean (when available) or the sample just
        #    measured (full-information setting either way).
        reference = values if self._pending is None else self._pending
        self._pending = None
        if self._predictions is not None:
            # Relative loss, mirroring the MAPE objective: references
            # below the ROI floor (10 % of the node's running peak) are
            # skipped, exactly as Section III skips them when scoring.
            # Night-level references (below MU_EPS) never count, so a
            # relative loss cannot overflow.
            np.maximum(self._peak, reference, out=self._peak)
            floor = np.maximum(0.1 * self._peak, MU_EPS)
            rows = np.flatnonzero(reference >= floor)
            if rows.size:
                ref = reference[rows, None]
                losses = np.abs(self._predictions[rows] - ref) / ref
                self._scores[rows] = self._scores[rows] * self.discount + losses
                self._learn(rows, losses)

        # 2. Every expert of every node predicts the next boundary.
        self._predictions = self._experts.observe(
            np.repeat(values, len(self.grid))
        ).reshape(self.batch_size, -1)

        # 3. Selection rule.
        return self._select(self._predictions)

    def _learn(self, rows: np.ndarray, losses: np.ndarray) -> None:
        """Hook for rules needing per-step loss updates of ``rows``."""

    @abc.abstractmethod
    def _select(self, predictions: np.ndarray) -> np.ndarray:
        """Combine/choose among each node's expert ``predictions``."""


class FollowTheLeaderVector(SelectorVector):
    """Every node follows its expert with the lowest discounted total loss."""

    def _select(self, predictions: np.ndarray) -> np.ndarray:
        self._last_choice = np.argmin(self._scores, axis=1)
        return predictions[self._nodes, self._last_choice]


class SoftminVector(SelectorVector):
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

    def __init__(self, n_slots: int, batch_size: int, tau: float = 0.25,
                 discount: float = 0.97, **kwargs):
        if tau <= 0:
            raise ValueError(f"tau must be positive, got {tau}")
        self.tau = tau
        super().__init__(n_slots, batch_size, discount=discount, **kwargs)

    def _select(self, predictions: np.ndarray) -> np.ndarray:
        scores = self._scores
        weights = np.exp(-(scores - scores.min(axis=1, keepdims=True)) / self.tau)
        weights /= weights.sum(axis=1, keepdims=True)
        self._last_choice = np.argmin(scores, axis=1)
        return _blend(weights, predictions)


class EpsilonGreedyVector(SelectorVector):
    """Follow the leader, explore uniformly with probability ``epsilon``.

    Every node draws from its own ``default_rng(seed)``, exactly what a
    lone selector with that seed draws.
    """

    def __init__(self, n_slots: int, batch_size: int, epsilon: float = 0.05,
                 seed: int = 0, **kwargs):
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
        self.epsilon = epsilon
        self.seed = seed
        super().__init__(n_slots, batch_size, **kwargs)

    def reset(self) -> None:
        super().reset()
        self._rngs = [np.random.default_rng(self.seed) for _ in self._nodes]

    def _select(self, predictions: np.ndarray) -> np.ndarray:
        choice = np.argmin(self._scores, axis=1)
        for b, rng in enumerate(self._rngs):
            if rng.random() < self.epsilon:
                choice[b] = rng.integers(len(self.grid))
        self._last_choice = choice
        return predictions[self._nodes, choice]


class HedgeVector(SelectorVector):
    """Exponential-weights blend of all experts (full-information Hedge).

    The prediction is the weight-averaged ensemble prediction; weights
    decay exponentially in each expert's (scale-normalised) loss.
    """

    def __init__(self, n_slots: int, batch_size: int, learning_rate: float = 2.0,
                 discount: float = 1.0, **kwargs):
        if learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {learning_rate}")
        self.learning_rate = learning_rate
        super().__init__(n_slots, batch_size, discount=discount, **kwargs)

    def reset(self) -> None:
        super().reset()
        self._log_weights = np.zeros_like(self._scores)
        self._loss_scale = np.ones(self.batch_size)

    def _learn(self, rows: np.ndarray, losses: np.ndarray) -> None:
        # Normalise losses by a running per-node scale so learning_rate
        # is dimensionless (irradiance is O(1000) W/m^2).
        peak = losses.max(axis=1)
        scale = self._loss_scale[rows]
        scale = np.where(peak > scale, peak, scale)
        self._loss_scale[rows] = scale
        log_w = self._log_weights[rows] - self.learning_rate * losses / scale[:, None]
        self._log_weights[rows] = log_w - log_w.max(axis=1, keepdims=True)

    def _select(self, predictions: np.ndarray) -> np.ndarray:
        weights = np.exp(self._log_weights)
        weights /= weights.sum(axis=1, keepdims=True)
        self._last_choice = np.argmax(weights, axis=1)
        return _blend(weights, predictions)


class AdaptiveSelector(ScalarFace):
    """One node of a selector kernel: the kernel at ``B == 1``.

    Takes its kernel's keywords (``days``, ``grid``, ``discount``,
    ``feedback`` and the rule's own) and validates them the same way.
    """

    #: The selector kernel this face runs at ``B == 1``.
    _kernel_class: type = SelectorVector

    def __init__(self, n_slots: int, **kwargs):
        super().__init__(self._kernel_class(n_slots, 1, **kwargs))
        self.grid = self._kernel.grid

    @property
    def expert_predictions(self) -> Optional[np.ndarray]:
        """Every expert's latest prediction, ``(E,)`` in grid order."""
        predictions = self._kernel._predictions
        return None if predictions is None else predictions[0]

    @property
    def last_choice(self) -> Optional[int]:
        """Index of the expert chosen at the previous step (if single)."""
        choice = self._kernel._last_choice
        return None if choice is None else int(choice[0])

    @property
    def chosen_params(self) -> Optional[WCMAParams]:
        """Parameters of the most recently chosen expert (if single)."""
        choice = self.last_choice
        return None if choice is None else self.grid[choice]


class FollowTheLeaderSelector(AdaptiveSelector):
    """The ``B == 1`` face of :class:`FollowTheLeaderVector`."""

    _kernel_class = FollowTheLeaderVector


class SoftminSelector(AdaptiveSelector):
    """The ``B == 1`` face of :class:`SoftminVector`."""

    _kernel_class = SoftminVector


class EpsilonGreedySelector(AdaptiveSelector):
    """The ``B == 1`` face of :class:`EpsilonGreedyVector`."""

    _kernel_class = EpsilonGreedyVector


class HedgeSelector(AdaptiveSelector):
    """The ``B == 1`` face of :class:`HedgeVector`."""

    _kernel_class = HedgeVector
