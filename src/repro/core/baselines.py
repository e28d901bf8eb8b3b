"""Simple baseline predictors used in comparison experiments.

These are the naive strategies the related work measures against:

* :class:`PersistencePredictor` -- "the next slot looks like this one"
  (equivalent to WCMA with ``alpha = 1``).
* :class:`PreviousDayPredictor` -- "the next slot looks like the same
  slot yesterday".
* :class:`MovingAveragePredictor` -- unconditioned ``μ_D`` (WCMA with
  ``alpha = 0`` and the conditioning factor forced to 1): the paper's
  *conditioned average term* without the conditioning, which isolates
  the contribution of ``Φ_K`` in the ablation benchmark.

Each strategy is one lock-step kernel over ``B`` nodes
(``PersistenceVector``, ``PreviousDayVector``, ``MovingAverageVector``);
the single-node predictors are their ``B == 1`` faces
(:class:`~repro.core.base.ScalarFace`).
"""

from __future__ import annotations

import numpy as np

from repro.core.base import FleetDayHistory, ScalarFace, VectorPredictor, as_batch

__all__ = [
    "PersistencePredictor",
    "PreviousDayPredictor",
    "MovingAveragePredictor",
    "PersistenceVector",
    "PreviousDayVector",
    "MovingAverageVector",
]


class PersistenceVector(VectorPredictor):
    """Predicts that each node's next slot equals its current sample."""

    def __init__(self, n_slots: int, batch_size: int):
        if n_slots <= 0:
            raise ValueError("n_slots must be positive")
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.n_slots = n_slots
        self.batch_size = batch_size

    def reset(self) -> None:
        pass  # stateless

    def observe(self, values: np.ndarray) -> np.ndarray:
        return as_batch(values, self.batch_size).copy()


class PreviousDayVector(VectorPredictor):
    """Predicts each node's next slot from the same slot one day ago."""

    def __init__(self, n_slots: int, batch_size: int):
        if n_slots <= 0:
            raise ValueError("n_slots must be positive")
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.n_slots = n_slots
        self.batch_size = batch_size
        self._history = FleetDayHistory(n_slots=n_slots, depth=1, batch_size=batch_size)

    def reset(self) -> None:
        self._history.reset()

    def observe(self, values: np.ndarray) -> np.ndarray:
        values = as_batch(values, self.batch_size)
        slot = self._history.current_slot
        if self._history.n_complete_days > 0:
            prediction = self._history.slot_mean(slot + 1, 1)
        else:
            prediction = values.copy()
        self._history.push_slot(values)
        return prediction


class MovingAverageVector(VectorPredictor):
    """Predicts each node's next slot as its unconditioned ``μ_D`` average.

    Equivalent to WCMA with ``alpha = 0`` and ``Φ_K ≡ 1``; comparing it
    with real WCMA isolates the benefit of the conditioning factor.
    """

    def __init__(self, n_slots: int, batch_size: int, days: int = 10):
        if n_slots <= 0:
            raise ValueError("n_slots must be positive")
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if days < 1:
            raise ValueError("days must be >= 1")
        self.n_slots = n_slots
        self.batch_size = batch_size
        self.days = days
        self._history = FleetDayHistory(
            n_slots=n_slots, depth=days, batch_size=batch_size
        )

    def reset(self) -> None:
        self._history.reset()

    def observe(self, values: np.ndarray) -> np.ndarray:
        values = as_batch(values, self.batch_size)
        slot = self._history.current_slot
        if self._history.n_complete_days > 0:
            prediction = self._history.slot_mean(slot + 1, self.days)
        else:
            prediction = values.copy()
        self._history.push_slot(values)
        return prediction


class PersistencePredictor(ScalarFace):
    """The ``B == 1`` face of :class:`PersistenceVector`."""

    def __init__(self, n_slots: int):
        super().__init__(PersistenceVector(n_slots, 1))


class PreviousDayPredictor(ScalarFace):
    """The ``B == 1`` face of :class:`PreviousDayVector`."""

    def __init__(self, n_slots: int):
        super().__init__(PreviousDayVector(n_slots, 1))


class MovingAveragePredictor(ScalarFace):
    """The ``B == 1`` face of :class:`MovingAverageVector` (``days`` = D)."""

    def __init__(self, n_slots: int, days: int = 10):
        super().__init__(MovingAverageVector(n_slots, 1, days=days))
        self.days = days
