"""EWMA predictor of Kansal et al. [2] -- the classic baseline.

Kansal's predictor keeps, for every slot of the day, an exponentially
weighted moving average of the power observed in that slot on previous
days::

    x(d, n) = gamma * e(d-1, n) + (1 - gamma) * x(d-1, n)

and predicts the upcoming slot from its own historical average.  It
adapts across days but, unlike WCMA, ignores how the *current* day is
unfolding -- which is exactly the weakness the conditioning factor
``Φ_K`` of the evaluated algorithm addresses.  The comparison experiment
(`benchmarks/test_bench_predictor_comparison.py`) quantifies this.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import ScalarFace, VectorPredictor, as_batch

__all__ = ["EWMAPredictor", "EWMAVector"]


class EWMAVector(VectorPredictor):
    """Lock-step EWMA over a batch of ``B`` independent nodes.

    The per-slot averages grow a trailing batch axis (``(N, B)``); the
    "slot seen yet" flags stay per slot because every node observes the
    same slots in the same order.  Every operation is elementwise, so a
    column never depends on ``B`` or on its neighbours.
    """

    def __init__(self, n_slots: int, batch_size: int, gamma: float = 0.5):
        if n_slots <= 0:
            raise ValueError("n_slots must be positive")
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if not 0.0 <= gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {gamma}")
        self.n_slots = n_slots
        self.batch_size = batch_size
        self.gamma = gamma
        self._averages = np.zeros((n_slots, batch_size), dtype=float)
        self._seen = np.zeros(n_slots, dtype=bool)
        self._slot = 0

    def reset(self) -> None:
        self._averages.fill(0.0)
        self._seen.fill(False)
        self._slot = 0

    def observe(self, values: np.ndarray) -> np.ndarray:
        values = as_batch(values, self.batch_size)
        slot = self._slot
        if self._seen[slot]:
            self._averages[slot] = (
                self.gamma * values + (1.0 - self.gamma) * self._averages[slot]
            )
        else:
            self._averages[slot] = values
            self._seen[slot] = True

        next_slot = (slot + 1) % self.n_slots
        if self._seen[next_slot]:
            prediction = self._averages[next_slot].copy()
        else:
            prediction = values.copy()  # warm-up: persistence
        self._slot = next_slot
        return prediction


class EWMAPredictor(ScalarFace):
    """Per-slot exponentially weighted moving average predictor.

    The ``B == 1`` face of :class:`EWMAVector`.

    Parameters
    ----------
    n_slots:
        Slots per day (``N``).
    gamma:
        Smoothing weight on the most recent day, ``0 <= gamma <= 1``.
        Kansal et al. use 0.5.
    """

    def __init__(self, n_slots: int, gamma: float = 0.5):
        super().__init__(EWMAVector(n_slots, 1, gamma=gamma))
        self.gamma = gamma

    def state_dict(self) -> dict:
        """Snapshot of the online state (resumes bitwise-exactly).

        Single-node layout: ``averages`` is the kernel's one column,
        shape ``(N,)``.
        """
        kernel = self._kernel
        return {
            "kind": "ewma",
            "n_slots": self.n_slots,
            "gamma": self.gamma,
            "averages": kernel._averages[:, 0].copy(),
            "seen": kernel._seen.copy(),
            "slot": kernel._slot,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (config must match)."""
        if state.get("kind") != "ewma":
            raise ValueError(
                f"snapshot kind {state.get('kind')!r} is not 'ewma'"
            )
        if (
            int(state["n_slots"]) != self.n_slots
            or float(state["gamma"]) != self.gamma
        ):
            raise ValueError(
                f"snapshot was taken with n_slots={state['n_slots']}, "
                f"gamma={state['gamma']}; this predictor has "
                f"n_slots={self.n_slots}, gamma={self.gamma}"
            )
        averages = np.asarray(state["averages"], dtype=float)
        seen = np.asarray(state["seen"], dtype=bool)
        if averages.shape != (self.n_slots,) or seen.shape != (self.n_slots,):
            raise ValueError(
                f"snapshot arrays have shapes {averages.shape}/{seen.shape}; "
                f"expected ({self.n_slots},)"
            )
        kernel = self._kernel
        kernel._averages[:, 0] = averages
        kernel._seen[...] = seen
        kernel._slot = int(state["slot"])
