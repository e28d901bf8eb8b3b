"""Online predictor protocol and shared history machinery.

Every predictor in this package follows the same node-side contract,
mirroring the paper's Fig. 5 sequence: once per slot the node wakes,
measures the incoming power, and produces a prediction for the upcoming
slot.  In code::

    predictor.reset()
    for sample in start_of_slot_samples:      # time order
        prediction = predictor.observe(sample)

``observe`` returns the prediction made *at* that boundary for the slot
that is just beginning (equivalently, for the power at the next
boundary -- ``ê(n+1)`` in the paper's notation).
"""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np

__all__ = [
    "OnlinePredictor",
    "VectorPredictor",
    "ScalarFace",
    "FleetDayHistory",
]


class OnlinePredictor(abc.ABC):
    """Abstract base class for slot-by-slot online predictors."""

    #: Slots per day this predictor was configured for.
    n_slots: int

    @abc.abstractmethod
    def reset(self) -> None:
        """Forget all history and return to the initial state."""

    @abc.abstractmethod
    def observe(self, value: float) -> float:
        """Consume the start-of-slot measurement, return the prediction.

        Parameters
        ----------
        value:
            Measured power at the current slot boundary (``ẽ(n)``).

        Returns
        -------
        float
            Prediction for the next boundary / upcoming slot (``ê(n+1)``).
        """

    def run(self, samples: np.ndarray) -> np.ndarray:
        """Feed a flat, time-ordered sample array; return all predictions.

        ``predictions[t]`` is the prediction made at boundary ``t`` (for
        boundary ``t+1``).  The predictor is *not* reset first, so warm
        state can be carried across calls; call :meth:`reset` explicitly
        for a cold start.
        """
        samples = np.asarray(samples, dtype=float)
        if samples.ndim != 1:
            raise ValueError(f"samples must be 1-D, got shape {samples.shape}")
        out = np.empty_like(samples)
        for t, value in enumerate(samples):
            out[t] = self.observe(float(value))
        return out

    # ------------------------------------------------------------------
    # Checkpointing (optional per predictor)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Snapshot of the online state, sufficient to resume exactly.

        Predictors that support checkpoint/resume (WCMA, EWMA, the
        learned tier) override this together with
        :meth:`load_state_dict`; restoring the
        snapshot into a freshly constructed predictor and continuing
        must be indistinguishable from never having stopped.  The
        serving layer (:mod:`repro.serve`) persists these snapshots
        after each observed slot so a restarted daemon resumes without
        replaying history.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support state checkpointing"
        )

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`state_dict`.

        Raises ``ValueError`` when the snapshot's geometry or
        configuration does not match this instance.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support state checkpointing"
        )


class VectorPredictor(abc.ABC):
    """Abstract base class for lock-step fleet predictors.

    A vector predictor is the fleet-scale counterpart of
    :class:`OnlinePredictor`: it advances ``batch_size`` independent
    nodes through the *same* slot boundary at once.  All nodes share the
    slot grid (``n_slots`` and the position within the day), but each
    node sees its own measurement and carries its own history, so a
    heterogeneous fleet (different sites, different weather) is one
    ``(B,)`` array per call::

        kernel.reset()
        for t in range(total_boundaries):
            predictions = kernel.observe(samples[t])   # (B,) -> (B,)

    Columns are independent: node ``b`` of ``observe(values)[b]``
    depends only on ``values[b]``'s history, never on ``B`` or on the
    other nodes, bit for bit.  Every kernel-backed scalar predictor is
    the kernel's :class:`ScalarFace`, so it equals any column of a
    ``B``-node kernel exactly (``tests/management/test_fleet_parity.py``
    pins this with zero tolerance).
    """

    #: Slots per day this predictor was configured for.
    n_slots: int
    #: Number of nodes stepped per ``observe`` call (``B``).
    batch_size: int

    @abc.abstractmethod
    def reset(self) -> None:
        """Forget all history and return to the initial state."""

    @abc.abstractmethod
    def observe(self, values: np.ndarray) -> np.ndarray:
        """Consume one ``(B,)`` slot-boundary sample, return predictions.

        Parameters
        ----------
        values:
            ``(batch_size,)`` measured power at the current slot
            boundary, one entry per node (``ẽ_b(n)``).

        Returns
        -------
        numpy.ndarray
            ``(batch_size,)`` predictions for the upcoming slot
            (``ê_b(n+1)``).
        """

    def run(self, samples: np.ndarray) -> np.ndarray:
        """Feed a ``(T, B)`` sample matrix; return all predictions.

        Row ``t`` of the result is the prediction made at boundary
        ``t``.  As with :meth:`OnlinePredictor.run`, state is carried
        across calls; call :meth:`reset` for a cold start.
        """
        samples = np.asarray(samples, dtype=float)
        if samples.ndim != 2 or samples.shape[1] != self.batch_size:
            raise ValueError(
                f"samples must have shape (T, {self.batch_size}), "
                f"got {samples.shape}"
            )
        out = np.empty_like(samples)
        for t in range(samples.shape[0]):
            out[t] = self.observe(samples[t])
        return out


class ScalarFace(OnlinePredictor):
    """One node of a :class:`VectorPredictor`: the kernel at ``B == 1``.

    A predictor whose arithmetic lives in a lock-step kernel subclasses
    this and hands its ``batch_size=1`` kernel to ``__init__``; every
    observation then runs the kernel's code, so the scalar and vector
    forms cannot drift apart.  WCMA, EWMA, persistence, previous-day,
    moving-average and the learned tier are all faces.

    Checkpointing is opt-in per face: a face that can resume defines
    ``state_dict``/``load_state_dict`` itself (WCMA and EWMA keep their
    single-node layouts, the learned face delegates to its kernel).
    The others inherit :class:`OnlinePredictor`'s
    ``NotImplementedError``, which is what the serve layer checks.
    """

    def __init__(self, kernel: VectorPredictor):
        self._kernel = kernel
        self.n_slots = kernel.n_slots
        self._buf = np.zeros(1, dtype=float)

    def reset(self) -> None:
        self._kernel.reset()

    def observe(self, value: float) -> float:
        self._buf[0] = value
        return float(self._kernel.observe(self._buf)[0])


def as_batch(values, batch_size: int) -> np.ndarray:
    """Validate and coerce one slot's fleet samples to a ``(B,)`` array."""
    values = np.asarray(values, dtype=float)
    if values.shape != (batch_size,):
        raise ValueError(
            f"expected shape ({batch_size},), got {values.shape}"
        )
    if values.min() < 0:
        raise ValueError("power samples must be non-negative")
    return values


class FleetDayHistory:
    """Ring buffer of the last ``depth`` completed days of slot samples.

    Used by predictors that condition on "the same slot on previous
    days" (WCMA's ``E_{D x N}`` matrix, the moving averages, the learned
    tier's day-history features), for ``B`` nodes at once.  The buffer
    distinguishes *completed* days (full rows) from the current,
    partially observed day; ``push_slot`` appends to the current day and
    rolls it into history when the row fills up.

    Because the nodes step in lock-step, the day/slot counters are
    shared scalars; only the sample values fan out over the batch axis.
    The buffer is therefore ``(depth, n_slots, B)`` and the per-slot
    accessors return ``(B,)`` arrays.  Single-node callers hold a
    ``B == 1`` buffer and read column 0.
    """

    def __init__(self, n_slots: int, depth: int, batch_size: int):
        if n_slots <= 0:
            raise ValueError("n_slots must be positive")
        if depth <= 0:
            raise ValueError("depth must be positive")
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.n_slots = n_slots
        self.depth = depth
        self.batch_size = batch_size
        self._rows = np.zeros((depth, n_slots, batch_size), dtype=float)
        self._n_complete = 0
        self._write_row = 0
        self._current = np.zeros((n_slots, batch_size), dtype=float)
        self._slot = 0

    # ------------------------------------------------------------------
    @property
    def n_complete_days(self) -> int:
        """Number of fully observed days available (capped at ``depth``)."""
        return min(self._n_complete, self.depth)

    @property
    def total_days_completed(self) -> int:
        """Days completed since reset (uncapped; grows forever)."""
        return self._n_complete

    @property
    def current_slot(self) -> int:
        """Index of the next slot to be written on the current day."""
        return self._slot

    def push_slot(self, values: np.ndarray) -> None:
        """Record the ``(B,)`` start-of-slot samples for the current slot."""
        self._current[self._slot] = values
        self._slot += 1
        if self._slot == self.n_slots:
            self._rows[self._write_row] = self._current
            self._write_row = (self._write_row + 1) % self.depth
            self._n_complete += 1
            self._slot = 0

    def slot_mean(self, slot: int, depth: Optional[int] = None) -> np.ndarray:
        """Per-node mean of ``slot`` over the last ``depth`` complete days.

        ``μ_D(slot)`` in the paper (Eq. 2): ``(B,)``; NaN when no
        complete day is available yet.  The days are summed oldest first
        by a sequential accumulate, so a node's mean never depends on
        ``B`` (``mean`` would switch to pairwise summation for a lone
        column at depth >= 8).
        """
        use = self.n_complete_days if depth is None else min(depth, self.n_complete_days)
        if use == 0:
            return np.full(self.batch_size, np.nan)
        rows = self._recent_rows(use)[:, slot % self.n_slots, :]
        return np.add.accumulate(rows, axis=0)[-1] / use

    def slot_history(self, slot: int, depth: Optional[int] = None) -> np.ndarray:
        """Samples of ``slot`` over the last ``depth`` complete days.

        ``(use, B)``, oldest first; empty when no complete day is
        available yet.
        """
        use = self.n_complete_days if depth is None else min(depth, self.n_complete_days)
        if use == 0:
            return np.empty((0, self.batch_size), dtype=float)
        return self._recent_rows(use)[:, slot % self.n_slots, :].copy()

    def _recent_rows(self, count: int) -> np.ndarray:
        """The last ``count`` completed day rows, oldest first."""
        end = self._write_row
        idx = (np.arange(end - count, end)) % self.depth
        return self._rows[idx]

    def reset(self) -> None:
        """Clear all state."""
        self._rows.fill(0.0)
        self._current.fill(0.0)
        self._n_complete = 0
        self._write_row = 0
        self._slot = 0

    def state_dict(self) -> dict:
        """Snapshot of the fleet ring buffer (value copies, not views)."""
        return {
            "n_slots": self.n_slots,
            "depth": self.depth,
            "batch_size": self.batch_size,
            "rows": self._rows.copy(),
            "n_complete": self._n_complete,
            "write_row": self._write_row,
            "current": self._current.copy(),
            "slot": self._slot,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (geometry must match)."""
        if (
            int(state["n_slots"]) != self.n_slots
            or int(state["depth"]) != self.depth
            or int(state["batch_size"]) != self.batch_size
        ):
            raise ValueError(
                f"fleet history snapshot is {state['depth']}x{state['n_slots']}"
                f"xB{state['batch_size']}; this history is "
                f"{self.depth}x{self.n_slots}xB{self.batch_size}"
            )
        rows = np.asarray(state["rows"], dtype=float)
        current = np.asarray(state["current"], dtype=float)
        if rows.shape != self._rows.shape or current.shape != self._current.shape:
            raise ValueError(
                f"fleet history snapshot arrays have shapes {rows.shape}/"
                f"{current.shape}; expected {self._rows.shape}/"
                f"{self._current.shape}"
            )
        self._rows[...] = rows
        self._current[...] = current
        self._n_complete = int(state["n_complete"])
        self._write_row = int(state["write_row"])
        self._slot = int(state["slot"])
