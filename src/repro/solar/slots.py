"""Slot decomposition of a trace (Fig. 4 of the paper).

For energy management the day is discretised into ``N`` equal slots.
Two per-slot quantities matter:

* the **start-of-slot sample** ``e(i, j)`` -- the single power value the
  node actually measures when it wakes at the slot boundary; this is the
  only input the prediction algorithm sees, and
* the **slot mean power** ``e_bar(i, j)`` -- average of the ``M`` native
  samples inside the slot, which determines the energy actually received
  (``e_bar * T``) and is the reference for the paper's preferred error
  definition (Eq. 7).

:class:`SlotView` computes both as ``(n_days, N)`` matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.solar.io import excerpt
from repro.solar.trace import SolarTrace

__all__ = ["SlotView", "check_n_slots", "slot_starts", "slot_means", "SUPPORTED_N"]

#: Values of N evaluated in the paper (Table III).
SUPPORTED_N = (288, 96, 72, 48, 24)


def check_n_slots(n_slots: int, samples_per_day: int, subject: str) -> None:
    """Refuse an ``N`` that does not split a day's samples into whole slots.

    ``subject`` names whose samples they are -- ``"site HSU"``,
    ``"trace 'HSU'"`` -- and ends the message; it is clipped like any
    other echo of file text, since a trace's name comes from its file.

    Raises
    ------
    ValueError
        If ``n_slots`` is not positive or does not divide
        ``samples_per_day``.
    """
    if n_slots <= 0 or samples_per_day % n_slots:
        raise ValueError(
            f"N={n_slots} does not divide samples per day "
            f"({samples_per_day}) of {excerpt(subject)}"
        )


@dataclass(frozen=True)
class SlotView:
    """Start-of-slot samples and slot means of a trace for a given ``N``.

    Attributes
    ----------
    trace:
        The underlying native-resolution trace.
    n_slots:
        Slots per day (``N`` in the paper).
    starts:
        ``(n_days, N)`` power at each slot boundary, ``e(i, j)``.
    means:
        ``(n_days, N)`` mean power over each slot, ``e_bar(i, j)``.
    """

    trace: SolarTrace
    n_slots: int
    starts: np.ndarray
    means: np.ndarray

    @classmethod
    def from_trace(cls, trace: SolarTrace, n_slots: int) -> "SlotView":
        """Build the slot view; ``n_slots`` must divide samples/day.

        Raises
        ------
        ValueError
            If ``n_slots`` does not divide the native samples per day —
            e.g. N=288 is undefined for a 5-minute trace with 288
            samples/day only when asked for more slots than samples (the
            paper's footnote about SPMD/ECSU corresponds to N=288 with
            5-minute data giving exactly one sample per slot, which *is*
            allowed; what is not allowed is N > samples_per_day).
        """
        if n_slots <= 0:
            raise ValueError("n_slots must be positive")
        spd = trace.samples_per_day
        check_n_slots(n_slots, spd, f"trace {trace.name!r}")
        samples_per_slot = spd // n_slots
        days = trace.as_days()
        shaped = days.reshape(trace.n_days, n_slots, samples_per_slot)
        starts = shaped[:, :, 0].copy()
        means = shaped.mean(axis=2)
        return cls(trace=trace, n_slots=n_slots, starts=starts, means=means)

    @property
    def samples_per_slot(self) -> int:
        """``M`` in Fig. 4: native samples inside each slot."""
        return self.trace.samples_per_day // self.n_slots

    @property
    def slot_duration_hours(self) -> float:
        """Slot length ``T`` in hours (the prediction horizon)."""
        return 24.0 / self.n_slots

    @property
    def n_days(self) -> int:
        """Number of days covered."""
        return self.trace.n_days

    def slot_energy(self) -> np.ndarray:
        """Energy received per slot (``e_bar * T``), W*h per unit area."""
        return self.means * self.slot_duration_hours

    def flat_starts(self) -> np.ndarray:
        """Start samples flattened to time order, shape ``(days*N,)``."""
        return self.starts.reshape(-1)

    def flat_means(self) -> np.ndarray:
        """Slot means flattened to time order, shape ``(days*N,)``."""
        return self.means.reshape(-1)


def slot_starts(trace: SolarTrace, n_slots: int) -> np.ndarray:
    """Shorthand for ``SlotView.from_trace(trace, n).starts``."""
    return SlotView.from_trace(trace, n_slots).starts


def slot_means(trace: SolarTrace, n_slots: int) -> np.ndarray:
    """Shorthand for ``SlotView.from_trace(trace, n).means``."""
    return SlotView.from_trace(trace, n_slots).means
