"""Duty-cycle controllers (the "intelligent controller" of Fig. 1).

Each controller maps (predicted incoming power, storage state) to a
duty-cycle request once per slot:

* :class:`FixedDutyController` -- no adaptation; the baseline that
  motivates harvested-energy management.
* :class:`KansalController` -- energy-neutral adaptation in the spirit
  of Kansal et al. [2]: spend what the predictor says is coming, plus a
  proportional correction steering the store toward a target state of
  charge.
* :class:`MinimumVarianceController` -- Noh et al. [4]-style: aim for
  the *smoothest* duty cycle consistent with energy neutrality, using a
  slowly adapting daily-average budget rather than chasing every slot's
  prediction.
* :class:`OracleController` -- Kansal update driven by the *true*
  upcoming slot power; upper-bounds what better prediction can buy.

The node simulation (:mod:`repro.management.node`) wires these to a
predictor and a solar trace; ``benchmarks/test_bench_node_management.py``
quantifies how prediction accuracy propagates to duty stability --
the system-level motivation the paper's introduction gives for caring
about MAPE at all.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.management.consumer import DutyCycledLoad

__all__ = [
    "Controller",
    "FixedDutyController",
    "KansalController",
    "MinimumVarianceController",
    "OracleController",
]


class Controller(abc.ABC):
    """Per-slot duty-cycle policy.

    The four built-in controllers are fully elementwise: parameters and
    ``decide`` arguments may be scalars or ``(B,)`` arrays, and
    :meth:`stack` merges ``B`` scalar-configured controllers into one
    array-parameterised instance (the fleet simulator's fast path).
    """

    @abc.abstractmethod
    def decide(self, predicted_watts: float, state_of_charge: float) -> float:
        """Duty-cycle request for the upcoming slot.

        Parameters
        ----------
        predicted_watts:
            Predicted *electrical* harvest power over the upcoming slot.
        state_of_charge:
            Storage state of charge in [0, 1] at the slot boundary.
        """

    def reset(self) -> None:
        """Clear internal state (default: stateless)."""

    def feedback(self, harvest_watts: float) -> None:
        """Receive the just-finished slot's realized harvest power.

        Called by the node simulation after each slot; the default
        ignores it.  Planning controllers override this to learn the
        daily harvest profile.
        """


def _check_soc_steering(capacity_joules, target_soc, correction_gain, horizon_seconds):
    """Validate the state-of-charge correction terms of the Kansal and
    minimum-variance controllers (scalars or ``(B,)`` arrays).

    Every check is an inclusion test, so a NaN fails it.
    """
    if not np.all((0.0 < capacity_joules) & (capacity_joules < math.inf)):
        raise ValueError("capacity_joules must be positive")
    if not np.all((0.0 <= target_soc) & (target_soc <= 1.0)):
        raise ValueError("target_soc must be in [0, 1]")
    if not np.all((0.0 <= correction_gain) & (correction_gain < math.inf)):
        raise ValueError("correction_gain must be finite and non-negative")
    if not np.all((0.0 < horizon_seconds) & (horizon_seconds < math.inf)):
        raise ValueError("horizon_seconds must be finite and positive")


@dataclass
class FixedDutyController(Controller):
    """Constant duty cycle, oblivious to energy conditions."""

    duty: float = 0.2

    def __post_init__(self):
        if not np.all((0.0 <= self.duty) & (self.duty <= 1.0)):
            raise ValueError("duty must be in [0, 1]")

    @classmethod
    def stack(cls, controllers: Sequence["FixedDutyController"]) -> "FixedDutyController":
        """One array-parameterised controller for ``len(controllers)`` nodes."""
        return cls(duty=np.array([c.duty for c in controllers], dtype=float))

    def decide(self, predicted_watts: float, state_of_charge: float) -> float:
        return self.duty


class KansalController(Controller):
    """Energy-neutral duty-cycle adaptation (Kansal et al. [2]).

    Budget for the next slot = predicted harvest power + a proportional
    term steering the state of charge toward ``target_soc``::

        budget = prediction + gain * (soc - target) * capacity / horizon

    Parameters
    ----------
    load:
        The duty-cycled load (for the power<->duty conversion).
    capacity_joules:
        Storage capacity, for scaling the SoC correction.
    target_soc:
        Desired operating state of charge.
    correction_gain:
        Strength of the SoC correction (1.0 = close the SoC gap over
        one ``horizon_seconds``).
    horizon_seconds:
        Time constant of the SoC correction (default one day).
    """

    def __init__(
        self,
        load: DutyCycledLoad,
        capacity_joules: float,
        target_soc: float = 0.6,
        correction_gain: float = 1.0,
        horizon_seconds: float = 86_400.0,
    ):
        _check_soc_steering(
            capacity_joules, target_soc, correction_gain, horizon_seconds
        )
        self.load = load
        self.capacity_joules = capacity_joules
        self.target_soc = target_soc
        self.correction_gain = correction_gain
        self.horizon_seconds = horizon_seconds

    @classmethod
    def stack(cls, controllers: Sequence["KansalController"]) -> "KansalController":
        """One array-parameterised controller for ``len(controllers)`` nodes."""
        return cls(
            load=DutyCycledLoad.stack([c.load for c in controllers]),
            capacity_joules=np.array(
                [c.capacity_joules for c in controllers], dtype=float
            ),
            target_soc=np.array([c.target_soc for c in controllers], dtype=float),
            correction_gain=np.array(
                [c.correction_gain for c in controllers], dtype=float
            ),
            horizon_seconds=np.array(
                [c.horizon_seconds for c in controllers], dtype=float
            ),
        )

    def decide(self, predicted_watts: float, state_of_charge: float) -> float:
        if (np.asarray(predicted_watts) < 0).any():
            raise ValueError("predicted_watts must be non-negative")
        correction = (
            self.correction_gain
            * (state_of_charge - self.target_soc)
            * self.capacity_joules
            / self.horizon_seconds
        )
        budget = np.maximum(0.0, predicted_watts + correction)
        return self.load.duty_for_power(budget)


class MinimumVarianceController(Controller):
    """Smooth-duty allocation in the spirit of Noh et al. [4].

    Tracks an exponentially weighted average of the harvest power
    (fed by the predictor, so prediction errors still matter) and
    budgets that average constantly, with a gentle SoC correction.
    The result is a much lower duty variance than slot-chasing, at the
    cost of slower reaction to weather changes.
    """

    def __init__(
        self,
        load: DutyCycledLoad,
        capacity_joules: float,
        target_soc: float = 0.6,
        smoothing: float = 0.02,
        correction_gain: float = 0.5,
        horizon_seconds: float = 86_400.0,
    ):
        _check_soc_steering(
            capacity_joules, target_soc, correction_gain, horizon_seconds
        )
        if not np.all((0.0 < smoothing) & (smoothing <= 1.0)):
            raise ValueError("smoothing must be in (0, 1]")
        self.load = load
        self.capacity_joules = capacity_joules
        self.target_soc = target_soc
        self.smoothing = smoothing
        self.correction_gain = correction_gain
        self.horizon_seconds = horizon_seconds
        self._average_watts = None

    @classmethod
    def stack(
        cls, controllers: Sequence["MinimumVarianceController"]
    ) -> "MinimumVarianceController":
        """One array-parameterised controller for ``len(controllers)`` nodes."""
        return cls(
            load=DutyCycledLoad.stack([c.load for c in controllers]),
            capacity_joules=np.array(
                [c.capacity_joules for c in controllers], dtype=float
            ),
            target_soc=np.array([c.target_soc for c in controllers], dtype=float),
            smoothing=np.array([c.smoothing for c in controllers], dtype=float),
            correction_gain=np.array(
                [c.correction_gain for c in controllers], dtype=float
            ),
            horizon_seconds=np.array(
                [c.horizon_seconds for c in controllers], dtype=float
            ),
        )

    def reset(self) -> None:
        self._average_watts = None

    def decide(self, predicted_watts: float, state_of_charge: float) -> float:
        if (np.asarray(predicted_watts) < 0).any():
            raise ValueError("predicted_watts must be non-negative")
        if self._average_watts is None:
            # `+ 0.0` copies an array argument so later in-place updates
            # never alias the caller's buffer.
            self._average_watts = predicted_watts + 0.0
        else:
            self._average_watts += self.smoothing * (
                predicted_watts - self._average_watts
            )
        correction = (
            self.correction_gain
            * (state_of_charge - self.target_soc)
            * self.capacity_joules
            / self.horizon_seconds
        )
        budget = np.maximum(0.0, self._average_watts + correction)
        return self.load.duty_for_power(budget)


class OracleController(KansalController):
    """Kansal controller fed the *true* upcoming slot power.

    The node simulation passes it the realized slot mean instead of a
    prediction, bounding the benefit of a perfect predictor.
    """
