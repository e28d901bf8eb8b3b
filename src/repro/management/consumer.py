"""Duty-cycled application load model.

The embedded application of Fig. 1 is modelled the way the
energy-management papers this work supports do ([2], [3]): the node is
*active* (sensing + radio) for a controllable fraction of each slot and
asleep otherwise.  The controller's knob is the duty cycle.

As with the storage models, every attribute and every method argument
may be a scalar or a ``(B,)`` array; :meth:`DutyCycledLoad.stack` merges
``B`` scalar-configured loads into one array-parameterised instance for
the fleet simulator.  All arithmetic is elementwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["DutyCycledLoad"]


@dataclass(frozen=True)
class DutyCycledLoad:
    """Two-state (active/sleep) load with a continuous duty knob.

    Attributes
    ----------
    active_power_watts:
        Draw while performing the application task (sense + TX,
        ~60 mW for a mote-class node).
    sleep_power_watts:
        Draw while idle (everything but the wake timer off).
    min_duty / max_duty:
        Application-imposed bounds on the duty cycle: ``min_duty``
        encodes the minimum service the deployment tolerates,
        ``max_duty`` the most useful work it can do.
    """

    active_power_watts: float = 60e-3
    sleep_power_watts: float = 30e-6
    min_duty: float = 0.02
    max_duty: float = 1.0

    def __post_init__(self):
        # Every check is an inclusion test, so a NaN fails it.
        active, sleep = self.active_power_watts, self.sleep_power_watts
        if not np.all((0.0 < active) & (active < math.inf)):
            raise ValueError("active_power_watts must be finite and positive")
        if not np.all((0.0 <= sleep) & (sleep < math.inf)):
            raise ValueError("sleep_power_watts must be finite and non-negative")
        if not np.all(sleep < active):
            raise ValueError("active power must exceed sleep power")
        min_duty, max_duty = self.min_duty, self.max_duty
        if not np.all((0.0 <= min_duty) & (min_duty <= max_duty) & (max_duty <= 1.0)):
            raise ValueError("require 0 <= min_duty <= max_duty <= 1")

    @classmethod
    def stack(cls, loads: Sequence["DutyCycledLoad"]) -> "DutyCycledLoad":
        """One array-parameterised load modelling ``len(loads)`` nodes."""
        if not loads:
            raise ValueError("stack requires at least one load")
        return cls(
            active_power_watts=np.array(
                [load.active_power_watts for load in loads], dtype=float
            ),
            sleep_power_watts=np.array(
                [load.sleep_power_watts for load in loads], dtype=float
            ),
            min_duty=np.array([load.min_duty for load in loads], dtype=float),
            max_duty=np.array([load.max_duty for load in loads], dtype=float),
        )

    def clamp(self, duty):
        """Clamp a requested duty cycle to the allowed range."""
        return np.maximum(self.min_duty, np.minimum(self.max_duty, duty))

    def power(self, duty):
        """Average power (W) at a duty cycle (after clamping)."""
        duty = self.clamp(duty)
        return duty * self.active_power_watts + (1.0 - duty) * self.sleep_power_watts

    def energy(self, duty, seconds: float):
        """Energy (J) consumed over ``seconds`` at a duty cycle."""
        if seconds < 0:
            raise ValueError("seconds must be non-negative")
        return self.power(duty) * seconds

    def duty_for_power(self, watts):
        """Duty cycle whose average power equals ``watts`` (clamped).

        Inverse of :meth:`power`; the controllers use it to convert an
        energy budget into a duty-cycle setting.
        """
        if (np.asarray(watts) < 0).any():
            raise ValueError("watts must be non-negative")
        span = self.active_power_watts - self.sleep_power_watts
        duty = (watts - self.sleep_power_watts) / span
        return self.clamp(duty)
