"""Energy-storage models: battery and supercapacitor.

Both expose the same small interface the node simulation drives:

* ``charge(joules) -> stored`` -- add harvested energy (after charge
  efficiency), returning how much was actually stored (overflow beyond
  capacity is wasted -- a real regulator would shunt it);
* ``discharge(joules) -> supplied`` -- draw energy for the load
  (divided by discharge efficiency), returning how much of the request
  could be supplied;
* ``leak(seconds)`` -- self-discharge over time;
* ``state_of_charge`` in [0, 1].

Every parameter and every method argument may be a scalar *or* a
``(B,)`` array: with array parameters one instance models ``B``
independent stores stepped in lock-step, which is how the fleet
simulator (:mod:`repro.management.fleet`) vectorizes a whole fleet's
storage.  :meth:`Battery.stack` builds such an instance from ``B``
scalar-configured ones, and :meth:`Supercapacitor.stack` from a mix of
supercapacitors and plain batteries.  All arithmetic is elementwise,
so the array path is bit-identical to ``B`` scalar stores.

Invariant: the stored energy never leaves ``[0, capacity]``; property
tests in ``tests/management/test_storage.py`` enforce it under random
operation sequences.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = ["Battery", "Supercapacitor"]


class Battery:
    """Rechargeable battery with round-trip efficiency and leakage.

    Parameters
    ----------
    capacity_joules:
        Usable capacity (a 2.5 Wh NiMH AA pair ~ 9000 J).
    charge_efficiency / discharge_efficiency:
        Fractions of energy surviving each direction (NiMH ~0.9/0.95).
    leakage_watts:
        Constant self-discharge power while energy remains.
    initial_soc:
        Initial state of charge in [0, 1].

    Any parameter may be a ``(B,)`` array to model ``B`` stores at once.
    """

    def __init__(
        self,
        capacity_joules=9000.0,
        charge_efficiency=0.90,
        discharge_efficiency=0.95,
        leakage_watts=10e-6,
        initial_soc=0.5,
    ):
        # Every check is an inclusion test, so a NaN fails it.
        if not np.all((0.0 < capacity_joules) & (capacity_joules < math.inf)):
            raise ValueError("capacity_joules must be positive")
        for name, value in (
            ("charge_efficiency", charge_efficiency),
            ("discharge_efficiency", discharge_efficiency),
        ):
            if not np.all((0.0 < value) & (value <= 1.0)):
                raise ValueError(f"{name} must be in (0, 1], got {value}")
        if not np.all((0.0 <= leakage_watts) & (leakage_watts < math.inf)):
            raise ValueError("leakage_watts must be finite and non-negative")
        if not np.all((0.0 <= initial_soc) & (initial_soc <= 1.0)):
            raise ValueError("initial_soc must be in [0, 1]")
        self.capacity_joules = capacity_joules
        self.charge_efficiency = charge_efficiency
        self.discharge_efficiency = discharge_efficiency
        self.leakage_watts = leakage_watts
        self._stored = initial_soc * capacity_joules

    # ------------------------------------------------------------------
    @classmethod
    def stack(cls, stores: Sequence["Battery"]) -> "Battery":
        """One array-parameterised store modelling ``len(stores)`` nodes.

        Each source store contributes its parameters and *current*
        state of charge; the sources themselves are left untouched.
        All entries must be plain (scalar-parameterised) instances of
        exactly this class.
        """
        if not stores:
            raise ValueError("stack requires at least one store")
        for store in stores:
            if type(store) is not cls:
                raise TypeError(
                    f"cannot stack {type(store).__name__} as {cls.__name__}"
                )
        stacked = cls(
            capacity_joules=np.array([s.capacity_joules for s in stores], dtype=float),
            charge_efficiency=np.array(
                [s.charge_efficiency for s in stores], dtype=float
            ),
            discharge_efficiency=np.array(
                [s.discharge_efficiency for s in stores], dtype=float
            ),
            leakage_watts=np.array([s.leakage_watts for s in stores], dtype=float),
        )
        # Copy the stored energy directly -- an soc -> joules round trip
        # would cost one ulp and break bit-parity with the sources.
        stacked._stored = np.array([s._stored for s in stores], dtype=float)
        return stacked

    # ------------------------------------------------------------------
    @property
    def stored_joules(self):
        """Energy currently stored (scalar or ``(B,)``)."""
        return self._stored

    @property
    def state_of_charge(self):
        """Stored energy as a fraction of capacity (scalar or ``(B,)``)."""
        return self._stored / self.capacity_joules

    @property
    def is_depleted(self):
        """True when no energy remains (elementwise for arrays)."""
        return self._stored <= 0.0

    def charge(self, joules):
        """Store harvested energy; returns the amount actually stored."""
        if (np.asarray(joules) < 0).any():
            raise ValueError("charge amount must be non-negative")
        return self._charge(joules)

    def _charge(self, joules):
        """:meth:`charge` unchecked: the fleet checks its harvest once per run."""
        incoming = joules * self.charge_efficiency
        room = self.capacity_joules - self._stored
        stored = np.minimum(incoming, room)
        self._stored = self._stored + stored
        return stored

    def discharge(self, joules):
        """Draw energy for the load; returns the amount supplied.

        The store loses ``supplied / discharge_efficiency``; if less
        energy remains than requested, everything left is supplied.
        """
        if (np.asarray(joules) < 0).any():
            raise ValueError("discharge amount must be non-negative")
        return self._discharge(joules)

    def _discharge(self, joules):
        """:meth:`discharge` unchecked: fleet requests are non-negative by construction."""
        drawn_from_store = joules / self.discharge_efficiency
        covered = drawn_from_store <= self._stored
        supplied = np.where(covered, joules, self._stored * self.discharge_efficiency)
        self._stored = np.where(covered, self._stored - drawn_from_store, 0.0)
        if supplied.ndim == 0:
            self._stored = float(self._stored)
            return float(supplied)
        return supplied

    def leak(self, seconds: float):
        """Apply self-discharge over ``seconds``; returns energy lost."""
        if seconds < 0:
            raise ValueError("seconds must be non-negative")
        loss = np.minimum(self._stored, self.leakage_watts * seconds)
        self._stored = self._stored - loss
        return loss


class Supercapacitor(Battery):
    """Supercapacitor: higher round-trip efficiency, SoC-dependent leakage.

    Supercap self-discharge grows with the stored voltage; modelled as a
    leakage power proportional to the state of charge, on top of the
    constant ``leakage_watts`` (zero as constructed).
    """

    def __init__(
        self,
        capacity_joules=400.0,
        charge_efficiency=0.98,
        discharge_efficiency=0.98,
        leakage_watts_full=200e-6,
        initial_soc=0.5,
    ):
        super().__init__(
            capacity_joules=capacity_joules,
            charge_efficiency=charge_efficiency,
            discharge_efficiency=discharge_efficiency,
            leakage_watts=0.0,
            initial_soc=initial_soc,
        )
        if not np.all((0.0 <= leakage_watts_full) & (leakage_watts_full < math.inf)):
            raise ValueError("leakage_watts_full must be finite and non-negative")
        self.leakage_watts_full = leakage_watts_full

    @classmethod
    def stack(cls, stores: Sequence[Battery]) -> "Supercapacitor":
        """One array store for ``len(stores)`` supercapacitors and batteries.

        A plain :class:`Battery` stacks in with no SoC-dependent leakage
        and its own constant ``leakage_watts`` (a supercapacitor's is
        zero), so :meth:`leak` applies each store's law bit for bit and
        a mixed fleet steps one store array instead of two.
        """
        if not stores:
            raise ValueError("stack requires at least one store")
        for store in stores:
            if type(store) not in (Battery, cls):
                raise TypeError(
                    f"cannot stack {type(store).__name__} as {cls.__name__}"
                )
        stacked = cls(
            capacity_joules=np.array([s.capacity_joules for s in stores], dtype=float),
            charge_efficiency=np.array(
                [s.charge_efficiency for s in stores], dtype=float
            ),
            discharge_efficiency=np.array(
                [s.discharge_efficiency for s in stores], dtype=float
            ),
            leakage_watts_full=np.array(
                [getattr(s, "leakage_watts_full", 0.0) for s in stores], dtype=float
            ),
        )
        stacked.leakage_watts = np.array([s.leakage_watts for s in stores], dtype=float)
        stacked._stored = np.array([s._stored for s in stores], dtype=float)
        return stacked

    def leak(self, seconds: float):
        if seconds < 0:
            raise ValueError("seconds must be non-negative")
        # Exact for both laws: 0 + x == x and x + 0 * soc == x.
        loss = np.minimum(
            self._stored,
            (self.leakage_watts + self.leakage_watts_full * self.state_of_charge)
            * seconds,
        )
        self._stored = self._stored - loss
        return loss
