"""Photovoltaic harvester model: irradiance to electrical power.

A small sensor-node panel is modelled as a constant-efficiency
converter with a conditioning (MPPT / regulator) efficiency on top --
the level of detail the energy-management literature this paper builds
on ([2], [5]) uses.  Irradiance traces are per unit area, so the
harvested power is::

    P_elec = GHI * area * panel_efficiency * conditioning_efficiency
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["PVHarvester"]


@dataclass(frozen=True)
class PVHarvester:
    """Constant-efficiency PV panel + power-conditioning model.

    Attributes
    ----------
    area_m2:
        Panel area; sensor nodes carry a few tens of cm^2 (default
        50 cm^2).
    panel_efficiency:
        Photovoltaic conversion efficiency (mono-Si small panel ~0.15).
    conditioning_efficiency:
        Regulator/MPPT efficiency (Fig. 1's power conditioning
        subsystem, ~0.85).
    """

    area_m2: float = 50e-4
    panel_efficiency: float = 0.15
    conditioning_efficiency: float = 0.85

    def __post_init__(self):
        if not 0.0 < self.area_m2 < math.inf:
            raise ValueError("area_m2 must be finite and positive")
        for name in ("panel_efficiency", "conditioning_efficiency"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {value}")

    @property
    def gain(self) -> float:
        """W of electrical output per W/m^2 of irradiance."""
        return self.area_m2 * self.panel_efficiency * self.conditioning_efficiency

    def power(self, irradiance_wm2):
        """Electrical power (W) for irradiance (W/m^2; scalar or array)."""
        irradiance = np.asarray(irradiance_wm2, dtype=float)
        if (irradiance < 0).any():
            raise ValueError("irradiance must be non-negative")
        result = irradiance * self.gain
        return float(result) if result.ndim == 0 else result

    def energy(self, irradiance_wm2, seconds: float):
        """Energy (J) harvested at constant irradiance for ``seconds``.

        Scalar irradiance gives a float; a ``(B,)`` array gives per-node
        energies.
        """
        if seconds < 0:
            raise ValueError("seconds must be non-negative")
        result = np.asarray(self.power(irradiance_wm2)) * seconds
        return float(result) if result.ndim == 0 else result

    @staticmethod
    def stack_gains(harvesters) -> np.ndarray:
        """Per-node ``gain`` array for a sequence of harvesters."""
        return np.array([h.gain for h in harvesters], dtype=float)
