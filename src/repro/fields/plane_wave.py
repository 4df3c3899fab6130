"""A linearly polarised travelling plane wave."""

from __future__ import annotations

import numpy as np

from ..constants import SPEED_OF_LIGHT
from ..errors import ConfigurationError
from .base import FieldSource, FieldValues

__all__ = ["PlaneWave"]


class PlaneWave(FieldSource):
    """Travelling plane wave along +x, E along y, B along z.

    ``E_y = B_z = a cos(k x - omega t + phase)`` — an exact vacuum
    solution of Maxwell's equations.
    """

    flops_per_evaluation = 12

    def __init__(self, amplitude: float, omega: float, phase: float = 0.0) -> None:
        if omega <= 0.0:
            raise ConfigurationError(f"omega must be positive, got {omega!r}")
        self.amplitude = float(amplitude)
        self.omega = float(omega)
        self.phase = float(phase)

    @property
    def wavenumber(self) -> float:
        """``k = omega / c`` [1/cm]."""
        return self.omega / SPEED_OF_LIGHT

    def evaluate(self, x: np.ndarray, y: np.ndarray, z: np.ndarray,
                 t: float) -> FieldValues:
        xv = np.asarray(x, dtype=np.float64)
        wave = self.amplitude * np.cos(self.wavenumber * xv - self.omega * t
                                       + self.phase)
        zero = np.zeros_like(xv)
        return FieldValues(zero, wave, zero.copy(),
                           zero.copy(), zero.copy(), wave.copy())

