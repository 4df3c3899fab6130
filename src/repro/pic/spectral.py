"""FFT-based (pseudo-spectral analytical time-domain) Maxwell solver.

Section 2 of the paper: Maxwell's equations "can be solved using FDTD
[9] or FFT-based [8] techniques."  This module implements the FFT
route: the PSATD scheme, which integrates the field equations *exactly*
in k-space over each time step (assuming the current constant across
the step).  Consequences worth having next to the FDTD solver:

* no Courant limit — any dt is stable;
* no numerical dispersion — a vacuum wave propagates at exactly c,
  which the test suite verifies to machine precision;
* E and B live at the *same* time level (no Yee time stagger).

In Gaussian units, with hats denoting spatial Fourier transforms and
``k = |k|``, the exact vacuum rotation over dt is::

    E(t+dt) = C E + i S (khat x B)       C = cos(k c dt)
    B(t+dt) = C B - i S (khat x E)       S = sin(k c dt)

with the standard particular terms for a constant current density
(transverse drive and the longitudinal/k=0 parts ``E -= 4 pi J dt``).

The solver reuses :class:`~repro.fields.grid.YeeGrid` for storage but
treats every component as co-located at the cell corner (the spatial
stagger is a second-order effect the spectral solver does not need;
interpolation continues to use the staggered sample positions, which is
consistent at the CIC order used here).
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from ..constants import SPEED_OF_LIGHT
from ..errors import SimulationError
from ..fields.grid import YeeGrid

__all__ = ["SpectralSolver"]


class SpectralSolver:
    """Advances a grid's fields with the exact k-space propagator.

    Drop-in alternative to :class:`~repro.pic.fdtd.FdtdSolver`: same
    ``step`` / ``run`` / ``time`` interface, same use of
    ``grid.currents`` as the source read every step.
    """

    def __init__(self, grid: YeeGrid, dt: float) -> None:
        if not (math.isfinite(dt) and dt > 0.0):
            raise SimulationError(
                f"dt must be positive and finite, got {dt!r}")
        self.grid = grid
        self.dt = float(dt)
        self.time = 0.0
        self._build_propagator()

    def _build_propagator(self) -> None:
        dims = self.grid.dims
        spacing = self.grid.spacing
        axes_k = [2.0 * math.pi * np.fft.fftfreq(dims[i], d=spacing[i])
                  for i in range(3)]
        kx, ky, kz = np.meshgrid(*axes_k, indexing="ij")
        k = np.sqrt(kx * kx + ky * ky + kz * kz)
        self._k = k
        safe_k = np.where(k == 0.0, 1.0, k)
        self._khat = (kx / safe_k, ky / safe_k, kz / safe_k)
        phase = k * SPEED_OF_LIGHT * self.dt
        self._cos = np.cos(phase)
        self._sin = np.sin(phase)
        # S / (k c): finite (-> dt) at k = 0.
        self._sin_over_kc = np.where(
            k == 0.0, self.dt, self._sin / (safe_k * SPEED_OF_LIGHT))
        # (1 - C) / (k c): finite (-> 0) at k = 0.
        self._one_minus_cos_over_kc = np.where(
            k == 0.0, 0.0, (1.0 - self._cos) / (safe_k * SPEED_OF_LIGHT))
        self._zero_mode = k == 0.0

    def _fft_fields(self) -> Tuple[list, list, list]:
        e = [np.fft.fftn(self.grid.fields[c]) for c in ("ex", "ey", "ez")]
        b = [np.fft.fftn(self.grid.fields[c]) for c in ("bx", "by", "bz")]
        j = [np.fft.fftn(self.grid.currents[c]) for c in ("jx", "jy", "jz")]
        return e, b, j

    @staticmethod
    def _cross(khat, vec):
        kx, ky, kz = khat
        vx, vy, vz = vec
        return (ky * vz - kz * vy, kz * vx - kx * vz, kx * vy - ky * vx)

    @staticmethod
    def _dot(khat, vec):
        return sum(h * v for h, v in zip(khat, vec))

    def step(self) -> None:
        """One exact field step of size dt (current held constant)."""
        e_hat, b_hat, j_hat = self._fft_fields()
        khat = self._khat
        cos, sin = self._cos, self._sin
        four_pi = 4.0 * math.pi

        k_cross_b = self._cross(khat, b_hat)
        k_cross_e = self._cross(khat, e_hat)
        k_cross_j = self._cross(khat, j_hat)
        k_dot_e = self._dot(khat, e_hat)
        k_dot_j = self._dot(khat, j_hat)

        new_e = []
        new_b = []
        for axis in range(3):
            e_l = khat[axis] * k_dot_e         # longitudinal E
            e_t = e_hat[axis] - e_l            # transverse E
            j_l = khat[axis] * k_dot_j
            j_t = j_hat[axis] - j_l
            # Transverse: driven rotation; longitudinal: dE/dt = -4 pi J.
            e_new = (cos * e_t
                     + 1j * sin * k_cross_b[axis]
                     - four_pi * self._sin_over_kc * j_t
                     + e_l
                     - four_pi * self.dt * j_l)
            b_new = (cos * b_hat[axis]
                     - 1j * sin * k_cross_e[axis]
                     + 1j * four_pi * self._one_minus_cos_over_kc
                     * k_cross_j[axis])
            # k = 0 mode: no rotation, uniform current decelerates E.
            e_new = np.where(self._zero_mode,
                             e_hat[axis] - four_pi * self.dt * j_hat[axis],
                             e_new)
            b_new = np.where(self._zero_mode, b_hat[axis], b_new)
            new_e.append(e_new)
            new_b.append(b_new)

        for axis, name in enumerate(("ex", "ey", "ez")):
            self.grid.fields[name][:] = np.fft.ifftn(new_e[axis]).real
        for axis, name in enumerate(("bx", "by", "bz")):
            self.grid.fields[name][:] = np.fft.ifftn(new_b[axis]).real
        self.time += self.dt

    def run(self, steps: int) -> None:
        """Advance ``steps`` steps."""
        if steps < 0:
            raise SimulationError(f"steps must be >= 0, got {steps}")
        for _ in range(steps):
            self.step()

    def divergence_b(self) -> np.ndarray:
        """Spectral div B (zero to round-off for any evolution here)."""
        b_hat = [np.fft.fftn(self.grid.fields[c])
                 for c in ("bx", "by", "bz")]
        div = 1j * self._k * self._dot(self._khat, b_hat)
        return np.fft.ifftn(div).real
