"""FDTD Maxwell solver on the Yee grid (eqs. 1-2 of the paper).

Gaussian units::

    dE/dt =  c curl B - 4 pi J
    dB/dt = -c curl E

Standard staggered leapfrog with the magnetic field split into two half
steps around the electric update, so E lives at integer time levels and
B is time-centred for the particle push:

    B^(n+1/2) = B^n       - (c dt / 2) curl E^n
    E^(n+1)   = E^n       +  c dt      curl B^(n+1/2) - 4 pi dt J^(n+1/2)
    B^(n+1)   = B^(n+1/2) - (c dt / 2) curl E^(n+1)

Boundaries are periodic (``numpy.roll``), matching the deposition and
interpolation modules.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from ..constants import SPEED_OF_LIGHT
from ..errors import SimulationError
from ..fields.grid import YeeGrid

__all__ = ["max_stable_dt", "FdtdSolver"]


def max_stable_dt(spacing: Tuple[float, float, float],
                  safety: float = 0.99) -> float:
    """Largest stable FDTD step: ``dt <= 1 / (c sqrt(sum 1/dx_i^2))``."""
    if not 0.0 < safety <= 1.0:
        raise SimulationError(f"safety must be in (0, 1], got {safety!r}")
    inv2 = sum(1.0 / (s * s) for s in spacing)
    return safety / (SPEED_OF_LIGHT * math.sqrt(inv2))


def _curl_e(grid: YeeGrid) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """curl E evaluated at the B component positions (forward differences)."""
    ex, ey, ez = (grid.fields[c] for c in ("ex", "ey", "ez"))
    dx, dy, dz = grid.spacing
    d_roll = lambda a, axis: np.roll(a, -1, axis=axis) - a
    curl_x = d_roll(ez, 1) / dy - d_roll(ey, 2) / dz
    curl_y = d_roll(ex, 2) / dz - d_roll(ez, 0) / dx
    curl_z = d_roll(ey, 0) / dx - d_roll(ex, 1) / dy
    return curl_x, curl_y, curl_z


def _curl_b(grid: YeeGrid) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """curl B evaluated at the E component positions (backward differences)."""
    bx, by, bz = (grid.fields[c] for c in ("bx", "by", "bz"))
    dx, dy, dz = grid.spacing
    d_roll = lambda a, axis: a - np.roll(a, 1, axis=axis)
    curl_x = d_roll(bz, 1) / dy - d_roll(by, 2) / dz
    curl_y = d_roll(bx, 2) / dz - d_roll(bz, 0) / dx
    curl_z = d_roll(by, 0) / dx - d_roll(bx, 1) / dy
    return curl_x, curl_y, curl_z


class FdtdSolver:
    """Advances a :class:`~repro.fields.grid.YeeGrid` in time.

    The solver validates the CFL condition at construction and tracks
    the simulation time.  Current densities are read from
    ``grid.currents`` at each electric update (zero them or deposit
    into them between steps).
    """

    def __init__(self, grid: YeeGrid, dt: float) -> None:
        limit = max_stable_dt(grid.spacing, safety=1.0)
        if not (math.isfinite(dt) and dt > 0.0):
            raise SimulationError(
                f"dt must be positive and finite, got {dt!r}")
        if dt > limit:
            raise SimulationError(
                f"dt = {dt:.4g} violates the CFL limit {limit:.4g} "
                f"for spacing {grid.spacing}")
        self.grid = grid
        self.dt = float(dt)
        self.time = 0.0

    def advance_b_half(self) -> None:
        """Half magnetic step: ``B -= (c dt / 2) curl E``."""
        factor = 0.5 * SPEED_OF_LIGHT * self.dt
        cx, cy, cz = _curl_e(self.grid)
        self.grid.fields["bx"] -= factor * cx
        self.grid.fields["by"] -= factor * cy
        self.grid.fields["bz"] -= factor * cz

    def advance_e_full(self) -> None:
        """Full electric step: ``E += c dt curl B - 4 pi dt J``."""
        factor = SPEED_OF_LIGHT * self.dt
        j_factor = 4.0 * math.pi * self.dt
        cx, cy, cz = _curl_b(self.grid)
        self.grid.fields["ex"] += factor * cx - j_factor * self.grid.currents["jx"]
        self.grid.fields["ey"] += factor * cy - j_factor * self.grid.currents["jy"]
        self.grid.fields["ez"] += factor * cz - j_factor * self.grid.currents["jz"]

    def step(self) -> None:
        """One full leapfrog step (B half, E full, B half)."""
        self.advance_b_half()
        self.advance_e_full()
        self.advance_b_half()
        self.time += self.dt

    def run(self, steps: int) -> None:
        """Advance ``steps`` full steps."""
        if steps < 0:
            raise SimulationError(f"steps must be >= 0, got {steps}")
        for _ in range(steps):
            self.step()

    def divergence_b(self) -> np.ndarray:
        """Discrete div B at cell centres — conserved exactly by the scheme."""
        grid = self.grid
        dx, dy, dz = grid.spacing
        d_roll = lambda a, axis: np.roll(a, -1, axis=axis) - a
        return (d_roll(grid.fields["bx"], 0) / dx
                + d_roll(grid.fields["by"], 1) / dy
                + d_roll(grid.fields["bz"], 2) / dz)
