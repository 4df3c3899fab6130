"""Slow reference for the deposition scatter-adds.

``repro.pic.deposition`` scatters each target with one
``np.bincount`` seeded with the target, which sums every cell in the
same order as sequential ``np.add.at`` calls.  This module keeps the
original per-window-point ``np.add.at`` loops it replaced, so tests
can check that the bincount scatter reproduces them bit for bit.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import SimulationError
from repro.fields.grid import YeeGrid
from repro.fields.interpolation import Shape, cell_fractions, shape_weights
from repro.particles.ensemble import ParticleEnsemble
from repro.pic.deposition import (_check_accumulator, _shape_on_window,
                                  _window_parameters, charge_weight)

__all__ = ["deposit_scalar", "deposit_current_esirkepov"]


def deposit_scalar(target: np.ndarray, frac: np.ndarray,
                   values: np.ndarray, dims,
                   staggers: Tuple[float, float, float],
                   shape: Shape) -> None:
    """Scatter ``values`` onto ``target`` with the given form factor."""
    _check_accumulator(target)
    stencils = []
    for axis in range(3):
        idx, wgt = shape_weights(shape, frac[:, axis] - staggers[axis])
        stencils.append((np.mod(idx, dims[axis]), wgt))
    (ix, wx), (iy, wy), (iz, wz) = stencils
    for a in range(ix.shape[1]):
        for b in range(iy.shape[1]):
            for c in range(iz.shape[1]):
                weight = wx[:, a] * wy[:, b] * wz[:, c]
                np.add.at(target, (ix[:, a], iy[:, b], iz[:, c]),
                          values * weight)


def deposit_current_esirkepov(grid: YeeGrid, ensemble: ParticleEnsemble,
                              old_positions: np.ndarray,
                              dt: float,
                              shape: Shape = Shape.CIC) -> None:
    """Charge-conserving current deposition (Esirkepov), add.at form."""
    if dt <= 0.0:
        raise SimulationError(f"dt must be positive, got {dt!r}")
    new_pos = ensemble.positions()
    old = np.asarray(old_positions, dtype=np.float64)
    if old.shape != new_pos.shape:
        raise SimulationError(
            f"old_positions shape {old.shape} does not match ensemble "
            f"({new_pos.shape})")
    f0 = cell_fractions(old, grid.origin, grid.spacing)
    f1 = cell_fractions(new_pos, grid.origin, grid.spacing)
    if np.any(np.abs(f1 - f0) >= 1.0):
        raise SimulationError(
            "a particle moved a full cell or more in one step; "
            "Esirkepov deposition requires sub-cell motion (reduce dt)")

    margin, width = _window_parameters(shape)
    dims = grid.dims
    qw = charge_weight(ensemble)
    if shape is Shape.CIC:
        base = [np.floor(f0[:, a]).astype(np.int64) for a in range(3)]
    else:
        base = [np.round(f0[:, a]).astype(np.int64) for a in range(3)]
    s0 = [_shape_on_window(f0[:, a], base[a], shape, margin, width)
          for a in range(3)]
    s1 = [_shape_on_window(f1[:, a], base[a], shape, margin, width)
          for a in range(3)]
    ds = [s1[a] - s0[a] for a in range(3)]

    # Esirkepov density-decomposition weights, shape (w, w, w, N).
    def w_factor(a: int, b: int, c: int) -> np.ndarray:
        """W along axis ``a`` with transverse axes ``b`` and ``c``."""
        return ds[a][:, None, None, :] * (
            s0[b][None, :, None, :] * s0[c][None, None, :, :]
            + 0.5 * ds[b][None, :, None, :] * s0[c][None, None, :, :]
            + 0.5 * s0[b][None, :, None, :] * ds[c][None, None, :, :]
            + ds[b][None, :, None, :] * ds[c][None, None, :, :] / 3.0)

    # J_a(i+1/2) = J_a(i-1/2) - (q w d_a / (V dt)) W_a  =>  cumulative sum.
    cell_volume = grid.cell_volume
    spacing = grid.spacing
    names = ("jx", "jy", "jz")
    for name in names:
        _check_accumulator(grid.currents[name])
    # Transverse axis order per component keeps the (l, m, n) index
    # meaning (a-axis, b-axis, c-axis).
    transverse = {0: (1, 2), 1: (0, 2), 2: (0, 1)}
    offsets = np.arange(width) - margin
    for a in range(3):
        b, c = transverse[a]
        w = w_factor(a, b, c)
        flux = -np.cumsum(w, axis=0) * (qw * spacing[a]
                                        / (cell_volume * dt))[None, None, None, :]
        target = grid.currents[names[a]]
        # Map the (l, m, n) window onto grid axes: l runs along axis a,
        # m along axis b, n along axis c.
        for li, l_off in enumerate(offsets):
            ga = np.mod(base[a] + l_off, dims[a])
            for mi, m_off in enumerate(offsets):
                gb = np.mod(base[b] + m_off, dims[b])
                for ni, n_off in enumerate(offsets):
                    gc = np.mod(base[c] + n_off, dims[c])
                    index = [None, None, None]
                    index[a] = ga
                    index[b] = gb
                    index[c] = gc
                    np.add.at(target, tuple(index), flux[li, mi, ni, :])
