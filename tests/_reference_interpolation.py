"""Slow reference for the grid-to-particle gather.

``repro.fields.interpolation`` computes each axis's two distinct Yee
stencils once and reads the field through one flat ``take`` per
stencil point.  This module keeps the per-component loops it replaced:
three ``shape_weights`` calls and a 3-D fancy index for each of the
six components, so tests can check that the shared-stencil gather
reproduces them bit for bit.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.fields.base import FieldValues
from repro.fields.grid import YeeGrid, YEE_STAGGER
from repro.fields.interpolation import Shape, shape_weights

__all__ = ["interpolate_component", "interpolate_from_yee_grid"]


def interpolate_component(values: np.ndarray,
                          positions: np.ndarray,
                          origin: Tuple[float, float, float],
                          spacing: Tuple[float, float, float],
                          stagger: Tuple[float, float, float] = (0.0, 0.0, 0.0),
                          shape: Shape = Shape.CIC) -> np.ndarray:
    """Interpolate one gridded scalar to particle positions (periodic)."""
    pos = np.asarray(positions, dtype=np.float64)
    dims = values.shape
    result = np.zeros(pos.shape[0])

    stencils = []
    for axis in range(3):
        frac = (pos[:, axis] - origin[axis]) / spacing[axis] - stagger[axis]
        idx, wgt = shape_weights(shape, frac)
        stencils.append((np.mod(idx, dims[axis]), wgt))

    (ix, wx), (iy, wy), (iz, wz) = stencils
    for a in range(ix.shape[1]):
        for b in range(iy.shape[1]):
            for c in range(iz.shape[1]):
                weight = wx[:, a] * wy[:, b] * wz[:, c]
                result += weight * values[ix[:, a], iy[:, b], iz[:, c]]
    return result


def interpolate_from_yee_grid(grid: YeeGrid, positions: np.ndarray,
                              shape: Shape = Shape.CIC) -> FieldValues:
    """Interpolate all six Yee components, one component at a time."""
    components = {}
    for name, stagger in YEE_STAGGER.items():
        components[name] = interpolate_component(
            grid.component(name), positions, grid.origin, grid.spacing,
            stagger=stagger, shape=shape)
    return FieldValues(**components)
