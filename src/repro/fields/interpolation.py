"""Grid-to-particle field interpolation (form factors).

Each macroparticle has a localized shape function (form factor); the
field it feels is the grid field weighted by that shape.  Implemented
shapes:

* NGP (nearest grid point, zeroth order),
* CIC (cloud-in-cell, linear — the PIC workhorse),
* TSC (triangular-shaped cloud, quadratic).

All interpolation is periodic, matching the FDTD solver's boundaries.
"""

from __future__ import annotations

import enum
from typing import Tuple

import numpy as np

from ..errors import ConfigurationError, SimulationError
from .base import FieldSource, FieldValues
from .grid import YeeGrid, YEE_STAGGER

__all__ = ["Shape", "shape_weights", "cell_fractions", "flat_strides",
           "periodic_rows", "axis_stencil", "interpolate_cic",
           "interpolate_component", "interpolate_from_yee_grid",
           "GridFieldSource"]

#: Bound on ``|fraction|``: at and beyond it a cell index overflows int64.
_INDEX_LIMIT = 2.0 ** 63


class Shape(enum.Enum):
    """Macroparticle form factor (interpolation order)."""

    NGP = 0
    CIC = 1
    TSC = 2

    @property
    def support(self) -> int:
        """Number of grid points touched per axis."""
        return self.value + 1


def _stencil_rows(shape: Shape, fraction: np.ndarray
                  ) -> Tuple[np.ndarray, range, np.ndarray]:
    """The stencil of particles at ``fraction`` (cell units), as rows.

    Returns ``(node, shifts, weights)``: stencil point ``r`` of
    particle ``p`` is grid node ``node[p] + shifts[r]`` (unwrapped)
    with weight ``weights[r, p]``; ``weights`` is ``(support, N)``.
    """
    frac = np.asarray(fraction, dtype=np.float64)
    if shape is Shape.NGP:
        node = np.round(frac).astype(np.int64)
        return node, range(1), np.ones((1, frac.size))
    if shape is Shape.CIC:
        left = np.floor(frac).astype(np.int64)
        d = frac - left
        weights = np.empty((2, frac.size))
        np.subtract(1.0, d, out=weights[0])
        weights[1] = d
        return left, range(2), weights
    if shape is Shape.TSC:
        center = np.round(frac).astype(np.int64)
        d = frac - center
        weights = np.empty((3, frac.size))
        weights[0] = 0.5 * (0.5 - d) ** 2
        weights[1] = 0.75 - d ** 2
        weights[2] = 0.5 * (0.5 + d) ** 2
        return center, range(-1, 2), weights
    raise ConfigurationError(f"unknown shape {shape!r}")


def shape_weights(shape: Shape, fraction: np.ndarray
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Per-axis interpolation stencil for particles at ``fraction``.

    ``fraction`` is the particle coordinate in units of the grid spacing
    (may be any real value; the caller handles periodic wrapping of the
    returned indices).  Returns ``(indices, weights)`` with shapes
    ``(N, support)``: the grid node indices (unwrapped) and their
    weights, which sum to 1 per particle.
    """
    node, shifts, weights = _stencil_rows(shape, fraction)
    indices = node + np.asarray(shifts)[:, None]
    return indices.T, weights.T


def cell_fractions(positions: np.ndarray, origin, spacing) -> np.ndarray:
    """Particle coordinates in cell units, shape ``(N, 3)``.

    Every gather and deposition converts its positions here, so a NaN,
    infinite or astronomically distant position is rejected before it
    can reach the grid: a fraction must have a cell index that fits in
    int64, or the stencil's node indices would wrap around.
    """
    pos = np.asarray(positions, dtype=np.float64)
    org = np.asarray(origin, dtype=np.float64)
    spc = np.asarray(spacing, dtype=np.float64)
    frac = (pos - org) / spc
    # Every comparison with NaN is false, so NaN fails this too.
    if not (np.abs(frac) < _INDEX_LIMIT).all():
        raise SimulationError(
            "particle positions must be finite and less than 2**63 cells "
            "from the grid origin; got NaN, infinite or out-of-range "
            "coordinates")
    return frac


def flat_strides(dims) -> Tuple[int, int, int]:
    """Flat-index stride of each grid axis (``(i*ny + j)*nz + k``)."""
    return dims[1] * dims[2], dims[2], 1


#: A lookup table may span at most this many periods of its axis.
_TABLE_PERIODS = 4


def periodic_rows(node: np.ndarray, shifts, n: int, stride: int = 1
                  ) -> np.ndarray:
    """``np.mod(node + shifts[r], n) * stride`` for each ``r``, bit for bit.

    ``node`` is an int64 ``(N,)`` array, ``shifts`` a sequence of ints;
    returns int64 rows, ``(len(shifts), N)``.  Integer division costs
    several nanoseconds per element, while a stencil's nodes lie within
    a period or so of the box.  So the wrapped, scaled value of every
    integer the rows can hold, ``node.min() + min(shifts)`` to
    ``node.max() + max(shifts)``, is computed once into a small table,
    and each row is one lookup of ``node - node.min()`` in it, offset
    by the row's shift.  When that range spans more than a few periods
    or outnumbers the rows' elements (far-away unwrapped positions),
    the table would cost more than it saves and ``np.mod`` runs.
    """
    node = np.asarray(node, dtype=np.int64)
    rows = np.empty((len(shifts), node.size), dtype=np.int64)
    first = min(shifts)
    if node.size:
        low = int(node.min())
        span = int(node.max()) - low + max(shifts) - first + 1
        if span <= min(_TABLE_PERIODS * n, rows.size):
            table = np.arange(low + first, low + first + span) % n
            table *= stride
            rel = node - low
            for row, shift in zip(rows, shifts):
                # Every index is in range, so "clip" clips nothing; it
                # lets take write into the row unbuffered.
                np.take(table[shift - first:], rel, out=row, mode="clip")
            return rows
    np.add(node, np.asarray(shifts)[:, None], out=rows)
    np.mod(rows, n, out=rows)
    rows *= stride
    return rows


def axis_stencil(shape: Shape, frac: np.ndarray, dims, axis: int
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """One axis's periodic stencil for particles at ``frac`` (cell units).

    Returns ``(offsets, weights)``, each ``(support, N)`` with one
    C-ordered row per stencil point, the rows the gather streams
    through: the wrapped node indices times the axis's flat stride, so
    the flat index of a 3-D stencil point is the sum of one offset per
    axis.
    """
    node, shifts, weights = _stencil_rows(shape, frac)
    return (periodic_rows(node, shifts, dims[axis],
                          flat_strides(dims)[axis]), weights)


def _plane(x, y) -> Tuple[np.ndarray, np.ndarray]:
    """The (x, y) stencil plane, each ``(sx, sy, N)``: ``ix[a] + iy[b]``
    and ``wx[a] * wy[b]``."""
    (ix, wx), (iy, wy) = x, y
    return ix[:, None] + iy[None], wx[:, None] * wy[None]


def _gather(values: np.ndarray, xy, z) -> np.ndarray:
    """Sum ``(wx[a] * wy[b]) * wz[c] * value`` over the stencil.

    ``xy`` is the plane from :func:`_plane`, ``z`` the z stencil.  The
    terms are added to zeros in (a, b, c) order, each product
    associated as written: the PIC state digests fix both orders.
    """
    flat = values.ravel()
    (ixy, wxy), (iz, wz) = xy, z
    result = np.zeros(iz.shape[1])
    for a, b in np.ndindex(ixy.shape[:2]):
        for c in range(iz.shape[0]):
            result += (wxy[a, b] * wz[c]) * flat.take(ixy[a, b] + iz[c])
    return result


def _positions(positions: np.ndarray) -> np.ndarray:
    """``positions`` as a float64 ``(N, 3)`` array."""
    pos = np.asarray(positions, dtype=np.float64)
    if pos.ndim != 2 or pos.shape[1] != 3:
        raise ConfigurationError(f"positions must be (N, 3), got {pos.shape}")
    return pos


def interpolate_component(values: np.ndarray,
                          positions: np.ndarray,
                          origin: Tuple[float, float, float],
                          spacing: Tuple[float, float, float],
                          stagger: Tuple[float, float, float] = (0.0, 0.0, 0.0),
                          shape: Shape = Shape.CIC) -> np.ndarray:
    """Interpolate one gridded scalar to particle positions (periodic).

    ``values`` is the ``(nx, ny, nz)`` component array whose sample
    points sit at ``origin + (index + stagger) * spacing``.
    """
    pos = _positions(positions)
    if values.ndim != 3:
        raise ConfigurationError(f"values must be a 3-D array, got {values.ndim}-D")
    frac = cell_fractions(pos, origin, spacing)
    x, y, z = (axis_stencil(shape, frac[:, axis] - stagger[axis],
                            values.shape, axis) for axis in range(3))
    return _gather(values, _plane(x, y), z)


def interpolate_cic(values: np.ndarray, positions: np.ndarray,
                    origin: Tuple[float, float, float],
                    spacing: Tuple[float, float, float]) -> np.ndarray:
    """Trilinear (CIC) interpolation of an unstaggered grid scalar."""
    return interpolate_component(values, positions, origin, spacing,
                                 shape=Shape.CIC)


def interpolate_from_yee_grid(grid: YeeGrid, positions: np.ndarray,
                              shape: Shape = Shape.CIC) -> FieldValues:
    """Interpolate all six Yee components to particle positions.

    Each component is interpolated from its own staggered sample points,
    which keeps the second-order accuracy of the Yee scheme.  The
    staggers give only two stencils per axis (0 and 1/2 cell), so the
    six are computed once and shared, as is each (x, y) stencil plane
    that two components use (Ex/By, Ey/Bx).
    """
    frac = cell_fractions(_positions(positions), grid.origin, grid.spacing)
    stencils = [{s: axis_stencil(shape, frac[:, axis] - s, grid.dims, axis)
                 for s in {stagger[axis] for stagger in YEE_STAGGER.values()}}
                for axis in range(3)]
    planes = {}
    components = {}
    for name, (sx, sy, sz) in YEE_STAGGER.items():
        if (sx, sy) not in planes:
            planes[sx, sy] = _plane(stencils[0][sx], stencils[1][sy])
        components[name] = _gather(grid.component(name), planes[sx, sy],
                                   stencils[2][sz])
    return FieldValues(**components)


class GridFieldSource(FieldSource):
    """Adapter presenting a (frozen-in-time) Yee grid as a FieldSource.

    The time argument of :meth:`evaluate` is ignored — the grid holds
    one snapshot; the PIC loop advances the snapshot between pushes.
    ``flops_per_evaluation`` reflects the 8-point trilinear gather per
    component.
    """

    flops_per_evaluation = 150

    def __init__(self, grid: YeeGrid, shape: Shape = Shape.CIC) -> None:
        self.grid = grid
        self.shape = shape

    def evaluate(self, x: np.ndarray, y: np.ndarray, z: np.ndarray,
                 t: float) -> FieldValues:
        positions = np.stack([np.asarray(x, dtype=np.float64).ravel(),
                              np.asarray(y, dtype=np.float64).ravel(),
                              np.asarray(z, dtype=np.float64).ravel()], axis=1)
        flat = interpolate_from_yee_grid(self.grid, positions, self.shape)
        shape = np.asarray(x).shape
        return FieldValues(*(component.reshape(shape) for component in flat))
