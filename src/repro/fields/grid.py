"""Regular 3-D grids and the staggered Yee grid for FDTD.

The PIC substrate (Section 2 of the paper) defines field values on a
spatial grid.  :class:`RegularGrid3D` is the geometric description;
:class:`YeeGrid` adds the six staggered component arrays used by the
FDTD Maxwell solver with periodic boundaries.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..errors import ConfigurationError

__all__ = ["RegularGrid3D", "YeeGrid", "YEE_STAGGER"]

#: Stagger (in fractions of a cell) of each Yee component relative to
#: the cell corner: Ex lives at (i+1/2, j, k), Bx at (i, j+1/2, k+1/2), etc.
YEE_STAGGER: Dict[str, Tuple[float, float, float]] = {
    "ex": (0.5, 0.0, 0.0),
    "ey": (0.0, 0.5, 0.0),
    "ez": (0.0, 0.0, 0.5),
    "bx": (0.0, 0.5, 0.5),
    "by": (0.5, 0.0, 0.5),
    "bz": (0.5, 0.5, 0.0),
}


class RegularGrid3D:
    """Axis-aligned regular grid: origin, spacing and cell counts.

    ``dims`` counts *cells*; with periodic boundaries each axis stores
    ``dims[i]`` values (node ``dims[i]`` wraps onto node 0).
    """

    def __init__(self, origin: Tuple[float, float, float],
                 spacing: Tuple[float, float, float],
                 dims: Tuple[int, int, int]) -> None:
        self.origin = tuple(float(v) for v in origin)
        self.spacing = tuple(float(v) for v in spacing)
        self.dims = tuple(int(v) for v in dims)
        if len(self.origin) != 3 or len(self.spacing) != 3 or len(self.dims) != 3:
            raise ConfigurationError("origin, spacing and dims must have length 3")
        if any(s <= 0.0 for s in self.spacing):
            raise ConfigurationError(f"spacing must be positive, got {spacing!r}")
        if any(d < 1 for d in self.dims):
            raise ConfigurationError(f"dims must be >= 1, got {dims!r}")

    @property
    def upper(self) -> Tuple[float, float, float]:
        """Coordinates of the far corner of the periodic box."""
        return tuple(o + s * d for o, s, d
                     in zip(self.origin, self.spacing, self.dims))

    @property
    def extent(self) -> Tuple[float, float, float]:
        """Box side lengths."""
        return tuple(s * d for s, d in zip(self.spacing, self.dims))

    @property
    def num_cells(self) -> int:
        """Total number of cells."""
        nx, ny, nz = self.dims
        return nx * ny * nz

    @property
    def cell_volume(self) -> float:
        """Volume of one cell [cm^3]."""
        sx, sy, sz = self.spacing
        return sx * sy * sz

    def node_coordinates(self, axis: int, stagger: float = 0.0) -> np.ndarray:
        """1-D coordinates of the grid nodes along ``axis``.

        ``stagger`` shifts by a fraction of a cell (0.5 for Yee
        half-points).
        """
        if axis not in (0, 1, 2):
            raise ConfigurationError(f"axis must be 0, 1 or 2, got {axis!r}")
        n = self.dims[axis]
        return (self.origin[axis]
                + (np.arange(n) + stagger) * self.spacing[axis])

    def wrap_positions(self, positions: np.ndarray) -> np.ndarray:
        """Map positions into the periodic box (copy).

        Bit-equal to ``origin + np.mod(positions - origin, extent)``,
        but only the box-crossers pay the division: on ``(0, extent)``
        ``np.mod`` returns its argument exactly, and per step only a
        few particles leave that interval.  NaN and infinities fail the
        test too, so they still go through ``np.mod``.  Each axis is
        one strided column: a ``(3,)`` operand broadcast against
        ``(N, 3)`` would run numpy's inner loop three elements at a
        time.
        """
        pos = np.asarray(positions, dtype=np.float64)
        wrapped = np.empty(pos.shape)
        columns = zip(pos.reshape(-1, 3).T, wrapped.reshape(-1, 3).T,
                      self.origin, self.extent)
        for column, out, org, ext in columns:
            offset = column - org
            inside = offset > 0.0
            inside &= offset < ext
            cross = np.flatnonzero(~inside)
            offset[cross] = np.mod(offset[cross], ext)
            np.add(org, offset, out=out)
        return wrapped

    def __repr__(self) -> str:
        return (f"RegularGrid3D(origin={self.origin}, spacing={self.spacing}, "
                f"dims={self.dims})")


class YeeGrid(RegularGrid3D):
    """Yee-staggered E and B component storage over a regular grid.

    Each of the six components is an ``(nx, ny, nz)`` float64 array;
    component positions are staggered according to :data:`YEE_STAGGER`.
    Current-density arrays ``jx, jy, jz`` (co-located with the matching
    E components) support the self-consistent PIC loop.
    """

    def __init__(self, origin: Tuple[float, float, float],
                 spacing: Tuple[float, float, float],
                 dims: Tuple[int, int, int]) -> None:
        super().__init__(origin, spacing, dims)
        shape = self.dims
        self.fields: Dict[str, np.ndarray] = {
            name: np.zeros(shape) for name in YEE_STAGGER
        }
        self.currents: Dict[str, np.ndarray] = {
            name: np.zeros(shape) for name in ("jx", "jy", "jz")
        }

    def component(self, name: str) -> np.ndarray:
        """The storage array of one field component (``ex`` ... ``bz``)."""
        try:
            return self.fields[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown Yee component {name!r}; expected one of "
                f"{tuple(YEE_STAGGER)}") from None

    def component_coordinates(self, name: str, axis: int) -> np.ndarray:
        """1-D coordinates of component ``name`` sample points along ``axis``."""
        stagger = YEE_STAGGER.get(name)
        if stagger is None:
            raise ConfigurationError(f"unknown Yee component {name!r}")
        return self.node_coordinates(axis, stagger[axis])

    def clear_currents(self) -> None:
        """Zero the current-density arrays (start of a deposition pass)."""
        for array in self.currents.values():
            array[:] = 0.0

    def fill_from_source(self, source, t: float) -> None:
        """Sample an analytical :class:`FieldSource` onto the staggered grid."""
        for name in YEE_STAGGER:
            xs = self.component_coordinates(name, 0)
            ys = self.component_coordinates(name, 1)
            zs = self.component_coordinates(name, 2)
            gx, gy, gz = np.meshgrid(xs, ys, zs, indexing="ij")
            values = source.evaluate(gx, gy, gz, t)
            self.fields[name][:] = getattr(values, name)

    def field_energy(self) -> float:
        """Total electromagnetic energy ``sum (E^2 + B^2) / (8 pi) dV`` [erg]."""
        total = 0.0
        for name in YEE_STAGGER:
            total += float(np.sum(self.fields[name] ** 2))
        return total / (8.0 * np.pi) * self.cell_volume
