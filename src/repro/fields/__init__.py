"""Electromagnetic field sources.

Two kinds of sources correspond to the paper's two benchmark scenarios:

* *analytical* sources (:mod:`~repro.fields.dipole`,
  :mod:`~repro.fields.uniform`, :mod:`~repro.fields.plane_wave`)
  evaluate closed-form E(r, t), B(r, t) on demand — compute-heavy;
* *precalculated* per-particle arrays
  (:mod:`~repro.fields.precalculated`) store field values alongside the
  ensemble and the pusher merely loads them — memory-heavy.

Grid-based fields (:mod:`~repro.fields.grid`,
:mod:`~repro.fields.interpolation`) support the full PIC substrate.
"""

from .base import FieldValues, FieldSource
from .uniform import NullField, UniformField, CrossedField
from .plane_wave import PlaneWave
from .dipole import (MDipoleWave, dipole_radial, dipole_f1, dipole_f2,
                     dipole_f3, dipole_amplitude)
from .grid import RegularGrid3D, YeeGrid
from .interpolation import (
    Shape,
    interpolate_cic,
    interpolate_from_yee_grid,
    GridFieldSource,
)
from .precalculated import PrecalculatedField

__all__ = [
    "FieldValues",
    "FieldSource",
    "NullField",
    "UniformField",
    "CrossedField",
    "PlaneWave",
    "MDipoleWave",
    "dipole_radial",
    "dipole_f1",
    "dipole_f2",
    "dipole_f3",
    "dipole_amplitude",
    "RegularGrid3D",
    "YeeGrid",
    "Shape",
    "interpolate_cic",
    "interpolate_from_yee_grid",
    "GridFieldSource",
    "PrecalculatedField",
]
