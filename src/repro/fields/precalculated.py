"""Per-particle precalculated field storage — the paper's first scenario.

In the "Precalculated Fields" benchmark "all field values are
precalculated and stored in the corresponding array", so the timed push
kernel only *loads* six floating-point field components per particle.
The stored array is "comparable in size to the ensemble of particles",
which is what makes the scenario memory-bound.

:class:`PrecalculatedField` is that array.  Like the particle ensemble
it comes in both layouts: an interleaved 6-component record per particle
(AoS) or six contiguous arrays (SoA), and in either precision, so the
memory traffic it generates matches the particle layout under study.
"""

from __future__ import annotations

import copy
from typing import Dict, Optional

import numpy as np

from ..errors import ConfigurationError, LayoutError
from ..fp import Precision
from ..particles.ensemble import Layout, ParticleEnsemble
from .base import FieldSource, FieldValues

__all__ = ["PrecalculatedField", "FIELD_COMPONENTS"]

#: Field component names in record order.
FIELD_COMPONENTS = ("ex", "ey", "ez", "bx", "by", "bz")


class PrecalculatedField:
    """Six per-particle field components in AoS or SoA layout.

    Args:
        size: Number of particles the array covers.
        precision: Floating-point precision of the stored components.
        layout: AoS (one 6-component record per particle) or SoA.
    """

    def __init__(self, size: int, precision: Precision = Precision.DOUBLE,
                 layout: Layout = Layout.SOA) -> None:
        if size < 0:
            raise ConfigurationError(f"size must be >= 0, got {size}")
        self._size = int(size)
        self._precision = precision
        self._layout = layout
        dtype = precision.dtype
        if layout is Layout.AOS:
            record = np.dtype([(name, dtype) for name in FIELD_COMPONENTS])
            self._records: Optional[np.ndarray] = np.zeros(self._size, dtype=record)
            self._arrays: Optional[Dict[str, np.ndarray]] = None
        else:
            self._records = None
            self._arrays = {name: np.zeros(self._size, dtype=dtype)
                            for name in FIELD_COMPONENTS}

    @property
    def size(self) -> int:
        """Number of particles covered."""
        return self._size

    @property
    def precision(self) -> Precision:
        """Floating-point precision of the components."""
        return self._precision

    @property
    def layout(self) -> Layout:
        """Memory layout of the stored components."""
        return self._layout

    @property
    def nbytes(self) -> int:
        """Bytes of field storage allocated."""
        if self._records is not None:
            return int(self._records.nbytes)
        assert self._arrays is not None
        return int(sum(a.nbytes for a in self._arrays.values()))

    @property
    def bytes_per_particle(self) -> int:
        """Field bytes stored per particle (6 components)."""
        return 6 * self._precision.itemsize

    def component(self, name: str) -> np.ndarray:
        """Writable 1-D view of one field component (``ex`` ... ``bz``)."""
        if name not in FIELD_COMPONENTS:
            raise LayoutError(f"unknown field component {name!r}; "
                              f"expected one of {FIELD_COMPONENTS}")
        if self._records is not None:
            return self._records[name]
        assert self._arrays is not None
        return self._arrays[name]

    def view(self, lo: int, hi: int) -> "PrecalculatedField":
        """Zero-copy field array of particles ``lo`` to ``hi`` (exclusive).

        Six contiguous slices in SoA, a slice of the record array in
        AoS; writes through to this array.  ``view(0, size)`` is the
        array itself.
        """
        if not 0 <= lo <= hi <= self._size:
            raise LayoutError(f"view [{lo}, {hi}) is out of range for "
                              f"{self._size} particles")
        if lo == 0 and hi == self._size:
            return self
        out = copy.copy(self)
        out._size = hi - lo
        if self._records is not None:
            out._records = self._records[lo:hi]
        else:
            assert self._arrays is not None
            out._arrays = {name: array[lo:hi]
                           for name, array in self._arrays.items()}
        return out

    def values(self) -> FieldValues:
        """All six components as a :class:`FieldValues` of views."""
        return FieldValues(*(self.component(name) for name in FIELD_COMPONENTS))

    def refresh(self, source: FieldSource, ensemble: ParticleEnsemble,
                t: float) -> None:
        """Re-sample ``source`` at the ensemble's current positions.

        This is the *untimed* preparation step of the "Precalculated
        Fields" scenario: the benchmark harness calls it between timed
        push kernels so the kernel itself performs loads only.  The
        source writes into the six component arrays itself
        (:meth:`~repro.fields.base.FieldSource.evaluate_into`).
        """
        if ensemble.size != self._size:
            raise LayoutError(
                f"ensemble size {ensemble.size} does not match field array "
                f"size {self._size}")
        source.evaluate_into(
            ensemble.component("x"), ensemble.component("y"),
            ensemble.component("z"), t, self.values())

    @classmethod
    def from_source(cls, source: FieldSource, ensemble: ParticleEnsemble,
                    t: float = 0.0,
                    layout: Optional[Layout] = None) -> "PrecalculatedField":
        """Build and fill an array matching ``ensemble``'s size and precision.

        The layout defaults to the ensemble's own layout.
        """
        field = cls(ensemble.size, ensemble.precision,
                    layout if layout is not None else ensemble.layout)
        field.refresh(source, ensemble, t)
        return field
