"""Particle ensembles in the paper's two memory layouts (AoS and SoA).

The paper stores the whole ensemble in a single array (no per-cell
lists) and compares two layouts:

* **AoS** — one interleaved record per particle.  Here this is a numpy
  *structured array* whose record size matches the paper exactly
  (36 bytes in single precision, 72 in double, including alignment
  padding).  Component access yields *strided* views, so vectorized
  kernels running on AoS data genuinely perform non-unit-stride memory
  access, as they would in vectorized C++.
* **SoA** — one contiguous numpy array per component.

Both expose the same interface (:class:`ParticleEnsemble`), so every
kernel, field source and diagnostic is written once — the Python
counterpart of Hi-Chi's ``ParticleProxy`` + templates trick.
"""

from __future__ import annotations

import abc
import copy
import enum
from typing import Dict, Iterator, Optional, Sequence

import numpy as np

from ..constants import SPEED_OF_LIGHT
from ..errors import ConfigurationError, LayoutError
from ..fp import Precision
from .types import ParticleTypeTable, default_type_table

__all__ = ["Layout", "COMPONENTS", "ParticleEnsemble",
           "ParticleArrayAoS", "ParticleArraySoA", "make_ensemble"]

#: Floating-point components of one particle, in record order.
COMPONENTS = ("x", "y", "z", "px", "py", "pz", "weight", "gamma")

_POSITION = ("x", "y", "z")
_MOMENTUM = ("px", "py", "pz")


class Layout(enum.Enum):
    """Particle memory layout: array-of-structures or structure-of-arrays."""

    AOS = "AoS"
    SOA = "SoA"


def _aos_dtype(precision: Precision) -> np.dtype:
    """Structured dtype of one AoS particle record, alignment included."""
    fp = precision.dtype
    step = precision.itemsize
    names = list(COMPONENTS) + ["type"]
    formats = [fp] * len(COMPONENTS) + [np.int16]
    offsets = [i * step for i in range(len(COMPONENTS))] + [len(COMPONENTS) * step]
    return np.dtype({
        "names": names,
        "formats": formats,
        "offsets": offsets,
        "itemsize": precision.particle_bytes_aligned,
    })


class ParticleEnsemble(abc.ABC):
    """Common interface of AoS and SoA particle storage.

    Component accessors return *writable views* into the underlying
    storage so kernels mutate particles in place; whether those views
    are contiguous is exactly the AoS/SoA distinction.
    """

    def __init__(self, size: int, precision: Precision,
                 type_table: Optional[ParticleTypeTable] = None) -> None:
        if size < 0:
            raise ConfigurationError(f"ensemble size must be >= 0, got {size}")
        if not isinstance(precision, Precision):
            raise ConfigurationError(f"precision must be a Precision, got {precision!r}")
        self._size = int(size)
        self._precision = precision
        self._type_table = type_table if type_table is not None else default_type_table()

    # -- identity ---------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of particles."""
        return self._size

    def __len__(self) -> int:
        return self._size

    @property
    def precision(self) -> Precision:
        """Floating-point precision of the stored components."""
        return self._precision

    @property
    def type_table(self) -> ParticleTypeTable:
        """Shared species table (mass/charge lookup by type id)."""
        return self._type_table

    @property
    @abc.abstractmethod
    def layout(self) -> Layout:
        """Memory layout of this ensemble."""

    @property
    @abc.abstractmethod
    def nbytes(self) -> int:
        """Bytes of particle storage actually allocated."""

    # -- raw component access ----------------------------------------------

    @abc.abstractmethod
    def component(self, name: str) -> np.ndarray:
        """Writable 1-D view of one floating-point component.

        ``name`` is one of :data:`COMPONENTS`.  AoS views are strided,
        SoA views are contiguous.
        """

    @property
    @abc.abstractmethod
    def type_ids(self) -> np.ndarray:
        """Writable int16 view of the per-particle type ids."""

    def _check_component(self, name: str) -> None:
        if name not in COMPONENTS:
            raise LayoutError(f"unknown particle component {name!r}; "
                              f"expected one of {COMPONENTS}")

    # -- convenience bulk accessors (copies) --------------------------------

    def positions(self) -> np.ndarray:
        """(N, 3) float64 copy of the particle positions."""
        return np.stack([self.component(c).astype(np.float64)
                         for c in _POSITION], axis=1)

    def momenta(self) -> np.ndarray:
        """(N, 3) float64 copy of the particle momenta."""
        return np.stack([self.component(c).astype(np.float64)
                         for c in _MOMENTUM], axis=1)

    def set_positions(self, positions: np.ndarray) -> None:
        """Overwrite positions from an (N, 3) array (cast to the ensemble dtype)."""
        pos = self._check_vec3(positions, "positions")
        for axis, name in enumerate(_POSITION):
            self.component(name)[:] = pos[:, axis]

    def set_momenta(self, momenta: np.ndarray, update_gamma: bool = True) -> None:
        """Overwrite momenta from an (N, 3) array.

        Recomputes the stored gamma unless ``update_gamma`` is False.
        """
        mom = self._check_vec3(momenta, "momenta")
        for axis, name in enumerate(_MOMENTUM):
            self.component(name)[:] = mom[:, axis]
        if update_gamma:
            self.update_gammas()

    def _check_vec3(self, array: np.ndarray, what: str) -> np.ndarray:
        arr = np.asarray(array, dtype=np.float64)
        if arr.shape != (self._size, 3):
            raise LayoutError(f"{what} must have shape ({self._size}, 3), "
                              f"got {arr.shape}")
        return arr

    # -- physics helpers ----------------------------------------------------

    def masses(self) -> np.ndarray:
        """Per-particle rest masses [g] (float64)."""
        return self._type_table.masses_of(self.type_ids)

    def charges(self) -> np.ndarray:
        """Per-particle charges [statC] (float64)."""
        return self._type_table.charges_of(self.type_ids)

    def update_gammas(self) -> None:
        """Recompute the stored gamma component from the momenta.

        ``gamma = sqrt(1 + |p|^2 / (m c)^2)``, evaluated in the storage
        precision (as the kernels do).
        """
        dtype = self._precision.dtype
        mc = (self.masses() * SPEED_OF_LIGHT).astype(dtype)
        px = self.component("px")
        py = self.component("py")
        pz = self.component("pz")
        p2 = px * px + py * py + pz * pz
        self.component("gamma")[:] = np.sqrt(
            dtype.type(1.0) + p2 / (mc * mc))

    def velocities(self) -> np.ndarray:
        """(N, 3) float64 velocities ``p / (gamma m)`` using the stored gamma."""
        inv = 1.0 / (self.component("gamma").astype(np.float64) * self.masses())
        return self.momenta() * inv[:, None]

    def kinetic_energies(self) -> np.ndarray:
        """Per-particle kinetic energy ``(gamma - 1) m c^2`` [erg]."""
        gamma = self.component("gamma").astype(np.float64)
        return (gamma - 1.0) * self.masses() * SPEED_OF_LIGHT ** 2

    def total_kinetic_energy(self) -> float:
        """Weighted total kinetic energy of the ensemble [erg]."""
        weights = self.component("weight").astype(np.float64)
        return float(np.sum(weights * self.kinetic_energies()))

    # -- structural operations ----------------------------------------------

    def to_layout(self, layout: Layout) -> "ParticleEnsemble":
        """Return a copy of this ensemble in the requested layout.

        Returns a copy even when the layout already matches, so callers
        can mutate the result freely.
        """
        cls = ParticleArrayAoS if layout is Layout.AOS else ParticleArraySoA
        out = cls(self._size, self._precision, self._type_table)
        for name in COMPONENTS:
            out.component(name)[:] = self.component(name)
        out.type_ids[:] = self.type_ids
        return out

    def copy(self) -> "ParticleEnsemble":
        """Deep copy preserving the layout."""
        return self.to_layout(self.layout)

    def view(self, lo: int, hi: int) -> "ParticleEnsemble":
        """Zero-copy ensemble of particles ``lo`` to ``hi`` (exclusive).

        Every component of the view is a slice of this ensemble's
        storage, so kernels run on the view write through to it: SoA
        slices stay contiguous, AoS slices are a slice of the record
        array whose component views are strided.  The view shares the
        type table (and so its typed LUTs).  ``view(0, size)`` is the
        ensemble itself.
        """
        if not 0 <= lo <= hi <= self._size:
            raise LayoutError(f"view [{lo}, {hi}) is out of range for "
                              f"{self._size} particles")
        if lo == 0 and hi == self._size:
            return self
        out = copy.copy(self)
        out._size = hi - lo
        out._slice_storage(lo, hi)
        return out

    @abc.abstractmethod
    def _slice_storage(self, lo: int, hi: int) -> None:
        """Replace this (shallow-copied) ensemble's storage by slices."""

    def permute(self, order: np.ndarray) -> None:
        """Reorder particles in place by the index array ``order``.

        ``order`` must be a permutation of ``range(size)``.
        """
        idx = np.asarray(order)
        if idx.shape != (self._size,):
            raise LayoutError(f"permutation must have shape ({self._size},), "
                              f"got {idx.shape}")
        if not np.array_equal(np.sort(idx), np.arange(self._size)):
            raise LayoutError("order is not a permutation of the particle indices")
        for name in COMPONENTS:
            view = self.component(name)
            view[:] = view[idx]
        ids = self.type_ids
        ids[:] = ids[idx]

    def select(self, mask: np.ndarray) -> "ParticleEnsemble":
        """Return a new ensemble containing only particles where ``mask`` is True."""
        sel = np.asarray(mask, dtype=bool)
        if sel.shape != (self._size,):
            raise LayoutError(f"mask must have shape ({self._size},), got {sel.shape}")
        cls = type(self)
        out = cls(int(sel.sum()), self._precision, self._type_table)
        for name in COMPONENTS:
            out.component(name)[:] = self.component(name)[sel]
        out.type_ids[:] = self.type_ids[sel]
        return out

    @staticmethod
    def concatenate(ensembles: Sequence["ParticleEnsemble"]
                    ) -> "ParticleEnsemble":
        """Join ensembles into one (layout/precision of the first).

        All inputs must share layout, precision and type table —
        concatenation is for merging streams of the *same* kind of
        particles (e.g. injected batches), not for mixing species
        tables.
        """
        if not ensembles:
            raise LayoutError("concatenate needs at least one ensemble")
        first = ensembles[0]
        for other in ensembles[1:]:
            if other.layout is not first.layout:
                raise LayoutError(
                    f"cannot concatenate {other.layout.value} into "
                    f"{first.layout.value}")
            if other.precision is not first.precision:
                raise LayoutError(
                    f"cannot concatenate {other.precision.value} into "
                    f"{first.precision.value}")
            if other.type_table is not first.type_table:
                raise LayoutError(
                    "ensembles must share one ParticleTypeTable")
        total = sum(e.size for e in ensembles)
        out = make_ensemble(total, first.layout, first.precision,
                            first.type_table)
        offset = 0
        for ensemble in ensembles:
            end = offset + ensemble.size
            for name in COMPONENTS:
                out.component(name)[offset:end] = ensemble.component(name)
            out.type_ids[offset:end] = ensemble.type_ids
            offset = end
        return out

    def __getitem__(self, index: int) -> "ParticleProxy":
        from .proxy import ParticleProxy
        return ParticleProxy(self, index)

    def __iter__(self) -> Iterator["ParticleProxy"]:
        for i in range(self._size):
            yield self[i]

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_arrays(cls, positions: np.ndarray, momenta: np.ndarray,
                    weights: Optional[np.ndarray] = None,
                    type_ids: Optional[np.ndarray] = None,
                    precision: Precision = Precision.DOUBLE,
                    type_table: Optional[ParticleTypeTable] = None,
                    layout: Optional[Layout] = None,
                    ) -> "ParticleEnsemble":
        """Build an ensemble from plain (N, 3) position/momentum arrays.

        Weights default to 1, type ids to 0 (electron in the default
        table).  Gamma is computed from the momenta.  When called on the
        abstract base class, ``layout`` selects the storage (default
        SoA); when called on a concrete subclass, that subclass wins.
        """
        pos = np.asarray(positions, dtype=np.float64)
        mom = np.asarray(momenta, dtype=np.float64)
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise LayoutError(f"positions must be (N, 3), got {pos.shape}")
        if mom.shape != pos.shape:
            raise LayoutError(f"momenta must match positions shape {pos.shape}, "
                              f"got {mom.shape}")
        n = pos.shape[0]
        if cls is ParticleEnsemble:
            concrete = ParticleArrayAoS if layout is Layout.AOS \
                else ParticleArraySoA
        else:
            if layout is not None:
                raise LayoutError(
                    f"layout= is only valid on ParticleEnsemble.from_arrays; "
                    f"{cls.__name__} fixes the layout already")
            concrete = cls
        ensemble = concrete(n, precision, type_table)
        if type_ids is not None:
            ensemble.type_ids[:] = np.asarray(type_ids, dtype=np.int16)
        if weights is not None:
            ensemble.component("weight")[:] = np.asarray(weights)
        else:
            ensemble.component("weight")[:] = 1.0
        ensemble.set_positions(pos)
        ensemble.set_momenta(mom)
        return ensemble


class ParticleArrayAoS(ParticleEnsemble):
    """Array-of-structures ensemble: one structured record per particle."""

    def __init__(self, size: int, precision: Precision = Precision.DOUBLE,
                 type_table: Optional[ParticleTypeTable] = None) -> None:
        super().__init__(size, precision, type_table)
        self._records = np.zeros(self._size, dtype=_aos_dtype(precision))
        self._records["weight"] = 1.0
        self._records["gamma"] = 1.0

    @property
    def layout(self) -> Layout:
        return Layout.AOS

    @property
    def records(self) -> np.ndarray:
        """The underlying structured record array (one element per particle)."""
        return self._records

    @property
    def nbytes(self) -> int:
        return int(self._records.nbytes)

    def component(self, name: str) -> np.ndarray:
        self._check_component(name)
        return self._records[name]

    @property
    def type_ids(self) -> np.ndarray:
        return self._records["type"]

    def _slice_storage(self, lo: int, hi: int) -> None:
        self._records = self._records[lo:hi]


class ParticleArraySoA(ParticleEnsemble):
    """Structure-of-arrays ensemble: one contiguous array per component."""

    def __init__(self, size: int, precision: Precision = Precision.DOUBLE,
                 type_table: Optional[ParticleTypeTable] = None) -> None:
        super().__init__(size, precision, type_table)
        dtype = precision.dtype
        self._arrays: Dict[str, np.ndarray] = {
            name: np.zeros(self._size, dtype=dtype) for name in COMPONENTS
        }
        self._arrays["weight"][:] = 1.0
        self._arrays["gamma"][:] = 1.0
        self._type_ids = np.zeros(self._size, dtype=np.int16)

    @property
    def layout(self) -> Layout:
        return Layout.SOA

    @property
    def nbytes(self) -> int:
        per_fp = sum(a.nbytes for a in self._arrays.values())
        return int(per_fp + self._type_ids.nbytes)

    def component(self, name: str) -> np.ndarray:
        self._check_component(name)
        return self._arrays[name]

    @property
    def type_ids(self) -> np.ndarray:
        return self._type_ids

    def _slice_storage(self, lo: int, hi: int) -> None:
        self._arrays = {name: array[lo:hi]
                        for name, array in self._arrays.items()}
        self._type_ids = self._type_ids[lo:hi]


def make_ensemble(size: int, layout: Layout,
                  precision: Precision = Precision.DOUBLE,
                  type_table: Optional[ParticleTypeTable] = None,
                  ) -> ParticleEnsemble:
    """Factory: build an empty ensemble with the given layout/precision."""
    if layout is Layout.AOS:
        return ParticleArrayAoS(size, precision, type_table)
    if layout is Layout.SOA:
        return ParticleArraySoA(size, precision, type_table)
    raise ConfigurationError(f"unknown layout {layout!r}")
