"""Particle species table.

The paper stores, per particle, only a short integer *type*; the mass
and charge corresponding to each type live "in a separate table in a
single copy".  :class:`ParticleTypeTable` is that table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from ..constants import ELECTRON_MASS, ELEMENTARY_CHARGE, PROTON_MASS
from ..errors import ConfigurationError

__all__ = ["ParticleSpecies", "ParticleTypeTable", "default_type_table"]


@dataclass(frozen=True)
class ParticleSpecies:
    """Immutable physical description of one particle species.

    Attributes:
        name: Human-readable species name ("electron", ...).
        mass: Rest mass in grams.
        charge: Charge in statcoulombs (signed).
    """

    name: str
    mass: float
    charge: float

    def __post_init__(self) -> None:
        if self.mass <= 0.0:
            raise ConfigurationError(
                f"species {self.name!r} must have positive mass, got {self.mass!r}")


class ParticleTypeTable:
    """Mapping from short integer type ids to :class:`ParticleSpecies`.

    Type ids are dense small integers (they are stored per particle as
    ``int16``), so the table also exposes vectorized ``masses_of`` /
    ``charges_of`` lookups, and ``typed_luts`` / ``gather`` for the
    push kernels' species constants.
    """

    MAX_TYPES = np.iinfo(np.int16).max

    def __init__(self) -> None:
        self._species: Dict[int, ParticleSpecies] = {}
        self._by_name: Dict[str, int] = {}
        self._mass_lut = np.zeros(0, dtype=np.float64)
        self._charge_lut = np.zeros(0, dtype=np.float64)
        # Per-dtype (mass, charge) LUT casts, built on first use and
        # invalidated on registration: the push kernels look species
        # constants up in storage precision every step, and casting the
        # table once (O(#species)) beats casting per-particle results
        # (O(N)) on every call.
        self._typed_luts: Dict[np.dtype,
                               Tuple[np.ndarray, np.ndarray]] = {}

    def register(self, species: ParticleSpecies) -> int:
        """Register a species and return its new type id.

        Ids are assigned densely in registration order.  Registering a
        second species with an existing name is an error.
        """
        if species.name in self._by_name:
            raise ConfigurationError(f"species {species.name!r} already registered")
        type_id = len(self._species)
        if type_id > self.MAX_TYPES:
            raise ConfigurationError("type table exceeds int16 capacity")
        self._species[type_id] = species
        self._by_name[species.name] = type_id
        self._rebuild_luts()
        return type_id

    def _rebuild_luts(self) -> None:
        n = len(self._species)
        self._mass_lut = np.array([self._species[i].mass for i in range(n)])
        self._charge_lut = np.array([self._species[i].charge for i in range(n)])
        self._typed_luts.clear()

    def typed_luts(self, dtype) -> Tuple[np.ndarray, np.ndarray]:
        """The ``(mass, charge)`` tables cast to ``dtype``, indexed by
        type id (cached until the next registration)."""
        key = np.dtype(dtype)
        luts = self._typed_luts.get(key)
        if luts is None:
            luts = (self._mass_lut.astype(key), self._charge_lut.astype(key))
            self._typed_luts[key] = luts
        return luts

    def __len__(self) -> int:
        return len(self._species)

    def __iter__(self) -> Iterator[ParticleSpecies]:
        return (self._species[i] for i in range(len(self._species)))

    def __getitem__(self, type_id: int) -> ParticleSpecies:
        try:
            return self._species[int(type_id)]
        except KeyError:
            raise ConfigurationError(f"unknown particle type id {type_id!r}") from None

    def id_of(self, name: str) -> int:
        """Return the type id registered under ``name``."""
        try:
            return self._by_name[name]
        except KeyError:
            raise ConfigurationError(f"unknown species name {name!r}") from None

    def mass_of(self, type_id: int) -> float:
        """Rest mass [g] of the species with the given id."""
        return self[type_id].mass

    def charge_of(self, type_id: int) -> float:
        """Charge [statC] of the species with the given id."""
        return self[type_id].charge

    def masses_of(self, type_ids: np.ndarray) -> np.ndarray:
        """Vectorized float64 mass lookup for an array of type ids.

        The gather is ``np.take``, which gives the same values as
        ``lut[type_ids]`` in about 30 us instead of 53 us per 16,384
        ``int16`` ids.  Storage-precision constants come from
        :meth:`typed_luts` and :meth:`gather` instead.
        """
        self._check_ids(type_ids)
        return np.take(self._mass_lut, type_ids)

    def charges_of(self, type_ids: np.ndarray) -> np.ndarray:
        """Vectorized float64 charge lookup, as :meth:`masses_of`."""
        self._check_ids(type_ids)
        return np.take(self._charge_lut, type_ids)

    def gather(self, type_ids: np.ndarray,
               *luts: np.ndarray) -> Tuple[np.ndarray, ...]:
        """Each per-type table of ``luts`` at the particles' ``type_ids``.

        For the push kernels' species constants, derived on a table of
        a handful of entries instead of per particle.  When every id is
        the same (a single-species ensemble or block), each result is
        that type's scalar entry, which broadcasts to the same values
        as the gathered array; otherwise each table is gathered with
        one ``np.take`` (about 30 us per 16,384 ids).
        """
        bounds = self._check_ids(type_ids)
        if bounds is not None and bounds[0] == bounds[1]:
            return tuple(lut[bounds[0]] for lut in luts)
        return tuple(np.take(lut, type_ids) for lut in luts)

    def _check_ids(self, type_ids: np.ndarray) -> Optional[Tuple[int, int]]:
        """Range-check ``type_ids``; return their (min, max), None when
        there are none."""
        ids = np.asarray(type_ids)
        if not ids.size:
            return None
        low, high = int(ids.min()), int(ids.max())
        if low < 0 or high >= len(self._species):
            raise ConfigurationError(
                f"type ids out of range [0, {len(self._species)}): "
                f"min={low}, max={high}")
        return low, high


def default_type_table() -> ParticleTypeTable:
    """Return a fresh table with the three conventional species.

    Ids: 0 = electron, 1 = positron, 2 = proton.  The paper's benchmark
    uses electrons only, but PIC examples need the ions too.
    """
    table = ParticleTypeTable()
    table.register(ParticleSpecies("electron", ELECTRON_MASS, -ELEMENTARY_CHARGE))
    table.register(ParticleSpecies("positron", ELECTRON_MASS, +ELEMENTARY_CHARGE))
    table.register(ParticleSpecies("proton", PROTON_MASS, +ELEMENTARY_CHARGE))
    return table
