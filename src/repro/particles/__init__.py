"""Particle data structures: type table, single particles, ensembles.

This subpackage mirrors Section 3 of the paper.  Per particle we store a
position and a momentum (3 floating-point components each), a scalar
weight and Lorentz factor gamma, and a short integer type id; mass and
charge are looked up in a shared :class:`~repro.particles.types.ParticleTypeTable`.

Ensembles come in the paper's two memory layouts:

* :class:`~repro.particles.ensemble.ParticleArrayAoS` — array of
  structures, one interleaved record per particle (36 bytes in single
  precision, 72 in double, matching the paper's figures);
* :class:`~repro.particles.ensemble.ParticleArraySoA` — structure of
  arrays, one contiguous array per component.
"""

from .types import ParticleSpecies, ParticleTypeTable, default_type_table
from .particle import Particle
from .proxy import ParticleProxy
from .ensemble import Layout, ParticleEnsemble, ParticleArrayAoS, ParticleArraySoA, make_ensemble
from .initializers import (
    cold_sphere,
    uniform_box,
    maxwellian_momenta,
    paper_benchmark_ensemble,
)

__all__ = [
    "ParticleSpecies",
    "ParticleTypeTable",
    "default_type_table",
    "Particle",
    "ParticleProxy",
    "Layout",
    "ParticleEnsemble",
    "ParticleArrayAoS",
    "ParticleArraySoA",
    "make_ensemble",
    "cold_sphere",
    "uniform_box",
    "maxwellian_momenta",
    "paper_benchmark_ensemble",
]
