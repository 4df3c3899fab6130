"""PIC diagnostics: energies, momentum, and plasma parameters."""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from ..errors import ConfigurationError
from ..fields.grid import YeeGrid
from ..particles.ensemble import ParticleEnsemble

__all__ = ["field_energy", "kinetic_energy", "total_momentum",
           "plasma_frequency", "load_imbalance", "EnergyHistory"]


def field_energy(grid: YeeGrid) -> float:
    """Electromagnetic energy ``sum (E^2 + B^2)/(8 pi) dV`` [erg]."""
    return grid.field_energy()


def kinetic_energy(ensemble: ParticleEnsemble) -> float:
    """Weighted total kinetic energy ``sum w (gamma - 1) m c^2`` [erg]."""
    return ensemble.total_kinetic_energy()


def total_momentum(ensemble: ParticleEnsemble) -> np.ndarray:
    """Weighted total momentum vector [g cm/s]."""
    weights = ensemble.component("weight").astype(np.float64)
    return (ensemble.momenta() * weights[:, None]).sum(axis=0)


def plasma_frequency(density: float, mass: float, charge: float) -> float:
    """Cold plasma frequency ``sqrt(4 pi n q^2 / m)`` [1/s].

    ``density`` in particles/cm^3 (CGS).
    """
    if density < 0.0:
        raise ConfigurationError(f"density must be >= 0, got {density!r}")
    if mass <= 0.0:
        raise ConfigurationError(f"mass must be positive, got {mass!r}")
    return math.sqrt(4.0 * math.pi * density * charge * charge / mass)


def load_imbalance(loads) -> float:
    """Load-imbalance factor ``max / mean - 1`` over per-shard loads.

    The standard figure of merit of domain-decomposed PIC (zero for a
    perfectly even decomposition; 1.0 means the busiest shard carries
    twice the average).  ``loads`` are per-shard work measures —
    particle counts, per-step shard times, or anything proportional to
    work.  Zero-weight shards are legal (a device can own an empty
    domain); an all-zero load vector is perfectly balanced by
    convention.  Used by the distributed layer's group reports and the
    ``repro shard`` CLI.
    """
    values = np.asarray(list(loads), dtype=np.float64)
    if values.size == 0:
        raise ConfigurationError("load_imbalance needs at least one shard")
    if np.any(values < 0.0):
        raise ConfigurationError("shard loads must be >= 0")
    mean = float(values.mean())
    if mean == 0.0:
        return 0.0
    return float(values.max()) / mean - 1.0


class EnergyHistory:
    """Records field/kinetic/total energy over a PIC run.

    Use as the ``callback`` of :meth:`repro.pic.simulation.PicSimulation.run`;
    energy conservation of the full loop is then
    ``max |total - total[0]| / total[0]``.
    """

    def __init__(self) -> None:
        self.times: List[float] = []
        self.field: List[float] = []
        self.kinetic: List[float] = []

    def record(self, time: float, grid: YeeGrid,
               ensembles) -> None:
        """Append one sample (called by the simulation)."""
        self.times.append(time)
        self.field.append(field_energy(grid))
        self.kinetic.append(sum(kinetic_energy(e) for e in ensembles))

    @property
    def total(self) -> np.ndarray:
        """Field + kinetic energy per sample."""
        return np.asarray(self.field) + np.asarray(self.kinetic)

    def relative_drift(self) -> float:
        """Max relative deviation of the total energy from its start."""
        total = self.total
        if total.size == 0:
            raise ConfigurationError("no samples recorded")
        if total[0] == 0.0:
            return float(np.abs(total - total[0]).max())
        return float(np.abs(total / total[0] - 1.0).max())

    def dominant_frequency(self, signal: Optional[np.ndarray] = None
                           ) -> float:
        """Dominant angular frequency of a recorded signal [1/s].

        Defaults to the field-energy history; note the energy of an
        oscillation at ``omega`` oscillates at ``2 omega``.
        """
        values = np.asarray(self.field if signal is None else signal,
                            dtype=np.float64)
        if values.size < 4:
            raise ConfigurationError("need at least 4 samples for a spectrum")
        times = np.asarray(self.times)
        dt = float(times[1] - times[0])
        centred = values - values.mean()
        spectrum = np.abs(np.fft.rfft(centred))
        frequencies = np.fft.rfftfreq(values.size, d=dt)
        peak = int(spectrum[1:].argmax()) + 1
        return 2.0 * math.pi * float(frequencies[peak])
