"""Slow reference for the m-dipole radial functions.

``repro.fields.dipole.dipole_radial`` computes ``sin``, ``cos`` and the
powers of ``kR`` once and builds ``f1``, ``f2`` and ``f3`` from them.
This module keeps the three separate functions it replaced, each
recomputing its own trig and powers, and ``MDipoleWave.evaluate`` as
it was built on them, so tests can check that the shared helper and
the field reproduce them bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from repro.fields.base import FieldValues
from repro.fields.dipole import _SERIES_THRESHOLD

__all__ = ["dipole_f1", "dipole_f2", "dipole_f3", "evaluate"]


def dipole_f1(x: np.ndarray) -> np.ndarray:
    """Radial function ``f1 = j1``: ``sin(x)/x^2 - cos(x)/x``.

    Series near 0: ``x/3 - x^3/30 + x^5/840``.
    """
    xv = np.asarray(x, dtype=np.float64)
    small = np.abs(xv) < _SERIES_THRESHOLD
    safe = np.where(small, 1.0, xv)
    closed = np.sin(safe) / safe ** 2 - np.cos(safe) / safe
    x2 = xv * xv
    series = xv * (1.0 / 3.0 + x2 * (-1.0 / 30.0 + x2 / 840.0))
    return np.where(small, series, closed)


def dipole_f2(x: np.ndarray) -> np.ndarray:
    """Radial function ``f2 = j2``: ``(3/x^3 - 1/x) sin(x) - 3 cos(x)/x^2``.

    Series near 0: ``x^2/15 - x^4/210 + x^6/7560``.
    """
    xv = np.asarray(x, dtype=np.float64)
    small = np.abs(xv) < _SERIES_THRESHOLD
    safe = np.where(small, 1.0, xv)
    closed = (3.0 / safe ** 3 - 1.0 / safe) * np.sin(safe) \
        - 3.0 * np.cos(safe) / safe ** 2
    x2 = xv * xv
    series = x2 * (1.0 / 15.0 + x2 * (-1.0 / 210.0 + x2 / 7560.0))
    return np.where(small, series, closed)


def dipole_f3(x: np.ndarray) -> np.ndarray:
    """Radial function ``f3 = j0 - j1/x``: ``(1/x - 1/x^3) sin(x) + cos(x)/x^2``.

    Series near 0: ``2/3 - 2 x^2/15 + x^4/140``.
    """
    xv = np.asarray(x, dtype=np.float64)
    small = np.abs(xv) < _SERIES_THRESHOLD
    safe = np.where(small, 1.0, xv)
    closed = (1.0 / safe - 1.0 / safe ** 3) * np.sin(safe) \
        + np.cos(safe) / safe ** 2
    x2 = xv * xv
    series = 2.0 / 3.0 + x2 * (-2.0 / 15.0 + x2 / 140.0)
    return np.where(small, series, closed)


def evaluate(wave, x: np.ndarray, y: np.ndarray, z: np.ndarray,
             t: float) -> FieldValues:
    """``MDipoleWave.evaluate`` of ``wave``, built on the functions above."""
    xv = np.asarray(x, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    zv = np.asarray(z, dtype=np.float64)

    r2 = xv * xv + yv * yv + zv * zv
    r = np.sqrt(r2)
    kr = wave.wavenumber * r
    f1 = dipole_f1(kr)
    f2 = dipole_f2(kr)
    f3 = dipole_f3(kr)

    safe_r = np.where(r == 0.0, 1.0, r)
    f1_over_r = np.where(r == 0.0, wave.wavenumber / 3.0, f1 / safe_r)
    f2_over_r2 = np.where(r == 0.0, wave.wavenumber ** 2 / 15.0,
                          f2 / (safe_r * safe_r))

    two_a0 = 2.0 * wave.amplitude * wave.envelope(t)
    cos_t = math.cos(wave.omega * t)
    sin_t = math.sin(wave.omega * t)

    ex = -two_a0 * yv * cos_t * f1_over_r
    ey = two_a0 * xv * cos_t * f1_over_r
    ez = np.zeros_like(xv)

    bx = -two_a0 * xv * zv * sin_t * f2_over_r2
    if wave.paper_typos:
        by = -two_a0 * xv * yv * sin_t * f2_over_r2
        z2_over_r2 = np.where(r == 0.0, 0.0, zv * zv / (safe_r * safe_r))
        bz = -two_a0 * z2_over_r2 * sin_t * (z2_over_r2 * f2 + f3)
    else:
        by = -two_a0 * yv * zv * sin_t * f2_over_r2
        bz = -two_a0 * sin_t * (zv * zv * f2_over_r2 + f3)
    return FieldValues(ex, ey, ez, bx, by, bz)
