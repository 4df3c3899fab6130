"""Scalar storage-precision reference of one vectorised Boris step.

``repro.core.boris.boris_push`` runs the Boris arithmetic on whole
arrays in the ensemble's storage precision.  This module runs the same
arithmetic one particle at a time on ``np.float32`` / ``np.float64``
scalars, in ``boris_push``'s operation order: every product, sum,
quotient and square root rounds once, in the same association, so the
two agree bit for bit.  ``numpy``'s ``x ** 2`` on an array is
``np.square``, a single rounded product, written here as ``u * u``.

Unlike ``repro.validation.reference_push``, which keeps every
intermediate in double, this reference isolates the kernel's operation
order from its precision: a mismatch means the vectorised kernel
reassociated or promoted something, not that float rounding drifted.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.constants import SPEED_OF_LIGHT
from repro.fields.base import FieldValues
from repro.particles.ensemble import ParticleEnsemble

__all__ = ["t_squared", "boris_step"]


def t_squared(tx, ty, tz):
    """``|t|^2`` in ``boris_push``'s summation order."""
    return tx * tx + ty * ty + tz * tz


def boris_step(ensemble: ParticleEnsemble, fields: FieldValues, dt: float,
               t2_of: Callable = t_squared) -> None:
    """Advance ``ensemble`` by one Boris step, particle by particle.

    ``fields`` holds the per-particle E and B values in the storage
    precision.  ``t2_of`` computes ``|t|^2`` from the rotation vector;
    tests pass a reordered sum to show the bit-exact check notices.
    """
    dtype = ensemble.precision.dtype
    fp = dtype.type
    dt_fp = fp(dt)
    half, one, two = fp(0.5), fp(1.0), fp(2.0)
    inv_c = fp(1.0 / SPEED_OF_LIGHT)
    c = fp(SPEED_OF_LIGHT)

    mass_lut, charge_lut = ensemble.type_table.typed_luts(dtype)
    type_ids = ensemble.type_ids
    ex, ey, ez, bx, by, bz = (np.asarray(component, dtype=dtype)
                              for component in fields)
    x, y, z = (ensemble.component(name) for name in ("x", "y", "z"))
    px, py, pz = (ensemble.component(name) for name in ("px", "py", "pz"))
    gamma = ensemble.component("gamma")

    for i in range(ensemble.size):
        mass, charge = mass_lut[type_ids[i]], charge_lut[type_ids[i]]
        inv_mc = one / (mass * c)
        e_coeff = charge * dt_fp * half

        pmx = px[i] + e_coeff * ex[i]
        pmy = py[i] + e_coeff * ey[i]
        pmz = pz[i] + e_coeff * ez[i]

        ux, uy, uz = pmx * inv_mc, pmy * inv_mc, pmz * inv_mc
        gamma_n = np.sqrt(one + (ux * ux + uy * uy + uz * uz))

        t_coeff = e_coeff * inv_c / (gamma_n * mass)
        tx, ty, tz = bx[i] * t_coeff, by[i] * t_coeff, bz[i] * t_coeff
        s_coeff = two / (one + t2_of(tx, ty, tz))
        sx, sy, sz = tx * s_coeff, ty * s_coeff, tz * s_coeff

        ppx = pmx + (pmy * tz - pmz * ty)
        ppy = pmy + (pmz * tx - pmx * tz)
        ppz = pmz + (pmx * ty - pmy * tx)

        plx = pmx + (ppy * sz - ppz * sy)
        ply = pmy + (ppz * sx - ppx * sz)
        plz = pmz + (ppx * sy - ppy * sx)

        px_new = plx + e_coeff * ex[i]
        py_new = ply + e_coeff * ey[i]
        pz_new = plz + e_coeff * ez[i]

        ux, uy, uz = px_new * inv_mc, py_new * inv_mc, pz_new * inv_mc
        gamma_new = np.sqrt(one + (ux * ux + uy * uy + uz * uz))
        v_coeff = dt_fp / (gamma_new * mass)

        px[i], py[i], pz[i] = px_new, py_new, pz_new
        gamma[i] = gamma_new
        x[i] = x[i] + px_new * v_coeff
        y[i] = y[i] + py_new * v_coeff
        z[i] = z[i] + pz_new * v_coeff
