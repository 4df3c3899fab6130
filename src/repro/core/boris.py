"""The Boris particle pusher (eqs. 6-13 of the paper).

Two implementations share the same mathematics:

* :func:`boris_push_particle` — scalar, one particle at a time, written
  to match the paper's four-step procedure (and the Hi-Chi C++ kernel)
  line by line.  The test suite uses it as the semantic reference.
* :func:`boris_push` — vectorized over a whole
  :class:`~repro.particles.ensemble.ParticleEnsemble` in the ensemble's
  own storage precision and memory layout.  This is the kernel the
  simulated oneAPI runtime executes.

The scheme (Gaussian units, ``dp/dt = q (E + v x B / c)``):

1. half electric kick:      ``p- = p(n-1/2) + q E dt/2``
2. magnetic rotation:       ``t = q B dt / (2 gamma(p-) m c)``,
                            ``s = 2 t / (1 + t^2)``,
                            ``p' = p- + p- x t``, ``p+ = p- + p' x s``
3. half electric kick:      ``p(n+1/2) = p+ + q E dt/2``
4. position drift:          ``r(n+1) = r(n) + p / (gamma m) * dt``

The rotation preserves ``|p|`` exactly (independently of dt), which is
the property the paper highlights and our property tests verify.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

from ..constants import SPEED_OF_LIGHT
from ..errors import SimulationError
from ..fields.base import FieldValues
from ..fp import FP3
from ..particles.ensemble import ParticleEnsemble
from ..particles.particle import Particle
from ..particles.proxy import ParticleProxy

__all__ = ["boris_push_particle", "boris_push", "boris_rotation", "BorisPusher"]


def boris_rotation(p_minus: FP3, b: FP3, gamma: float, mass: float,
                   charge: float, dt: float) -> FP3:
    """Rotate ``p_minus`` about ``b`` by the Boris half-angle construction.

    Returns ``p+`` with ``|p+| == |p-|`` exactly (up to round-off); the
    rotation angle is ``~ q |B| dt / (gamma m c)`` for small dt.
    """
    factor = charge * dt / (2.0 * gamma * mass * SPEED_OF_LIGHT)
    t = b * factor
    s = t * (2.0 / (1.0 + t.norm2()))
    p_prime = p_minus + p_minus.cross(t)
    return p_minus + p_prime.cross(s)


def boris_push_particle(particle: Union[Particle, ParticleProxy],
                        e: FP3, b: FP3, dt: float,
                        mass: float, charge: float) -> None:
    """Advance one particle by one Boris step (scalar reference).

    Mutates ``particle`` in place: momentum ``p(n-1/2) -> p(n+1/2)``,
    position ``r(n) -> r(n+1)``, and the stored gamma.  ``e`` and ``b``
    are the fields at the particle position at time ``t(n)``.
    """
    mc = mass * SPEED_OF_LIGHT
    e_coeff = charge * dt / 2.0

    # Step 1: half-step due to E (eq. 9).
    p_minus = particle.momentum + e * e_coeff

    # gamma at integer time level n, computed from p- (eq. 13 context).
    gamma_n = math.sqrt(1.0 + p_minus.norm2() / (mc * mc))

    # Step 2: rotation about B (eqs. 12-13).
    p_plus = boris_rotation(p_minus, b, gamma_n, mass, charge, dt)

    # Step 3: half-step due to E (eq. 10).
    p_new = p_plus + e * e_coeff

    # Step 4: velocity from the new momentum, then position drift (eq. 7).
    gamma_new = math.sqrt(1.0 + p_new.norm2() / (mc * mc))
    velocity = p_new * (1.0 / (gamma_new * mass))

    particle.momentum = p_new
    particle.gamma = gamma_new
    particle.position = particle.position + velocity * dt


def boris_push(ensemble: ParticleEnsemble, fields: FieldValues,
               dt: float) -> None:
    """Advance every particle of ``ensemble`` by one Boris step.

    ``fields`` holds per-particle E and B values (shape ``(N,)`` per
    component) at the particles' current positions, time ``t(n)``.  All
    arithmetic runs in the ensemble's storage precision; for AoS
    ensembles the component views are strided, so the kernel performs
    the non-unit-stride accesses the paper discusses.
    """
    dtype = ensemble.precision.dtype
    dt_fp = dtype.type(dt)
    half = dtype.type(0.5)
    one = dtype.type(1.0)
    two = dtype.type(2.0)
    inv_c = dtype.type(1.0 / SPEED_OF_LIGHT)

    # Typed-LUT lookups: the species table is cast to the storage
    # precision once and gathered per particle, instead of gathering
    # float64 and casting the O(N) result on every call.
    mass = ensemble.masses(dtype)
    charge = ensemble.charges(dtype)
    inv_mc = one / (mass * dtype.type(SPEED_OF_LIGHT))
    e_coeff = charge * dt_fp * half

    ex = np.asarray(fields.ex, dtype=dtype)
    ey = np.asarray(fields.ey, dtype=dtype)
    ez = np.asarray(fields.ez, dtype=dtype)
    bx = np.asarray(fields.bx, dtype=dtype)
    by = np.asarray(fields.by, dtype=dtype)
    bz = np.asarray(fields.bz, dtype=dtype)

    px = ensemble.component("px")
    py = ensemble.component("py")
    pz = ensemble.component("pz")

    # Step 1: half electric kick -> p-.
    pmx = px + e_coeff * ex
    pmy = py + e_coeff * ey
    pmz = pz + e_coeff * ez

    # gamma(p-) at time level n.
    um2 = (pmx * inv_mc) ** 2 + (pmy * inv_mc) ** 2 + (pmz * inv_mc) ** 2
    gamma_n = np.sqrt(one + um2)

    # Step 2: rotation.  t = q B dt / (2 gamma m c), s = 2 t / (1 + t^2).
    t_coeff = e_coeff * inv_c / (gamma_n * mass)
    tx = bx * t_coeff
    ty = by * t_coeff
    tz = bz * t_coeff
    t2 = tx * tx + ty * ty + tz * tz
    s_coeff = two / (one + t2)
    sx = tx * s_coeff
    sy = ty * s_coeff
    sz = tz * s_coeff

    # p' = p- + p- x t
    ppx = pmx + (pmy * tz - pmz * ty)
    ppy = pmy + (pmz * tx - pmx * tz)
    ppz = pmz + (pmx * ty - pmy * tx)

    # p+ = p- + p' x s
    plx = pmx + (ppy * sz - ppz * sy)
    ply = pmy + (ppz * sx - ppx * sz)
    plz = pmz + (ppx * sy - ppy * sx)

    # Step 3: half electric kick -> p(n+1/2), stored back.
    px_new = plx + e_coeff * ex
    py_new = ply + e_coeff * ey
    pz_new = plz + e_coeff * ez

    # Step 4: new gamma, velocity, position drift.
    u2 = (px_new * inv_mc) ** 2 + (py_new * inv_mc) ** 2 \
        + (pz_new * inv_mc) ** 2
    gamma_new = np.sqrt(one + u2)
    v_coeff = dt_fp / (gamma_new * mass)

    # The whole chain must have stayed in storage precision: a float64
    # operand anywhere above silently promotes everything after it, and
    # the stores below would round it away — right answer, wrong (and
    # unrepresentative) arithmetic.
    if px_new.dtype != dtype or gamma_new.dtype != dtype:
        raise SimulationError(
            f"boris_push drifted out of storage precision: computed "
            f"{px_new.dtype}/{gamma_new.dtype}, ensemble stores {dtype}")

    px[:] = px_new
    py[:] = py_new
    pz[:] = pz_new
    ensemble.component("gamma")[:] = gamma_new
    ensemble.component("x")[:] += px_new * v_coeff
    ensemble.component("y")[:] += py_new * v_coeff
    ensemble.component("z")[:] += pz_new * v_coeff


class BorisPusher:
    """Class wrapper giving the Boris kernel the common pusher interface.

    See :class:`repro.core.pushers.MomentumPusher` for the interface
    contract; this class is registered there under the name ``"boris"``.
    """

    name = "boris"

    def push(self, ensemble: ParticleEnsemble, fields: FieldValues,
             dt: float) -> None:
        """One Boris step over the whole ensemble."""
        boris_push(ensemble, fields, dt)
