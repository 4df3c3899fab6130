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
    component) at the particles' current positions, time ``t(n)``; they
    are cast to the storage precision first.  All arithmetic runs in
    the ensemble's storage precision; for AoS ensembles the component
    views are strided, so the kernel performs the non-unit-stride
    accesses the paper discusses.

    The step runs in place, in ``tests/_reference_boris.py``'s
    operation order: each sum, product, quotient and square root keeps
    its operands and their order, and only where its result is written
    changes, so every value has the same bits as the plain expressions.
    The passes it saves:

    * ``1/(m c)``, ``q dt/2`` and ``(q dt/2) (1/c)`` depend on the
      species only.  They are computed on the typed species table, a
      few entries, and gathered per particle (one scalar each when the
      block holds one species): the same operation on the same
      operands gives the same bits.
    * ``(q dt/2) E`` enters both half kicks and is computed once.
    * ``p(n+1/2)`` and ``gamma`` are written straight into the
      ensemble, and the drift adds to the positions in place.
    """
    dtype = ensemble.precision.dtype
    fp = dtype.type
    dt_fp = fp(dt)
    half = fp(0.5)
    one = fp(1.0)
    two = fp(2.0)
    inv_c = fp(1.0 / SPEED_OF_LIGHT)

    table = ensemble.type_table
    mass_lut, charge_lut = table.typed_luts(dtype)
    inv_mc_lut = one / (mass_lut * fp(SPEED_OF_LIGHT))
    e_coeff_lut = charge_lut * dt_fp * half
    luts = (mass_lut, inv_mc_lut, e_coeff_lut, e_coeff_lut * inv_c)
    # The whole chain must stay in storage precision.  The in-place
    # stores below would cast a float64 result back without a word
    # (numpy's ``same_kind`` rule), so a float64 operand would give the
    # right answer by the wrong, unrepresentative arithmetic.  The
    # fields are cast and the components are stored in ``dtype``; the
    # species constants are the only other operands.
    if any(lut.dtype != dtype for lut in luts):
        raise SimulationError(
            f"boris_push drifted out of storage precision: species "
            f"constants are {[str(lut.dtype) for lut in luts]}, the "
            f"ensemble stores {dtype}")
    mass, inv_mc, e_coeff, e_coeff_over_c = table.gather(
        ensemble.type_ids, *luts)

    ex, ey, ez, bx, by, bz = (np.asarray(component, dtype=dtype)
                              for component in fields)
    px = ensemble.component("px")
    py = ensemble.component("py")
    pz = ensemble.component("pz")

    # (q dt/2) E, for both half kicks.
    kick_x = e_coeff * ex
    kick_y = e_coeff * ey
    kick_z = e_coeff * ez

    # Step 1: half electric kick -> p-.
    pmx = px + kick_x
    pmy = py + kick_y
    pmz = pz + kick_z

    # gamma(p-) at time level n.
    gamma_n = _u_squared(pmx, pmy, pmz, inv_mc)
    gamma_n += one
    np.sqrt(gamma_n, out=gamma_n)

    # Step 2: rotation.  t = q B dt / (2 gamma m c), s = 2 t / (1 + t^2).
    t_coeff = np.multiply(gamma_n, mass, out=gamma_n)
    np.divide(e_coeff_over_c, t_coeff, out=t_coeff)
    tx = bx * t_coeff
    ty = by * t_coeff
    tz = bz * t_coeff
    s_coeff = tx * tx
    s_coeff += ty * ty
    s_coeff += tz * tz
    s_coeff += one
    np.divide(two, s_coeff, out=s_coeff)
    sx = tx * s_coeff
    sy = ty * s_coeff
    sz = tz * s_coeff

    # p' = p- + p- x t
    ppx = _cross_add(pmx, pmy, tz, pmz, ty)
    ppy = _cross_add(pmy, pmz, tx, pmx, tz)
    ppz = _cross_add(pmz, pmx, ty, pmy, tx)

    # p+ = p- + p' x s, then step 3: the second half kick, stored.
    np.add(_cross_add(pmx, ppy, sz, ppz, sy), kick_x, out=px)
    np.add(_cross_add(pmy, ppz, sx, ppx, sz), kick_y, out=py)
    np.add(_cross_add(pmz, ppx, sy, ppy, sx), kick_z, out=pz)

    # Step 4: new gamma, velocity, position drift.
    gamma = ensemble.component("gamma")
    u2 = _u_squared(px, py, pz, inv_mc)
    u2 += one
    np.sqrt(u2, out=gamma)
    v_coeff = gamma * mass
    np.divide(dt_fp, v_coeff, out=v_coeff)
    for axis, p in zip("xyz", (px, py, pz)):
        position = ensemble.component(axis)
        position += np.multiply(p, v_coeff, out=pmx)


def _u_squared(px: np.ndarray, py: np.ndarray, pz: np.ndarray,
               inv_mc: np.ndarray) -> np.ndarray:
    """``(px/mc)^2 + (py/mc)^2 + (pz/mc)^2`` in a fresh array, summed
    left to right (``x ** 2`` on an array is one rounded product)."""
    total = px * inv_mc
    total *= total
    u = py * inv_mc
    u *= u
    total += u
    np.multiply(pz, inv_mc, out=u)
    u *= u
    total += u
    return total


def _cross_add(base: np.ndarray, a: np.ndarray, b: np.ndarray,
               c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """``base + (a * b - c * d)`` in a fresh array: one component of
    ``p + p x v``."""
    out = a * b
    out -= c * d
    return np.add(base, out, out=out)


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
