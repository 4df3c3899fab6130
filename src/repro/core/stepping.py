"""Leapfrog setup, simulation drivers and a high-order reference integrator.

The Boris scheme stores momentum displaced by half a time step behind
the position ("their integration leap over each other").  An ensemble
built from physical initial conditions therefore needs its momenta
shifted back by ``dt/2`` before the first push
(:func:`setup_leapfrog`) and forward by ``dt/2`` for time-centred
diagnostics (:func:`undo_leapfrog`).

:func:`advance` is the plain single-threaded driver used by tests and
examples; the benchmark harness drives the same kernels through the
simulated oneAPI runtime instead.

:func:`integrate_trajectory_rk4` integrates one particle with classic
RK4 at small step sizes — the accuracy reference the validation tests
compare every pusher against.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..constants import SPEED_OF_LIGHT
from ..errors import SimulationError
from ..fields.base import FieldSource
from ..particles.ensemble import ParticleEnsemble
from .boris import BorisPusher
from .pushers import MomentumPusher

__all__ = ["setup_leapfrog", "undo_leapfrog", "advance", "state_digest",
           "TrajectoryRecorder", "integrate_trajectory_rk4"]

#: Component order hashed by :func:`state_digest` (the full dynamic state).
_DIGEST_COMPONENTS = ("x", "y", "z", "px", "py", "pz", "gamma")


def state_digest(ensemble: ParticleEnsemble) -> str:
    """SHA-256 over the ensemble's dynamic state, as a hex string.

    The bit-exactness witness used by the fusion tests and the bench
    harness: two runs touched the same physics if and only if their
    digests match, down to the last ulp.  Hashes the raw bytes of each
    component in a fixed order, so it is layout-independent only when
    the stored values are — which is the property under test.
    """
    import hashlib

    digest = hashlib.sha256()
    for name in _DIGEST_COMPONENTS:
        digest.update(np.ascontiguousarray(ensemble.component(name)).tobytes())
    return digest.hexdigest()


def _momentum_half_kick(ensemble: ParticleEnsemble, source: FieldSource,
                        t: float, half_dt: float) -> None:
    """Apply ``p += half_dt * q (E + v x B / c)`` at the current positions.

    A first-order momentum-only step used to (un)stagger the leapfrog;
    positions are untouched.  Runs in float64 regardless of storage
    precision — it is called once, accuracy is free.
    """
    fields = source.evaluate(ensemble.component("x"),
                             ensemble.component("y"),
                             ensemble.component("z"), t)
    charge = ensemble.charges()
    vel = ensemble.velocities() / SPEED_OF_LIGHT
    px = ensemble.component("px")
    py = ensemble.component("py")
    pz = ensemble.component("pz")
    fx = np.asarray(fields.ex, dtype=np.float64) \
        + vel[:, 1] * fields.bz - vel[:, 2] * fields.by
    fy = np.asarray(fields.ey, dtype=np.float64) \
        + vel[:, 2] * fields.bx - vel[:, 0] * fields.bz
    fz = np.asarray(fields.ez, dtype=np.float64) \
        + vel[:, 0] * fields.by - vel[:, 1] * fields.bx
    px[:] = px + half_dt * charge * fx
    py[:] = py + half_dt * charge * fy
    pz[:] = pz + half_dt * charge * fz
    ensemble.update_gammas()


def setup_leapfrog(ensemble: ParticleEnsemble, source: FieldSource,
                   dt: float, t0: float = 0.0) -> None:
    """Shift momenta from ``t0`` back to ``t0 - dt/2`` (leapfrog stagger)."""
    _momentum_half_kick(ensemble, source, t0, -0.5 * dt)


def undo_leapfrog(ensemble: ParticleEnsemble, source: FieldSource,
                  dt: float, t: float) -> None:
    """Shift momenta from ``t - dt/2`` forward to ``t`` (for diagnostics)."""
    _momentum_half_kick(ensemble, source, t, +0.5 * dt)


def advance(ensemble: ParticleEnsemble, source: FieldSource, dt: float,
            steps: int,
            pusher: Optional[MomentumPusher] = None,
            start_time: float = 0.0,
            callback: Optional[Callable[[int, float, ParticleEnsemble], None]]
            = None,
            check_finite: bool = False) -> float:
    """Advance the ensemble ``steps`` times through ``source``.

    At step ``n`` the fields are evaluated at the current positions and
    time ``start_time + n dt`` (the integer level the rotation is
    centred on), then the pusher advances momentum to ``n + 1/2`` and
    position to ``n + 1``.  Returns the final time
    ``start_time + steps * dt``.

    ``callback(step, time_after_step, ensemble)`` is invoked after each
    push.  With ``check_finite`` the driver validates positions each
    step and raises :class:`SimulationError` on the first NaN/inf.
    """
    if steps < 0:
        raise SimulationError(f"steps must be >= 0, got {steps}")
    push = pusher if pusher is not None else BorisPusher()
    time = float(start_time)
    for step in range(steps):
        fields = source.evaluate(ensemble.component("x"),
                                 ensemble.component("y"),
                                 ensemble.component("z"), time)
        push.push(ensemble, fields, dt)
        time = start_time + (step + 1) * dt
        if check_finite and not np.all(np.isfinite(ensemble.component("x"))):
            raise SimulationError(f"non-finite particle position after "
                                  f"step {step} (t = {time:.6g})")
        if callback is not None:
            callback(step, time, ensemble)
    return time


class TrajectoryRecorder:
    """Callback object that records the ensemble state after every step.

    Intended for small ensembles (it stores dense copies).  Use as::

        recorder = TrajectoryRecorder()
        advance(ensemble, source, dt, steps, callback=recorder)
        positions = recorder.positions()       # (steps, N, 3)
    """

    def __init__(self) -> None:
        self.times: List[float] = []
        self._positions: List[np.ndarray] = []
        self._momenta: List[np.ndarray] = []

    def __call__(self, step: int, time: float,
                 ensemble: ParticleEnsemble) -> None:
        self.times.append(time)
        self._positions.append(ensemble.positions())
        self._momenta.append(ensemble.momenta())

    def positions(self) -> np.ndarray:
        """(steps, N, 3) recorded positions."""
        return np.asarray(self._positions)

    def momenta(self) -> np.ndarray:
        """(steps, N, 3) recorded momenta."""
        return np.asarray(self._momenta)


def integrate_trajectory_rk4(position: np.ndarray, momentum: np.ndarray,
                             mass: float, charge: float,
                             source: FieldSource, dt: float, steps: int,
                             t0: float = 0.0,
                             ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Classic RK4 integration of one particle (accuracy reference).

    Integrates the *unsplit* equations ``dr/dt = p / (gamma m)``,
    ``dp/dt = q (E + v x B / c)`` in float64.  Unlike the leapfrog
    pushers, position and momentum here live at the same time levels.

    Returns ``(times, positions, momenta)`` with shapes ``(steps+1,)``,
    ``(steps+1, 3)``, ``(steps+1, 3)`` including the initial state.
    """
    mc = mass * SPEED_OF_LIGHT

    def derivative(r: np.ndarray, p: np.ndarray, t: float
                   ) -> Tuple[np.ndarray, np.ndarray]:
        gamma = math.sqrt(1.0 + float(p @ p) / (mc * mc))
        v = p / (gamma * mass)
        f = source.evaluate(np.array([r[0]]), np.array([r[1]]),
                            np.array([r[2]]), t)
        e = np.array([f.ex[0], f.ey[0], f.ez[0]])
        b = np.array([f.bx[0], f.by[0], f.bz[0]])
        force = charge * (e + np.cross(v, b) / SPEED_OF_LIGHT)
        return v, force

    r = np.asarray(position, dtype=np.float64).copy()
    p = np.asarray(momentum, dtype=np.float64).copy()
    times = np.empty(steps + 1)
    positions = np.empty((steps + 1, 3))
    momenta = np.empty((steps + 1, 3))
    times[0] = t0
    positions[0] = r
    momenta[0] = p

    for n in range(steps):
        t = t0 + n * dt
        k1r, k1p = derivative(r, p, t)
        k2r, k2p = derivative(r + 0.5 * dt * k1r, p + 0.5 * dt * k1p,
                              t + 0.5 * dt)
        k3r, k3p = derivative(r + 0.5 * dt * k2r, p + 0.5 * dt * k2p,
                              t + 0.5 * dt)
        k4r, k4p = derivative(r + dt * k3r, p + dt * k3p, t + dt)
        r = r + dt / 6.0 * (k1r + 2.0 * k2r + 2.0 * k3r + k4r)
        p = p + dt / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        times[n + 1] = t0 + (n + 1) * dt
        positions[n + 1] = r
        momenta[n + 1] = p
    return times, positions, momenta
