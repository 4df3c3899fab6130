"""Standing magnetic-dipole (m-dipole) wave — the paper's benchmark field.

Implements eqs. (14)-(15) of the paper: the tightly focused standing
m-dipole wave of Gonoskov et al. (dipole pulse theory), used to study
electron escape from the focal region ahead of vacuum-breakdown
experiments.

Two typos in the printed equations are corrected here (the default).
Deriving the field from the magnetic Hertz potential
``Pi = z_hat * C * j0(kR) * sin(omega t)`` (so that
``E = -(1/c) d/dt curl Pi`` and ``B = curl curl Pi`` satisfy Maxwell's
equations identically) gives:

* ``B_y`` is proportional to ``y z / R^2`` — the paper prints ``x y``.
  The corrected form follows from the axial symmetry of the dipole wave
  and is required for ``div B = 0``.
* The ``B_z`` prefactor is ``-2 A0``, not ``-2 A0 z^2 / R^2`` — with the
  printed extra factor the field would not solve Maxwell's equations
  (and would vanish on the z = 0 plane, breaking the symmetry).

The radial functions are spherical Bessel combinations,

* ``f1(x) = j1(x) = sin(x)/x^2 - cos(x)/x``
* ``f2(x) = j2(x) = (3/x^3 - 1/x) sin(x) - 3 cos(x)/x^2``
* ``f3(x) = j0(x) - j1(x)/x = (1/x - 1/x^3) sin(x) + cos(x)/x^2``

(the paper's eq. (15) prints the third one with the label ``f2``; it is
``f3``).  Each is evaluated by series near ``x = 0`` to avoid
catastrophic cancellation, making the fields smooth through the focus.
:func:`dipole_radial` evaluates all three at once, computing ``sin``,
``cos`` and the powers of ``x`` once for the three; the field and the
single-function forms both go through it.

Each point gets only the work it needs, with the same bits as the
plain whole-array expressions (``tests/_reference_dipole.py`` keeps
those, and the tests compare raw bits):

* ``sin``, ``cos`` and the closed forms run on the whole array.  A
  vector math library need not round the trig of an element the same
  way in a SIMD lane and in the scalar tail, so it is never evaluated
  on a masked subset.
* The series run only where ``|kR|`` is below the threshold (points
  within ``1e-2 / k``, about 1/600 of a wavelength, of the focus) and are
  assigned in place; they use only ``+ - * /``, which IEEE 754 rounds
  per element.
* The ``R = 0`` substitute and limits of ``f1/R`` and ``f2/R^2`` are
  selected only when some point sits exactly at the origin.

Setting ``paper_typos=True`` reproduces the literal printed equations
for comparison.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from ..constants import SPEED_OF_LIGHT
from ..errors import ConfigurationError
from .base import FieldSource, FieldValues

__all__ = ["dipole_radial", "dipole_f1", "dipole_f2", "dipole_f3",
           "dipole_amplitude", "MDipoleWave"]

#: Below this argument the closed forms lose digits to cancellation and
#: the Taylor series (error < 1e-16 at the threshold) is used instead.
_SERIES_THRESHOLD = 1.0e-2


def _closed_forms(safe: np.ndarray
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed forms of ``f1``, ``f2``, ``f3`` at ``safe`` (no zeros).

    ``sin``, ``cos``, ``1/x`` and the powers are computed once and
    freed on return, before the series are built, so sharing them does
    not raise the peak memory of a field evaluation.
    """
    sin = np.sin(safe)
    cos = np.cos(safe)
    safe2 = safe ** 2
    safe3 = safe ** 3
    inv = 1.0 / safe
    return (sin / safe2 - cos / safe,
            (3.0 / safe3 - inv) * sin - 3.0 * cos / safe2,
            (inv - 1.0 / safe3) * sin + cos / safe2)


def dipole_radial(x: np.ndarray
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three radial functions ``(f1, f2, f3)`` of one argument.

    Every value goes through the same operations, in the same order, as
    evaluating each function on its own, with the trig and powers of
    ``x`` shared, so the results are bit-identical to the three
    separate functions.

    * The closed forms, ``sin`` and ``cos`` included, run on the whole
      array: a vector math library may round ``sin`` of an element
      differently in a SIMD lane and in the scalar tail, so the trig of
      a masked subset is not guaranteed to match.  Points below the
      series threshold are fed ``x = 1`` (their closed form is
      discarded); when there are none, ``x`` is used as it is.
    * The series run only on the points below the threshold and are
      assigned in place.  They use only ``+ - * /``, which IEEE 754
      rounds per element whatever the vector width, so a masked subset
      gives the same bits as the whole array.

    A scalar argument gives 0-d arrays.
    """
    xv = np.asarray(x, dtype=np.float64)
    flat = xv.reshape(-1)
    small = np.abs(flat) < _SERIES_THRESHOLD
    any_small = bool(small.any())
    f1, f2, f3 = _closed_forms(np.where(small, 1.0, flat) if any_small
                               else flat)
    if any_small:
        xs = flat[small]
        x2 = xs * xs
        f1[small] = xs * (1.0 / 3.0 + x2 * (-1.0 / 30.0 + x2 / 840.0))
        f2[small] = x2 * (1.0 / 15.0 + x2 * (-1.0 / 210.0 + x2 / 7560.0))
        f3[small] = 2.0 / 3.0 + x2 * (-2.0 / 15.0 + x2 / 140.0)
    return f1.reshape(xv.shape), f2.reshape(xv.shape), f3.reshape(xv.shape)


def dipole_f1(x: np.ndarray) -> np.ndarray:
    """Radial function ``f1 = j1``: ``sin(x)/x^2 - cos(x)/x``.

    Series near 0: ``x/3 - x^3/30 + x^5/840``.
    """
    return dipole_radial(x)[0]


def dipole_f2(x: np.ndarray) -> np.ndarray:
    """Radial function ``f2 = j2``: ``(3/x^3 - 1/x) sin(x) - 3 cos(x)/x^2``.

    Series near 0: ``x^2/15 - x^4/210 + x^6/7560``.
    """
    return dipole_radial(x)[1]


def dipole_f3(x: np.ndarray) -> np.ndarray:
    """Radial function ``f3 = j0 - j1/x``: ``(1/x - 1/x^3) sin(x) + cos(x)/x^2``.

    Series near 0: ``2/3 - 2 x^2/15 + x^4/140``.
    """
    return dipole_radial(x)[2]


def dipole_amplitude(power: float, omega: float) -> float:
    """Amplitude ``A0 = k sqrt(3 P / c)`` of eq. (14).

    ``power`` in erg/s (CGS), ``omega`` in 1/s.  Returns statvolt/cm.
    """
    if power <= 0.0:
        raise ConfigurationError(f"power must be positive, got {power!r}")
    if omega <= 0.0:
        raise ConfigurationError(f"omega must be positive, got {omega!r}")
    k = omega / SPEED_OF_LIGHT
    return k * math.sqrt(3.0 * power / SPEED_OF_LIGHT)


class MDipoleWave(FieldSource):
    """Standing m-dipole wave of power ``power`` and frequency ``omega``.

    Defaults are the paper's benchmark: ``P = 0.1 PW``,
    ``omega = 2.1e15 1/s`` (wavelength 0.9 um).

    Args:
        power: Wave power [erg/s].
        omega: Angular frequency [1/s].
        paper_typos: If True, evaluate the *literal* printed eq. (14)
            (``B_y`` proportional to x*y and the spurious ``z^2/R^2``
            prefactor on ``B_z``) instead of the Maxwell-consistent
            corrected form.  For comparison studies only.
        ramp_cycles: Optional temporal envelope: the amplitude rises as
            ``sin^2`` over this many optical cycles and is constant
            afterwards.  Models the leading edge of the "pulsed
            multi-PW incoming m-dipole wave" the paper describes (the
            benchmark itself uses the steady standing wave,
            ``ramp_cycles = 0``).  The envelope multiplies the standing
            wave globally, so the field is Maxwell-consistent up to
            terms of order 1/(omega * ramp duration).
    """

    #: R, 1/R, trig of kR and omega*t, three radial functions, component
    #: assembly: roughly 250 flops per point (sqrt/sin/cos counted at
    #: their usual ~10-20 flop equivalents).  Used by the cost model for
    #: the "Analytical Fields" scenario.
    flops_per_evaluation = 250

    #: Paper benchmark values.
    PAPER_POWER = 0.1e15 * 1.0e7        # 0.1 PW in erg/s
    PAPER_OMEGA = 2.1e15                # 1/s

    def __init__(self, power: float = PAPER_POWER, omega: float = PAPER_OMEGA,
                 paper_typos: bool = False,
                 ramp_cycles: float = 0.0) -> None:
        self.power = float(power)
        self.omega = float(omega)
        self.amplitude = dipole_amplitude(self.power, self.omega)
        self.paper_typos = bool(paper_typos)
        if ramp_cycles < 0.0:
            raise ConfigurationError(
                f"ramp_cycles must be >= 0, got {ramp_cycles!r}")
        self.ramp_cycles = float(ramp_cycles)

    def envelope(self, t: float) -> float:
        """Temporal amplitude factor at time ``t`` (1 when unramped)."""
        if self.ramp_cycles == 0.0:
            return 1.0
        ramp_time = self.ramp_cycles * 2.0 * math.pi / self.omega
        if t <= 0.0:
            return 0.0
        if t >= ramp_time:
            return 1.0
        return math.sin(0.5 * math.pi * t / ramp_time) ** 2

    @property
    def wavenumber(self) -> float:
        """``k = omega / c`` [1/cm]."""
        return self.omega / SPEED_OF_LIGHT

    @property
    def wavelength(self) -> float:
        """Vacuum wavelength ``2 pi / k`` [cm]."""
        return 2.0 * math.pi / self.wavenumber

    def evaluate(self, x: np.ndarray, y: np.ndarray, z: np.ndarray,
                 t: float) -> FieldValues:
        xv = np.asarray(x, dtype=np.float64)
        yv = np.asarray(y, dtype=np.float64)
        zv = np.asarray(z, dtype=np.float64)

        r = np.sqrt(xv * xv + yv * yv + zv * zv)
        f1, f2, f3 = dipole_radial(self.wavenumber * r)

        # f1/R and f2/R^2 are finite at the origin (f1 ~ kR/3,
        # f2 ~ (kR)^2/15); substitute R = 1 where R = 0 — the series
        # numerators vanish there at the same order.  The origin is
        # rare, so the substitute and the limits are selected only when
        # some R is 0.
        origin = r == 0.0
        at_origin = bool(origin.any())
        safe_r = np.where(origin, 1.0, r) if at_origin else r
        safe_r2 = safe_r * safe_r
        f1_over_r = f1 / safe_r
        f2_over_r2 = f2 / safe_r2
        if at_origin:
            f1_over_r = np.where(origin, self.wavenumber / 3.0, f1_over_r)
            f2_over_r2 = np.where(origin, self.wavenumber ** 2 / 15.0,
                                  f2_over_r2)

        two_a0 = 2.0 * self.amplitude * self.envelope(t)
        cos_t = math.cos(self.omega * t)
        sin_t = math.sin(self.omega * t)

        ex = -two_a0 * yv * cos_t * f1_over_r
        ey = two_a0 * xv * cos_t * f1_over_r
        ez = np.zeros_like(xv)

        bx = -two_a0 * xv * zv * sin_t * f2_over_r2
        if self.paper_typos:
            by = -two_a0 * xv * yv * sin_t * f2_over_r2
            z2_over_r2 = np.where(origin, 0.0, zv * zv / safe_r2)
            bz = -two_a0 * z2_over_r2 * sin_t * (z2_over_r2 * f2 + f3)
        else:
            by = -two_a0 * yv * zv * sin_t * f2_over_r2
            bz = -two_a0 * sin_t * (zv * zv * f2_over_r2 + f3)
        return FieldValues(ex, ey, ez, bx, by, bz)
