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
  assigned only where some point sits exactly at the origin, and the
  origin is looked for only when some point needs the series.

:meth:`MDipoleWave.evaluate_into` is the one evaluation path; it writes
straight into a caller's six arrays (the precalculated field's
storage), and :meth:`MDipoleWave.evaluate` hands it six fresh float64
arrays.  Each expression is chained in place with ``out=``, keeping
every operation's operands and their order, so it rounds as the plain
expression does, and the last product of each component is rounded to
the storage precision once, on its store.  ``z * z`` (in ``R^2`` and
``B_z``) and ``(-2 A0) * y`` (in ``E_x`` and the corrected ``B_y``)
are each computed once: the same product of the same operands.

Setting ``paper_typos=True`` reproduces the literal printed equations
for comparison.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

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

    ``sin``, ``cos``, ``1/x`` and the powers are computed once and each
    function is chained in place, in its expression's order:
    ``sin/x^2 - cos/x``, ``(3/x^3 - 1/x) sin - (3 cos)/x^2`` and
    ``(1/x - 1/x^3) sin + cos/x^2``.  ``f3`` is built last, in the
    buffers of ``1/x``, ``x^3`` and ``cos``, which nothing needs after
    it.
    """
    sin = np.sin(safe)
    cos = np.cos(safe)
    safe2 = safe ** 2
    safe3 = safe ** 3
    inv = 1.0 / safe
    f1 = sin / safe2
    scratch = cos / safe
    f1 -= scratch
    f2 = 3.0 / safe3
    f2 -= inv
    f2 *= sin
    np.multiply(3.0, cos, out=scratch)
    scratch /= safe2
    f2 -= scratch
    f3 = np.subtract(inv, np.divide(1.0, safe3, out=safe3), out=inv)
    f3 *= sin
    f3 += np.divide(cos, safe2, out=cos)
    return f1, f2, f3


def _radial(x: np.ndarray, magnitude: np.ndarray
            ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                       Optional[np.ndarray]]:
    """``f1, f2, f3`` of a float64 array ``x`` and its series mask.

    ``magnitude`` is ``|x|`` (``x`` itself where it cannot be negative).
    The mask is None when no point is below the series threshold.
    """
    small = magnitude < _SERIES_THRESHOLD
    if not small.any():
        return (*_closed_forms(x), None)
    f1, f2, f3 = _closed_forms(np.where(small, 1.0, x))
    xs = x[small]
    x2 = xs * xs
    f1[small] = xs * (1.0 / 3.0 + x2 * (-1.0 / 30.0 + x2 / 840.0))
    f2[small] = x2 * (1.0 / 15.0 + x2 * (-1.0 / 210.0 + x2 / 7560.0))
    f3[small] = 2.0 / 3.0 + x2 * (-2.0 / 15.0 + x2 / 140.0)
    return f1, f2, f3, small


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
    f1, f2, f3, _ = _radial(flat, np.abs(flat))
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
        out = FieldValues(*(np.empty(xv.size) for _ in FieldValues._fields))
        self.evaluate_into(*(np.asarray(axis, dtype=np.float64).reshape(-1)
                             for axis in (xv, y, z)), t, out)
        return FieldValues(*(component.reshape(xv.shape)
                             for component in out))

    def evaluate_into(self, x: np.ndarray, y: np.ndarray, z: np.ndarray,
                      t: float, out: FieldValues) -> None:
        """Write the field at 1-D coordinate arrays into ``out``.

        The arithmetic is the plain whole-array expression of each
        component (``tests/_reference_dipole.py``), chained in place:
        every operation keeps its operands and their order, so every
        intermediate has the same bits.  Each component's last product
        is stored straight into ``out``; numpy computes it in float64
        and rounds it to ``out``'s precision once, as assigning the
        float64 result does.  ``ez`` is one fill, and ``z * z`` and
        ``(-2 A0) * y`` are computed once for the two components each
        enters (see the module docstring).
        """
        k = self.wavenumber
        xv = np.asarray(x, dtype=np.float64)
        yv = np.asarray(y, dtype=np.float64)
        zv = np.asarray(z, dtype=np.float64)

        zz = zv * zv
        r = xv * xv
        r += yv * yv
        r += zz
        np.sqrt(r, out=r)
        kr = k * r
        f1, f2, f3, small = _radial(kr, kr)

        # f1/R and f2/R^2 are finite at the origin (f1 ~ kR/3,
        # f2 ~ (kR)^2/15); substitute R = 1 where R = 0 — the series
        # numerators vanish there at the same order.  R = 0 implies a
        # series point, so the origin is looked for only when there is
        # one, and the substitute and limits are assigned only where it
        # is.
        origin = None
        if small is not None:
            origin = r == 0.0
            if not origin.any():
                origin = None
        if origin is not None:
            r[origin] = 1.0
        r2 = r * r
        f1_over_r = np.divide(f1, r, out=f1)
        f2_over_r2 = np.divide(f2, r2,
                               out=None if self.paper_typos else f2)
        if origin is not None:
            f1_over_r[origin] = k / 3.0
            f2_over_r2[origin] = k ** 2 / 15.0

        two_a0 = 2.0 * self.amplitude * self.envelope(t)
        cos_t = math.cos(self.omega * t)
        sin_t = math.sin(self.omega * t)

        a_y = -two_a0 * yv
        np.multiply(a_y * cos_t, f1_over_r, out=out.ex)
        a_x = two_a0 * xv
        a_x *= cos_t
        np.multiply(a_x, f1_over_r, out=out.ey)
        out.ez.fill(0.0)

        np.multiply(-two_a0, xv, out=a_x)
        if self.paper_typos:
            b = a_x * zv
            b *= sin_t
            np.multiply(b, f2_over_r2, out=out.bx)
            a_x *= yv
            a_x *= sin_t
            np.multiply(a_x, f2_over_r2, out=out.by)
            z2_over_r2 = np.divide(zz, r2, out=zz)
            if origin is not None:
                z2_over_r2[origin] = 0.0
            np.multiply(-two_a0, z2_over_r2, out=a_y)
            a_y *= sin_t
            z2_over_r2 *= f2
            z2_over_r2 += f3
            np.multiply(a_y, z2_over_r2, out=out.bz)
        else:
            a_x *= zv
            a_x *= sin_t
            np.multiply(a_x, f2_over_r2, out=out.bx)
            a_y *= zv
            a_y *= sin_t
            np.multiply(a_y, f2_over_r2, out=out.by)
            zz *= f2_over_r2
            zz += f3
            np.multiply(-two_a0 * sin_t, zz, out=out.bz)
