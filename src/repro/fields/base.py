"""Field source interface."""

from __future__ import annotations

import abc
from typing import NamedTuple, Tuple

import numpy as np

from ..fp import FP3

__all__ = ["FieldValues", "FieldSource"]


class FieldValues(NamedTuple):
    """Electric and magnetic field components at a set of points.

    All six entries are arrays of the same shape (one value per query
    point).  Units are Gaussian: statvolt/cm for E, gauss for B (equal
    in CGS).
    """

    ex: np.ndarray
    ey: np.ndarray
    ez: np.ndarray
    bx: np.ndarray
    by: np.ndarray
    bz: np.ndarray

    @property
    def e(self) -> np.ndarray:
        """(N, 3) electric field array (copy)."""
        return np.stack([self.ex, self.ey, self.ez], axis=-1)

    @property
    def b(self) -> np.ndarray:
        """(N, 3) magnetic field array (copy)."""
        return np.stack([self.bx, self.by, self.bz], axis=-1)


class FieldSource(abc.ABC):
    """A time-dependent electromagnetic field E(r, t), B(r, t).

    Implementations must be vectorized over query points; the scalar
    convenience :meth:`evaluate_at` is provided for the reference
    (particle-at-a-time) kernels.

    The class attribute :attr:`flops_per_evaluation` is the approximate
    floating-point work of evaluating the six components at one point;
    the oneAPI cost model uses it to characterise the "Analytical
    Fields" scenario.
    """

    #: Approximate flops to evaluate E and B at one point.
    flops_per_evaluation: int = 0

    @abc.abstractmethod
    def evaluate(self, x: np.ndarray, y: np.ndarray, z: np.ndarray,
                 t: float) -> FieldValues:
        """Return field components at coordinate arrays ``x, y, z``, time ``t``.

        The input arrays share one shape; the outputs match it.  Inputs
        must not be modified.
        """

    def evaluate_into(self, x: np.ndarray, y: np.ndarray, z: np.ndarray,
                      t: float, out: FieldValues) -> None:
        """Write the field at ``x, y, z``, time ``t``, into ``out``.

        ``out`` holds six writable arrays of the inputs' shape, in any
        floating dtype and stride (a precalculated field array's views).
        Each value is computed in float64 and rounded to ``out``'s
        precision once on the store.  This default evaluates, then
        assigns; a source may override it to skip the intermediate
        arrays, with the same bits.
        """
        for target, value in zip(out, self.evaluate(x, y, z, t)):
            target[...] = value

    def evaluate_at(self, position: FP3, t: float) -> Tuple[FP3, FP3]:
        """Scalar evaluation at a single point: returns ``(E, B)`` as FP3s."""
        values = self.evaluate(np.array([position.x]), np.array([position.y]),
                               np.array([position.z]), t)
        e = FP3(float(values.ex[0]), float(values.ey[0]), float(values.ez[0]))
        b = FP3(float(values.bx[0]), float(values.by[0]), float(values.bz[0]))
        return e, b
