"""Tests for plane-wave sources: vacuum Maxwell consistency."""

import numpy as np
import pytest

from repro.constants import SPEED_OF_LIGHT
from repro.errors import ConfigurationError
from repro.fields import PlaneWave


def _numerical_maxwell_residual(source, point, t, h=1e-9, dt=1e-20):
    """Max relative residual of both curl equations at one point."""
    def field(kind, p, tt):
        values = source.evaluate(np.array([p[0]]), np.array([p[1]]),
                                 np.array([p[2]]), tt)
        if kind == "e":
            return np.array([values.ex[0], values.ey[0], values.ez[0]])
        return np.array([values.bx[0], values.by[0], values.bz[0]])

    def curl(kind, p, tt):
        out = np.zeros(3)
        for i in range(3):
            j, k = (i + 1) % 3, (i + 2) % 3
            ej = np.zeros(3)
            ej[j] = h
            ek = np.zeros(3)
            ek[k] = h
            out[i] = ((field(kind, p + ej, tt)[k]
                       - field(kind, p - ej, tt)[k]) / (2 * h)
                      - (field(kind, p + ek, tt)[j]
                         - field(kind, p - ek, tt)[j]) / (2 * h))
        return out

    c = SPEED_OF_LIGHT
    faraday = curl("e", point, t) + (field("b", point, t + dt)
                                     - field("b", point, t - dt)) / (2 * dt) / c
    ampere = curl("b", point, t) - (field("e", point, t + dt)
                                    - field("e", point, t - dt)) / (2 * dt) / c
    scale = max(np.abs(curl("e", point, t)).max(),
                np.abs(curl("b", point, t)).max(), 1e-30)
    return max(np.abs(faraday).max(), np.abs(ampere).max()) / scale


OMEGA = 2.1e15


class TestPlaneWave:
    def test_amplitude_at_crest(self):
        wave = PlaneWave(amplitude=3.0, omega=OMEGA)
        values = wave.evaluate(np.zeros(1), np.zeros(1), np.zeros(1), 0.0)
        assert values.ey[0] == pytest.approx(3.0)
        assert values.bz[0] == pytest.approx(3.0)

    def test_transverse(self):
        wave = PlaneWave(1.0, OMEGA)
        values = wave.evaluate(np.linspace(0, 1e-4, 5), np.zeros(5),
                               np.zeros(5), 1e-16)
        assert np.all(values.ex == 0.0)
        assert np.all(values.ez == 0.0)
        assert np.all(values.bx == 0.0)

    def test_propagates_at_c(self):
        wave = PlaneWave(1.0, OMEGA)
        t = 2.3e-15
        shift = SPEED_OF_LIGHT * t
        at_origin_t0 = wave.evaluate(np.zeros(1), np.zeros(1),
                                     np.zeros(1), 0.0).ey[0]
        at_shift = wave.evaluate(np.array([shift]), np.zeros(1),
                                 np.zeros(1), t).ey[0]
        assert at_shift == pytest.approx(at_origin_t0, rel=1e-9)

    def test_maxwell_consistent(self):
        wave = PlaneWave(1.0e8, OMEGA)
        residual = _numerical_maxwell_residual(
            wave, np.array([1.1e-5, 0.0, 0.0]), 1.7e-15)
        assert residual < 1e-5

    def test_rejects_bad_omega(self):
        with pytest.raises(ConfigurationError):
            PlaneWave(1.0, 0.0)

