"""Tests for leapfrog setup, drivers and the RK4 reference."""

import math

import numpy as np
import pytest

from repro.constants import (ELECTRON_MASS, ELEMENTARY_CHARGE,
                             SPEED_OF_LIGHT)
from repro.core import (TrajectoryRecorder, advance, integrate_trajectory_rk4,
                        setup_leapfrog, undo_leapfrog)
from repro.errors import SimulationError
from repro.fields import NullField, PlaneWave, UniformField
from repro.particles import ParticleEnsemble

MC = ELECTRON_MASS * SPEED_OF_LIGHT


class TestLeapfrogStagger:
    def test_setup_shifts_momentum_back(self):
        field = UniformField(e=(1.0e6, 0.0, 0.0))
        ensemble = ParticleEnsemble.from_arrays([[0, 0, 0]], [[0, 0, 0]])
        dt = 1e-15
        setup_leapfrog(ensemble, field, dt)
        expected = ELEMENTARY_CHARGE * 1.0e6 * dt / 2.0   # -q E (-dt/2)
        assert ensemble.momenta()[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_undo_inverts_setup_in_uniform_e(self):
        field = UniformField(e=(1.0e6, 2.0e6, -1.0e6))
        ensemble = ParticleEnsemble.from_arrays(
            [[0, 0, 0]], [[0.1 * MC, -0.2 * MC, 0.3 * MC]])
        before = ensemble.momenta().copy()
        dt = 1e-15
        setup_leapfrog(ensemble, field, dt)
        undo_leapfrog(ensemble, field, dt, 0.0)
        # With pure E (no v x B) the half kicks are exactly opposite.
        np.testing.assert_allclose(ensemble.momenta(), before, rtol=1e-9)

    def test_setup_updates_gamma(self):
        field = UniformField(e=(1.0e8, 0.0, 0.0))
        ensemble = ParticleEnsemble.from_arrays([[0, 0, 0]], [[0, 0, 0]])
        setup_leapfrog(ensemble, field, 1e-14)
        assert ensemble.component("gamma")[0] > 1.0


class TestAdvance:
    def test_returns_final_time(self):
        ensemble = ParticleEnsemble.from_arrays([[0, 0, 0]], [[0, 0, 0]])
        final = advance(ensemble, NullField(), 2.0e-16, 5, start_time=1e-15)
        assert final == pytest.approx(1e-15 + 1e-15)

    def test_zero_steps_is_noop(self):
        ensemble = ParticleEnsemble.from_arrays([[1, 2, 3]], [[0, 0, 0]])
        advance(ensemble, NullField(), 1e-16, 0)
        np.testing.assert_array_equal(ensemble.positions(), [[1, 2, 3]])

    def test_negative_steps_rejected(self):
        ensemble = ParticleEnsemble.from_arrays([[0, 0, 0]], [[0, 0, 0]])
        with pytest.raises(SimulationError):
            advance(ensemble, NullField(), 1e-16, -1)

    def test_callback_sees_every_step(self):
        ensemble = ParticleEnsemble.from_arrays([[0, 0, 0]], [[0, 0, 0]])
        seen = []
        advance(ensemble, NullField(), 1e-16, 4,
                callback=lambda step, time, ens: seen.append((step, time)))
        assert [s for s, _ in seen] == [0, 1, 2, 3]
        assert seen[-1][1] == pytest.approx(4e-16)

    def test_check_finite_raises_on_blowup(self):
        ensemble = ParticleEnsemble.from_arrays([[0, 0, 0]], [[0, 0, 0]])
        ensemble.component("x")[0] = np.nan
        with pytest.raises(SimulationError):
            advance(ensemble, NullField(), 1e-16, 1, check_finite=True)

    def test_time_dependent_field_sampled_at_step_times(self):
        # A wave with period T pushed for T with field evaluated at the
        # right times leaves a near-zero net momentum.
        omega = 2.0e15
        wave = PlaneWave(1.0e5, omega)
        period = 2.0 * math.pi / omega
        steps = 400
        dt = period / steps
        ensemble = ParticleEnsemble.from_arrays([[0, 0, 0]], [[0, 0, 0]])
        setup_leapfrog(ensemble, wave, dt)
        advance(ensemble, wave, dt, steps)
        impulse_scale = ELEMENTARY_CHARGE * 1.0e5 * period
        assert abs(ensemble.momenta()[0, 1]) < 0.02 * impulse_scale


class TestTrajectoryRecorder:
    def test_records_shapes(self):
        ensemble = ParticleEnsemble.from_arrays(
            np.zeros((3, 3)), np.zeros((3, 3)))
        recorder = TrajectoryRecorder()
        advance(ensemble, NullField(), 1e-16, 7, callback=recorder)
        assert recorder.positions().shape == (7, 3, 3)
        assert recorder.momenta().shape == (7, 3, 3)
        assert len(recorder.times) == 7

    def test_recorded_positions_are_snapshots(self):
        field = UniformField(e=(1e7, 0, 0))
        ensemble = ParticleEnsemble.from_arrays([[0, 0, 0]], [[0, 0, 0]])
        recorder = TrajectoryRecorder()
        advance(ensemble, field, 1e-15, 5, callback=recorder)
        xs = recorder.positions()[:, 0, 0]
        assert np.all(np.diff(np.abs(xs)) > 0)     # monotone acceleration


class TestRk4Reference:
    def test_returns_initial_state_first(self):
        times, positions, momenta = integrate_trajectory_rk4(
            [1.0, 2.0, 3.0], [0.1 * MC, 0.0, 0.0], ELECTRON_MASS,
            -ELEMENTARY_CHARGE, NullField(), 1e-16, 3)
        assert times[0] == 0.0
        np.testing.assert_array_equal(positions[0], [1.0, 2.0, 3.0])

    def test_free_streaming_exact(self):
        u = 0.5
        p = u * MC
        gamma = math.sqrt(1.0 + u * u)
        v = p / (gamma * ELECTRON_MASS)
        _, positions, momenta = integrate_trajectory_rk4(
            [0.0, 0.0, 0.0], [p, 0.0, 0.0], ELECTRON_MASS,
            -ELEMENTARY_CHARGE, NullField(), 1e-15, 10)
        assert positions[-1, 0] == pytest.approx(v * 1e-14, rel=1e-12)
        np.testing.assert_array_equal(momenta[-1], momenta[0])

    def test_fourth_order_convergence(self):
        # Halving dt should reduce the error by ~16x.
        field = UniformField(b=(0.0, 0.0, 1.0e4))
        from repro.constants import cyclotron_frequency
        gamma = math.sqrt(2.0)
        omega = cyclotron_frequency(1.0e4, gamma)
        period = 2.0 * math.pi / omega
        radius = MC / (ELEMENTARY_CHARGE * 1.0e4 / SPEED_OF_LIGHT)
        start_pos = [0.0, -radius, 0.0]
        start_mom = [MC, 0.0, 0.0]

        def error(steps):
            _, positions, _ = integrate_trajectory_rk4(
                start_pos, start_mom, ELECTRON_MASS, -ELEMENTARY_CHARGE,
                field, period / steps, steps)
            return np.linalg.norm(positions[-1] - start_pos)

        ratio = error(50) / error(100)
        assert 10.0 < ratio < 24.0
