"""Integration tests for the full PIC loop."""

import math

import numpy as np
import pytest

from repro.constants import ELECTRON_MASS, SPEED_OF_LIGHT
from repro.errors import SimulationError
from repro.fields import UniformField, YeeGrid
from repro.backends.registry import queue_for
from repro.particles import ParticleEnsemble
from repro.particles.ensemble import COMPONENTS
from repro.pic import (EnergyHistory, PicEngine, PicSimulation,
                       max_stable_dt, plasma_frequency)
from repro.constants import ELEMENTARY_CHARGE


def small_grid(dims=(8, 4, 4), spacing=2.0e-5):
    return YeeGrid((0.0, 0.0, 0.0),
                   (spacing, spacing, spacing), dims)


def lattice_positions(dims, spacing, per_axis=2):
    counts = [d * per_axis for d in dims]
    axes = [(np.arange(c) + 0.5) * (d * spacing / c)
            for c, d in zip(counts, dims)]
    gx, gy, gz = np.meshgrid(*axes, indexing="ij")
    return np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)


class TestConstruction:
    def test_rejects_unknown_deposition(self):
        grid = small_grid()
        ensemble = ParticleEnsemble.from_arrays([[1e-5] * 3], [[0] * 3])
        with pytest.raises(SimulationError):
            PicSimulation(grid, ensemble, 1e-17, deposition="magic")

    def test_rejects_empty_ensemble_list(self):
        with pytest.raises(SimulationError):
            PicSimulation(small_grid(), [], 1e-17)

    def test_rejects_cfl_violation(self):
        grid = small_grid()
        ensemble = ParticleEnsemble.from_arrays([[1e-5] * 3], [[0] * 3])
        with pytest.raises(SimulationError):
            PicSimulation(grid, ensemble, 1.0)

    @pytest.mark.parametrize("solver", ["fdtd", "spectral"])
    @pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_dt(self, solver, dt):
        grid = small_grid()
        ensemble = ParticleEnsemble.from_arrays([[1e-5] * 3], [[0] * 3])
        with pytest.raises(SimulationError):
            PicSimulation(grid, ensemble, dt, field_solver=solver)

    def test_single_ensemble_promoted_to_list(self):
        grid = small_grid()
        ensemble = ParticleEnsemble.from_arrays([[1e-5] * 3], [[0] * 3])
        simulation = PicSimulation(grid, ensemble, 1e-17)
        assert len(simulation.ensembles) == 1


class TestExternalFieldMode:
    def test_gyration_in_frozen_grid_field(self):
        # deposition="none": particles feel the grid but do not change it.
        b0 = 1.0e4
        grid = small_grid(dims=(8, 8, 8), spacing=1.0e-3)
        grid.fill_from_source(UniformField(b=(0.0, 0.0, b0)), 0.0)
        u = 0.01
        p0 = u * ELECTRON_MASS * SPEED_OF_LIGHT
        centre = np.array([4.0e-3, 4.0e-3, 4.0e-3])
        radius = p0 / (ELEMENTARY_CHARGE * b0 / SPEED_OF_LIGHT)
        ensemble = ParticleEnsemble.from_arrays(
            [centre + [0.0, -radius, 0.0]], [[p0, 0.0, 0.0]])
        dt = max_stable_dt(grid.spacing, 0.9)
        simulation = PicSimulation(grid, ensemble, dt, deposition="none")
        gamma0 = float(ensemble.component("gamma")[0])
        simulation.run(200)
        # Fields untouched, energy conserved.
        assert np.allclose(grid.component("bz"), b0)
        assert ensemble.component("gamma")[0] == pytest.approx(gamma0,
                                                               rel=1e-12)

    def test_particles_wrapped_into_box(self):
        grid = small_grid(dims=(4, 4, 4), spacing=1.0e-5)
        p = 0.5 * ELECTRON_MASS * SPEED_OF_LIGHT
        ensemble = ParticleEnsemble.from_arrays(
            [[3.9e-5, 2e-5, 2e-5]], [[p, 0.0, 0.0]])
        dt = max_stable_dt(grid.spacing, 0.9)
        simulation = PicSimulation(grid, ensemble, dt, deposition="none")
        simulation.run(20)
        pos = ensemble.positions()[0]
        assert 0.0 <= pos[0] < 4.0e-5


class TestSelfConsistentPlasma:
    def _build(self, deposition="esirkepov"):
        density = 1.0e18
        dims = (16, 4, 4)
        spacing = 2.0e-5
        grid = small_grid(dims, spacing)
        positions = lattice_positions(dims, spacing)
        n = positions.shape[0]
        weight = density * grid.cell_volume * grid.num_cells / n
        box = dims[0] * spacing
        v0 = 1.0e-3 * SPEED_OF_LIGHT
        momenta = np.zeros((n, 3))
        momenta[:, 0] = ELECTRON_MASS * v0 * np.sin(
            2.0 * math.pi * positions[:, 0] / box)
        ensemble = ParticleEnsemble.from_arrays(
            positions, momenta, weights=np.full(n, weight))
        dt = 0.35 * spacing / (SPEED_OF_LIGHT * math.sqrt(3.0))
        omega_p = plasma_frequency(density, ELECTRON_MASS,
                                   ELEMENTARY_CHARGE)
        return PicSimulation(grid, ensemble, dt,
                             deposition=deposition), omega_p

    def test_plasma_oscillation_frequency(self):
        simulation, omega_p = self._build()
        history = EnergyHistory()
        steps = int(3.0 * 2.0 * math.pi / omega_p / simulation.dt)
        simulation.run(steps, energy_history=history)
        measured = history.dominant_frequency() / 2.0
        assert measured == pytest.approx(omega_p, rel=0.02)

    def test_energy_conservation(self):
        simulation, omega_p = self._build()
        history = EnergyHistory()
        steps = int(2.0 * 2.0 * math.pi / omega_p / simulation.dt)
        simulation.run(steps, energy_history=history)
        assert history.relative_drift() < 0.05

    def test_callback_invoked(self):
        simulation, _ = self._build()
        count = []
        simulation.run(3, callback=lambda sim: count.append(sim.step_count))
        assert count == [1, 2, 3]

    def test_check_state_passes_on_healthy_run(self):
        simulation, _ = self._build()
        simulation.run(5)
        simulation.check_state()

    def test_check_state_detects_nan(self):
        # One case per grid field, per current and per particle
        # component: a single NaN anywhere in the state is caught.
        simulation, _ = self._build()
        grid, ensemble = simulation.grid, simulation.ensembles[0]
        arrays = [grid.fields[name] for name in sorted(grid.fields)]
        arrays += [grid.currents[name] for name in sorted(grid.currents)]
        arrays += [ensemble.component(name) for name in COMPONENTS]
        assert len(arrays) == 6 + 3 + len(COMPONENTS)
        for array in arrays:
            index = (0,) * array.ndim
            saved = array[index]
            array[index] = np.nan
            with pytest.raises(SimulationError):
                simulation.check_state()
            array[index] = saved
        simulation.check_state()

    def test_negative_steps_rejected(self):
        simulation, _ = self._build()
        with pytest.raises(SimulationError):
            simulation.run(-1)

    def test_engine_negative_steps_rejected(self):
        simulation, _ = self._build()
        engine = PicEngine(queue_for("iris-xe-max"), simulation)
        with pytest.raises(SimulationError):
            engine.run(-1)
        assert simulation.step_count == 0
