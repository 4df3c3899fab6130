"""Real wall-clock benchmarks of the PIC substrate stages.

Times each stage of the self-consistent loop (interpolation, push,
deposition, periodic wrap, field solve) and one full step, on this
host.  The paper's
observation that the pusher dominates "for realistic problems due to a
large number of macroparticles" is checked by construction: with many
particles per cell, particle stages dwarf the grid stage.

Run:  pytest benchmarks/bench_pic_loop.py --benchmark-only
Smoke (each stage once, untimed):
      pytest benchmarks/bench_pic_loop.py --benchmark-disable
"""

import numpy as np
import pytest

from repro.constants import ELECTRON_MASS, SPEED_OF_LIGHT
from repro.fields import YeeGrid
from repro.fields.interpolation import interpolate_from_yee_grid
from repro.particles import ParticleEnsemble
from repro.pic import (FdtdSolver, PicSimulation,
                       deposit_current_esirkepov)

DIMS = (16, 8, 8)
SPACING = 2.0e-5
PARTICLES = 20_000


@pytest.fixture
def plasma():
    grid = YeeGrid((0.0, 0.0, 0.0), (SPACING,) * 3, DIMS)
    rng = np.random.default_rng(0)
    upper = [d * SPACING for d in DIMS]
    positions = rng.uniform([0, 0, 0], upper, (PARTICLES, 3))
    momenta = rng.normal(0.0, 1e-3 * ELECTRON_MASS * SPEED_OF_LIGHT,
                         (PARTICLES, 3))
    ensemble = ParticleEnsemble.from_arrays(positions, momenta)
    dt = 0.35 * SPACING / (SPEED_OF_LIGHT * np.sqrt(3.0))
    return grid, ensemble, dt


def test_stage_interpolation(benchmark, plasma):
    grid, ensemble, _ = plasma
    positions = ensemble.positions()
    benchmark(interpolate_from_yee_grid, grid, positions)


def test_stage_deposition_esirkepov(benchmark, plasma):
    grid, ensemble, dt = plasma
    old = ensemble.positions()
    ensemble.set_positions(old + 0.1 * SPACING)

    def deposit():
        grid.clear_currents()
        deposit_current_esirkepov(grid, ensemble, old, dt)

    benchmark(deposit)


def test_stage_deposition_esirkepov_all_movers(benchmark, plasma):
    """Every particle changes its node on every axis, so each one
    scatters its full window (no ring contribution is skipped)."""
    grid, ensemble, dt = plasma
    old = ensemble.positions()
    offset = old / SPACING - np.floor(old / SPACING)
    ensemble.set_positions(old + np.where(offset < 0.5, -0.7, 0.7) * SPACING)

    def deposit():
        grid.clear_currents()
        deposit_current_esirkepov(grid, ensemble, old, dt)

    benchmark(deposit)


def test_stage_wrap_positions(benchmark, plasma):
    """The periodic wrap after a push of 0.01 cell per axis, which
    carries about 0.3% of the particles out of the box."""
    grid, ensemble, _ = plasma
    positions = ensemble.positions() + 0.01 * SPACING
    benchmark(grid.wrap_positions, positions)


def test_stage_field_solve(benchmark, plasma):
    grid, _, dt = plasma
    solver = FdtdSolver(grid, dt)
    benchmark(solver.step)


def test_full_pic_step(benchmark, plasma):
    grid, ensemble, dt = plasma
    simulation = PicSimulation(grid, ensemble, dt)
    benchmark(simulation.step)
    # ``stats`` is None when benchmarking is disabled (a smoke run).
    if benchmark.stats:
        benchmark.extra_info["ns per particle-step"] = round(
            benchmark.stats["mean"] * 1e9 / PARTICLES, 1)
