"""Every gather and deposition rejects a position it cannot place.

A NaN or infinite position, or one so far out that its cell index
overflows int64, used to reach the grid: the gather returned NaN, or
``-4.6e283`` from a field that is 1.0 everywhere, and the charge
deposition wrote ``2.7e290`` into one cell.  ``cell_fractions`` now
rejects them all with ``SimulationError`` before any grid is touched.
"""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.fields import GridFieldSource, YeeGrid, interpolate_from_yee_grid
from repro.particles import ParticleEnsemble
from repro.pic import (deposit_charge, deposit_current_direct,
                       deposit_current_esirkepov)

BAD = [np.nan, np.inf, -np.inf, 1e300]


def ones_grid():
    grid = YeeGrid((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (4, 4, 4))
    for values in grid.fields.values():
        values[:] = 1.0
    return grid


def gather(grid, positions):
    interpolate_from_yee_grid(grid, positions)


def evaluate(grid, positions):
    GridFieldSource(grid).evaluate(*positions.T, 0.0)


def charge(grid, positions):
    deposit_charge(grid, ParticleEnsemble.from_arrays(
        positions, np.zeros_like(positions)))


def direct(grid, positions):
    deposit_current_direct(grid, ParticleEnsemble.from_arrays(
        positions, np.ones_like(positions)))


def esirkepov(grid, positions):
    good = np.full_like(positions, 2.5)
    deposit_current_esirkepov(grid, ParticleEnsemble.from_arrays(
        positions, np.zeros_like(positions)), good, dt=1.0)


@pytest.mark.parametrize("bad", BAD, ids=["nan", "inf", "-inf", "1e300"])
@pytest.mark.parametrize("stage", [gather, evaluate, charge, direct,
                                   esirkepov])
def test_bad_position_raises_before_the_grid_is_touched(stage, bad):
    grid = ones_grid()
    positions = np.array([[2.5, 2.5, 2.5], [1.5, bad, 0.5]])
    with pytest.raises(SimulationError, match="finite"):
        stage(grid, positions)
    assert all((values == 1.0).all() for values in grid.fields.values())
    assert not any(values.any() for values in grid.currents.values())


def test_far_but_representable_position_is_still_accepted():
    grid = ones_grid()
    values = interpolate_from_yee_grid(grid, np.array([[2.0 ** 62, 0.5,
                                                        0.5]]))
    assert all(component[0] == 1.0 for component in values)
