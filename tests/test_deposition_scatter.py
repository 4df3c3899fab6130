"""The bincount scatter reproduces the np.add.at loops bit for bit.

``repro.pic.deposition`` adds each target's contributions with one
``np.bincount`` seeded with the target; ``tests/_reference_deposition.py``
keeps the per-window-point ``np.add.at`` loops it replaced.  Summation
order decides the last bits of every cell, so the two are compared as
raw int64 bit patterns, not with a tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.fields import YeeGrid
from repro.fields.interpolation import Shape
from repro.fp import Precision
from repro.particles import ParticleEnsemble
from repro.pic import deposit_current_esirkepov, deposition
from repro.pic.deposition import (_deposit_scalar, _scatter_add,
                                  _scatter_buffers)
from tests import _reference_deposition as reference

CURRENTS = ("jx", "jy", "jz")


def bits(array):
    return np.ascontiguousarray(array).view(np.int64)


def make_target(rng, dims, kind):
    """A float64 grid array: zero, random, or random with signed zeros."""
    if kind == "zero":
        return np.zeros(dims)
    values = rng.normal(size=dims)
    if kind == "signed-zeros":
        zeros = rng.random(dims) < 0.5
        values[zeros] = np.where(rng.random(dims) < 0.5, 0.0, -0.0)[zeros]
    return values


@st.composite
def depositions(draw, shapes):
    """Grid, shape, target kind and per-species particle counts.

    Axes of one to three cells make a particle's window wrap onto the
    same cell several times; a second species scatters into the grid
    the first one already filled.
    """
    return dict(
        seed=draw(st.integers(0, 2 ** 32 - 1)),
        dims=tuple(draw(st.lists(st.integers(1, 6), min_size=3,
                                 max_size=3))),
        shape=draw(st.sampled_from(shapes)),
        target=draw(st.sampled_from(["zero", "random", "signed-zeros"])),
        precision=draw(st.sampled_from([Precision.SINGLE,
                                        Precision.DOUBLE])),
        species=draw(st.lists(st.integers(0, 24), min_size=1,
                              max_size=2)),
    )


def esirkepov_species(rng, grid, count, precision):
    """(ensemble, old positions) moving less than a cell per axis."""
    dims = np.asarray(grid.dims)
    spacing = np.asarray(grid.spacing)
    old_frac = rng.uniform(-2.0, 3.0, (count, 3)) * dims
    new_frac = old_frac + rng.uniform(-0.95, 0.95, (count, 3))
    origin = np.asarray(grid.origin)
    momenta = rng.normal(size=(count, 3))
    ensemble = ParticleEnsemble.from_arrays(
        origin + new_frac * spacing, momenta, precision=precision)
    ensemble.component("weight")[:] = rng.uniform(0.5, 4.0, count)
    return ensemble, origin + old_frac * spacing


@settings(max_examples=150, deadline=None)
@given(depositions([Shape.CIC, Shape.TSC]))
def test_esirkepov_matches_add_at_reference(params):
    rng = np.random.default_rng(params["seed"])
    spacing = tuple(rng.choice([0.5, 1.0, 1.25], 3))
    grids = [YeeGrid((0.0, -1.5, 0.25), spacing, params["dims"])
             for _ in range(2)]
    for name in CURRENTS:
        start = make_target(rng, params["dims"], params["target"])
        for grid in grids:
            grid.currents[name] = start.copy()
    fast, slow = grids
    dt = float(rng.uniform(0.1, 2.0))
    for count in params["species"]:
        ensemble, old = esirkepov_species(rng, fast, count,
                                          params["precision"])
        deposit_current_esirkepov(fast, ensemble, old, dt, params["shape"])
        reference.deposit_current_esirkepov(slow, ensemble, old, dt,
                                            params["shape"])
    for name in CURRENTS:
        np.testing.assert_array_equal(bits(fast.currents[name]),
                                      bits(slow.currents[name]), name)


MOTIONS = ("stay", "snap", "boundary", "all")


@st.composite
def split_depositions(draw):
    """Draws aimed at the split of each window into its core and ring.

    ``motion`` picks the particles' step: ``stay`` moves at most 0.05
    cell, so nearly every particle keeps its node; ``snap`` starts and
    ends on nodes and half-nodes (TSC's rounding ties); ``boundary``
    lands exactly on a cell face; ``all`` makes every particle change
    its node.
    """
    params = draw(depositions([Shape.CIC, Shape.TSC]))
    params["motion"] = draw(st.sampled_from(MOTIONS))
    return params


def split_species(rng, grid, count, precision, shape, motion):
    """(ensemble, old positions) for one ``motion`` of ``MOTIONS``."""
    dims = np.asarray(grid.dims)
    old_frac = rng.uniform(-2.0, 3.0, (count, 3)) * dims
    if motion == "stay":
        new_frac = old_frac + rng.uniform(-0.05, 0.05, (count, 3))
    elif motion == "snap":
        old_frac = np.round(2.0 * old_frac) / 2.0
        new_frac = old_frac + rng.choice([-0.5, -0.05, 0.0, 0.05, 0.5],
                                         (count, 3))
    elif motion == "boundary":
        new_frac = np.floor(old_frac) + rng.integers(0, 2, (count, 3))
    else:
        snap = np.floor if shape is Shape.CIC else np.round
        offset = old_frac - snap(old_frac)
        middle = 0.5 if shape is Shape.CIC else 0.0
        new_frac = old_frac + np.where(offset < middle, -0.7, 0.7)
    # Dyadic origins and spacings keep node and face positions exact.
    origin = np.asarray(grid.origin)
    spacing = np.asarray(grid.spacing)
    ensemble = ParticleEnsemble.from_arrays(
        origin + new_frac * spacing, rng.normal(size=(count, 3)),
        precision=precision)
    ensemble.component("weight")[:] = rng.uniform(0.5, 4.0, count)
    return ensemble, origin + old_frac * spacing


@settings(max_examples=200, deadline=None)
@given(split_depositions())
def test_esirkepov_core_and_ring_match_add_at_reference(params):
    rng = np.random.default_rng(params["seed"])
    spacing = tuple(rng.choice([0.5, 1.0, 1.25], 3))
    grids = [YeeGrid((0.0, -1.5, 0.25), spacing, params["dims"])
             for _ in range(2)]
    for name in CURRENTS:
        start = make_target(rng, params["dims"], params["target"])
        for grid in grids:
            grid.currents[name] = start.copy()
    fast, slow = grids
    dt = float(rng.uniform(0.1, 2.0))
    for count in params["species"]:
        ensemble, old = split_species(rng, fast, count,
                                      params["precision"], params["shape"],
                                      params["motion"])
        deposit_current_esirkepov(fast, ensemble, old, dt, params["shape"])
        reference.deposit_current_esirkepov(slow, ensemble, old, dt,
                                            params["shape"])
    for name in CURRENTS:
        np.testing.assert_array_equal(bits(fast.currents[name]),
                                      bits(slow.currents[name]), name)


@pytest.mark.parametrize("shape, core, ring", [(Shape.CIC, 16, 48),
                                               (Shape.TSC, 45, 80)])
def test_tail_holds_every_core_and_only_the_movers_rings(monkeypatch,
                                                         shape, core, ring):
    # Five particles keep their node on every axis; three change it on
    # one axis each.  A -0.0 cell in any target gives everyone the full
    # window again.
    counts = []

    def counting(cells, count):
        counts.append(count)
        return _scatter_buffers(cells, count)

    monkeypatch.setattr(deposition, "_scatter_buffers", counting)
    old = np.full((8, 3), 2.05) + 0.04 * np.arange(8)[:, None]
    new = old + 0.02
    new[[5, 6, 7], [0, 1, 2]] += [0.8, 0.85, 0.9]
    ensemble = ParticleEnsemble.from_arrays(new, np.zeros((8, 3)))
    grid = YeeGrid((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (6, 6, 6))
    deposit_current_esirkepov(grid, ensemble, old, 1.0, shape)
    grid.currents["jy"][0, 0, 0] = -0.0
    deposit_current_esirkepov(grid, ensemble, old, 1.0, shape)
    assert counts == [core * 8 + ring * 3, (core + ring) * 8]


@settings(max_examples=150, deadline=None)
@given(depositions([Shape.NGP, Shape.CIC, Shape.TSC]))
def test_scalar_scatter_matches_add_at_reference(params):
    rng = np.random.default_rng(params["seed"])
    dims = params["dims"]
    target = make_target(rng, dims, params["target"])
    expected = target.copy()
    dtype = params["precision"].dtype
    for count in params["species"]:
        frac = (rng.uniform(-2.0, 3.0, (count, 3))
                * np.asarray(dims)).astype(dtype).astype(np.float64)
        values = rng.normal(size=count).astype(dtype).astype(np.float64)
        staggers = tuple(rng.choice([0.0, 0.5], 3))
        _deposit_scalar(target, frac, values, dims, staggers,
                        params["shape"])
        reference.deposit_scalar(expected, frac, values, dims, staggers,
                                 params["shape"])
    np.testing.assert_array_equal(bits(target), bits(expected))


def scatter(target, index, values):
    """``_scatter_add`` of ``values`` at flat ``index`` into ``target``."""
    cells = target.size
    buffers = _scatter_buffers(cells, len(index))
    buffers[0][cells:] = index
    buffers[1][cells:] = values
    _scatter_add(target, *buffers)


def test_negative_zero_cell_keeps_its_sign_until_a_positive_zero_lands():
    # np.add.at keeps -0.0 only while every addend is -0.0; bincount
    # starts each cell at +0.0, so the scatter must restore the sign.
    target = np.full(4, -0.0)
    expected = target.copy()
    index = np.array([0, 0, 1, 2])
    values = np.array([-0.0, -0.0, 0.0, 1.5])
    scatter(target, index, values)
    np.add.at(expected, index, values)
    np.testing.assert_array_equal(bits(target), bits(expected))
    assert np.signbit(target[[0, 3]]).all()
    assert not np.signbit(target[[1, 2]]).any()


def test_scatter_writes_through_a_non_contiguous_target():
    base = np.zeros((4, 6))
    target = base[:, ::2]
    scatter(target, [0, 5, 5], [1.0, 2.0, 3.0])
    assert base[0, 0] == 1.0 and base[1, 4] == 5.0
    assert np.count_nonzero(base) == 2

