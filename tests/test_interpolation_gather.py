"""The shared-stencil gather reproduces the per-component loops bit for bit.

``repro.fields.interpolation`` computes each axis's two Yee stencils
once, shares the (x, y) stencil planes between components and reads
the field through a flat ``take``; ``tests/_reference_interpolation.py``
keeps the per-component ``shape_weights`` calls and 3-D fancy index it
replaced.  The product and summation order decide the last bits of
every value, so the two are compared as raw int64 bit patterns.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.fields import YeeGrid
from repro.fields.interpolation import (Shape, interpolate_cic,
                                        interpolate_component,
                                        interpolate_from_yee_grid)
from tests import _reference_interpolation as reference
from tests.test_deposition_scatter import bits, make_target


@st.composite
def gathers(draw):
    """Grid, shape, field kind and particle count.

    Axes of one to six cells make a stencil wrap onto the same node
    several times; positions run from two boxes below the origin to
    three above it, so they are unwrapped and often negative.
    """
    return dict(
        seed=draw(st.integers(0, 2 ** 32 - 1)),
        dims=tuple(draw(st.lists(st.integers(1, 6), min_size=3,
                                 max_size=3))),
        shape=draw(st.sampled_from([Shape.NGP, Shape.CIC, Shape.TSC])),
        field=draw(st.sampled_from(["zero", "random", "signed-zeros"])),
        count=draw(st.integers(0, 40)),
    )


def setup(params):
    rng = np.random.default_rng(params["seed"])
    spacing = tuple(rng.choice([0.5, 1.0, 1.25], 3))
    grid = YeeGrid((0.0, -1.5, 0.25), spacing, params["dims"])
    for name in grid.fields:
        grid.fields[name] = make_target(rng, params["dims"],
                                        params["field"])
    frac = rng.uniform(-2.0, 3.0, (params["count"], 3)) * params["dims"]
    positions = np.asarray(grid.origin) + frac * np.asarray(spacing)
    return rng, grid, positions


@settings(max_examples=200, deadline=None)
@given(gathers())
def test_yee_gather_matches_per_component_reference(params):
    _, grid, positions = setup(params)
    fast = interpolate_from_yee_grid(grid, positions, params["shape"])
    slow = reference.interpolate_from_yee_grid(grid, positions,
                                               params["shape"])
    for name, got, expected in zip(fast._fields, fast, slow):
        np.testing.assert_array_equal(bits(got), bits(expected), name)


@settings(max_examples=200, deadline=None)
@given(gathers())
def test_component_gather_matches_reference(params):
    rng, grid, positions = setup(params)
    values = grid.component("ex")
    stagger = tuple(rng.choice([0.0, 0.5, 0.25], 3))
    got = interpolate_component(values, positions, grid.origin,
                                grid.spacing, stagger, params["shape"])
    expected = reference.interpolate_component(
        values, positions, grid.origin, grid.spacing, stagger,
        params["shape"])
    np.testing.assert_array_equal(bits(got), bits(expected))
    np.testing.assert_array_equal(
        bits(interpolate_cic(values, positions, grid.origin, grid.spacing)),
        bits(reference.interpolate_component(values, positions, grid.origin,
                                             grid.spacing)))
