"""The shared m-dipole radial helper reproduces the old functions bit for bit.

``repro.fields.dipole.dipole_radial`` computes ``sin``, ``cos`` and the
powers of ``kR`` once for all three radial functions;
``tests/_reference_dipole.py`` keeps the three separate functions it
replaced and ``MDipoleWave.evaluate`` as it was built on them.  The
field feeds every push digest, so the two are compared as raw int64
bit patterns, not with a tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.scenarios import paper_ensemble
from repro.fields import (MDipoleWave, dipole_f1, dipole_f2, dipole_f3,
                          dipole_radial)
from repro.fields.dipole import _SERIES_THRESHOLD
from repro.fp import Precision
from repro.oneapi.graph import BLOCK_ITEMS
from repro.particles import Layout
from tests import _reference_dipole as reference


def bits(array):
    return np.ascontiguousarray(array, dtype=np.float64).view(np.int64)


_EDGES = [0.0, -0.0,
          np.nextafter(_SERIES_THRESHOLD, 0.0), _SERIES_THRESHOLD,
          np.nextafter(_SERIES_THRESHOLD, 1.0)]
#: Zero, values just below, at and just above the series switch (both
#: signs), and large kR where the powers overflow towards infinity.
SPECIAL = st.sampled_from(_EDGES + [-v for v in _EDGES]
                          + [1.0e3, -2.5e7, 1.0e15, 3.0e110, -1.0e200])
ARGUMENTS = st.lists(
    st.one_of(SPECIAL,
              st.floats(-2.0 * _SERIES_THRESHOLD, 2.0 * _SERIES_THRESHOLD),
              st.floats(-60.0, 60.0),
              st.floats(-1.0e9, 1.0e9)),
    min_size=1, max_size=70)


@settings(max_examples=300, deadline=None)
@given(ARGUMENTS)
def test_radial_helper_matches_separate_functions(values):
    x = np.array(values)
    # Past ~1e103 the series and powers overflow, on both sides alike.
    with np.errstate(over="ignore", invalid="ignore"):
        expected = (reference.dipole_f1(x), reference.dipole_f2(x),
                    reference.dipole_f3(x))
        shared = dipole_radial(x)
        public = (dipole_f1(x), dipole_f2(x), dipole_f3(x))
    for got, want in zip(shared, expected):
        np.testing.assert_array_equal(bits(got), bits(want))
    for got, want in zip(public, expected):
        np.testing.assert_array_equal(bits(got), bits(want))


def test_radial_helper_matches_on_a_large_array():
    # Long enough for every SIMD block and the scalar tail of sin/cos.
    rng = np.random.default_rng(11)
    x = np.concatenate([np.abs(rng.normal(0.0, 8.0, 9999)), _EDGES,
                        rng.uniform(-1.0e4, 1.0e4, 1001)])
    expected = (reference.dipole_f1(x), reference.dipole_f2(x),
                reference.dipole_f3(x))
    for got, want in zip(dipole_radial(x), expected):
        np.testing.assert_array_equal(bits(got), bits(want))


def assert_radial_matches(x):
    expected = (reference.dipole_f1(x), reference.dipole_f2(x),
                reference.dipole_f3(x))
    for got, want in zip(dipole_radial(x), expected):
        assert np.shape(got) == np.shape(want)
        np.testing.assert_array_equal(bits(got), bits(want))


def test_block_without_small_points_matches():
    # The series and the masked ``x = 1`` substitute are skipped.
    rng = np.random.default_rng(5)
    x = rng.uniform(2.0 * _SERIES_THRESHOLD, 40.0, BLOCK_ITEMS)
    x[::7] *= -1.0
    assert_radial_matches(x)


def test_all_small_block_matches():
    # Every closed form is discarded and every value is a series value.
    rng = np.random.default_rng(6)
    x = rng.uniform(-_SERIES_THRESHOLD, _SERIES_THRESHOLD, 4099)
    x[:4] = [0.0, -0.0, np.nextafter(_SERIES_THRESHOLD, 0.0),
             -np.nextafter(_SERIES_THRESHOLD, 0.0)]
    assert_radial_matches(x)


def test_multidimensional_argument_keeps_its_shape():
    rng = np.random.default_rng(7)
    x = rng.uniform(-0.05, 0.05, (6, 5, 3))
    assert_radial_matches(x)
    assert_radial_matches(x[:, ::2, :])      # non-contiguous


def engine_block(seed=0):
    """One blocked-replay block of the paper ensemble, in storage precision."""
    ensemble = paper_ensemble(BLOCK_ITEMS, Layout.SOA, Precision.SINGLE,
                              seed=seed)
    return tuple(ensemble.component(axis) for axis in "xyz")


def kr_of(wave, x, y, z):
    x, y, z = (np.asarray(axis, dtype=np.float64) for axis in (x, y, z))
    return wave.wavenumber * np.sqrt(x * x + y * y + z * z)


def assert_evaluate_matches(wave, x, y, z, t):
    got = wave.evaluate(x, y, z, t)
    want = reference.evaluate(wave, x, y, z, t)
    for name, a, b in zip(got._fields, got, want):
        assert np.shape(a) == np.shape(b), name
        np.testing.assert_array_equal(bits(a), bits(b), err_msg=name)


@pytest.mark.parametrize("paper_typos", [False, True])
def test_evaluate_matches_on_an_engine_block(paper_typos):
    # A float32 block of the size the engine refreshes per block: no
    # point at the origin, no point below the series threshold.
    x, y, z = engine_block()
    assert x.dtype == np.float32 and x.size == BLOCK_ITEMS
    wave = MDipoleWave(paper_typos=paper_typos)
    assert kr_of(wave, x, y, z).min() >= _SERIES_THRESHOLD
    period = 2.0 * np.pi / wave.omega
    for t in (0.0, 0.3 * period, 7.1 * period):
        assert_evaluate_matches(wave, x, y, z, t)


@pytest.mark.parametrize("paper_typos", [False, True])
def test_evaluate_matches_with_focus_and_origin_points(paper_typos):
    # The same block with points moved onto the origin and into the
    # series region, so every masked fix-up runs.
    x, y, z = (axis.copy() for axis in engine_block(seed=1))
    wave = MDipoleWave(paper_typos=paper_typos, ramp_cycles=3.0)
    focus = 0.5 * _SERIES_THRESHOLD / wave.wavenumber
    for axis in (x, y, z):
        axis[100:400] *= np.float32(focus / np.abs(axis).max())
        axis[[0, 999, BLOCK_ITEMS - 1]] = 0.0
    kr = kr_of(wave, x, y, z)
    assert np.count_nonzero(kr == 0.0) == 3
    assert np.count_nonzero((kr > 0.0) & (kr < _SERIES_THRESHOLD)) == 300
    assert_evaluate_matches(wave, x, y, z, 2.0 * np.pi / wave.omega)


@pytest.mark.parametrize("paper_typos", [False, True])
def test_evaluate_matches_where_r_underflows_to_zero(paper_typos):
    # x^2 + y^2 + z^2 underflows to 0 for |x| below ~1e-162, so R == 0
    # while the coordinates are not: only there do the R = 0 limits of
    # f1/R and f2/R^2 reach the output (at the true origin every term
    # they enter is multiplied by an exact zero).
    x = np.array([1.0e-163, 0.0, -3.0e-170, 0.5])
    y = np.array([-2.0e-163, 0.0, 1.0e-200, 0.25])
    z = np.array([1.5e-163, 0.0, 2.0e-165, -0.125])
    wave = MDipoleWave(paper_typos=paper_typos)
    assert np.count_nonzero(kr_of(wave, x, y, z) == 0.0) == 3
    got = wave.evaluate(x, y, z, 1.0e-16)
    assert got.ex[0] != 0.0 and got.bx[0] != 0.0
    assert_evaluate_matches(wave, x, y, z, 1.0e-16)


@pytest.mark.parametrize("paper_typos", [False, True])
def test_evaluate_matches_on_an_all_origin_block(paper_typos):
    zeros = np.zeros(33)
    assert_evaluate_matches(MDipoleWave(paper_typos=paper_typos),
                            zeros, zeros, zeros, 1.0e-16)


@pytest.mark.parametrize("paper_typos", [False, True])
def test_evaluate_keeps_scalar_and_grid_shapes(paper_typos):
    wave = MDipoleWave(paper_typos=paper_typos)
    scale = wave.wavelength
    assert_evaluate_matches(wave, 0.3 * scale, -0.2 * scale, 0.0, 1.0e-16)
    grid = np.meshgrid(*(np.linspace(-scale, scale, 5),) * 3,
                       indexing="ij")
    assert_evaluate_matches(wave, *grid, 1.0e-16)


def test_scalar_argument_keeps_its_shape():
    for got, want in zip(dipole_radial(0.5),
                         (reference.dipole_f1(0.5), reference.dipole_f2(0.5),
                          reference.dipole_f3(0.5))):
        assert np.shape(got) == np.shape(want) == ()
        assert bits(got) == bits(want)


@st.composite
def field_queries(draw):
    """Points around the focus, the origin and near-origin points included."""
    wave = MDipoleWave(paper_typos=draw(st.booleans()),
                       ramp_cycles=draw(st.sampled_from([0.0, 3.0])))
    scale = draw(st.sampled_from([wave.wavelength,
                                  _SERIES_THRESHOLD / wave.wavenumber]))
    coordinate = st.one_of(st.just(0.0), st.floats(-3.0, 3.0))
    points = draw(st.lists(st.tuples(coordinate, coordinate, coordinate),
                           min_size=1, max_size=40))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    x, y, z = (np.array(axis, dtype=np.float64) * scale
               for axis in zip(*points))
    period = 2.0 * np.pi / wave.omega
    t = draw(st.sampled_from([0.0, 0.3 * period, 2.0 * period,
                              5.0 * period]))
    return wave, x.astype(dtype), y.astype(dtype), z.astype(dtype), t


@settings(max_examples=200, deadline=None)
@given(field_queries())
def test_evaluate_matches_reference_evaluate(query):
    wave, x, y, z, t = query
    got = wave.evaluate(x, y, z, t)
    want = reference.evaluate(wave, x, y, z, t)
    for name, a, b in zip(got._fields, got, want):
        np.testing.assert_array_equal(bits(a), bits(b), err_msg=name)
