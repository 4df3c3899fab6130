"""``PrecalculatedField.refresh`` writes the field into its storage bit for bit.

``MDipoleWave.evaluate_into`` chains the m-dipole expressions in place
and stores each component's last product straight into the field
array, rounding once to its precision.  Its output must equal the plain
whole-array expressions of ``tests/_reference_dipole.py`` cast to the
storage precision, in raw bits: in float32 and float64, into strided
(AoS) and contiguous (SoA) arrays, with points in the series region,
at the origin and where ``R`` underflows to 0, for both ``paper_typos``
settings.  Sources without their own ``evaluate_into`` keep the default,
which evaluates and assigns.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.scenarios import paper_ensemble
from repro.fields import MDipoleWave, PlaneWave, UniformField
from repro.fields.base import FieldSource
from repro.fields.dipole import _SERIES_THRESHOLD
from repro.fields.precalculated import FIELD_COMPONENTS, PrecalculatedField
from repro.fp import Precision
from repro.particles import Layout
from tests import _reference_dipole as reference


def raw(array):
    return np.ascontiguousarray(array).tobytes()


def ensemble_with_points(layout, precision, seed=0, n=512):
    """A paper ensemble with points moved into the series region, onto
    the origin and (float64 only) to where ``R^2`` underflows."""
    ensemble = paper_ensemble(n, layout, precision, seed=seed)
    wave = MDipoleWave()
    focus = 0.5 * _SERIES_THRESHOLD / wave.wavenumber
    for axis in "xyz":
        component = ensemble.component(axis)
        component[40:90] *= focus / np.abs(component).max()
        component[[0, 7, n - 1]] = 0.0
    if precision is Precision.DOUBLE:
        for axis, value in zip("xyz", (1.0e-163, -2.0e-163, 1.5e-163)):
            ensemble.component(axis)[[3, 100]] = value
    return ensemble


def assert_refresh_matches(wave, ensemble, t, layout=None):
    field = PrecalculatedField.from_source(wave, ensemble, t, layout)
    want = reference.evaluate(
        wave, *(ensemble.component(axis) for axis in "xyz"), t)
    dtype = ensemble.precision.dtype
    for name, expected in zip(FIELD_COMPONENTS, want):
        got = field.component(name)
        assert got.dtype == dtype
        assert raw(got) == raw(np.asarray(expected).astype(dtype)), name


def reference_kr(wave, ensemble):
    x, y, z = (ensemble.component(axis).astype(np.float64)
               for axis in "xyz")
    return wave.wavenumber * np.sqrt(x * x + y * y + z * z)


@pytest.mark.parametrize("paper_typos", [False, True])
@pytest.mark.parametrize("t_periods", [0.0, 0.3, 7.1])
def test_refresh_matches_reference_in_storage_precision(
        layout, precision, paper_typos, t_periods):
    wave = MDipoleWave(paper_typos=paper_typos, ramp_cycles=3.0)
    ensemble = ensemble_with_points(layout, precision)
    kr = reference_kr(wave, ensemble)
    assert np.count_nonzero(kr == 0.0) >= 3
    assert np.count_nonzero((kr > 0.0) & (kr < _SERIES_THRESHOLD)) > 0
    assert_refresh_matches(wave, ensemble,
                           t_periods * 2.0 * np.pi / wave.omega)


def test_underflow_points_reach_the_double_output():
    # Where R^2 underflows the R = 0 limits enter the output itself.
    wave = MDipoleWave()
    ensemble = ensemble_with_points(Layout.SOA, Precision.DOUBLE)
    field = PrecalculatedField.from_source(wave, ensemble, 1.0e-16)
    assert field.component("ex")[3] != 0.0
    assert field.component("bx")[3] != 0.0


def test_refresh_into_the_other_layout_matches():
    # A field array whose layout differs from the ensemble's: strided
    # reads into contiguous stores and contiguous reads into strided.
    wave = MDipoleWave()
    for layout, other in ((Layout.AOS, Layout.SOA), (Layout.SOA, Layout.AOS)):
        ensemble = ensemble_with_points(layout, Precision.SINGLE, seed=4)
        assert_refresh_matches(wave, ensemble, 1.0e-15, layout=other)


@settings(max_examples=60, deadline=None)
@given(layout=st.sampled_from(list(Layout)),
       precision=st.sampled_from(list(Precision)),
       paper_typos=st.booleans(), seed=st.integers(0, 2 ** 16),
       n=st.integers(1, 70), step=st.integers(0, 200))
def test_refresh_matches_reference_on_drawn_blocks(
        layout, precision, paper_typos, seed, n, step):
    wave = MDipoleWave(paper_typos=paper_typos)
    ensemble = paper_ensemble(n, layout, precision, seed=seed)
    rng = np.random.default_rng(seed)
    focus = _SERIES_THRESHOLD / wave.wavenumber
    picked = rng.random(n) < 0.3
    for axis in "xyz":
        ensemble.component(axis)[picked] *= focus * rng.random() \
            / max(np.abs(ensemble.component(axis)).max(), 1e-30)
    assert_refresh_matches(wave, ensemble,
                           step * 0.01 * 2.0 * np.pi / wave.omega)


@pytest.mark.parametrize("source", [
    UniformField(e=(1.5, -2.0, 0.25), b=(0.1, 3.0e3, -7.0)),
    PlaneWave(amplitude=2.0e11, omega=MDipoleWave.PAPER_OMEGA)],
    ids=["uniform", "plane-wave"])
def test_default_evaluate_into_evaluates_then_assigns(
        source, layout, precision):
    assert type(source).evaluate_into is FieldSource.evaluate_into
    ensemble = paper_ensemble(300, layout, precision, seed=2)
    t = 1.0e-15
    field = PrecalculatedField.from_source(source, ensemble, t)
    values = source.evaluate(
        *(ensemble.component(axis) for axis in "xyz"), t)
    assigned = PrecalculatedField(ensemble.size, ensemble.precision,
                                  ensemble.layout)
    for name in FIELD_COMPONENTS:
        assigned.component(name)[:] = getattr(values, name)
    for name in FIELD_COMPONENTS:
        assert raw(field.component(name)) == raw(assigned.component(name))
