"""The shared m-dipole radial helper reproduces the old functions bit for bit.

``repro.fields.dipole.dipole_radial`` computes ``sin``, ``cos`` and the
powers of ``kR`` once for all three radial functions;
``tests/_reference_dipole.py`` keeps the three separate functions it
replaced and ``MDipoleWave.evaluate`` as it was built on them.  The
field feeds every push digest, so the two are compared as raw int64
bit patterns, not with a tolerance.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.fields import (MDipoleWave, dipole_f1, dipole_f2, dipole_f3,
                          dipole_radial)
from repro.fields.dipole import _SERIES_THRESHOLD
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
