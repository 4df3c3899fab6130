"""One vectorised Boris step against a scalar storage-precision reference.

``tests/_reference_boris.py`` computes the step particle by particle on
``np.float32`` / ``np.float64`` scalars in ``boris_push``'s operation
order.  Given identical field inputs, the vectorised kernel must match
it in raw bits, in both layouts and both precisions, also with two
interleaved species and with float64 fields on a float32 ensemble; a
reference whose ``|t|^2`` is summed in another order must not.  A
float64 species constant must be refused before anything is stored.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.scenarios import paper_ensemble, paper_time_step, paper_wave
from repro.core.boris import boris_push
from repro.errors import SimulationError
from repro.fields.precalculated import PrecalculatedField
from repro.fp import Precision
from repro.particles.ensemble import COMPONENTS, Layout
from tests import _reference_boris as reference


def _inputs(n, layout, precision, seed, step):
    """A seeded paper ensemble and its storage-precision fields at
    time ``step * dt`` (the wave is zero at t = 0)."""
    ensemble = paper_ensemble(n, layout, precision, seed=seed)
    fields = PrecalculatedField.from_source(
        paper_wave(), ensemble, step * paper_time_step()).values()
    return ensemble, fields


def _mismatches(ensemble, fields, **kwargs):
    """Components whose raw bits differ between the vectorised step and
    the scalar reference."""
    kernel, scalar = ensemble.copy(), ensemble.copy()
    boris_push(kernel, fields, paper_time_step())
    reference.boris_step(scalar, fields, paper_time_step(), **kwargs)
    return [name for name in COMPONENTS
            if kernel.component(name).tobytes()
            != scalar.component(name).tobytes()]


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 96), layout=st.sampled_from(list(Layout)),
       precision=st.sampled_from(list(Precision)),
       seed=st.integers(0, 2 ** 16), step=st.integers(1, 40))
def test_vectorised_step_matches_scalar_reference_bitwise(
        n, layout, precision, seed, step):
    ensemble, fields = _inputs(n, layout, precision, seed, step)
    assert _mismatches(ensemble, fields) == []


def test_reordered_reference_fails_the_check(layout, precision):
    ensemble, fields = _inputs(256, layout, precision, seed=0, step=3)
    assert _mismatches(
        ensemble, fields,
        t2_of=lambda tx, ty, tz: tz * tz + ty * ty + tx * tx) != []


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 96), layout=st.sampled_from(list(Layout)),
       seed=st.integers(0, 2 ** 16), step=st.integers(1, 40),
       species=st.sampled_from(["positron", "proton"]))
def test_two_species_and_double_fields_match_bitwise(
        n, layout, seed, step, species):
    # Every other particle is of a second species, so each species
    # constant is gathered per particle from a two-entry table; the
    # fields are float64 on a float32 ensemble, so the kernel casts
    # them before the arithmetic, as the reference does.
    ensemble = paper_ensemble(n, layout, Precision.SINGLE, seed=seed)
    ensemble.type_ids[1::2] = ensemble.type_table.id_of(species)
    fields = paper_wave().evaluate(
        *(ensemble.component(axis) for axis in "xyz"),
        step * paper_time_step())
    assert fields.ex.dtype == np.float64
    assert _mismatches(ensemble, fields) == []


def test_float64_species_constant_raises_and_leaves_the_ensemble(
        monkeypatch, layout):
    ensemble, fields = _inputs(64, layout, Precision.SINGLE, seed=0, step=3)
    before = {name: ensemble.component(name).copy() for name in COMPONENTS}
    table = ensemble.type_table
    masses, charges = table.typed_luts(np.float64)
    monkeypatch.setattr(table, "typed_luts", lambda dtype: (masses, charges))
    with pytest.raises(SimulationError, match="storage precision"):
        boris_push(ensemble, fields, paper_time_step())
    for name in COMPONENTS:
        assert ensemble.component(name).tobytes() == before[name].tobytes()
