"""One vectorised Boris step against a scalar storage-precision reference.

``tests/_reference_boris.py`` computes the step particle by particle on
``np.float32`` / ``np.float64`` scalars in ``boris_push``'s operation
order.  Given identical field inputs, the vectorised kernel must match
it in raw bits, in both layouts and both precisions; a reference whose
``|t|^2`` is summed in another order must not.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.scenarios import paper_ensemble, paper_time_step, paper_wave
from repro.core.boris import boris_push
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
