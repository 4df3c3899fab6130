"""Fused push kernels and their arithmetic characterization.

The paper's two benchmark scenarios time different kernel bodies:

* **Precalculated Fields** — the kernel loads six stored field
  components per particle and runs the Boris arithmetic
  (:func:`boris_push_precalculated`): memory-heavy.
* **Analytical Fields** — the kernel evaluates the m-dipole formulas
  inline and then runs the same arithmetic
  (:func:`boris_push_analytical`): compute-heavy.

The flop constants below characterise the Boris arithmetic for the
simulated device cost model (``sqrt`` and division counted at 10 flops
each, the usual throughput-equivalent convention for Skylake-class
AVX-512 and Gen9 GPUs).
"""

from __future__ import annotations

import numpy as np

from ..fields.base import FieldSource
from ..fields.precalculated import PrecalculatedField
from ..particles.ensemble import ParticleEnsemble
from .boris import boris_push

__all__ = ["boris_push_precalculated", "boris_push_analytical",
           "sample_fields", "kinetic_energy_diagnostic",
           "BORIS_FLOPS", "GAMMA_FLOPS", "POSITION_FLOPS",
           "FIELD_STAGE_FLOPS", "DIAGNOSTIC_FLOPS"]

#: Flops of the Boris momentum update per particle-step: two half
#: kicks (12), rotation vectors t and s incl. one division (~30), two
#: cross-product updates (36), plus coefficient setup (~10).
BORIS_FLOPS = 90

#: Flops of one gamma evaluation: |p|^2 (5), normalisation (3), sqrt
#: (10).  The pusher evaluates gamma twice (at p- and at the new p).
GAMMA_FLOPS = 18

#: Flops of the position drift: velocity coefficient with one division
#: (~12) and three multiply-adds (6).
POSITION_FLOPS = 18

#: Flops of *staging* one particle's six already-known field values into
#: the per-particle arrays (the field-eval graph node of the
#: precalculated scenario): pure data movement, ~1 op per component.
#: The analytical scenario adds the source's ``flops_per_evaluation``.
FIELD_STAGE_FLOPS = 6

#: Flops of the per-particle kinetic-energy diagnostic: one subtraction
#: on the gamma the push already computed.
DIAGNOSTIC_FLOPS = 1


def sample_fields(fields: PrecalculatedField, source: FieldSource,
                  ensemble: ParticleEnsemble, t: float) -> None:
    """Field-evaluation kernel body: sample ``source`` into ``fields``.

    The first node of every push step's kernel graph
    (:mod:`repro.oneapi.graph`): it reads the particle positions and
    writes the six per-particle field components the push node then
    loads.  In the paper's harness it is an untimed staging node; timed,
    the fusion pass can merge it with the push, eliding those component
    arrays (the values stay in registers), which is exactly the traffic
    saving fusion exists for.
    """
    fields.refresh(source, ensemble, t)


def kinetic_energy_diagnostic(ensemble: ParticleEnsemble,
                              out: np.ndarray) -> None:
    """Per-particle kinetic energy in units of ``m c^2``: ``gamma - 1``.

    The optional trailing diagnostics node of a graph step.  It only
    reads the gamma the push just stored, so it is elementwise and
    fuses onto the push whenever layout and precision allow.
    """
    dtype = ensemble.precision.dtype
    out[:] = ensemble.component("gamma") - dtype.type(1.0)


def boris_push_precalculated(ensemble: ParticleEnsemble,
                             fields: PrecalculatedField,
                             dt: float) -> None:
    """One Boris step using per-particle precalculated field arrays.

    This is the timed kernel body of the paper's first scenario: the
    six field components are *loaded*, not computed.  Refreshing the
    arrays after the particles move
    (:meth:`~repro.fields.precalculated.PrecalculatedField.refresh`)
    is the caller's untimed responsibility.
    """
    boris_push(ensemble, fields.values(), dt)


def boris_push_analytical(ensemble: ParticleEnsemble, source: FieldSource,
                          t: float, dt: float) -> None:
    """One Boris step evaluating ``source`` analytically inside the kernel.

    This is the timed kernel body of the paper's second scenario: field
    values are computed from closed-form expressions exactly where they
    are needed, trading memory traffic for arithmetic.
    """
    fields = source.evaluate(ensemble.component("x"),
                             ensemble.component("y"),
                             ensemble.component("z"), t)
    boris_push(ensemble, fields, dt)
