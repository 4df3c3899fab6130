"""Cross-engine validation: race detection + differential checking.

Two halves, one goal — trust the fast paths:

* :mod:`repro.validation.hazard` replays a queue's command log (what
  each launch *declared* it reads and writes, and which ``depends_on``
  edges ordered it) and flags RAW/WAR/WAW pairs no edge orders — the
  simulated runtime's race detector;
* :mod:`repro.validation.differential` runs one seeded ensemble
  through every engine x layout x precision x fusion combination and
  diffs each against the scalar reference
  (:func:`repro.core.boris.boris_push_particle`) with per-precision
  ULP tolerances and sha256 state digests.

Exposed as ``repro validate`` on the CLI and ``run_push(...,
validate=True)`` on the facade; see ``docs/VALIDATION.md`` for the
tolerance and hazard semantics.
"""

from .differential import (ComboResult, DifferentialReport, DigestCheck,
                           RunValidation, ULP_TOLERANCES, compare_ensembles,
                           reference_push, run_differential,
                           run_pic_differential, run_service_differential,
                           ulp_distance, validate_run)
from .hazard import (Hazard, assert_hazard_free, check_queue, find_hazards)

__all__ = [
    "Hazard", "find_hazards", "check_queue", "assert_hazard_free",
    "ComboResult", "DigestCheck", "DifferentialReport", "RunValidation",
    "ULP_TOLERANCES", "compare_ensembles", "reference_push",
    "run_differential", "run_pic_differential",
    "run_service_differential", "ulp_distance", "validate_run",
]
