"""Benchmark harness: regenerate every table and figure of the paper.

* :mod:`~repro.bench.calibration` — device descriptors for the paper's
  Table 1 hardware and the per-device cost-model constants, each
  documented against the number it was fitted to;
* :mod:`~repro.bench.scenarios` — the paper's benchmark setup (1e7
  electrons in the 0.1-PW m-dipole wave) and the 6 CPU / 2 GPU
  implementation variants;
* :mod:`~repro.bench.metrics` — NSPS and measured-wall-clock helpers;
* :mod:`~repro.bench.harness` — experiment runners for Table 2, Table 3,
  Fig. 1 and the in-text observations;
* :mod:`~repro.bench.tables` — text rendering and paper-vs-model
  comparison.
"""

from .calibration import (
    xeon_8260l_node,
    p630,
    iris_xe_max,
    cost_model_for,
    device_by_name,
    DEVICE_NAMES,
)
from .scenarios import (
    PAPER_PARTICLES,
    PAPER_STEPS_PER_ITERATION,
    PAPER_ITERATIONS,
    paper_time_step,
    paper_wave,
    BenchmarkCase,
    CPU_PARALLELIZATIONS,
    runtime_config_for,
)
from .metrics import nsps_from_steps, measure_real_nsps, MeasuredResult
from .harness import (
    ModelResult,
    model_push_nsps,
    table2_rows,
    table3_rows,
    fig1_series,
    first_iteration_ratio,
    thread_sweep,
    fusion_rows,
)
from .tables import format_table, comparison_table, PAPER_TABLE2, PAPER_TABLE3
from .validation import Check, ValidationReport, validate_against_paper

__all__ = [
    "xeon_8260l_node",
    "p630",
    "iris_xe_max",
    "cost_model_for",
    "device_by_name",
    "DEVICE_NAMES",
    "PAPER_PARTICLES",
    "PAPER_STEPS_PER_ITERATION",
    "PAPER_ITERATIONS",
    "paper_time_step",
    "paper_wave",
    "BenchmarkCase",
    "CPU_PARALLELIZATIONS",
    "runtime_config_for",
    "nsps_from_steps",
    "measure_real_nsps",
    "MeasuredResult",
    "ModelResult",
    "model_push_nsps",
    "table2_rows",
    "table3_rows",
    "fig1_series",
    "first_iteration_ratio",
    "thread_sweep",
    "fusion_rows",
    "format_table",
    "comparison_table",
    "PAPER_TABLE2",
    "PAPER_TABLE3",
    "Check",
    "ValidationReport",
    "validate_against_paper",
]
