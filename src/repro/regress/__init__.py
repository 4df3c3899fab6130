"""Declarative regression farm over the committed benchmark baselines.

One ``repro bench`` API over every committed reference: suites are
declared as :class:`~repro.regress.base.RegressionTest` objects
(ReFrame's run-only pattern — validity filters, a sanity stage, a
performance stage with per-cell references ± tolerance), the committed
``benchmarks/BENCH_*.json`` files carry the references in one
versioned schema (:mod:`repro.regress.baseline`), and
:func:`~repro.regress.runner.run_regression` drives the whole matrix
and renders the per-cell diff.

This package owns the repo's single tolerance-comparison code path:
:func:`~repro.regress.base.within_tolerance`.
"""

from .base import (RegressionTest, SanityCheck, TestFilter, cell_key,
                   cell_label, parse_filter, relative_drift,
                   within_tolerance)
from .baseline import (SCHEMA_VERSION, Baseline, BaselineCell,
                       BaselineSnapshot, append_snapshot,
                       backend_of_device, baseline_path, baseline_suites,
                       load_baseline, parse_document, write_baseline)
from .runner import (CellResult, RegressionReport, SuiteResult,
                     compare_cells, render_listing,
                     run_regression, run_suite)
from .suites import SUITES, all_suites, get_suite

__all__ = [
    "within_tolerance", "relative_drift", "cell_key", "cell_label",
    "RegressionTest", "SanityCheck", "TestFilter", "parse_filter",
    "SCHEMA_VERSION", "Baseline", "BaselineCell", "BaselineSnapshot",
    "backend_of_device", "baseline_path", "baseline_suites",
    "load_baseline", "write_baseline", "append_snapshot",
    "parse_document",
    "CellResult", "SuiteResult", "RegressionReport", "compare_cells",
    "run_suite", "run_regression", "render_listing",
    "SUITES", "get_suite", "all_suites",
]
