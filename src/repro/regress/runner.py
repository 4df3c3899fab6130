"""The matrix runner: sanity + performance stages, per-cell diff report.

:func:`run_regression` is what ``repro bench --regress`` calls: select
suites through a :class:`~repro.regress.base.TestFilter`, run each
one's artefact, evaluate its sanity stage, and drive the **uniform
performance stage** — every compared metric of every cell against the
latest committed snapshot's reference, through the repo's single
tolerance predicate (:func:`repro.regress.base.within_tolerance`).

The report names every failing cell by its full identity
(``suite/backend:device/config[axes]``), the reference, the measured
value and the signed drift, so a red CI run reads as a diff, not a
stack trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .base import (RegressionTest, SanityCheck, TestFilter, cell_key,
                   cell_label, relative_drift, within_tolerance)
from .baseline import load_baseline
from .suites import all_suites, get_suite

__all__ = ["CellResult", "SuiteResult", "RegressionReport",
           "compare_cells", "run_suite", "run_regression",
           "render_listing"]

#: Cell statuses: only ``drift`` and ``missing`` fail the run.
OK, DRIFT, MISSING, NEW = "ok", "drift", "missing", "new"


@dataclass
class CellResult:
    """One performance-stage comparison: a cell metric vs its reference."""

    keys: Dict[str, str]
    metric: str
    measured: Optional[float]
    reference: Optional[float]
    tolerance: float
    status: str

    @property
    def passed(self) -> bool:
        return self.status in (OK, NEW)

    @property
    def drift(self) -> Optional[float]:
        if self.measured is None or self.reference is None:
            return None
        return relative_drift(self.measured, self.reference)

    @property
    def label(self) -> str:
        return cell_label(self.keys)

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready comparison record."""
        return {
            "cell": self.label, "keys": dict(self.keys),
            "metric": self.metric, "measured": self.measured,
            "reference": self.reference, "drift": self.drift,
            "tolerance": self.tolerance, "status": self.status,
            "passed": self.passed,
        }


@dataclass
class SuiteResult:
    """One suite's verdict: sanity checks + per-cell comparisons."""

    suite: str
    sanity: List[SanityCheck] = field(default_factory=list)
    cells: List[CellResult] = field(default_factory=list)
    skipped: Optional[str] = None
    error: Optional[str] = None

    @property
    def passed(self) -> bool:
        if self.skipped is not None:
            return True
        return (self.error is None
                and all(c.passed for c in self.sanity)
                and all(c.passed for c in self.cells))

    @property
    def n_compared(self) -> int:
        return sum(1 for c in self.cells if c.status != NEW)

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready suite verdict."""
        return {
            "suite": self.suite, "passed": self.passed,
            "skipped": self.skipped, "error": self.error,
            "sanity": [{"claim": c.claim, "detail": c.detail,
                        "passed": c.passed} for c in self.sanity],
            "cells": [c.as_dict() for c in self.cells],
        }


@dataclass
class RegressionReport:
    """The whole matrix run, renderable as a per-cell diff."""

    results: List[SuiteResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def as_dict(self) -> Dict[str, object]:
        """The machine-readable report ``repro bench --regress --json``
        prints: one verdict object per suite, schema-stable for CI
        consumers."""
        return {
            "passed": self.passed,
            "suites": [r.as_dict() for r in self.results],
            "cells_compared": sum(r.n_compared for r in self.results),
            "cells_failed": sum(1 for r in self.results
                                for c in r.cells if not c.passed),
        }

    def render(self) -> str:
        from ..bench.tables import format_table
        lines: List[str] = []
        rows = []
        for result in self.results:
            if result.skipped is not None:
                verdict = f"SKIP ({result.skipped})"
            elif result.passed:
                verdict = "PASS"
            else:
                verdict = "FAIL"
            sanity = (f"{sum(c.passed for c in result.sanity)}"
                      f"/{len(result.sanity)}")
            rows.append([result.suite, verdict, sanity,
                         str(result.n_compared)])
        lines.append(format_table(
            ["suite", "verdict", "sanity", "cells compared"], rows,
            "Regression matrix — latest committed snapshot is the "
            "reference"))
        for result in self.results:
            failures = [c for c in result.cells if not c.passed]
            news = [c for c in result.cells if c.status == NEW]
            bad_sanity = [c for c in result.sanity if not c.passed]
            if result.error is not None:
                lines.append("")
                lines.append(f"{result.suite}: ERROR {result.error}")
            if bad_sanity:
                lines.append("")
                lines.append(f"{result.suite}: sanity failures")
                for check in bad_sanity:
                    lines.append(f"  [FAIL] {check.claim}")
                    lines.append(f"         {check.detail}")
            if failures:
                lines.append("")
                lines.append(f"{result.suite}: per-cell diff "
                             f"(reference ± tolerance from the "
                             f"committed baseline)")
                diff_rows = []
                for cell in failures:
                    diff_rows.append([
                        cell.label, cell.metric,
                        "-" if cell.reference is None
                        else f"{cell.reference:.4f}",
                        "-" if cell.measured is None
                        else f"{cell.measured:.4f}",
                        "-" if cell.drift is None
                        else f"{cell.drift:+.1%}",
                        f"±{cell.tolerance:.0%}", cell.status])
                lines.append(format_table(
                    ["cell", "metric", "reference", "measured",
                     "drift", "tolerance", "status"], diff_rows))
            if news:
                lines.append("")
                lines.append(
                    f"{result.suite}: {len(news)} cell(s) not in the "
                    f"baseline (new axes?) — record with "
                    f"`repro bench {result.suite} --record`")
        total = sum(r.n_compared for r in self.results)
        failed = sum(1 for r in self.results for c in r.cells
                     if not c.passed)
        lines.append("")
        lines.append(
            f"{'PASS' if self.passed else 'FAIL'}: "
            f"{len(self.results)} suite(s), {total} cell(s) compared, "
            f"{failed} drifted/missing")
        return "\n".join(lines)


def compare_cells(test: RegressionTest,
                  measured_cells: List[Dict[str, object]],
                  baseline_cells) -> List[CellResult]:
    """The uniform performance stage over one suite.

    Every baseline cell carrying a compared metric must be reproduced
    by a measured cell of the same identity, within the cell's recorded
    tolerance (fallback: the suite default).  Measured cells absent
    from the baseline come back as ``new`` — informational, so adding
    an axis never turns CI red before ``--record`` runs.
    """
    measured_by_key = {}
    for cell in measured_cells:
        keys = {k: str(cell[k]) for k in
                ("suite", "backend", "device", "config", "layout",
                 "precision", "scenario") if k in cell}
        measured_by_key[cell_key(keys)] = (keys, cell)
    results: List[CellResult] = []
    matched = set()
    for ref_cell in baseline_cells:
        metrics = [m for m in test.compared_metrics
                   if m in ref_cell.metrics]
        if not metrics:
            continue            # context-only cell (e.g. efficiencies)
        tolerance = ref_cell.tolerance \
            if ref_cell.tolerance is not None else test.default_tolerance
        identity = ref_cell.identity
        hit = measured_by_key.get(identity)
        if hit is not None:
            matched.add(identity)
        for metric in metrics:
            reference = ref_cell.metrics[metric]
            metric_tolerance = test.metric_tolerances.get(metric, tolerance)
            measured = None if hit is None \
                else hit[1].get("metrics", {}).get(metric)
            if measured is None:
                results.append(CellResult(
                    keys=dict(ref_cell.keys), metric=metric,
                    measured=None, reference=reference,
                    tolerance=metric_tolerance, status=MISSING))
                continue
            ok = within_tolerance(float(measured), float(reference),
                                  metric_tolerance)
            results.append(CellResult(
                keys=dict(ref_cell.keys), metric=metric,
                measured=float(measured), reference=float(reference),
                tolerance=metric_tolerance, status=OK if ok else DRIFT))
    for identity, (keys, cell) in measured_by_key.items():
        if identity in matched:
            continue
        for metric in test.compared_metrics:
            measured = cell.get("metrics", {}).get(metric)
            if measured is None:
                continue
            results.append(CellResult(
                keys=keys, metric=metric, measured=float(measured),
                reference=None,
                tolerance=test.metric_tolerances.get(metric, float(
                    cell.get("tolerance", test.default_tolerance))),
                status=NEW))
    return results


def run_suite(test: RegressionTest,
              n: Optional[int] = None) -> SuiteResult:
    """Run one suite's sanity + performance stages."""
    if not test.regressable:
        return SuiteResult(test.suite,
                           skipped="host-dependent, never regressed")
    result = SuiteResult(test.suite)
    try:
        artifact = test.run(n=n)
        cells = test.cells(artifact)
        result.sanity = test.sanity(artifact, cells)
    except Exception as exc:       # a crashed suite is a failed suite
        result.error = f"{type(exc).__name__}: {exc}"
        return result
    if not test.has_baseline:
        return result
    baseline = load_baseline(test.suite, test.directory)
    if baseline is None or baseline.latest is None:
        result.error = (f"no committed baseline "
                        f"(record one: repro bench {test.suite} "
                        f"--record)")
        return result
    result.cells = compare_cells(test, cells, baseline.latest.cells)
    return result


def run_regression(test_filter: Optional[TestFilter] = None,
                   directory=None, n: Optional[int] = None,
                   suites: Optional[List[str]] = None,
                   progress=None) -> RegressionReport:
    """Run the declared matrix (optionally filtered) and report.

    ``suites`` pins an explicit suite list (``repro bench fusion
    --regress``); ``test_filter`` then still applies on top.
    ``progress`` is an optional callable fed one line per suite.
    """
    if suites is not None:
        tests = [get_suite(name, directory=directory)
                 for name in suites]
    else:
        tests = all_suites(directory=directory)
    if test_filter is not None:
        tests = [t for t in tests if test_filter.matches(t)]
    report = RegressionReport()
    for test in tests:
        if progress is not None:
            progress(f"[{test.suite}] running "
                     f"({'baseline' if test.has_baseline else 'sanity'}"
                     f" suite)")
        report.results.append(run_suite(test, n=n))
    return report


def render_listing(test_filter: Optional[TestFilter] = None,
                   directory=None) -> str:
    """The ``repro bench --list`` table."""
    from ..bench.tables import format_table
    tests = all_suites(directory=directory)
    if test_filter is not None:
        tests = [t for t in tests if test_filter.matches(t)]
    rows = []
    for test in tests:
        baseline = load_baseline(test.suite, test.directory) \
            if test.has_baseline else None
        if not test.has_baseline:
            ref = "sanity-only"
        elif baseline is None or baseline.latest is None:
            ref = "NOT RECORDED"
        else:
            ref = (f"{len(baseline.snapshots)} snapshot(s), "
                   f"n={baseline.latest.n_particles}")
        axes = " x ".join(f"{name}({len(values)})"
                          for name, values in test.parameters.items())
        rows.append([test.suite,
                     ",".join(sorted(test.tags)),
                     ",".join(test.devices), axes or "-", ref,
                     test.descr])
    return format_table(
        ["suite", "tags", "devices", "axes", "baseline", "description"],
        rows, "Declared regression suites (repro bench <suite>)")
