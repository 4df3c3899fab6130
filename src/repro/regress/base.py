"""Declarative regression tests over the committed benchmark baselines.

Modeled on ReFrame's ``RunOnlyRegressionTest`` pattern: each benchmark
expectation is a :class:`RegressionTest` object declaring *where* it is
valid (device/backend filters, tags), *what* it runs (the artefact —
one harness invocation producing a set of cells), a **sanity stage**
(structural invariants: digests agree, the device set is complete, the
paper's qualitative claims hold) and a **performance stage** (every
cell's metric within a reference value ± tolerance, the references
coming from the committed versioned baseline — see
:mod:`repro.regress.baseline`).

This module owns the *one* tolerance-comparison code path of the repo:
:func:`within_tolerance` / :func:`relative_drift`.  Every drift check —
``repro bench --regress``, the benchmark smoke files under
``benchmarks/``, the portability PP-score check — routes through it, so
"within tolerance" means exactly one thing everywhere: the closed
interval ``|measured - reference| <= tolerance * |reference|`` (a cell
landing exactly on the bound passes; one epsilon over fails).

Concrete suites live in :mod:`repro.regress.suites`; the matrix runner
and its per-cell diff report in :mod:`repro.regress.runner`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError

__all__ = ["within_tolerance", "relative_drift", "cell_key", "cell_label",
           "SanityCheck", "RegressionTest", "TestFilter", "parse_filter"]

#: Key fields identifying one cell, in canonical display order.  The
#: first three are required on every versioned-baseline cell; the rest
#: appear where the suite's matrix has that axis.
KEY_FIELDS = ("suite", "backend", "device", "config", "layout",
              "precision", "scenario")

#: Key fields every v1 baseline cell must carry.
REQUIRED_KEY_FIELDS = ("backend", "device", "config")


def within_tolerance(measured: float, reference: float,
                     tolerance: float) -> bool:
    """The repo's single tolerance predicate (closed interval).

    True iff ``|measured - reference| <= tolerance * |reference|``.
    A measurement exactly at the bound passes; one epsilon over fails.
    ``tolerance`` is relative (0.10 = ±10%) and must be >= 0.
    """
    if tolerance < 0.0:
        raise ConfigurationError(
            f"tolerance must be >= 0, got {tolerance}")
    return abs(measured - reference) <= tolerance * abs(reference)


def relative_drift(measured: float, reference: float) -> float:
    """Signed relative drift of a measurement from its reference.

    ``(measured - reference) / |reference|``; infinite when the
    reference is zero and the measurement is not (a zero reference can
    only be reproduced exactly).
    """
    if reference == 0.0:
        return 0.0 if measured == 0.0 else float("inf")
    return (measured - reference) / abs(reference)


def cell_key(keys: Dict[str, object]) -> Tuple[Tuple[str, str], ...]:
    """Canonical identity of a cell: its sorted (field, value) pairs."""
    return tuple(sorted((str(k), str(v)) for k, v in keys.items()))


def cell_label(keys: Dict[str, object]) -> str:
    """Human-readable cell name: suite/backend:device/config[axes]."""
    suite = keys.get("suite", "?")
    backend = keys.get("backend", "?")
    device = keys.get("device", "?")
    config = keys.get("config", "?")
    axes = [str(keys[k]) for k in ("layout", "precision", "scenario")
            if k in keys]
    extras = sorted(k for k in keys
                    if k not in KEY_FIELDS)
    axes += [f"{k}={keys[k]}" for k in extras]
    label = f"{suite}/{backend}:{device}/{config}"
    return label + (f"[{'/'.join(axes)}]" if axes else "")


@dataclass
class SanityCheck:
    """One sanity-stage verdict: a claim, its evidence, pass/fail."""

    claim: str
    detail: str
    passed: bool


class RegressionTest:
    """Base class of every declarative benchmark expectation.

    Subclasses (one per suite, :mod:`repro.regress.suites`) declare:

    * ``suite`` — the registry name, also the ``BENCH_<suite>.json``
      baseline stem;
    * ``descr`` — one line for ``repro bench --list``;
    * ``tags`` — free-form selection labels (``smoke``, ``paper``,
      ``manual``...);
    * ``devices`` / ``backends`` — where the test is valid (what
      ``--filter device=…`` and ``--filter backend=…`` match against);
    * ``parameters`` — the declared axes (layout × precision × …) for
      the listing;
    * ``has_baseline`` — whether a committed reference exists (the
      performance stage needs one);
    * ``regressable`` — whether ``--regress`` may run it at all
      (host-dependent measurements are listed but never regressed);
    * ``default_tolerance`` — the relative tolerance recorded on every
      cell this suite writes;
    * ``compared_metrics`` / ``metric_tolerances`` — which metrics the
      performance stage compares, and any that ignore the cell's
      tolerance for a fixed one.

    And implement:

    * :meth:`run` — produce the artefact (one harness invocation);
    * :meth:`cells` — flatten the artefact into v1 cells (each a dict
      with ``suite/backend/device/config`` keys, a ``metrics`` mapping
      and the suite tolerance);
    * :meth:`sanity` — the sanity stage over the artefact + cells;
    * :meth:`render` — the human-readable artefact (what the CLI
      prints for ``repro bench <suite>``).

    The performance stage is *not* implemented here — it is uniform,
    owned by :func:`repro.regress.runner.compare_cells`, and driven by
    the committed baseline's per-cell references.
    """

    suite: str = ""
    descr: str = ""
    tags: frozenset = frozenset()
    devices: Tuple[str, ...] = ()
    backends: Tuple[str, ...] = ("oneapi",)
    parameters: Dict[str, Tuple[str, ...]] = {}
    has_baseline: bool = True
    regressable: bool = True
    default_tolerance: float = 0.10
    #: Metric names the performance stage compares (others recorded in
    #: cells are informational context, e.g. ``cold_nsps``).
    compared_metrics: Tuple[str, ...] = ("nsps",)
    #: Per-metric tolerances that override the cell's (0.0 compares a
    #: deterministic model output exactly).
    metric_tolerances: Dict[str, float] = {}

    def run(self, n: Optional[int] = None):
        """Produce the suite's artefact (harness return shape)."""
        raise NotImplementedError

    def cells(self, artifact) -> List[Dict[str, object]]:
        """Flatten the artefact into v1 baseline cells."""
        raise NotImplementedError

    def sanity(self, artifact, cells) -> List[SanityCheck]:
        """The sanity stage; default: every compared metric is finite
        and positive (NSPS of a real run can be neither)."""
        checks: List[SanityCheck] = []
        bad = []
        for cell in cells:
            for metric in self.compared_metrics:
                value = cell.get("metrics", {}).get(metric)
                if value is None:
                    continue
                if not (value == value and 0.0 < value < float("inf")):
                    bad.append(f"{cell_label(cell)}:{metric}={value}")
        checks.append(SanityCheck(
            f"{self.suite}: compared metrics finite and positive",
            "; ".join(bad) if bad else f"{len(cells)} cells ok",
            not bad))
        return checks

    def render(self, artifact) -> str:
        """Human-readable artefact for ``repro bench <suite>``."""
        raise NotImplementedError

    def make_cell(self, config: str, device: str,
                  metrics: Dict[str, float],
                  **keys) -> Dict[str, object]:
        """One v1 cell with the suite's identity and tolerance filled
        in; ``backend`` is inferred from the device spec unless given."""
        from .baseline import backend_of_device
        cell: Dict[str, object] = {
            "suite": self.suite,
            "backend": keys.pop("backend", None) or backend_of_device(device),
            "device": device, "config": config,
        }
        for axis in ("layout", "precision", "scenario"):
            if axis in keys:
                cell[axis] = keys.pop(axis)
        cell["metrics"] = {k: float(v) for k, v in metrics.items()}
        cell["tolerance"] = self.default_tolerance
        if keys:
            cell["extra"] = dict(keys)
        return cell


@dataclass
class TestFilter:
    """What ``--filter`` selects: suites, devices, backends, tags.

    Terms are ANDed; values within one category are ORed.  A bare term
    matches a suite name or a tag (``smoke`` selects everything tagged
    smoke); ``device=cpu``, ``backend=cuda``, ``suite=table2`` and
    ``tag=paper`` pin one category.  Matching is case-sensitive and
    exact per value.
    """

    __test__ = False          # "Test" prefix, but not a pytest class

    suites: Tuple[str, ...] = ()
    devices: Tuple[str, ...] = ()
    backends: Tuple[str, ...] = ()
    tags: Tuple[str, ...] = ()
    #: Bare terms: each must match the suite name OR a tag.
    terms: Tuple[str, ...] = ()

    def matches(self, test: RegressionTest) -> bool:
        if self.suites and test.suite not in self.suites:
            return False
        if self.devices and not set(self.devices) & set(test.devices):
            return False
        if self.backends and not set(self.backends) & set(test.backends):
            return False
        if self.tags and not set(self.tags) & set(test.tags):
            return False
        for term in self.terms:
            if term != test.suite and term not in test.tags:
                return False
        return True


def parse_filter(expressions: Optional[Iterable[str]]) -> TestFilter:
    """Build a :class:`TestFilter` from ``--filter`` strings.

    Each expression is a comma-separated list of terms; several
    ``--filter`` flags AND together with their commas flattened.
    """
    suites: List[str] = []
    devices: List[str] = []
    backends: List[str] = []
    tags: List[str] = []
    terms: List[str] = []
    buckets = {"suite": suites, "device": devices,
               "backend": backends, "tag": tags}
    for expression in expressions or ():
        for raw in expression.split(","):
            term = raw.strip()
            if not term:
                continue
            if "=" in term:
                key, _, value = term.partition("=")
                key, value = key.strip(), value.strip()
                if key not in buckets or not value:
                    raise ConfigurationError(
                        f"bad filter term {term!r}; expected "
                        f"suite=/device=/backend=/tag=NAME or a bare "
                        f"suite/tag name")
                buckets[key].append(value)
            else:
                terms.append(term)
    return TestFilter(suites=tuple(suites), devices=tuple(devices),
                      backends=tuple(backends), tags=tuple(tags),
                      terms=tuple(terms))
