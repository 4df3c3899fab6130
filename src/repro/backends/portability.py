"""Performance portability across the backend matrix (Pennycook PP).

The backend layer's scorecard.  Pennycook, Sewall and Lee define the
performance portability of an application ``a`` solving problem ``p``
on a platform set ``H`` as the harmonic mean of its *application
efficiency* on each platform — zero if any platform is unsupported::

    PP(a, p, H) = |H| / sum_{i in H} 1 / e_i(a, p)

Application efficiency ``e_i`` is "achieved performance as a fraction
of the best-known achievable performance on that platform".  Here both
numbers come from the same simulated stack:

* **best-achievable** — what ``run_push(config="auto")`` reaches on
  the device: the roofline autotuner picks layout, precision, fusion
  (and SMT tiling on CPUs) per device;
* **achieved (portable)** — what one fixed, portable configuration
  (:data:`PORTABLE_CONFIG`: SoA / float / fused, defaults otherwise)
  reaches everywhere, the way a single unspecialised source tree would
  ship.

``e_i = best_nsps / portable_nsps`` (NSPS is time-per-work, so the
ratio is best-over-achieved), clamped to 1.0 — the portable config
occasionally *ties* the tuned one and simulation determinism would
otherwise produce e > 1 noise.

The report is JSON-round-trippable; ``repro bench portability
--record`` (or the legacy ``repro portability --record``) appends a
schema-v1 snapshot to ``benchmarks/BENCH_portability.json`` and CI's
``bench-regress`` job replays the declared ``portability`` regression
suite, failing on drift beyond :data:`PP_DRIFT_TOLERANCE` — a backend
or cost-model change that shifts the portability story must update the
committed baseline deliberately.  The tolerance comparison routes
through :func:`repro.regress.within_tolerance`, the repo's single
drift code path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..errors import ConfigurationError, ValidationError

__all__ = ["PORTABLE_CONFIG", "PP_DRIFT_TOLERANCE", "DeviceEfficiency",
           "PortabilityReport", "pp_score", "measure_portability",
           "write_baseline", "load_baseline", "check_drift"]

#: The fixed configuration played on every device: the paper's best
#: *portable* choice (SoA coalesces on every architecture, float is
#: the portable precision, fusion never hurts here).
PORTABLE_CONFIG = {"layout": "SoA", "precision": "float", "fusion": True}

#: Relative PP-score drift CI tolerates before failing the smoke job.
#: The simulated clock is deterministic, so genuine drift means a cost
#: model or tuner change — the tolerance only absorbs float noise.
PP_DRIFT_TOLERANCE = 0.02

#: Default problem size of the sweep: big enough that every device is
#: in its DRAM-resident steady state, small enough for CI.
DEFAULT_N_PARTICLES = 20_000
DEFAULT_STEPS = 4
DEFAULT_WARMUP = 2


@dataclass
class DeviceEfficiency:
    """One device's row of the portability table.

    ``best_nsps`` is the autotuned figure (with the winning candidate's
    label so the table explains *what* tuning bought), ``portable_nsps``
    the fixed-config figure, ``efficiency`` their clamped ratio.
    """

    device: str
    backend: str
    best_nsps: float
    portable_nsps: float
    efficiency: float
    best_label: str = ""
    predicted_nsps: Optional[float] = None

    def as_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "device": self.device, "backend": self.backend,
            "best_nsps": self.best_nsps,
            "portable_nsps": self.portable_nsps,
            "efficiency": self.efficiency,
            "best_label": self.best_label,
        }
        if self.predicted_nsps is not None:
            data["predicted_nsps"] = self.predicted_nsps
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "DeviceEfficiency":
        return cls(device=str(data["device"]),
                   backend=str(data["backend"]),
                   best_nsps=float(data["best_nsps"]),
                   portable_nsps=float(data["portable_nsps"]),
                   efficiency=float(data["efficiency"]),
                   best_label=str(data.get("best_label", "")),
                   predicted_nsps=data.get("predicted_nsps"))


@dataclass
class PortabilityReport:
    """The full sweep: per-device efficiencies and the single PP score."""

    pp: float
    devices: List[DeviceEfficiency] = field(default_factory=list)
    n_particles: int = DEFAULT_N_PARTICLES
    steps: int = DEFAULT_STEPS
    warmup: int = DEFAULT_WARMUP
    portable_config: Dict[str, object] = field(
        default_factory=lambda: dict(PORTABLE_CONFIG))

    def as_dict(self) -> Dict[str, object]:
        return {"pp": self.pp,
                "devices": [row.as_dict() for row in self.devices],
                "n_particles": self.n_particles, "steps": self.steps,
                "warmup": self.warmup,
                "portable_config": dict(self.portable_config)}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "PortabilityReport":
        return cls(pp=float(data["pp"]),
                   devices=[DeviceEfficiency.from_dict(row)
                            for row in data["devices"]],
                   n_particles=int(data["n_particles"]),
                   steps=int(data["steps"]),
                   warmup=int(data["warmup"]),
                   portable_config=dict(data["portable_config"]))


def pp_score(efficiencies: Sequence[float]) -> float:
    """Pennycook harmonic-mean PP over per-device efficiencies.

    Zero if the set is empty or any efficiency is zero (an unsupported
    platform zeroes the metric by definition).
    """
    if not efficiencies:
        return 0.0
    for e in efficiencies:
        if not 0.0 <= e <= 1.0:
            raise ConfigurationError(
                f"application efficiency must be in [0, 1], got {e}")
    if any(e == 0.0 for e in efficiencies):
        return 0.0
    return len(efficiencies) / sum(1.0 / e for e in efficiencies)


def measure_portability(devices: Optional[Sequence[str]] = None,
                        n_particles: int = DEFAULT_N_PARTICLES,
                        steps: int = DEFAULT_STEPS,
                        warmup: int = DEFAULT_WARMUP
                        ) -> PortabilityReport:
    """Run the best-vs-portable sweep and compute the PP score.

    ``devices`` defaults to every registered device of every backend
    (:func:`repro.backends.registry.all_device_specs`).  Each device
    runs twice: once autotuned (``config="auto"``) for the
    best-achievable figure, once with :data:`PORTABLE_CONFIG` for the
    portable figure.
    """
    from ..api import RunConfig, run_push
    from .registry import all_device_specs, parse_device_spec

    specs = list(devices) if devices is not None else all_device_specs()
    if not specs:
        raise ConfigurationError("portability sweep needs >= 1 device")
    rows: List[DeviceEfficiency] = []
    for spec in specs:
        backend_name, _ = parse_device_spec(spec)
        best = run_push(RunConfig(config="auto", device=spec,
                                  n_particles=n_particles, steps=steps,
                                  warmup=warmup))
        portable = run_push(RunConfig(device=spec,
                                      n_particles=n_particles,
                                      steps=steps, warmup=warmup,
                                      **PORTABLE_CONFIG))
        efficiency = min(1.0, best.nsps / portable.nsps) \
            if portable.nsps > 0.0 else 0.0
        label = ""
        if best.tuning is not None:
            label = best.tuning.best.candidate.label
        rows.append(DeviceEfficiency(
            device=spec, backend=backend_name,
            best_nsps=best.nsps, portable_nsps=portable.nsps,
            efficiency=efficiency, best_label=label,
            predicted_nsps=best.predicted_nsps))
    return PortabilityReport(
        pp=pp_score([row.efficiency for row in rows]), devices=rows,
        n_particles=n_particles, steps=steps, warmup=warmup)


# -- baseline persistence (benchmarks/BENCH_portability.json) -----------
#
# The file is the regression farm's schema v1 (repro.regress.baseline);
# these helpers keep the PortabilityReport view of it.

def _report_from_snapshot(snapshot) -> PortabilityReport:
    """Rebuild a :class:`PortabilityReport` from a v1 snapshot."""
    devices: List[DeviceEfficiency] = []
    pp = 0.0
    portable_config: Dict[str, object] = dict(PORTABLE_CONFIG)
    for cell in snapshot.cells:
        config = cell.keys.get("config")
        if config == "efficiency":
            devices.append(DeviceEfficiency(
                device=cell.keys["device"],
                backend=cell.keys.get("backend", "oneapi"),
                best_nsps=float(cell.metrics.get("best_nsps", 0.0)),
                portable_nsps=float(cell.metrics.get("portable_nsps",
                                                     0.0)),
                efficiency=float(cell.metrics.get("efficiency", 0.0)),
                best_label=str(cell.extra.get("best_label", "")),
                predicted_nsps=cell.metrics.get("predicted_nsps")))
        elif config == "pp":
            pp = float(cell.metrics.get("pp", 0.0))
            portable_config = dict(cell.extra.get("portable_config",
                                                  PORTABLE_CONFIG))
    return PortabilityReport(
        pp=pp, devices=devices,
        n_particles=snapshot.n_particles,
        steps=int(snapshot.params.get("steps", DEFAULT_STEPS)),
        warmup=int(snapshot.params.get("warmup", DEFAULT_WARMUP)),
        portable_config=portable_config)


def _snapshot_from_report(report: PortabilityReport):
    """One v1 snapshot: an ``efficiency`` cell per device plus the
    ``pp`` summary cell the regression farm compares."""
    from ..regress.baseline import BaselineCell, BaselineSnapshot
    cells = []
    for row in report.devices:
        metrics = {"best_nsps": float(row.best_nsps),
                   "portable_nsps": float(row.portable_nsps),
                   "efficiency": float(row.efficiency)}
        if row.predicted_nsps is not None:
            metrics["predicted_nsps"] = float(row.predicted_nsps)
        cells.append(BaselineCell(
            keys={"suite": "portability", "backend": row.backend,
                  "device": row.device, "config": "efficiency"},
            metrics=metrics, extra={"best_label": row.best_label}))
    cells.append(BaselineCell(
        keys={"suite": "portability", "backend": "*", "device": "*",
              "config": "pp"},
        metrics={"pp": float(report.pp)},
        tolerance=PP_DRIFT_TOLERANCE,
        extra={"portable_config": dict(report.portable_config)}))
    return BaselineSnapshot(
        git_sha="unknown", date="", n_particles=report.n_particles,
        cells=cells,
        params={"steps": report.steps, "warmup": report.warmup})


def write_baseline(report: PortabilityReport, path) -> Path:
    """Write the committed baseline file — schema v1, pretty-printed.

    The report becomes one v1 snapshot (per-device efficiency cells
    plus the ``pp`` summary cell the regression farm compares).
    """
    from ..regress.baseline import Baseline, git_sha
    import datetime
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    snapshot = _snapshot_from_report(report)
    snapshot.git_sha = git_sha()
    snapshot.date = datetime.date.today().isoformat()
    baseline = Baseline(suite="portability", snapshots=[snapshot])
    with open(target, "w", encoding="utf-8") as handle:
        json.dump(baseline.as_dict(), handle, indent=1)
        handle.write("\n")
    return target


def load_baseline(path) -> PortabilityReport:
    """Load a committed schema-v1 baseline.

    Malformed files raise :class:`~repro.errors.ValidationError` (the
    drift check must not silently pass on a corrupt baseline).
    """
    from ..regress.baseline import parse_document
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        baseline = parse_document("portability", document)
        if baseline.latest is None:
            raise ValidationError("baseline has no snapshots")
        return _report_from_snapshot(baseline.latest)
    except ValidationError:
        raise
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ValidationError(
            f"unreadable portability baseline {path}: "
            f"{type(exc).__name__}: {exc}") from exc


def check_drift(current: PortabilityReport, baseline: PortabilityReport,
                tolerance: float = PP_DRIFT_TOLERANCE) -> List[str]:
    """Compare a fresh sweep against the committed baseline.

    Returns human-readable drift findings (empty = within tolerance).
    Checks the PP score relatively — through the repo's single
    tolerance predicate, :func:`repro.regress.within_tolerance` — and
    the device set exactly (a device appearing or vanishing is always
    a finding).
    """
    from ..regress.base import within_tolerance
    findings: List[str] = []
    current_devices = {row.device for row in current.devices}
    baseline_devices = {row.device for row in baseline.devices}
    for missing in sorted(baseline_devices - current_devices):
        findings.append(f"device {missing!r} in baseline but not in sweep")
    for added in sorted(current_devices - baseline_devices):
        findings.append(f"device {added!r} in sweep but not in baseline")
    if baseline.pp > 0.0:
        if not within_tolerance(current.pp, baseline.pp, tolerance):
            drift = abs(current.pp - baseline.pp) / baseline.pp
            findings.append(
                f"PP score drifted {drift:.1%} (baseline {baseline.pp:.4f}"
                f", current {current.pp:.4f}, tolerance {tolerance:.0%})")
    elif current.pp != baseline.pp:
        findings.append(
            f"PP score changed from 0 to {current.pp:.4f}")
    return findings
