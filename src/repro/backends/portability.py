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

This module only runs the sweep.  The declared ``portability``
regression suite (:class:`repro.regress.suites.PortabilitySuite`)
turns a report into schema-v1 cells: ``repro bench portability
--record`` appends them to ``benchmarks/BENCH_portability.json`` and
``repro bench portability --regress`` fails on drift beyond
:data:`PP_DRIFT_TOLERANCE` — a backend or cost-model change that
shifts the portability story must update the committed baseline
deliberately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..errors import ConfigurationError

__all__ = ["PORTABLE_CONFIG", "PP_DRIFT_TOLERANCE", "DeviceEfficiency",
           "PortabilityReport", "pp_score", "measure_portability"]

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
