"""Metrics: NSPS from simulated launch records and from real wall time.

NSPS (nanoseconds per particle per step) is the paper's figure of
merit: average iteration time in nanoseconds divided by the particle
count and the steps per iteration.

Public return types: :func:`nsps_from_records` returns the steady-state
NSPS as a ``float``; :func:`nsps_from_steps` returns the steady-state
and first-step NSPS of a run's whole steps as a ``(float, float)``
pair — the one routine every run report (push, resilient, PIC, service
job) takes its NSPS from; :func:`measure_real_nsps` returns a
:class:`MeasuredResult` (``nsps``, ``n_particles``, ``steps``,
``total_seconds``).  :func:`nsps_from_records` is also what the trace
summary (:mod:`repro.observability.summary`) applies to its launch
samples, so NSPS recomputed from a captured trace agrees exactly with
the harness.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence, Tuple

from ..core.kernels import boris_push_analytical, boris_push_precalculated
from ..errors import ConfigurationError
from ..fields.base import FieldSource
from ..fields.precalculated import PrecalculatedField
from ..observability.tracer import trace_span
from ..oneapi.queue import KernelLaunchRecord
from ..particles.ensemble import ParticleEnsemble

__all__ = ["nsps_from_records", "nsps_from_steps", "MeasuredResult",
           "measure_real_nsps"]


def nsps_from_records(records: Sequence[KernelLaunchRecord],
                      skip_warmup: int = 2) -> float:
    """Steady-state NSPS over launch records, skipping warm-up launches.

    ``records`` are queue launch records or a trace's launch samples —
    anything with an ``nsps()`` method.

    The paper measures 10 iterations and notes the first is ~50% slower
    (JIT + cold memory); its NSPS averages over all of them, where the
    warm-up is diluted by the 1000 steps per iteration.  Here each
    record is a single step, so the first launches carry the whole
    warm-up — skipping them recovers the steady state the paper's
    averages effectively report.
    """
    if not records:
        raise ConfigurationError("no launch records to average")
    steady = records[skip_warmup:] if len(records) > skip_warmup else records
    return sum(r.nsps() for r in steady) / len(steady)


def nsps_from_steps(step_seconds: Sequence[float], n_items: int,
                    warmup: int) -> Tuple[float, float]:
    """``(steady NSPS, first-step NSPS)`` over per-step simulated seconds.

    A kernel-graph step can span several launches, so this averages an
    engine's ``step_seconds`` (whole steps) rather than per-record
    NSPS, skipping the ``warmup`` steps that carry JIT and cold pages
    (all steps count when there are no more than ``warmup``).  The
    first-step figure keeps that cold cost visible.
    """
    if not step_seconds:
        raise ConfigurationError("no steps to average")
    steady = step_seconds[warmup:] if len(step_seconds) > warmup \
        else list(step_seconds)
    return (sum(steady) / len(steady) * 1.0e9 / n_items,
            step_seconds[0] * 1.0e9 / n_items)


@dataclass
class MeasuredResult:
    """Real wall-clock measurement of the numpy kernels on this host."""

    nsps: float
    n_particles: int
    steps: int
    total_seconds: float


def measure_real_nsps(ensemble: ParticleEnsemble, scenario: str,
                      source: FieldSource, dt: float, steps: int = 10,
                      warmup_steps: int = 2) -> MeasuredResult:
    """Time the actual numpy Boris kernels on the current machine.

    This is the secondary, honest-hardware measurement recorded in
    EXPERIMENTS.md next to the modelled numbers: it validates that the
    kernels run and shows the real AoS-vs-SoA / float-vs-double /
    scenario contrasts that numpy itself exhibits.
    """
    if scenario not in ("precalculated", "analytical"):
        raise ConfigurationError(f"unknown scenario {scenario!r}")
    if steps < 1:
        raise ConfigurationError(f"steps must be >= 1, got {steps}")

    precalc = None
    if scenario == "precalculated":
        precalc = PrecalculatedField(ensemble.size, ensemble.precision,
                                     ensemble.layout)

    sim_time = 0.0

    def one_step(timed: bool) -> float:
        nonlocal sim_time
        with trace_span(f"measure-step:{scenario}", "measure",
                        timed=timed):
            if precalc is not None:
                precalc.refresh(source, ensemble, sim_time)   # untimed prep
                start = time.perf_counter()
                boris_push_precalculated(ensemble, precalc, dt)
                elapsed = time.perf_counter() - start
            else:
                start = time.perf_counter()
                boris_push_analytical(ensemble, source, sim_time, dt)
                elapsed = time.perf_counter() - start
        sim_time += dt
        return elapsed if timed else 0.0

    with trace_span(f"measure:{scenario}", "measure",
                    n_particles=ensemble.size, steps=steps):
        for _ in range(warmup_steps):
            one_step(timed=False)
        total = sum(one_step(timed=True) for _ in range(steps))
    nsps = total * 1.0e9 / (ensemble.size * steps)
    return MeasuredResult(nsps=nsps, n_particles=ensemble.size,
                          steps=steps, total_seconds=total)
