"""The four host-clock workloads: seeded inputs, the timed call, its checks.

Each workload loads one layer of the simulator and leaves the others
light, so a change to that layer shows on its workload and a workload
that bypasses the layer predicts no change:

* ``push-cpu-numa`` — the per-chunk NUMA walk of
  ``CostModel.time_launch`` (two-domain CPU, thousands of
  dynamically-scheduled chunks per launch);
* ``push-gpu-large`` — the real Boris and m-dipole numpy kernels; the
  single-domain GPU takes the cost model's whole-range shortcut, so
  pricing is nearly free here;
* ``pic-laser-slab`` — Esirkepov current deposition inside the full
  PIC loop;
* ``service-ckpt`` — the multi-tenant service: many small launches,
  program-cache amortisation, checkpoint writes and one device-loss
  restore.

A workload is used in three steps, only the middle one timed::

    inputs = workload.inputs()          # fresh seeded input
    raw = workload.call(inputs)         # the call a user makes
    outcome = workload.check(inputs, raw)

``build`` is the set-up part of ``call`` (everything up to an engine or
service that is ready to step); the set-up probe times it from
interpreter start.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Dict, List, Tuple

import numpy as np

from repro import api
from repro.backends.registry import resolve_device
from repro.bench.scenarios import paper_ensemble, paper_time_step, paper_wave
from repro.core import stepping
from repro.errors import HazardError
from repro.fp import Precision
from repro.oneapi.programcache import ProgramCache
from repro.oneapi.runtime import PushEngine
from repro.particles.ensemble import Layout
from repro.pic.engine import PicEngine
from repro.pic.scenarios import build_scenario, get_scenario
from repro.service import JobSpec, PushService
from repro.service.job import JobState
from repro.validation import (ULP_TOLERANCES, assert_hazard_free,
                              compare_ensembles, reference_push)

__all__ = ["Outcome", "PushWorkload", "PicWorkload", "ServiceWorkload",
           "WORKLOADS", "make_workload"]

#: Particles of the scalar-reference sample every push call is held to.
REFERENCE_SAMPLE = 128
#: Steps of one push call, warm-up included (2 + 2): over 10
#: single-precision steps some seeds drift past the float ULP tolerance
#: of the scalar-reference check.
PUSH_STEPS = 4
PUSH_LAYOUT, PUSH_PRECISION = Layout.SOA, Precision.SINGLE
#: The PIC call: scenario, warm-up steps and measured steps.
PIC_SCENARIO, PIC_WARMUP, PIC_STEPS = "laser-slab", 2, 8
#: The service's fleet and checkpoint cadence [steps].
SERVICE_FLEET = "2x iris-xe-max, 1x p630"
SERVICE_CHECKPOINT_EVERY = 2


@dataclass
class Outcome:
    """What one call produced, reduced to what the benchmark compares.

    ``digest`` and ``sim_seconds`` must repeat exactly on every call of
    a run; ``operations`` is the call's count of attempted operations
    (one call, or one job of the service), ``failed`` how many of them
    failed a workload check, described in ``problems``.
    """

    digest: str
    sim_seconds: float
    particle_steps: int
    operations: int = 1
    failed: int = 0
    problems: List[str] = field(default_factory=list)


class PushWorkload:
    """A single-device fused push: queue + engine + run + digest.

    The timed call mirrors ``run_push``'s single-device path over the
    benchmark's own seeded ensemble (``RunConfig`` has no seed), so at
    seed 0 it reproduces ``run_push``'s digest exactly.
    """

    def __init__(self, name: str, why: str, device: str,
                 n_particles: int) -> None:
        self.name, self.why = name, why
        self.device = device
        self.n_particles = n_particles
        self._pristine = None
        self._reference = None

    def prepare(self, seed: int) -> None:
        """Generate the seeded initial ensemble."""
        self._pristine = paper_ensemble(self.n_particles, PUSH_LAYOUT,
                                        PUSH_PRECISION, seed=seed)
        self._reference = None

    def inputs(self):
        return self._pristine.copy()

    def build(self, ensemble) -> PushEngine:
        backend, device = resolve_device(self.device)
        queue = backend.make_queue(device, program_cache=ProgramCache())
        return PushEngine(queue, ensemble, "precalculated", paper_wave(),
                          paper_time_step(), fusion=True)

    def call(self, ensemble) -> Tuple[PushEngine, str, float]:
        engine = self.build(ensemble)
        engine.run(PUSH_STEPS)
        return (engine, stepping.state_digest(ensemble),
                engine.queue.timeline.makespan)

    def check(self, ensemble, raw) -> Outcome:
        engine, digest, sim_seconds = raw
        outcome = Outcome(digest, sim_seconds,
                          self.n_particles * PUSH_STEPS)
        try:
            assert_hazard_free(engine.queue)
        except HazardError as exc:
            outcome.problems.append(str(exc))
        sample = min(REFERENCE_SAMPLE, self.n_particles)
        max_ulp, worst, _ = compare_ensembles(
            ensemble, self._scalar_reference(sample), sample=sample)
        if max_ulp > ULP_TOLERANCES[PUSH_PRECISION]:
            outcome.problems.append(
                f"{worst} is {max_ulp:.1f} ULP from the scalar reference "
                f"(tolerance {ULP_TOLERANCES[PUSH_PRECISION]:.0f})")
        outcome.failed = 1 if outcome.problems else 0
        return outcome

    def _scalar_reference(self, sample: int):
        if self._reference is None:
            pristine = self._pristine
            reference = pristine.select(np.arange(pristine.size) < sample)
            reference_push(reference, paper_wave(), paper_time_step(),
                           PUSH_STEPS)
            self._reference = reference
        return self._reference


class PicWorkload:
    """One ``run_pic`` call of a seeded scenario."""

    def __init__(self, name: str, why: str, n_particles: int) -> None:
        self.name, self.why = name, why
        self.n_particles = n_particles
        self.seed = 0

    def prepare(self, seed: int) -> None:
        self.seed = seed

    def inputs(self) -> api.PicConfig:
        return api.PicConfig(scenario=PIC_SCENARIO,
                             n_particles=self.n_particles,
                             steps=PIC_STEPS, warmup=PIC_WARMUP,
                             seed=self.seed, layout=Layout.SOA,
                             precision=Precision.DOUBLE, fusion=True)

    def build(self, config: api.PicConfig) -> PicEngine:
        """The set-up part of ``run_pic(config)``: it must stay in step
        with ``api._execute_pic`` up to the engine's construction."""
        simulation = build_scenario(
            config.scenario, config.n_particles, seed=config.seed,
            layout=config.layout, precision=config.precision,
            deposition=config.deposition, solver=config.solver)
        backend, device = resolve_device(config.device)
        cache = config.program_cache \
            or ProgramCache(persist_path=config.persist_cache)
        queue = backend.make_queue(device, program_cache=cache)
        return PicEngine(queue, simulation, fusion=config.fusion)

    def call(self, config: api.PicConfig) -> api.PicReport:
        return api.run_pic(config)

    def check(self, config, report: api.PicReport) -> Outcome:
        outcome = Outcome(report.digest, report.simulated_seconds,
                          report.n_particles * (PIC_WARMUP + PIC_STEPS))
        tolerance = get_scenario(PIC_SCENARIO).energy_tolerance
        if not report.energy_drift <= tolerance:
            outcome.problems.append(
                f"energy drift {report.energy_drift:.3e} exceeds "
                f"{tolerance:.1e}")
            outcome.failed = 1
        return outcome


@dataclass(frozen=True)
class _Job:
    """One job of the seeded mix (a fresh ``JobSpec`` per call)."""

    WARMUP = 2

    name: str
    n_particles: int
    steps: int
    layout: Layout
    precision: Precision
    tenant: str
    priority: int
    faulty: bool

    def config(self) -> api.RunConfig:
        return api.RunConfig(n_particles=self.n_particles, steps=self.steps,
                             warmup=self.WARMUP, device=None,
                             layout=self.layout,
                             precision=self.precision, fusion=True)


class ServiceWorkload:
    """``PushService`` + submits + ``run()`` over a seeded job mix.

    The job table is fixed: every layout x precision profile twice,
    sizes and step counts evenly spaced over their ranges (the largest
    jobs take the fewest steps), and the middle job carries the
    ``device-loss`` fault plan.  The seed shuffles the submission order,
    picks the priorities (and so the preemptions) and seeds the fault
    injector's transients, so every seed does the same work.
    """

    def __init__(self, name: str, why: str, n_jobs: int = 8,
                 particles: Tuple[int, int] = (5_000, 10_000),
                 steps: Tuple[int, int] = (8, 12)) -> None:
        self.name, self.why = name, why
        self.n_jobs = n_jobs
        self.particles, self.steps = particles, steps
        self.seed = 0
        self.jobs: Tuple[_Job, ...] = ()
        self._solo: Dict[str, str] = {}

    def prepare(self, seed: int) -> None:
        profiles = [(layout, precision) for layout in Layout
                    for precision in Precision]
        sizes = np.linspace(*self.particles, self.n_jobs).round()
        steps = np.linspace(*self.steps, self.n_jobs).round()[::-1]
        rng = np.random.default_rng(seed)
        self.jobs = tuple(
            _Job(name=f"job-{k}", n_particles=int(sizes[k]),
                 steps=int(steps[k]),
                 layout=profiles[k % len(profiles)][0],
                 precision=profiles[k % len(profiles)][1],
                 tenant=f"tenant-{i % 3}", priority=int(rng.integers(3)),
                 faulty=k == self.n_jobs // 2)
            for i, k in enumerate(rng.permutation(self.n_jobs)))
        self.seed = seed
        self._solo = {}

    def inputs(self) -> List[JobSpec]:
        return [JobSpec(job.name, job.config(), tenant=job.tenant,
                        priority=job.priority,
                        fault_plan="device-loss" if job.faulty else None,
                        fault_seed=self.seed)
                for job in self.jobs]

    def build(self, specs: List[JobSpec]) -> PushService:
        service = PushService(SERVICE_FLEET,
                              checkpoint_every=SERVICE_CHECKPOINT_EVERY)
        for spec in specs:
            service.submit(spec)
        return service

    def call(self, specs: List[JobSpec]):
        return self.build(specs).run()

    def check(self, specs, report) -> Outcome:
        digests = hashlib.sha256()
        outcome = Outcome("", report.makespan,
                          sum(job.n_particles * (job.WARMUP + job.steps)
                              for job in self.jobs),
                          operations=len(self.jobs))
        for job in self.jobs:
            result = report.jobs[job.name]
            digests.update(result.digest.encode())
            if result.state != JobState.COMPLETED:
                outcome.problems.append(
                    f"{job.name} {result.state}: {result.error}")
            elif result.digest != self._solo_digest(job):
                outcome.problems.append(
                    f"{job.name} digest differs from its solo run_push")
        outcome.digest = digests.hexdigest()
        outcome.failed = len(outcome.problems)
        return outcome

    def _solo_digest(self, job: _Job) -> str:
        """The job's config run alone and fault-free through run_push."""
        if job.name not in self._solo:
            config = replace(job.config(), device="iris-xe-max")
            self._solo[job.name] = api.run_push(config).digest
        return self._solo[job.name]


#: Each workload's class and constructor arguments, in run order.  The
#: sizes make one call take about a second on a 2-vCPU host, so a run
#: times a dozen or more calls.
_REGISTRY = {
    "push-cpu-numa": (PushWorkload, dict(
        why="two-NUMA-domain CPU push: the per-chunk pricing walk "
            "dominates",
        device="cpu", n_particles=200_000)),
    "push-gpu-large": (PushWorkload, dict(
        why="large single-domain GPU push: Boris and m-dipole kernels "
            "dominate, pricing takes its whole-range shortcut",
        device="iris-xe-max", n_particles=750_000)),
    "pic-laser-slab": (PicWorkload, dict(
        why="full PIC loop with ionization: Esirkepov deposition "
            "dominates",
        n_particles=16_384)),
    "service-ckpt": (ServiceWorkload, dict(
        why="8-job multi-tenant service with one device loss: checkpoint "
            "I/O, many small launches, JIT-cache reuse")),
}

#: Workload names in run order.
WORKLOADS = tuple(_REGISTRY)


def make_workload(name: str, **overrides):
    """A fresh workload by name; ``overrides`` replace constructor
    arguments (tests pass tiny sizes)."""
    try:
        cls, defaults = _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown workload {name!r}; expected one of "
                       f"{WORKLOADS}") from None
    return cls(name, **{**defaults, **overrides})
