"""Differential validation: every engine against the scalar reference.

The paper's core claim is that its implementation variants compute the
*same* Boris push and differ only in speed.  This module is that claim
as an executable check: one seeded ensemble
(:func:`repro.bench.scenarios.paper_ensemble`) is pushed through every
engine (single / resilient / sharded) x layout (AoS / SoA) x precision
(float / double) x fusion mode (harness / unfused / fused) combination,
and each result is judged three ways:

* **ULP distance** against the scalar reference — the same initial
  state advanced by :func:`repro.core.boris.boris_push_particle` one
  particle at a time in double arithmetic (:func:`reference_push`).
  The vectorized kernels run in *storage* precision with a different
  operation order, so agreement is bounded, not bitwise; the bound is
  the per-precision tolerance in :data:`ULP_TOLERANCES`.
* **Digest equality** within bit-exact groups — fused, unfused and
  harness execution of the same layout x precision must produce
  identical sha256 state digests (fusion never changes physics), every
  engine must match within the group, and the sharded gather must be
  bit-identical to the single-device run (the distributed layer's
  founding invariant).  Layouts must agree bitwise too: AoS and SoA
  run identical elementwise arithmetic on identically seeded values.
* **Hazard freedom** — every queue the combination ran on is replayed
  through :mod:`repro.validation.hazard`.

ULP distance is measured against the local floating-point spacing,
with a floor of ``1e-3`` of the component's magnitude scale so
near-zero entries (a momentum component passing through zero) are
judged relative to the component's scale rather than to a denormal.

Exposed as ``repro validate`` (the full sweep) and
``run_push(..., validate=True)`` (:func:`validate_run`: hazard check
plus a reference diff on a particle sample of that one run).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.boris import boris_push_particle
from ..errors import ValidationError
from ..fp import Precision
from ..observability.tracer import active_tracer
from ..particles.ensemble import Layout, ParticleEnsemble
from .hazard import assert_hazard_free

__all__ = ["ULP_TOLERANCES", "ulp_distance", "reference_push",
           "compare_ensembles", "ComboResult", "DigestCheck",
           "DifferentialReport", "run_differential",
           "run_pic_differential", "RunValidation", "validate_run"]

#: Maximum accepted ULP distance from the scalar reference, per storage
#: precision.  The reference runs every intermediate in double, the
#: vectorized kernels in storage precision with a different operation
#: order (and, in the precalculated scenario, fields rounded to storage
#: precision before the push), so a few ULPs per step accumulate; the
#: budgets leave an order of magnitude of headroom over the measured
#: drift while staying far below what a wrong formula, a missed
#: promotion or a raced update produces.  See ``docs/VALIDATION.md``.
ULP_TOLERANCES: Dict[Precision, float] = {
    Precision.SINGLE: 512.0,
    Precision.DOUBLE: 256.0,
}

#: Components compared against the reference (weights never change).
_COMPARED = ("x", "y", "z", "px", "py", "pz", "gamma")

#: Fraction of a component's magnitude scale used as the spacing floor.
_SCALE_FLOOR = 1e-3

_FUSION_LABELS = {None: "legacy", False: "unfused", True: "fused"}


def ulp_distance(result, reference) -> float:
    """Worst-case ULP distance between two same-shaped arrays.

    ``reference`` is cast to ``result``'s dtype (the reference is held
    in storage precision already; the cast is a no-op then).  The
    distance of each element pair is ``|a - b|`` over the local
    floating-point spacing, floored at :data:`_SCALE_FLOOR` times the
    component's magnitude scale — a pure-ULP measure explodes when a
    value crosses zero, and differences far below the component's
    physical scale are noise, not disagreement.
    """
    a = np.asarray(result)
    b = np.asarray(reference, dtype=a.dtype)
    if a.size == 0:
        return 0.0
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    floor = max(scale * _SCALE_FLOOR, float(np.finfo(a.dtype).tiny))
    spacing = np.spacing(np.maximum(np.maximum(np.abs(a), np.abs(b)),
                                    a.dtype.type(floor)))
    diff = np.abs(a.astype(np.float64) - b.astype(np.float64))
    return float(np.max(diff / spacing))


def reference_push(ensemble: ParticleEnsemble, source, dt: float,
                   steps: int, start_time: float = 0.0) -> None:
    """Advance ``ensemble`` in place with the scalar reference pusher.

    Matches the engines' time semantics exactly: step *n* evaluates the
    analytical ``source`` at the particles' current positions at time
    ``start_time + n * dt`` (:meth:`~repro.fields.base.FieldSource.
    evaluate_at`, in double precision) and performs one
    :func:`~repro.core.boris.boris_push_particle` per particle.  State
    rounds to the ensemble's storage precision at each step boundary —
    the rounding the vectorized kernels also incur — while every
    intermediate stays double.  O(N x steps) scalar Python: for
    reference-sized ensembles only.
    """
    time = start_time
    for _ in range(steps):
        for index in range(ensemble.size):
            particle = ensemble[index]
            e, b = source.evaluate_at(particle.position, time)
            boris_push_particle(particle, e, b, dt,
                                particle.mass, particle.charge)
        time += dt


def compare_ensembles(result: ParticleEnsemble,
                      reference: ParticleEnsemble,
                      sample: Optional[int] = None
                      ) -> Tuple[float, str, Dict[str, float]]:
    """(max ULP, worst component, per-component ULP) of two ensembles.

    ``sample`` restricts the comparison to the first ``sample``
    particles of ``result`` (the reference may hold only that prefix —
    particles are independent, so a prefix reference is exact).
    """
    per_component: Dict[str, float] = {}
    worst_name, worst = "", 0.0
    for name in _COMPARED:
        got = result.component(name)
        if sample is not None:
            got = got[:sample]
        distance = ulp_distance(got, reference.component(name))
        per_component[name] = distance
        if distance >= worst:
            worst_name, worst = name, distance
    return worst, worst_name, per_component


# -- the sweep -----------------------------------------------------------

@dataclass(frozen=True)
class ComboResult:
    """One engine x layout x precision x fusion cell of the sweep."""

    engine: str
    layout: str
    precision: str
    fusion: str
    max_ulp: float
    worst_component: str
    digest: str
    commands_checked: int
    passed: bool
    detail: str = ""

    @property
    def label(self) -> str:
        return (f"{self.engine}/{self.layout}/{self.precision}/"
                f"{self.fusion}")


@dataclass(frozen=True)
class DigestCheck:
    """One bit-exactness assertion over the sweep's digests."""

    name: str
    passed: bool
    detail: str = ""


@dataclass
class DifferentialReport:
    """Everything one differential sweep measured."""

    n_particles: int
    steps: int
    tolerances: Dict[str, float]
    results: List[ComboResult] = field(default_factory=list)
    digest_checks: List[DigestCheck] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return (all(r.passed for r in self.results)
                and all(c.passed for c in self.digest_checks))

    def render(self) -> str:
        """Plain-text table of every combination and digest check."""
        lines = [f"differential sweep: {len(self.results)} combinations, "
                 f"n={self.n_particles}, steps={self.steps}",
                 f"{'combination':<38} {'max ULP':>10} {'worst':>6}  verdict"]
        for r in self.results:
            verdict = "ok" if r.passed else f"FAIL ({r.detail})"
            lines.append(f"{r.label:<38} {r.max_ulp:>10.1f} "
                         f"{r.worst_component:>6}  {verdict}")
        for check in self.digest_checks:
            verdict = "ok" if check.passed else f"FAIL ({check.detail})"
            lines.append(f"digest: {check.name:<40} {verdict}")
        return "\n".join(lines)


def _make_queue(device_spec: str):
    from ..backends.registry import queue_for

    return queue_for(device_spec)


def _drive(engine: str, ensemble: ParticleEnsemble, source, dt: float,
           steps: int, fusion: Optional[bool], device: str,
           group_spec: str) -> List:
    """Run ``steps`` pushes on ``ensemble``; return the queues used.

    Engines are built directly (not through :mod:`repro.api`) so the
    harness stays importable from the facade without a cycle, and every
    engine runs exactly ``steps`` pushes with no warm-up — the scalar
    reference advances the same count.
    """
    if engine == "single":
        from ..oneapi.runtime import PushEngine

        runner = PushEngine(_make_queue(device), ensemble, "precalculated",
                            source, dt, fusion=fusion)
    elif engine == "resilient":
        from ..resilience.runner import ResilientPushEngine

        runner = ResilientPushEngine(ensemble, "precalculated", source, dt,
                                     fusion=fusion)
    elif engine == "sharded":
        from ..distributed.group import DeviceGroup, parse_group_spec
        from ..distributed.runner import ShardedPushEngine

        runner = ShardedPushEngine(DeviceGroup(parse_group_spec(group_spec)),
                                   ensemble, "precalculated", source, dt,
                                   fusion=fusion)
    else:
        raise ValidationError(f"unknown differential engine {engine!r}")
    runner.run(steps)
    return list(runner.queues())


def run_differential(n: int = 192, steps: int = 3,
                     device: str = "iris-xe-max",
                     group_spec: str = "2x iris-xe-max",
                     engines: Sequence[str] = ("single", "resilient",
                                               "sharded"),
                     layouts: Sequence[Layout] = (Layout.AOS, Layout.SOA),
                     precisions: Sequence[Precision] = (Precision.SINGLE,
                                                        Precision.DOUBLE),
                     fusion_modes: Sequence[Optional[bool]] = (None, False,
                                                               True),
                     tolerances: Optional[Dict[Precision, float]] = None,
                     devices: Optional[Sequence[str]] = None
                     ) -> DifferentialReport:
    """Run the full differential sweep; returns the evidence.

    Never raises on disagreement — the report carries every verdict
    (``all_passed`` summarises) so a caller can render the whole table
    before deciding to fail.  Hazards, by contrast, are defects of the
    *submission code*, not of the physics, and do raise
    :class:`~repro.errors.HazardError` immediately.

    ``devices`` widens the "single"-engine axis across a device matrix
    (backend-qualified specs welcome: ``("iris-xe-max", "cuda:gpu0")``)
    — each listed device runs the full layout x precision x fusion
    grid as its own combination, and its digests join the same
    bit-exact groups.  This is the cross-*backend* half of the paper's
    claim: a CUDA stream must produce the same bits as a oneAPI queue,
    not just the same speed story.  ``None`` keeps the classic
    single-device sweep on ``device``.
    """
    from ..bench.scenarios import paper_ensemble, paper_time_step, paper_wave
    from ..core.stepping import state_digest

    tols = dict(ULP_TOLERANCES)
    if tolerances:
        tols.update(tolerances)
    source = paper_wave()
    dt = paper_time_step()
    tracer = active_tracer()
    report = DifferentialReport(
        n_particles=n, steps=steps,
        tolerances={p.value: t for p, t in tols.items()})
    # Expand the engine axis: the "single" engine fans out across the
    # device matrix when one is given; labels carry the device so a
    # digest mismatch names the culprit backend.
    cells: List[Tuple[str, str, str]] = []
    for engine in engines:
        if engine == "single" and devices is not None:
            cells.extend(("single", f"single[{spec}]", spec)
                         for spec in devices)
        else:
            cells.append((engine, engine, device))
    digests: Dict[Tuple[str, str], Dict[str, List[str]]] = {}
    for precision in precisions:
        for layout in layouts:
            reference = paper_ensemble(n, layout, precision)
            reference_push(reference, source, dt, steps)
            for engine, engine_label, run_device in cells:
                for fusion in fusion_modes:
                    ensemble = paper_ensemble(n, layout, precision)
                    queues = _drive(engine, ensemble, source, dt, steps,
                                    fusion, run_device, group_spec)
                    checked = sum(assert_hazard_free(q) for q in queues)
                    max_ulp, worst, _ = compare_ensembles(ensemble,
                                                          reference)
                    digest = state_digest(ensemble)
                    passed = max_ulp <= tols[precision]
                    result = ComboResult(
                        engine=engine_label, layout=layout.value,
                        precision=precision.value,
                        fusion=_FUSION_LABELS[fusion],
                        max_ulp=max_ulp, worst_component=worst,
                        digest=digest, commands_checked=checked,
                        passed=passed,
                        detail="" if passed else
                        f"tolerance {tols[precision]:.0f} ULP exceeded")
                    report.results.append(result)
                    if tracer is not None:
                        tracer.validation(
                            f"ulp:{result.label}", passed,
                            max_ulp=max_ulp, worst_component=worst,
                            tolerance=tols[precision])
                    group = digests.setdefault(
                        (layout.value, precision.value), {})
                    group.setdefault(digest, []).append(result.label)
    for (layout_name, precision_name), by_digest in sorted(digests.items()):
        name = f"{layout_name}/{precision_name} bit-exact group"
        if len(by_digest) == 1:
            check = DigestCheck(name, True)
        else:
            parts = "; ".join(
                f"{d[:12]}...: {', '.join(labels)}"
                for d, labels in sorted(by_digest.items()))
            check = DigestCheck(name, False,
                                f"{len(by_digest)} distinct digests "
                                f"({parts})")
        report.digest_checks.append(check)
        if tracer is not None:
            tracer.validation(f"digest:{name}", check.passed,
                              distinct=len(by_digest))
    # Cross-layout agreement: identical seeded values through identical
    # elementwise arithmetic — strides must not change a single bit.
    for precision_name in sorted({p.value for p in precisions}):
        per_layout = {layout_name: set(by_digest)
                      for (layout_name, pname), by_digest
                      in digests.items() if pname == precision_name}
        if len(per_layout) < 2:
            continue
        union = set().union(*per_layout.values())
        name = f"AoS == SoA ({precision_name})"
        check = DigestCheck(name, len(union) == 1,
                            "" if len(union) == 1 else
                            f"{len(union)} distinct digests across layouts")
        report.digest_checks.append(check)
        if tracer is not None:
            tracer.validation(f"digest:{name}", check.passed,
                              distinct=len(union))
    return report


# -- the PIC sweep -------------------------------------------------------

#: Execution modes of the PIC differential sweep.  ``reference`` is
#: :meth:`~repro.pic.simulation.PicSimulation.run` driving the stage
#: functions directly on the host; the other two are
#: :class:`~repro.pic.engine.PicEngine` with fusion off / on.  All
#: three execute the *same* stage bodies in the same order, so unlike
#: the push sweep the agreement contract is bitwise, not ULP-bounded:
#: every mode of every layout must land in one digest group.
PIC_MODES: Tuple[object, ...] = ("reference", False, True)

_PIC_MODE_LABELS = {"reference": "reference", False: "unfused",
                    True: "fused"}


def run_pic_differential(n: int = 192, steps: int = 3,
                         device: str = "iris-xe-max",
                         scenarios: Optional[Sequence[str]] = None,
                         layouts: Sequence[Layout] = (Layout.AOS,
                                                      Layout.SOA),
                         precisions: Sequence[Precision] = (
                             Precision.DOUBLE,),
                         modes: Sequence[object] = PIC_MODES,
                         seed: int = 0) -> DifferentialReport:
    """Differential sweep over the full PIC step (gather / push /
    Monte Carlo / deposit / field advance).

    Each scenario x layout x precision cell is advanced ``steps`` steps
    through every execution mode in ``modes``; the
    :func:`~repro.pic.engine.pic_state_digest` of the final state
    (all particle components including weight, plus grid fields and
    currents) must be bit-identical across modes *and* across layouts
    — the engine lowers the same stage bodies the reference simulation
    calls, and fusion only removes launch boundaries, never reorders
    arithmetic.  Engine modes are additionally replayed through the
    hazard detector; the declared read/write sets of the lowered
    kernel nodes must explain every dependency.

    Shares :class:`DifferentialReport` with the push sweep:
    ``max_ulp`` is the measured distance of the first species from the
    reference run (expected exactly 0), ``passed`` is digest equality.
    """
    from ..backends.registry import queue_for
    from ..pic import PicEngine, build_scenario, pic_state_digest
    from ..pic.scenarios import scenario_names

    names = list(scenarios) if scenarios is not None \
        else list(scenario_names())
    tracer = active_tracer()
    report = DifferentialReport(
        n_particles=n, steps=steps,
        tolerances={p.value: 0.0 for p in precisions})
    digests: Dict[Tuple[str, str], Dict[str, List[str]]] = {}
    for scenario in names:
        for precision in precisions:
            for layout in layouts:
                reference = build_scenario(
                    scenario, n_particles=n, seed=seed, layout=layout,
                    precision=precision)
                reference.run(steps)
                ref_digest = pic_state_digest(reference)
                group = digests.setdefault(
                    (f"{scenario}:{layout.value}", precision.value), {})
                for mode in modes:
                    label = (f"pic[{scenario}]/{layout.value}/"
                             f"{precision.value}/"
                             f"{_PIC_MODE_LABELS[mode]}")
                    if mode == "reference":
                        digest, checked, max_ulp, worst = \
                            ref_digest, 0, 0.0, "-"
                        final = reference
                    else:
                        simulation = build_scenario(
                            scenario, n_particles=n, seed=seed,
                            layout=layout, precision=precision)
                        engine = PicEngine(queue_for(device), simulation,
                                           fusion=mode)
                        engine.run(steps)
                        checked = sum(assert_hazard_free(q)
                                      for q in engine.queues())
                        digest = pic_state_digest(simulation)
                        max_ulp, worst, _ = compare_ensembles(
                            simulation.ensembles[0],
                            reference.ensembles[0])
                        final = simulation
                    del final
                    passed = digest == ref_digest
                    result = ComboResult(
                        engine=f"pic[{scenario}]", layout=layout.value,
                        precision=precision.value,
                        fusion=_PIC_MODE_LABELS[mode],
                        max_ulp=max_ulp if isinstance(max_ulp, float)
                        else 0.0,
                        worst_component=worst, digest=digest,
                        commands_checked=checked, passed=passed,
                        detail="" if passed else
                        "digest differs from the reference run")
                    report.results.append(result)
                    if tracer is not None:
                        tracer.validation(f"pic:{label}", passed,
                                          digest=digest[:12],
                                          commands=checked)
                    group.setdefault(digest, []).append(label)
    for (cell_name, precision_name), by_digest in sorted(digests.items()):
        name = f"{cell_name}/{precision_name} bit-exact group"
        if len(by_digest) == 1:
            check = DigestCheck(name, True)
        else:
            parts = "; ".join(
                f"{d[:12]}...: {', '.join(labels)}"
                for d, labels in sorted(by_digest.items()))
            check = DigestCheck(name, False,
                                f"{len(by_digest)} distinct digests "
                                f"({parts})")
        report.digest_checks.append(check)
        if tracer is not None:
            tracer.validation(f"digest:{name}", check.passed,
                              distinct=len(by_digest))
    # Cross-layout agreement per scenario: the digest hashes a
    # contiguous copy of each component, so AoS and SoA runs of the
    # same seeded scenario must agree to the bit.
    for scenario in names:
        for precision_name in sorted({p.value for p in precisions}):
            per_layout = {cell: set(by_digest)
                          for (cell, pname), by_digest in digests.items()
                          if pname == precision_name
                          and cell.startswith(f"{scenario}:")}
            if len(per_layout) < 2:
                continue
            union = set().union(*per_layout.values())
            name = f"pic[{scenario}] AoS == SoA ({precision_name})"
            check = DigestCheck(name, len(union) == 1,
                                "" if len(union) == 1 else
                                f"{len(union)} distinct digests "
                                f"across layouts")
            report.digest_checks.append(check)
            if tracer is not None:
                tracer.validation(f"digest:{name}", check.passed,
                                  distinct=len(union))
    return report


# -- per-run validation (run_push(..., validate=True)) -------------------

@dataclass(frozen=True)
class RunValidation:
    """What ``run_push(..., validate=True)`` checked, and how close.

    Attributes:
        checked_particles: Size of the reference sample diffed.
        commands_checked: Commands replayed by the hazard detector
            across every queue of the run.
        max_ulp: Worst measured ULP distance from the reference sample.
        worst_component: Component carrying ``max_ulp``.
        tolerance: The budget ``max_ulp`` was judged against.
    """

    checked_particles: int
    commands_checked: int
    max_ulp: float
    worst_component: str
    tolerance: float


#: Particle-sample ceiling of the per-run reference diff: the scalar
#: reference is O(N x steps) Python, so production-sized runs are
#: validated on a prefix (particles are independent; a prefix is exact).
VALIDATE_SAMPLE = 128


def validate_run(config, ensemble: ParticleEnsemble, queues: Sequence,
                 source, dt: float) -> RunValidation:
    """Validate one finished facade run against reference and log.

    Replays every queue's command log through the hazard detector
    (raises :class:`~repro.errors.HazardError` on a missing edge), then
    rebuilds the run's seeded initial state, advances a prefix sample
    of it with :func:`reference_push` over the run's full
    ``warmup + steps`` schedule, and compares.  Raises
    :class:`~repro.errors.ValidationError` past tolerance; returns the
    measured :class:`RunValidation` otherwise.
    """
    from ..bench.scenarios import paper_ensemble

    commands_checked = sum(assert_hazard_free(q) for q in queues)
    sample = min(ensemble.size, VALIDATE_SAMPLE)
    initial = paper_ensemble(config.n_particles, config.layout,
                             config.precision)
    reference = initial.select(np.arange(initial.size) < sample)
    reference_push(reference, source, dt, config.warmup + config.steps)
    max_ulp, worst, _ = compare_ensembles(ensemble, reference,
                                          sample=sample)
    tolerance = ULP_TOLERANCES[config.precision]
    tracer = active_tracer()
    if tracer is not None:
        tracer.validation(f"run:{config.mode}", max_ulp <= tolerance,
                          max_ulp=max_ulp, worst_component=worst,
                          tolerance=tolerance, sample=sample,
                          commands=commands_checked)
    if max_ulp > tolerance:
        raise ValidationError(
            f"{config.mode} run diverged from the scalar reference: "
            f"component {worst!r} is {max_ulp:.1f} ULP away "
            f"(tolerance {tolerance:.0f}) over {sample} sampled "
            f"particles")
    return RunValidation(checked_particles=sample,
                         commands_checked=commands_checked,
                         max_ulp=max_ulp, worst_component=worst,
                         tolerance=tolerance)
