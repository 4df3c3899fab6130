"""One front door for every push workload: ``run_push(RunConfig())``.

The facade keeps the two engine constructors —
:class:`~repro.resilience.runner.ResilientPushEngine` (one device, or
a fallback ladder under fault plans) and
:class:`~repro.distributed.runner.ShardedPushEngine` (device groups) —
reachable through one declarative :class:`RunConfig`, returning one
:class:`RunReport`.  Device fields accept backend-qualified specs
(``"cuda:gpu0"``) next to the bare oneAPI keys; see
:mod:`repro.backends` and ``docs/BACKENDS.md``.

Mode selection is by configuration shape, not by flag:

* ``group`` set (a spec string like ``"2x iris-xe-max"``) — sharded
  run across a :class:`~repro.distributed.group.DeviceGroup`, under
  ``fault_plan`` when one is set;
* ``devices`` ladder or ``fault_plan`` set — resilient run walking the
  fallback chain under the named fault plan (without ``devices`` the
  chain starts at ``device``);
* otherwise — a plain single-device run on ``device``: the same
  resilient engine on the one-rung ladder ``(device,)``.

Error surfacing: any exception escaping the scheduler, exchange or
kernel-graph paths that is not already a
:class:`~repro.errors.ReproError` is wrapped into the closest
documented class before it reaches the caller — the facade guarantee
stated in :mod:`repro.errors`.  Callers can therefore handle every
failure with one ``except ReproError`` arm.

Quickstart::

    from repro.api import RunConfig, run_push

    report = run_push(RunConfig(n_particles=100_000, steps=10,
                                device="iris-xe-max", fusion=True))
    print(report.nsps, report.cache_stats["misses"])

    # or let the roofline-driven autotuner pick layout, precision and
    # the execution path (see docs/TUNING.md):
    report = run_push(RunConfig(config="auto", device="cpu"))
    print(report.tuning.best.candidate.label,
          report.predicted_nsps, report.nsps)
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (AllocationFailedError, ConfigurationError, KernelError,
                     ReproError)
from .fp import Precision
from .particles.ensemble import Layout

__all__ = ["RunConfig", "RunReport", "run_push",
           "PicConfig", "PicReport", "run_pic"]

_LAYOUTS = {"aos": Layout.AOS, "soa": Layout.SOA}
_PRECISIONS = {"float": Precision.SINGLE, "single": Precision.SINGLE,
               "double": Precision.DOUBLE}


def _coerce_layout(value) -> Layout:
    """Accept a Layout enum or a spelling like "SoA"/"aos"."""
    if isinstance(value, Layout):
        return value
    try:
        return _LAYOUTS[str(value).lower()]
    except KeyError:
        raise ConfigurationError(
            f"unknown layout {value!r}; expected 'AoS' or 'SoA'") from None


def _coerce_precision(value) -> Precision:
    """Accept a Precision enum or "float"/"single"/"double"."""
    if isinstance(value, Precision):
        return value
    try:
        return _PRECISIONS[str(value).lower()]
    except KeyError:
        raise ConfigurationError(
            f"unknown precision {value!r}; expected 'float' or "
            f"'double'") from None


def _map_error(exc: BaseException) -> ReproError:
    """The facade guarantee: fold foreign exceptions into the taxonomy.

    ``ReproError`` instances pass through untouched.  Misuse-shaped
    builtins become :class:`ConfigurationError`, resource exhaustion
    becomes :class:`AllocationFailedError`, and anything else — a bug
    in a kernel body, a numpy broadcast error deep in the scheduler —
    surfaces as :class:`KernelError` with the original chained as
    ``__cause__`` so nothing is hidden.
    """
    if isinstance(exc, ReproError):
        return exc
    if isinstance(exc, (ValueError, TypeError, KeyError)):
        mapped: ReproError = ConfigurationError(
            f"invalid run configuration: {exc}")
    elif isinstance(exc, MemoryError):
        mapped = AllocationFailedError(f"host allocation failed: {exc}")
    else:
        mapped = KernelError(
            f"push run failed ({type(exc).__name__}): {exc}")
    mapped.__cause__ = exc
    return mapped


@dataclass
class RunConfig:
    """Everything :func:`run_push` needs, in one declarative object.

    Attributes:
        scenario: "precalculated" or "analytical" field handling.
        layout: Particle storage layout (enum or "AoS"/"SoA").
        precision: Arithmetic precision (enum or "float"/"double").
        n_particles: Ensemble size.
        steps: Measured push steps (after ``warmup``).
        warmup: Warm-up steps excluded from the steady NSPS (they carry
            JIT and cold-page cost; the paper's "first iteration is
            ~1.5x slower" effect).
        dt: Time step [s], finite; None means the paper's T/100.
        device: Device spec for single-device runs — a bare oneAPI key
            ("cpu", "p630", "iris-xe-max") or a backend-qualified spec
            ("cuda:gpu0"); see :mod:`repro.backends.registry`.
        group: Device-group spec string ("2x iris-xe-max"); selects the
            sharded engine.
        devices: Fallback ladder of device keys; selects the resilient
            engine.  When only ``fault_plan`` is set, the ladder is
            ``device`` followed by the rest of
            :data:`~repro.resilience.runner.DEVICE_LADDER`.
        fault_plan: Named fault plan to inject (see
            :mod:`repro.resilience.plans`) around the run of a ladder or
            a group; a group recovers from device loss by
            redistribution, which needs ``checkpoint_every``.
        fault_seed: Fault injector RNG seed.
        fusion: What the per-step kernel graph times: True fuses
            compatible kernels, False launches every node unfused,
            None is the paper's harness — the field refresh is an
            untimed staging node and the push the one timed launch.
        diagnostics: Append the kinetic-energy diagnostic kernel to the
            per-step graph (single-device and ladder runs; a group
            rejects it).
        trace_path: Write a Chrome ``trace_event`` JSON here.
        checkpoint_every: Step-granular checkpoint cadence for the
            resilient/sharded engines (0 = no checkpointing).
        persist_cache: On-disk path for the JIT program cache; warm
            across *processes*, the simulated analogue of
            ``SYCL_CACHE_PERSISTENT``.
        program_cache: A live
            :class:`~repro.oneapi.programcache.ProgramCache` instance
            to use instead of building a fresh one — pass the same
            instance to several ``run_push`` calls and only the first
            run of each program pays the JIT.  This is how
            :mod:`repro.service` amortizes compiles across a whole
            schedule of jobs (see ``docs/SERVICE.md``).  Mutually
            exclusive with ``persist_cache`` (a shared cache owns its
            own persistence policy).
        config: ``"auto"`` hands layout/precision/fusion (plus SMT
            tiling and shard strategy where the mode exposes them) to
            the roofline-driven autotuner
            (:mod:`repro.analysis.autotune`): the run executes the
            predicted-best candidate, the report carries the ranked
            :class:`~repro.analysis.autotune.TuningReport` and the
            predicted-vs-measured comparison.  ``None`` (default) runs
            the config as written.
        threads_per_unit: Hardware threads per core for CPU queues of
            single-device and ladder runs (1 = SMT off, None = all;
            the paper's 48-vs-96 thread axis; a group rejects it).
            Set by the autotuner's tiling search.
        strategy: Shard-split strategy name for group runs ("even",
            "bandwidth", "flops"); None keeps the engine's even
            default.
        tune_devices: Device specs the autotuner may *select between*
            (``config="auto"``, single mode only): candidates span
            these devices on top of layout/precision/fusion, the
            winner's device becomes the run's device.  This is the
            backend axis — ``("cpu", "cuda:gpu0")`` lets the tuner
            weigh an oneAPI CPU against a CUDA card.  None keeps the
            device fixed as written.
    """

    scenario: str = "precalculated"
    layout: object = Layout.SOA
    precision: object = Precision.SINGLE
    n_particles: int = 100_000
    steps: int = 10
    warmup: int = 2
    dt: Optional[float] = None
    device: str = "iris-xe-max"
    group: Optional[str] = None
    devices: Optional[Sequence[str]] = None
    fault_plan: Optional[str] = None
    fault_seed: int = 0
    fusion: Optional[bool] = None
    diagnostics: bool = False
    trace_path: Optional[str] = None
    checkpoint_every: int = 0
    persist_cache: Optional[str] = None
    program_cache: Optional[object] = None
    config: Optional[str] = None
    threads_per_unit: Optional[int] = None
    strategy: Optional[str] = None
    tune_devices: Optional[Sequence[str]] = None

    def validate(self) -> "RunConfig":
        """Normalise enums and reject inconsistent combinations."""
        self.layout = _coerce_layout(self.layout)
        self.precision = _coerce_precision(self.precision)
        if self.scenario not in ("precalculated", "analytical"):
            raise ConfigurationError(
                f"unknown scenario {self.scenario!r}")
        if self.n_particles < 1:
            raise ConfigurationError(
                f"n_particles must be >= 1, got {self.n_particles}")
        if self.steps < 1:
            raise ConfigurationError(f"steps must be >= 1, got {self.steps}")
        if self.warmup < 0:
            raise ConfigurationError(
                f"warmup must be >= 0, got {self.warmup}")
        if self.dt is not None and not math.isfinite(self.dt):
            raise ConfigurationError(f"dt must be finite, got {self.dt}")
        if self.group is not None and self.devices is not None:
            raise ConfigurationError(
                "group and devices are mutually exclusive: a sharded "
                "run recovers by redistribution, not by ladder fallback")
        if self.checkpoint_every < 0:
            raise ConfigurationError(
                f"checkpoint_every must be >= 0, got {self.checkpoint_every}")
        if self.config not in (None, "auto"):
            raise ConfigurationError(
                f"config must be None or 'auto', got {self.config!r}")
        if self.program_cache is not None \
                and self.persist_cache is not None:
            raise ConfigurationError(
                "program_cache and persist_cache are mutually "
                "exclusive: a shared cache instance owns its own "
                "persistence policy")
        if self.threads_per_unit is not None:
            if self.threads_per_unit < 1:
                raise ConfigurationError(
                    f"threads_per_unit must be >= 1, "
                    f"got {self.threads_per_unit}")
            if self.mode == "sharded":
                raise ConfigurationError(
                    "threads_per_unit does not apply to group runs; the "
                    "sharded engine does not expose SMT tiling")
        if self.diagnostics and self.mode == "sharded":
            raise ConfigurationError(
                "diagnostics does not apply to group runs; the sharded "
                "engine does not record the kinetic-energy node")
        if self.strategy is not None:
            from .distributed.sharding import STRATEGY_NAMES
            if self.strategy not in STRATEGY_NAMES:
                raise ConfigurationError(
                    f"unknown strategy {self.strategy!r}; expected one "
                    f"of {STRATEGY_NAMES}")
            if self.mode != "sharded":
                raise ConfigurationError(
                    "strategy needs a device group (set group=...)")
        if self.tune_devices is not None:
            if self.config != "auto":
                raise ConfigurationError(
                    "tune_devices needs config='auto' — it is an "
                    "autotuner search axis, not a run setting")
            if self.mode != "single":
                raise ConfigurationError(
                    "tune_devices applies to single-device runs only; "
                    "group and ladder runs fix their devices")
            if not self.tune_devices:
                raise ConfigurationError(
                    "tune_devices must name at least one device spec")
            from .backends.registry import parse_device_spec
            for spec in self.tune_devices:
                parse_device_spec(spec)   # typed error on bad backend
        return self

    @property
    def mode(self) -> str:
        """The run's mode: single (one device), resilient (a ladder or a
        fault plan; the same engine) or sharded (a group)."""
        if self.group is not None:
            return "sharded"
        if self.devices is not None or self.fault_plan is not None:
            return "resilient"
        return "single"


@dataclass
class RunReport:
    """What one :func:`run_push` call produced.

    ``nsps`` is the steady-state figure of merit (warm-up excluded);
    ``first_step_nsps`` keeps the cold cost visible so the JIT penalty
    of a cold program cache can be read off one report.
    ``simulated_seconds`` is the whole run: warm-up, measured steps and
    the epoch of every device a fault took away.  ``digest`` is
    the sha256 of the final particle state
    (:func:`repro.core.stepping.state_digest`) — two configs that must
    agree bit-for-bit (fused vs unfused) compare digests, not floats.

    Autotuned runs (``config="auto"``) additionally carry ``tuning``
    (the ranked :class:`~repro.analysis.autotune.TuningReport`),
    ``predicted_nsps`` (the winner's prediction, to compare against
    the measured ``nsps``) and ``calibration_warnings`` — non-empty
    when measurement and prediction disagree beyond the calibration
    tolerance (see ``docs/TUNING.md``).
    """

    mode: str
    scenario: str
    layout: str
    precision: str
    device: str
    n_particles: int
    steps: int
    nsps: float
    first_step_nsps: float
    simulated_seconds: float
    digest: str
    fusion: Optional[bool] = None
    fusion_groups: int = 0
    kernels_eliminated: int = 0
    cache_stats: Dict[str, float] = field(default_factory=dict)
    recovery: object = None
    group_report: object = None
    validation: object = None
    trace_path: Optional[str] = None
    tuning: object = None
    predicted_nsps: Optional[float] = None
    calibration_warnings: List[str] = field(default_factory=list)

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready flat summary (sub-reports reduced to presence)."""
        summary = {
            "mode": self.mode, "scenario": self.scenario,
            "layout": self.layout, "precision": self.precision,
            "device": self.device, "n_particles": self.n_particles,
            "steps": self.steps, "nsps": self.nsps,
            "first_step_nsps": self.first_step_nsps,
            "simulated_seconds": self.simulated_seconds,
            "digest": self.digest, "fusion": self.fusion,
            "fusion_groups": self.fusion_groups,
            "kernels_eliminated": self.kernels_eliminated,
            "cache_stats": dict(self.cache_stats),
        }
        if self.predicted_nsps is not None:
            summary["predicted_nsps"] = self.predicted_nsps
            summary["calibration_warnings"] = \
                list(self.calibration_warnings)
        return summary

    def as_cell(self, suite: str, config: Optional[str] = None,
                tolerance: Optional[float] = None) -> Dict[str, object]:
        """Adapt this run into a regression test-case cell.

        The declarative regression farm (:mod:`repro.regress`) stores
        references as schema-v1 baseline cells — identity keys
        (``suite/backend/device/config`` plus the layout/precision/
        scenario axes), a named ``metrics`` mapping and a per-cell
        tolerance.  This is the one adapter from a live
        :class:`RunReport` to that shape; ``config`` defaults to the
        execution-path label (``legacy``/``unfused``/``fused``).
        """
        from .oneapi.runtime import FUSION_LABELS
        from .regress.baseline import backend_of_device
        metrics: Dict[str, float] = {
            "nsps": float(self.nsps),
            "cold_nsps": float(self.first_step_nsps),
        }
        if self.fusion is not None:
            metrics["fusion_groups"] = float(self.fusion_groups)
            metrics["kernels_eliminated"] = float(self.kernels_eliminated)
        if self.cache_stats:
            metrics["jit_seconds"] = float(
                self.cache_stats.get("jit_seconds_charged", 0.0))
        cell: Dict[str, object] = {
            "suite": suite,
            "backend": backend_of_device(self.device),
            "device": self.device,
            "config": config or FUSION_LABELS[self.fusion],
            "layout": self.layout, "precision": self.precision,
            "scenario": self.scenario,
            "metrics": metrics,
            "extra": {"digest": self.digest},
        }
        if tolerance is not None:
            cell["tolerance"] = tolerance
        return cell


def _make_ensemble(config: RunConfig):
    from .bench.scenarios import paper_ensemble
    return paper_ensemble(config.n_particles, config.layout,
                          config.precision)


def _program_cache(config: RunConfig):
    """The run's JIT cache: the caller-shared one, or a fresh one."""
    if config.program_cache is not None:
        return config.program_cache
    from .oneapi.programcache import ProgramCache
    return ProgramCache(persist_path=config.persist_cache)


def _plan_stats(executor) -> Dict[str, int]:
    plan = executor.last_plan
    return {"fusion_groups": plan.fused_group_count,
            "kernels_eliminated": plan.kernels_eliminated}


def _checkpointer(config: RunConfig):
    """A step-granular checkpointer held in memory, or None."""
    if config.checkpoint_every <= 0:
        return None
    from .resilience import Checkpointer
    return Checkpointer(every=config.checkpoint_every)


def _report(config: RunConfig, engine, ensemble, cache,
            **fields) -> RunReport:
    """The report of a finished run: every mode's timings in one place.

    ``nsps`` excludes the warm-up.  A group overlaps exchange with
    pushes, so its steps do not add up: it divides its measured
    makespan, where the other engines average whole steps.
    """
    from .bench.metrics import nsps_from_steps
    from .core.stepping import state_digest

    n = config.n_particles
    if config.mode == "sharded":
        nsps = fields["group_report"].nsps
        first_step_nsps = engine.first_step_seconds * 1.0e9 / n
    else:
        nsps, first_step_nsps = nsps_from_steps(engine.step_seconds, n,
                                                config.warmup)
    return RunReport(
        mode=config.mode, scenario=config.scenario,
        layout=config.layout.value, precision=config.precision.value,
        n_particles=n, steps=config.steps, nsps=nsps,
        first_step_nsps=first_step_nsps,
        simulated_seconds=engine.simulated_seconds,
        digest=state_digest(ensemble), fusion=config.fusion,
        cache_stats=cache.stats.as_dict(), **fields)


def _fault_injection(config: RunConfig):
    """The run's fault plan installed, or a no-op without one."""
    if config.fault_plan is None:
        return nullcontext()
    from .resilience import fault_injection, named_plan
    return fault_injection(named_plan(config.fault_plan),
                           seed=config.fault_seed)


def _run_resilient(config: RunConfig, source, dt: float) -> "_RunOutcome":
    from .resilience.runner import DEVICE_LADDER, ResilientPushEngine

    ensemble = _make_ensemble(config)
    if config.devices is not None:
        ladder = tuple(config.devices)
    elif config.mode == "single":
        ladder = (config.device,)
    else:
        ladder = (config.device,) + tuple(
            key for key in DEVICE_LADDER if key != config.device)
    cache = _program_cache(config)
    engine = ResilientPushEngine(
        ensemble, config.scenario, source, dt, devices=ladder,
        checkpointer=_checkpointer(config), fusion=config.fusion,
        diagnostics=config.diagnostics,
        threads_per_unit=config.threads_per_unit, program_cache=cache)
    with _fault_injection(config):
        _, recovery = engine.run(config.warmup + config.steps)
    device = config.device if config.mode == "single" \
        else recovery.final_device
    report = _report(config, engine, ensemble, cache, device=device,
                     recovery=recovery,
                     **_plan_stats(engine.runner.executor))
    return report, ensemble, engine.queues()


def _run_sharded(config: RunConfig, source, dt: float) -> "_RunOutcome":
    from .distributed.group import DeviceGroup, parse_group_spec
    from .distributed.runner import ShardedPushEngine
    from .distributed.sharding import strategy_by_name

    ensemble = _make_ensemble(config)
    cache = _program_cache(config)
    group = DeviceGroup(parse_group_spec(config.group),
                        program_cache=cache)
    strategy = strategy_by_name(config.strategy, config.precision) \
        if config.strategy is not None else None
    engine = ShardedPushEngine(
        group, ensemble, config.scenario, source, dt, strategy=strategy,
        checkpointer=_checkpointer(config), fusion=config.fusion)
    with _fault_injection(config):
        group_report = engine.run_measured(config.warmup, config.steps)
    report = _report(config, engine, ensemble, cache, device=config.group,
                     group_report=group_report)
    return report, ensemble, engine.queues()


#: What every ``_run_*`` returns: the report, the final ensemble, and
#: the queues the run submitted to (for post-run validation).
_RunOutcome = Tuple[RunReport, object, Tuple[object, ...]]

_RUNNERS = {"single": _run_resilient, "resilient": _run_resilient,
            "sharded": _run_sharded}


def _facade(config, execute):
    """Validate ``config``, run ``execute()``, and return its report.

    The one wrapper of :func:`run_push` and :func:`run_pic`: with
    ``config.trace_path`` set the run executes under a fresh tracer
    whose Chrome trace is written even when the run raises (the trace
    holds the hazard/validation events that explain the failure), and
    any exception that is not a :class:`~repro.errors.ReproError` is
    mapped into the taxonomy (see :func:`_map_error`).
    """
    try:
        config.validate()
        if config.trace_path is None:
            return execute()
        from .observability import Tracer, tracing, write_chrome_trace
        tracer = Tracer()
        try:
            with tracing(tracer):
                report = execute()
        finally:
            write_chrome_trace(tracer, config.trace_path)
        report.trace_path = config.trace_path
        return report
    except ReproError:
        raise
    except Exception as exc:   # the facade guarantee (see _map_error)
        raise _map_error(exc) from exc


def _execute(config: RunConfig, validate: bool) -> RunReport:
    from .bench import paper_time_step, paper_wave

    source = paper_wave()
    dt = config.dt if config.dt is not None else paper_time_step()
    tuning = None
    if config.config == "auto":
        from .analysis.autotune import (apply_candidate, check_calibration,
                                        tune)
        tuning = tune(config)
        config = apply_candidate(config, tuning.best.candidate)
    report, ensemble, queues = _RUNNERS[config.mode](config, source, dt)
    if tuning is not None:
        report.tuning = tuning
        report.predicted_nsps = tuning.best.predicted_nsps
        report.calibration_warnings = check_calibration(
            tuning.best, report.nsps, tuning.target)
    if validate:
        from .validation import validate_run
        report.validation = validate_run(config, ensemble, queues,
                                         source, dt)
    return report


def run_push(config: RunConfig, validate: bool = False) -> RunReport:
    """Run a Boris push workload described by ``config``.

    Dispatches to the resilient engine (one device or a ladder) or the
    sharded engine (see the module docstring for the selection rules),
    optionally under the tracer, and returns a :class:`RunReport`.
    Every failure surfaces as a :class:`~repro.errors.ReproError`
    subclass.

    ``validate=True`` additionally replays every queue's command log
    through the hazard detector and diffs a particle sample of the
    final state against the scalar reference pusher
    (:func:`repro.validation.validate_run`); the evidence lands on
    ``report.validation``, a failure raises
    :class:`~repro.errors.HazardError` or
    :class:`~repro.errors.ValidationError`.
    """
    return _facade(config, lambda: _execute(config, validate))


# -- the PIC facade --------------------------------------------------------


@dataclass
class PicConfig:
    """Everything :func:`run_pic` needs, mirroring :class:`RunConfig`.

    Attributes:
        scenario: A registered PIC scenario name
            (:data:`repro.pic.scenarios.SCENARIOS`): "laser-slab",
            "magnetic-mirror" or "relativistic-beam".
        layout: Particle storage layout (enum or "AoS"/"SoA").
        precision: Particle storage precision (enum or
            "float"/"double"); deposition always accumulates in
            float64 (see :mod:`repro.pic.deposition`).
        n_particles: Ensemble size; None takes the scenario default.
        steps: Measured PIC steps (after ``warmup``).
        warmup: Warm-up steps excluded from the steady NSPS.
        seed: Scenario seed — fixes the particle draw *and* every
            Monte Carlo operator, so two runs with equal
            (scenario, n, seed, layout, precision) are bit-exact.
        deposition: Override the scenario's deposition scheme
            ("esirkepov", "direct", "none"); None keeps the default.
        solver: Override the Maxwell solver ("fdtd", "spectral").
        device: Device spec, as in :class:`RunConfig`.
        fusion: True fuses the step's elementwise stages (gather,
            push, Monte Carlo) into one launch per species; False runs
            the graph unfused.
        trace_path: Write a Chrome ``trace_event`` JSON here.
        persist_cache / program_cache: As in :class:`RunConfig`.
    """

    scenario: str = "laser-slab"
    layout: object = Layout.SOA
    precision: object = Precision.DOUBLE
    n_particles: Optional[int] = None
    steps: int = 8
    warmup: int = 2
    seed: int = 0
    deposition: Optional[str] = None
    solver: Optional[str] = None
    device: str = "iris-xe-max"
    fusion: bool = True
    trace_path: Optional[str] = None
    persist_cache: Optional[str] = None
    program_cache: Optional[object] = None

    def validate(self) -> "PicConfig":
        """Normalise enums and reject inconsistent combinations."""
        from .pic.scenarios import get_scenario
        from .pic.simulation import DEPOSITIONS
        self.layout = _coerce_layout(self.layout)
        self.precision = _coerce_precision(self.precision)
        get_scenario(self.scenario)       # typed error on unknown name
        if not isinstance(self.fusion, bool):
            raise ConfigurationError(
                f"fusion must be True or False, got {self.fusion!r}")
        if self.n_particles is not None and self.n_particles < 1:
            raise ConfigurationError(
                f"n_particles must be >= 1, got {self.n_particles}")
        if self.steps < 1:
            raise ConfigurationError(f"steps must be >= 1, got {self.steps}")
        if self.warmup < 0:
            raise ConfigurationError(
                f"warmup must be >= 0, got {self.warmup}")
        if self.deposition is not None \
                and self.deposition not in DEPOSITIONS:
            raise ConfigurationError(
                f"deposition must be one of {DEPOSITIONS}, "
                f"got {self.deposition!r}")
        if self.solver is not None \
                and self.solver not in ("fdtd", "spectral"):
            raise ConfigurationError(
                f"solver must be 'fdtd' or 'spectral', got {self.solver!r}")
        if self.program_cache is not None \
                and self.persist_cache is not None:
            raise ConfigurationError(
                "program_cache and persist_cache are mutually "
                "exclusive: a shared cache instance owns its own "
                "persistence policy")
        return self


@dataclass
class PicReport:
    """What one :func:`run_pic` call produced.

    ``digest`` is :func:`repro.pic.engine.pic_state_digest` over the
    final particles *and* grid — fused and unfused runs of the same
    config must agree bit-for-bit.  ``energy_drift`` is the
    relative total-energy excursion over the measured steps (the
    scenario's validation figure); ``nsps`` is steady-state simulated
    nanoseconds per particle-step, as everywhere else in the repo.
    """

    scenario: str
    layout: str
    precision: str
    device: str
    n_particles: int
    steps: int
    nsps: float
    first_step_nsps: float
    simulated_seconds: float
    digest: str
    energy_drift: float
    deposition: str
    solver: str
    fusion: bool = True
    fusion_groups: int = 0
    kernels_eliminated: int = 0
    cache_stats: Dict[str, float] = field(default_factory=dict)
    trace_path: Optional[str] = None

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready flat summary."""
        return {
            "scenario": self.scenario, "layout": self.layout,
            "precision": self.precision, "device": self.device,
            "n_particles": self.n_particles, "steps": self.steps,
            "nsps": self.nsps, "first_step_nsps": self.first_step_nsps,
            "simulated_seconds": self.simulated_seconds,
            "digest": self.digest, "energy_drift": self.energy_drift,
            "deposition": self.deposition, "solver": self.solver,
            "fusion": self.fusion, "fusion_groups": self.fusion_groups,
            "kernels_eliminated": self.kernels_eliminated,
            "cache_stats": dict(self.cache_stats),
        }

    def as_cell(self, suite: str = "pic", config: Optional[str] = None,
                tolerance: Optional[float] = None) -> Dict[str, object]:
        """Adapt this run into a schema-v1 regression cell."""
        from .oneapi.runtime import FUSION_LABELS
        from .regress.baseline import backend_of_device
        metrics: Dict[str, float] = {
            "nsps": float(self.nsps),
            "cold_nsps": float(self.first_step_nsps),
            "fusion_groups": float(self.fusion_groups),
            "kernels_eliminated": float(self.kernels_eliminated),
        }
        cell: Dict[str, object] = {
            "suite": suite,
            "backend": backend_of_device(self.device),
            "device": self.device,
            "config": config or FUSION_LABELS[self.fusion],
            "layout": self.layout, "precision": self.precision,
            "scenario": self.scenario,
            "metrics": metrics,
            "extra": {"digest": self.digest,
                      "energy_drift": self.energy_drift,
                      "deposition": self.deposition,
                      "solver": self.solver},
        }
        if tolerance is not None:
            cell["tolerance"] = tolerance
        return cell


def _execute_pic(config: PicConfig, validate: bool) -> PicReport:
    from .backends.registry import resolve_device
    from .bench.metrics import nsps_from_steps
    from .pic.diagnostics import EnergyHistory
    from .pic.engine import PicEngine, pic_state_digest
    from .pic.scenarios import build_scenario

    simulation = build_scenario(
        config.scenario, config.n_particles, seed=config.seed,
        layout=config.layout, precision=config.precision,
        deposition=config.deposition, solver=config.solver)
    backend, device = resolve_device(config.device)
    cache = _program_cache(config)
    queue = backend.make_queue(device, program_cache=cache)
    engine = PicEngine(queue, simulation, fusion=config.fusion,
                       validate=validate)
    history = EnergyHistory()
    history.record(simulation.time, simulation.grid,
                   simulation.ensembles)
    for _ in range(config.warmup + config.steps):
        engine.step()
        history.record(simulation.time, simulation.grid,
                       simulation.ensembles)
    n = simulation.ensembles[0].size
    nsps, first_step_nsps = nsps_from_steps(engine.step_seconds, n,
                                            config.warmup)
    return PicReport(
        scenario=config.scenario, layout=config.layout.value,
        precision=config.precision.value, device=config.device,
        n_particles=n, steps=config.steps,
        nsps=nsps, first_step_nsps=first_step_nsps,
        simulated_seconds=queue.timeline.makespan,
        digest=pic_state_digest(simulation),
        energy_drift=history.relative_drift(),
        deposition=simulation.deposition,
        solver=simulation.solver_kind,
        fusion=config.fusion, cache_stats=cache.stats.as_dict(),
        **_plan_stats(engine.executor))


def run_pic(config: PicConfig, validate: bool = False) -> PicReport:
    """Run a full self-consistent PIC scenario described by ``config``.

    The scenario's four stages (gather, push, deposit, field advance)
    plus its Monte Carlo operators execute through the kernel-graph
    engine (:class:`~repro.pic.engine.PicEngine`) on the configured
    device, and the report carries performance, digest and
    energy-conservation evidence in one object.  ``validate=True``
    additionally replays every launch through the hazard detector.
    Every failure surfaces as a :class:`~repro.errors.ReproError`.
    """
    return _facade(config, lambda: _execute_pic(config, validate))
