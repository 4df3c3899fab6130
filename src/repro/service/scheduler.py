"""Push-as-a-service: the fault-tolerant multi-tenant job scheduler.

:class:`PushService` accepts many concurrent :class:`JobSpec`s through
a :class:`~repro.service.queue.JobQueue`, places them on a
:class:`~repro.service.cluster.DeviceFleet`, and drives them to a
terminal state on the **simulated clock** — surviving injected device
loss, launch hangs and transient faults end to end.  The k8s-style
lifecycle per job::

    submit -> (admit | reject) -> launch -> step* -> collect -> cleanup
                 ^                                |
                 +--- requeue (loss, preemption) -+

Design points:

* **Interleaved execution.**  Single-device jobs advance one push step
  at a time; the event loop always steps the job whose node frees
  earliest, so jobs on different nodes genuinely interleave on the
  shared clock and a retry storm on one node delays only that node's
  jobs.  Sharded (device-group) jobs reserve their nodes and run
  atomically — their internal redistribution logic already owns
  mid-run loss.
* **Warm-device bin-packing.**  Placement prefers nodes whose device
  model already has a compiled program for the job's (layout,
  precision) profile in the fleet-shared
  :class:`~repro.oneapi.programcache.ProgramCache`, so a schedule of
  same-shaped jobs pays each JIT once, fleet-wide.
* **Failover = checkpoint + requeue.**  Every job writes a step-0
  checkpoint at first launch and then on a cadence; a device loss
  banks the consumed device seconds, marks the node dead, restores the
  latest checkpoint (bit-exact) and requeues the job.  The physics
  kernels are device-independent, so the recovered job's final digest
  equals a solo fault-free run's — the acceptance bar.
* **Typed ends only.**  Every job ends COMPLETED, FAILED (with a
  :class:`~repro.errors.ReproError` subclass recorded) or REJECTED;
  the scheduler itself refuses to hang (a progress watchdog trips
  :class:`~repro.errors.ServiceError` rather than spin).

See ``docs/SERVICE.md`` for the full lifecycle and failure-semantics
contract.
"""

from __future__ import annotations

import re
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import (ConfigurationError, DeviceLostError,
                      JobDeadlineError, JobPreemptedError, JobRejectedError,
                      ReproError, ServiceError)
from ..observability.tracer import active_tracer
from ..resilience.checkpoint import Checkpointer
from ..resilience.faults import (FaultInjector, FaultPlan,
                                 install_fault_injector)
from ..resilience.plans import named_plan
from ..resilience.recovery import (RecoveryStats, RetryPolicy, Watchdog,
                                   rebuild_with_retry, run_with_retry)
from .cluster import DeviceFleet, Node
from .job import JobEvent, JobReport, JobSpec, JobState
from .queue import JobQueue

__all__ = ["PushService", "ServiceReport", "DEFAULT_FLEET"]

#: The demo fleet: two fast cards, one slow card, one CPU.
DEFAULT_FLEET = "2x iris-xe-max, 1x p630, 1x cpu"

#: Placement preference among equally-warm nodes (paper Table 3 order).
_LADDER_RANK = {"iris-xe-max": 0, "p630": 1, "cpu": 2}

_SAFE_NAME = re.compile(r"[^A-Za-z0-9._-]+")


@dataclass
class ServiceReport:
    """What one :meth:`PushService.run` produced, schedule-wide."""

    fleet: str
    makespan: float
    jobs: Dict[str, JobReport]
    completed: int
    failed: int
    rejected: int
    cache_stats: Dict[str, float] = field(default_factory=dict)
    nodes: List[Dict[str, object]] = field(default_factory=list)

    @property
    def all_completed(self) -> bool:
        """True when every submitted job completed (none failed or
        was rejected)."""
        return self.failed == 0 and self.rejected == 0

    def summary(self) -> str:
        lines = [f"fleet {self.fleet!r}: {self.completed} completed, "
                 f"{self.failed} failed, {self.rejected} rejected; "
                 f"makespan {self.makespan * 1e3:.3f} ms simulated; "
                 f"JIT misses {self.cache_stats.get('misses', 0):.0f}, "
                 f"hits {self.cache_stats.get('hits', 0):.0f}"]
        for report in self.jobs.values():
            lines.append("  " + report.summary())
        return "\n".join(lines)


class _Job:
    """Scheduler-internal mutable state of one job."""

    def __init__(self, spec: JobSpec, report: JobReport,
                 checkpointer: Checkpointer) -> None:
        self.spec = spec
        self.report = report
        self.checkpointer = checkpointer
        self.state = JobState.PENDING
        self.seq = 0
        self.ensemble = None
        self.engine = None               # single-device PushEngine
        self.node: Optional[Node] = None
        self.nodes: List[Node] = []      # sharded reservations
        self.injector: Optional[FaultInjector] = None
        self.stats = RecoveryStats()
        self.step = 0                    # completed push steps
        self.time = 0.0                  # physics time at `step`
        self.step_seconds: List[float] = []
        self.launch_clock = 0.0
        self.makespan0 = 0.0
        self.charged = 0.0               # placement seconds charged so far
        self.banked = 0.0                # device seconds from past placements
        self.finish_at: Optional[float] = None   # sharded collect time
        self.greport = None              # sharded GroupReport

    @property
    def target_steps(self) -> int:
        return self.spec.config.warmup + self.spec.config.steps

    @property
    def sharded(self) -> bool:
        return self.spec.config.group is not None

    def placement_seconds(self) -> float:
        if self.engine is None:
            return 0.0
        return self.engine.queue.timeline.makespan - self.makespan0


class PushService:
    """A multi-tenant, fault-tolerant scheduler over a device fleet.

    Args:
        fleet: Group-spec string naming the devices (the default is
            :data:`DEFAULT_FLEET`).
        queue: Admission queue; a default-capacity
            :class:`~repro.service.queue.JobQueue` when None.
        workdir: Directory for per-job checkpoints.  None means a
            private temporary directory that is removed when
            :meth:`run` returns — pass a real path to keep failed
            jobs' checkpoints as evidence.
        checkpoint_every: Checkpoint cadence in steps (>= 1; the
            service *requires* checkpoints — they are its failover
            mechanism).
        retry_policy: Transient-fault retry policy shared by all jobs.
        watchdog: Launch watchdog shared by all jobs.
        preempt_margin: Minimum priority gap before a waiting job may
            preempt a running one (0 disables nothing — a gap of at
            least ``max(1, preempt_margin)`` is always required).
        max_preemptions: A job preempted more often than this fails
            with :class:`~repro.errors.JobPreemptedError` instead of
            thrashing forever.
        on_event: Optional callback ``(job_name, event, detail)``
            invoked for every lifecycle event — the streamed-progress
            hook; events also flow through the active tracer as
            ``job:<event>`` instants in the ``service`` category.
    """

    def __init__(self, fleet: str = DEFAULT_FLEET,
                 queue: Optional[JobQueue] = None,
                 workdir: Optional[str] = None,
                 checkpoint_every: int = 4,
                 retry_policy: Optional[RetryPolicy] = None,
                 watchdog: Optional[Watchdog] = None,
                 preempt_margin: int = 2,
                 max_preemptions: int = 3,
                 on_event: Optional[Callable[[str, str, str], None]] = None
                 ) -> None:
        from ..oneapi.programcache import ProgramCache

        if checkpoint_every < 1:
            raise ConfigurationError(
                f"checkpoint_every must be >= 1 (checkpoints are the "
                f"service's failover mechanism), got {checkpoint_every}")
        if max_preemptions < 0:
            raise ConfigurationError(
                f"max_preemptions must be >= 0, got {max_preemptions}")
        self.program_cache = ProgramCache()
        self.fleet = DeviceFleet(fleet, self.program_cache)
        self.queue = queue if queue is not None else JobQueue()
        self.checkpoint_every = int(checkpoint_every)
        self.retry_policy = retry_policy if retry_policy is not None \
            else RetryPolicy()
        self.watchdog = watchdog if watchdog is not None else Watchdog()
        self.preempt_margin = max(1, int(preempt_margin))
        self.max_preemptions = int(max_preemptions)
        self.on_event = on_event
        self._scratch = None
        if workdir is None:
            self._scratch = tempfile.TemporaryDirectory(
                prefix="repro-service-")
            workdir = self._scratch.name
        self.workdir = workdir
        self.clock = 0.0
        self._jobs: Dict[str, _Job] = {}
        self._order: List[str] = []
        self._next_seq = 0

    # -- events ------------------------------------------------------------

    def _event(self, job: _Job, event: str, detail: str = "") -> None:
        job.report.events.append(JobEvent(self.clock, event, detail))
        tracer = active_tracer()
        if tracer is not None:
            tracer.job(job.spec.name, event, clock=self.clock,
                       detail=detail)
        if self.on_event is not None:
            self.on_event(job.spec.name, event, detail)

    # -- submission --------------------------------------------------------

    def submit(self, spec: JobSpec) -> JobReport:
        """Admit ``spec`` or raise :class:`JobRejectedError`.

        A rejected job still gets a (REJECTED) :class:`JobReport` in
        the service's job table, so the schedule-wide report accounts
        for every submission.  Admission may evict a
        strictly-lower-priority queued job; the evictee fails with
        :class:`JobPreemptedError`.
        """
        report = JobReport(name=spec.name, tenant=spec.tenant,
                           priority=spec.priority, submitted=spec.arrival)
        directory = f"{self.workdir}/{_SAFE_NAME.sub('_', spec.name)}"
        job = _Job(spec, report, Checkpointer(
            directory, every=self.checkpoint_every))
        job.seq = self._next_seq
        self._next_seq += 1
        try:
            try:
                spec.config.validate()
            except ConfigurationError as exc:
                raise JobRejectedError(
                    f"job {spec.name!r}: invalid config: {exc}") from exc
            self.queue.admit(spec, clock=self.clock,
                             fleet_size=len(self.fleet),
                             fleet_keys=self.fleet.keys)
        except JobRejectedError as exc:
            report.state = JobState.REJECTED
            report.error = str(exc)
            report.error_type = type(exc).__name__
            job.state = JobState.REJECTED
            if spec.name not in self._jobs:
                self._jobs[spec.name] = job
                self._order.append(spec.name)
            self._event(job, "reject", str(exc))
            raise
        self._jobs[spec.name] = job
        self._order.append(spec.name)
        job.state = JobState.READY
        report.state = JobState.READY
        self._event(job, "admit",
                    f"priority={spec.priority} tenant={spec.tenant}")
        for victim_spec in self.queue.pop_evicted():
            victim = self._jobs[victim_spec.name]
            self._fail(victim, JobPreemptedError(
                f"job {victim_spec.name!r} (priority "
                f"{victim_spec.priority}) evicted from the queue by "
                f"{spec.name!r} (priority {spec.priority})"))
        return report

    # -- the event loop ----------------------------------------------------

    def run(self) -> ServiceReport:
        """Drive every submitted job to a terminal state; never hangs.

        Returns the schedule-wide :class:`ServiceReport`.  Job-level
        failures are *recorded*, not raised — only scheduler bugs
        (:class:`~repro.errors.ServiceError`) and misuse escape.
        """
        limit = 1000 + 200 * sum(
            1 + job.target_steps for job in self._jobs.values())
        iterations = 0
        try:
            while self._live():
                iterations += 1
                if iterations > limit:
                    raise ServiceError(
                        f"scheduler made no progress after {limit} "
                        f"iterations — this is a bug, not a job failure")
                self._place()
                event = self._next_event()
                if event is None:
                    arrival = self.queue.next_arrival(self.clock)
                    if arrival is not None:
                        self.clock = arrival
                        continue
                    self._fail_stranded()
                    continue
                when, _, job = event
                self.clock = max(self.clock, when)
                if job.sharded:
                    self._collect_sharded(job)
                else:
                    self._advance_single(job)
        finally:
            if self._scratch is not None:
                self._scratch.cleanup()
        reports = {name: self._jobs[name].report for name in self._order}
        states = [r.state for r in reports.values()]
        return ServiceReport(
            fleet=self.fleet.spec, makespan=self.clock, jobs=reports,
            completed=states.count(JobState.COMPLETED),
            failed=states.count(JobState.FAILED),
            rejected=states.count(JobState.REJECTED),
            cache_stats=self.program_cache.stats.as_dict(),
            nodes=[node.as_dict() for node in self.fleet.nodes])

    def _live(self) -> bool:
        return any(job.state not in JobState.TERMINAL
                   for job in self._jobs.values())

    def _next_event(self) -> Optional[Tuple[float, int, _Job]]:
        """The running job whose next completion comes earliest."""
        events = []
        for job in self._jobs.values():
            if job.state != JobState.RUNNING:
                continue
            if job.sharded:
                events.append((job.finish_at, job.seq, job))
            else:
                events.append((job.node.free_at, job.seq, job))
        return min(events, key=lambda e: (e[0], e[1])) if events else None

    # -- placement ---------------------------------------------------------

    def _ready(self) -> List[JobSpec]:
        return self.queue.ready_jobs(self.clock)

    def _place(self) -> None:
        for spec in self._ready():
            job = self._jobs[spec.name]
            if job.state in JobState.TERMINAL:
                self.queue.finish(spec)
                continue
            if spec.deadline_seconds is not None \
                    and self.clock - spec.arrival > spec.deadline_seconds:
                self.queue.finish(spec)
                self._fail(job, JobDeadlineError(
                    f"job {spec.name!r} missed its deadline while "
                    f"queued ({spec.deadline_seconds} s after arrival)"))
                continue
            if job.sharded:
                self._try_place_sharded(job)
            else:
                self._try_place_single(job)

    def _try_place_single(self, job: _Job) -> None:
        spec = job.spec
        constraint = spec.config.device
        candidates = [node for node in self.fleet.idle_nodes()
                      if constraint is None or node.key == constraint]
        if not candidates:
            alive = [node for node in self.fleet.alive_nodes()
                     if constraint is None or node.key == constraint]
            if not alive:
                self.queue.finish(spec)
                self._fail(job, DeviceLostError(
                    f"job {spec.name!r}: no usable device left in the "
                    f"fleet (constraint {constraint!r})"))
                return
            victim = self._preemption_victim(spec, constraint)
            if victim is None:
                return                       # wait for a node to free
            self._preempt(victim, spec)
            candidates = [victim_node for victim_node
                          in self.fleet.idle_nodes()
                          if constraint is None
                          or victim_node.key == constraint]
            if not candidates:
                return
        node = min(candidates, key=lambda n: self._placement_key(n, spec))
        self._launch_single(job, node)

    def _placement_key(self, node: Node, spec: JobSpec) -> Tuple:
        config = spec.config
        warm = self.program_cache.is_profile_warm(
            node.device.jit_key, config.layout.value,
            config.precision.value, backend=node.device.backend)
        return (0 if warm else 1, node.free_at,
                _LADDER_RANK.get(node.key, len(_LADDER_RANK)), node.index)

    def _preemption_victim(self, spec: JobSpec,
                           constraint: Optional[str]) -> Optional[_Job]:
        """Running single-device job worth preempting for ``spec``."""
        victims = []
        for job in self._jobs.values():
            if job.state != JobState.RUNNING or job.sharded:
                continue
            if not job.spec.preemptible:
                continue
            if spec.priority - job.spec.priority < self.preempt_margin:
                continue
            if constraint is not None and job.node.key != constraint:
                continue
            victims.append(job)
        if not victims:
            return None
        return min(victims, key=lambda j: (j.spec.priority, -j.seq))

    def _preempt(self, victim: _Job, for_spec: JobSpec) -> None:
        """Checkpoint ``victim`` at its step boundary and requeue it."""
        victim.checkpointer.save_push(victim.step, victim.ensemble,
                                      victim.time)
        self._bank(victim)
        node = victim.node
        node.job = None
        victim.node = None
        victim.engine = None
        victim.report.preemptions += 1
        victim.state = JobState.READY
        victim.report.state = JobState.READY
        self.queue.requeue(victim.spec, self.clock)
        self._event(victim, "preempt",
                    f"by {for_spec.name!r} (priority {for_spec.priority} "
                    f"vs {victim.spec.priority}) off {node.name}")
        if victim.report.preemptions > self.max_preemptions:
            self.queue.finish(victim.spec)
            self._fail(victim, JobPreemptedError(
                f"job {victim.spec.name!r} preempted "
                f"{victim.report.preemptions} times "
                f"(max {self.max_preemptions}); giving up"))

    # -- single-device jobs ------------------------------------------------

    def _build_engine(self, job: _Job, node: Node):
        """(Re)build queue + engine on ``node`` (alloc faults retried)."""
        from ..backends.registry import get_backend
        from ..oneapi.runtime import PushEngine

        config = job.spec.config
        source, dt = self._physics(config)
        backend = get_backend(node.device.backend)
        engine = rebuild_with_retry(
            lambda: PushEngine(
                backend.make_queue(node.device,
                                   threads_per_unit=config.threads_per_unit,
                                   program_cache=self.program_cache),
                job.ensemble, config.scenario, source, dt,
                fusion=config.fusion, diagnostics=config.diagnostics),
            self.retry_policy, job.stats)
        engine.time = job.time
        return engine

    def _launch_single(self, job: _Job, node: Node) -> None:
        spec = job.spec
        ready_since = self.queue.ready_at(spec.name)
        self.queue.mark_running(spec)
        first_launch = job.ensemble is None
        if first_launch:
            from ..bench.scenarios import paper_ensemble
            job.ensemble = paper_ensemble(spec.config.n_particles,
                                          spec.config.layout,
                                          spec.config.precision)
            if spec.fault_plan is not None:
                plan = spec.fault_plan \
                    if isinstance(spec.fault_plan, FaultPlan) \
                    else named_plan(str(spec.fault_plan))
                job.injector = FaultInjector(plan, seed=spec.fault_seed)
        launch_clock = max(self.clock, node.free_at)
        previous = install_fault_injector(job.injector) \
            if job.injector is not None else None
        try:
            job.engine = self._build_engine(job, node)
        except ReproError as exc:
            self.queue.finish(spec)
            self._fail(job, exc)
            return
        finally:
            if job.injector is not None:
                install_fault_injector(previous)
        job.node = node
        job.makespan0 = job.engine.queue.timeline.makespan
        job.launch_clock = launch_clock
        job.charged = 0.0
        node.job = spec.name
        node.jobs_run += 1
        node.free_at = launch_clock
        job.state = JobState.RUNNING
        job.report.state = JobState.RUNNING
        job.report.queue_wait_seconds += max(
            0.0, launch_clock - ready_since)
        if job.report.launched is None:
            job.report.launched = launch_clock
        if node.name not in job.report.devices:
            job.report.devices += (node.name,)
        if first_launch:
            job.checkpointer.save_push(0, job.ensemble, 0.0)
        self._event(job, "launch",
                    f"on {node.name} at step {job.step}")

    def _advance_single(self, job: _Job) -> None:
        """Run one push step of ``job`` on its node, under its faults."""
        engine = job.engine
        previous = install_fault_injector(job.injector) \
            if job.injector is not None else None
        try:
            run_with_retry(engine.step, engine.queue, engine.spec,
                           policy=self.retry_policy,
                           watchdog=self.watchdog, stats=job.stats)
        except DeviceLostError:
            self._on_device_lost(job)
            return
        except ReproError as exc:
            self.queue.finish(job.spec)
            self._fail(job, exc)
            return
        finally:
            if job.injector is not None:
                install_fault_injector(previous)
        job.step_seconds.append(engine.step_seconds[-1])
        job.step += 1
        job.time = engine.time
        placement = job.placement_seconds()
        job.node.free_at = job.launch_clock + placement
        self.queue.charge(job.spec.tenant, placement - job.charged)
        job.charged = placement
        job.checkpointer.maybe_save_push(job.step, job.ensemble, job.time)
        spec = job.spec
        if spec.budget_seconds is not None \
                and job.banked + placement > spec.budget_seconds:
            self.queue.finish(spec)
            self._fail(job, JobDeadlineError(
                f"job {spec.name!r} exhausted its budget of "
                f"{spec.budget_seconds} simulated device seconds at "
                f"step {job.step}"))
            return
        if spec.deadline_seconds is not None \
                and job.node.free_at - spec.arrival > spec.deadline_seconds:
            self.queue.finish(spec)
            self._fail(job, JobDeadlineError(
                f"job {spec.name!r} missed its deadline of "
                f"{spec.deadline_seconds} s after arrival at step "
                f"{job.step}"))
            return
        if job.step >= job.target_steps:
            self._complete_single(job)

    def _on_device_lost(self, job: _Job) -> None:
        """Failover: bank time, kill the node, restore, requeue."""
        lost_names = set(job.injector.lost_devices) \
            if job.injector is not None else {job.node.name}
        newly_dead = self.fleet.mark_lost(lost_names)
        for node in newly_dead:
            if node.name not in job.report.devices_lost:
                job.report.devices_lost += (node.name,)
        self._bank(job)
        node = job.node
        node.job = None
        job.node = None
        job.engine = None
        step, time = job.checkpointer.restore_push(job.ensemble)
        job.report.replayed_steps += job.step - step
        job.report.restores += 1
        del job.step_seconds[step:]
        job.step = step
        job.time = time
        job.state = JobState.READY
        job.report.state = JobState.READY
        self.queue.requeue(job.spec, self.clock)
        self._event(job, "device-lost",
                    f"{node.name} died; restored step {step}, requeued")

    def _bank(self, job: _Job) -> None:
        """Fold the current placement's device seconds into the bank."""
        placement = job.placement_seconds()
        self.queue.charge(job.spec.tenant, placement - job.charged)
        job.banked += placement
        job.charged = 0.0
        job.report.device_seconds = job.banked

    def _complete_single(self, job: _Job) -> None:
        from ..bench.metrics import nsps_from_steps
        from ..core.stepping import state_digest

        spec = job.spec
        placement = job.placement_seconds()
        self.queue.charge(spec.tenant, placement - job.charged)
        job.banked += placement
        report = job.report
        report.device_seconds = job.banked
        report.steps = job.step
        report.nsps, _ = nsps_from_steps(job.step_seconds,
                                         spec.config.n_particles,
                                         spec.config.warmup)
        report.digest = state_digest(job.ensemble)
        report.finished = job.node.free_at
        # The completion event truly happens when the node frees — the
        # loop's clock only reached the *pre*-step free time, so catch
        # it up before stamping the event (keeps finished <= makespan).
        self.clock = max(self.clock, report.finished)
        job.node.job = None
        job.node = None
        self.queue.finish(spec)
        self._finalize_stats(job)
        report.checkpoints_pruned = job.checkpointer.gc()
        job.state = JobState.COMPLETED
        report.state = JobState.COMPLETED
        self._event(job, "complete",
                    f"digest {report.digest[:12]} nsps {report.nsps:.2f}")

    # -- sharded jobs ------------------------------------------------------

    def _try_place_sharded(self, job: _Job) -> None:
        from ..distributed.group import parse_group_spec

        spec = job.spec
        keys = parse_group_spec(spec.config.group)
        alive = [node.key for node in self.fleet.alive_nodes()]
        if not self._multiset_fits(keys, alive):
            self.queue.finish(spec)
            self._fail(job, DeviceLostError(
                f"job {spec.name!r}: group {spec.config.group!r} can no "
                f"longer be satisfied by the surviving fleet"))
            return
        reserved: List[Node] = []
        pool = self.fleet.idle_nodes()
        for key in keys:
            match = [node for node in pool if node.key == key]
            if not match:
                return                       # wait for nodes to free
            node = min(match, key=lambda n: self._placement_key(n, spec))
            pool.remove(node)
            reserved.append(node)
        self._launch_sharded(job, reserved)

    @staticmethod
    def _multiset_fits(needed: List[str], have: List[str]) -> bool:
        pool = list(have)
        for key in needed:
            if key not in pool:
                return False
            pool.remove(key)
        return True

    def _launch_sharded(self, job: _Job, nodes: List[Node]) -> None:
        """Reserve ``nodes`` and run the whole sharded job atomically."""
        from ..bench.scenarios import paper_ensemble
        from ..distributed.group import DeviceGroup
        from ..distributed.runner import ShardedPushEngine
        from ..distributed.sharding import strategy_by_name

        spec = job.spec
        config = spec.config
        ready_since = self.queue.ready_at(spec.name)
        self.queue.mark_running(spec)
        launch_clock = max([self.clock] + [n.free_at for n in nodes])
        job.report.queue_wait_seconds += max(
            0.0, launch_clock - ready_since)
        if job.report.launched is None:
            job.report.launched = launch_clock
        job.report.devices = tuple(node.name for node in nodes)
        for node in nodes:
            node.job = spec.name
            node.jobs_run += 1
        job.nodes = nodes
        job.state = JobState.RUNNING
        job.report.state = JobState.RUNNING
        self._event(job, "launch",
                    "on " + ", ".join(node.name for node in nodes))
        job.ensemble = paper_ensemble(config.n_particles, config.layout,
                                      config.precision)
        if spec.fault_plan is not None:
            plan = spec.fault_plan \
                if isinstance(spec.fault_plan, FaultPlan) \
                else named_plan(str(spec.fault_plan))
            job.injector = FaultInjector(plan, seed=spec.fault_seed)
        source, dt = self._physics(config)
        previous = install_fault_injector(job.injector) \
            if job.injector is not None else None
        failure: Optional[ReproError] = None
        greport = None
        try:
            group = DeviceGroup([node.key for node in nodes],
                                names=[node.name for node in nodes],
                                program_cache=self.program_cache)
            strategy = strategy_by_name(config.strategy, config.precision) \
                if config.strategy is not None else None
            engine = ShardedPushEngine(
                group, job.ensemble, config.scenario, source, dt,
                strategy=strategy, checkpointer=job.checkpointer,
                retry_policy=self.retry_policy, watchdog=self.watchdog,
                fusion=config.fusion)
            if config.warmup > 0:
                engine.run(config.warmup)
                engine.reset_measurement()
            greport = engine.run(config.warmup + config.steps)
        except ReproError as exc:
            failure = exc
        finally:
            if job.injector is not None:
                install_fault_injector(previous)
        if job.injector is not None and job.injector.lost_devices:
            dead = self.fleet.mark_lost(job.injector.lost_devices)
            job.report.devices_lost = tuple(node.name for node in dead)
        if failure is not None:
            for node in nodes:
                node.job = None
            job.nodes = []
            self.queue.finish(spec)
            self._fail(job, failure)
            return
        job.greport = greport
        job.launch_clock = launch_clock
        job.finish_at = launch_clock + greport.simulated_seconds
        for node in nodes:
            node.free_at = job.finish_at

    def _collect_sharded(self, job: _Job) -> None:
        from ..core.stepping import state_digest

        spec = job.spec
        greport = job.greport
        for node in job.nodes:
            node.job = None
        job.nodes = []
        self.queue.finish(spec)
        job.banked = greport.simulated_seconds
        self.queue.charge(spec.tenant, job.banked)
        report = job.report
        report.device_seconds = job.banked
        report.steps = greport.steps
        report.nsps = greport.nsps
        report.digest = state_digest(job.ensemble)
        report.finished = job.finish_at
        recovery = greport.recovery
        job.stats.retries += recovery.retries
        job.stats.backoff_seconds += recovery.backoff_seconds
        job.stats.watchdog_seconds += recovery.watchdog_seconds
        self._finalize_stats(job)
        report.restores += greport.redistributions
        if spec.budget_seconds is not None \
                and job.banked > spec.budget_seconds:
            self._fail(job, JobDeadlineError(
                f"job {spec.name!r} exhausted its budget of "
                f"{spec.budget_seconds} simulated device seconds "
                f"({job.banked:.6f} s consumed)"))
            return
        if spec.deadline_seconds is not None \
                and job.finish_at - spec.arrival > spec.deadline_seconds:
            self._fail(job, JobDeadlineError(
                f"job {spec.name!r} missed its deadline of "
                f"{spec.deadline_seconds} s after arrival"))
            return
        report.checkpoints_pruned = job.checkpointer.gc()
        job.state = JobState.COMPLETED
        report.state = JobState.COMPLETED
        self._event(job, "complete",
                    f"digest {report.digest[:12]} nsps {report.nsps:.2f}")

    # -- terminal bookkeeping ----------------------------------------------

    def _finalize_stats(self, job: _Job) -> None:
        report = job.report
        report.retries = job.stats.retries
        report.backoff_seconds = job.stats.backoff_seconds
        report.watchdog_seconds = job.stats.watchdog_seconds
        report.checkpoints_saved = job.checkpointer.saved_count
        if job.injector is not None:
            report.fault_counts = job.injector.counts()

    def _fail(self, job: _Job, exc: ReproError) -> None:
        if job.node is not None:
            job.node.job = None
            job.node = None
        for node in job.nodes:
            node.job = None
        job.nodes = []
        if job.engine is not None:
            self._bank(job)
            job.engine = None
        self._finalize_stats(job)
        report = job.report
        report.error = str(exc)
        report.error_type = type(exc).__name__
        report.steps = job.step
        report.finished = self.clock
        job.state = JobState.FAILED
        report.state = JobState.FAILED
        self._event(job, "fail", f"{type(exc).__name__}: {exc}")

    def _fail_stranded(self) -> None:
        """Nothing runs, nothing arrives, jobs still wait: fail them."""
        for spec in self._ready():
            job = self._jobs[spec.name]
            if job.state in JobState.TERMINAL:
                self.queue.finish(spec)
                continue
            self.queue.finish(spec)
            self._fail(job, DeviceLostError(
                f"job {spec.name!r} stranded: the fleet is exhausted "
                f"(no device can host it and none will free)"))

    @staticmethod
    def _physics(config):
        from ..bench import paper_time_step, paper_wave
        source = paper_wave()
        dt = config.dt if config.dt is not None else paper_time_step()
        return source, dt
