"""Device fallback: keep a push workload alive across device loss.

:class:`ResilientPushEngine` is the one engine of every single-device
push.  It wraps the plain :class:`~repro.oneapi.runtime.PushEngine`
with the full recovery stack: every step runs under
:func:`~repro.resilience.recovery.run_with_retry` (transient faults),
and a :class:`~repro.errors.DeviceLostError` walks a *fallback chain*
of devices — by default the paper's Table 3 ladder, fastest first:
Iris Xe Max → P630 → CPU.  After a loss the engine restores the last
step-granular checkpoint, rebuilds the queue on the next device, and
replays the lost steps there.  The Boris kernels are the same numpy
code on every simulated device, and the checkpoint round trip is
bit-exact, so the recovered run's final particle state is identical to
an uninterrupted run's — the acceptance bar of the resilience layer.
A plain single-device run is the one-rung ladder; a service job moves
its engine between fleet nodes itself (:meth:`ResilientPushEngine.
move_to`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError, DeviceLostError
from ..observability.tracer import active_tracer, trace_span
from .checkpoint import Checkpointer
from .faults import active_fault_injector
from .recovery import (RecoveryStats, RetryPolicy, Watchdog,
                       rebuild_with_retry, run_with_retry)

__all__ = ["DEVICE_LADDER", "RecoveryReport", "ResilientPushEngine"]

#: Default fallback chain — the paper's Table 3 devices, fastest first.
DEVICE_LADDER = ("iris-xe-max", "p630", "cpu")


@dataclass
class RecoveryReport:
    """What a resilient run survived (one per :meth:`run` call)."""

    plan: str
    seed: Optional[int]
    steps: int
    completed: bool = False
    final_device: str = ""
    devices_lost: Tuple[str, ...] = ()
    retries: int = 0
    backoff_seconds: float = 0.0
    watchdog_seconds: float = 0.0
    scrubbed_allocations: int = 0
    giveups: int = 0
    fault_counts: Dict[str, int] = field(default_factory=dict)
    checkpoints_saved: int = 0
    restores: int = 0
    replayed_steps: int = 0

    def summary(self) -> str:
        """One-paragraph human rendering (the CLI prints this)."""
        lost = ", ".join(self.devices_lost) if self.devices_lost else "none"
        faults = ", ".join(f"{kind} x{count}" for kind, count
                           in sorted(self.fault_counts.items())) or "none"
        return (
            f"plan={self.plan} seed={self.seed} steps={self.steps} "
            f"completed={self.completed} on {self.final_device!r}\n"
            f"  faults injected: {faults}\n"
            f"  devices lost: {lost} "
            f"(restores={self.restores}, replayed={self.replayed_steps})\n"
            f"  retries={self.retries} "
            f"backoff={self.backoff_seconds * 1e3:.3f} ms "
            f"watchdog={self.watchdog_seconds * 1e3:.3f} ms "
            f"scrubbed={self.scrubbed_allocations} "
            f"checkpoints={self.checkpoints_saved}"
        )


class ResilientPushEngine:
    """A Boris push loop that survives the full fault taxonomy.

    The one engine of every single-device push: ``run_push`` runs a
    plain single-device config as a one-rung ladder, and each
    single-device job of :class:`~repro.service.PushService` holds one
    for its whole life, moving it between fleet nodes with
    :meth:`move_to`.

    Args:
        ensemble: The particle ensemble to advance (mutated in place).
        scenario: "precalculated" or "analytical" (see
            :mod:`repro.oneapi.runtime`).
        source: The analytical field source.
        dt: Time step [s].
        devices: Fallback chain, fastest first (the first entry runs
            until lost); defaults to :data:`DEVICE_LADDER`.  Each entry
            is a device spec string (``"cpu"``, ``"cuda:gpu0"``) or a
            :class:`~repro.oneapi.device.DeviceDescriptor` (a fleet
            node's renamed instance, ``"iris-xe-max #0"``).
        policy: Retry policy for transient faults.
        watchdog: Launch watchdog configuration.
        checkpointer: Optional step-granular checkpointer.  Device loss
            restores its latest checkpoint before it moves down the
            ladder, or raises once the ladder is exhausted.  Without
            one, recovery continues in place (a lost step never mutated
            the ensemble, so the physics stays correct either way).
        fusion: Kernel-graph execution mode of the underlying
            :class:`~repro.oneapi.runtime.PushEngine` (None = paper
            harness, untimed field refresh).
        diagnostics: Record the kinetic-energy node in the step graph.
        threads_per_unit: Hardware threads per core of every queue
            (None = all; see :meth:`Backend.make_queue
            <repro.backends.base.Backend.make_queue>`).
        program_cache: JIT program cache shared across the fallback
            chain's queue rebuilds; by default the engine owns one, so
            a re-lost-and-recovered device model never recompiles.
        stats: Recovery tally to add to; a fresh one when None.  A
            caller that passes its own keeps the retries of a build
            that gave up inside the constructor.
    """

    def __init__(self, ensemble, scenario: str, source, dt: float,
                 devices: Sequence = DEVICE_LADDER,
                 policy: Optional[RetryPolicy] = None,
                 watchdog: Optional[Watchdog] = None,
                 checkpointer: Optional[Checkpointer] = None,
                 fusion: Optional[bool] = None,
                 diagnostics: bool = False,
                 threads_per_unit: Optional[int] = None,
                 program_cache=None,
                 stats: Optional[RecoveryStats] = None) -> None:
        if not devices:
            raise ConfigurationError("need at least one device in the chain")
        from ..oneapi.programcache import ProgramCache

        self.ensemble = ensemble
        self.scenario = scenario
        self.source = source
        self.dt = float(dt)
        self.devices = tuple(devices)
        self.policy = policy if policy is not None else RetryPolicy()
        self.watchdog = watchdog if watchdog is not None else Watchdog()
        self.checkpointer = checkpointer
        self.fusion = fusion
        self.diagnostics = diagnostics
        self.threads_per_unit = threads_per_unit
        self.program_cache = program_cache if program_cache is not None \
            else ProgramCache()
        self.stats = stats if stats is not None else RecoveryStats()
        self.device_index = 0
        self.step_index = 0
        self.time = 0.0
        self.devices_lost: List[str] = []
        self.restores = 0
        self.replayed_steps = 0
        #: Makespan of the queues the engine moved off (each move
        #: starts a fresh timeline at zero, so their cost is banked).
        self._elapsed_base = 0.0
        #: Simulated seconds of each completed step: the push runner's
        #: whole-step ``step_seconds`` (every launch of a graph step)
        #: plus the recovery time of the step's failed attempts.  A
        #: restore truncates it to the checkpoint's step.
        self.step_seconds: List[float] = []
        self.runner = None
        self.move_to(self.devices[0])

    # -- queue / runner construction --------------------------------------

    def move_to(self, device) -> None:
        """Build a fresh queue and push runner on ``device``.

        ``device`` is a spec string (the ladder can demote across
        backends: ``("cuda:gpu0", "cpu")``) or a
        :class:`~repro.oneapi.device.DeviceDescriptor`.  The queue being
        left is banked into :attr:`simulated_seconds`.  Injected
        allocation failures during the build are retried under the
        policy; their backoff is charged to the *new* queue's timeline
        once it exists.
        """
        from ..backends.registry import get_backend, resolve_device
        from ..oneapi.runtime import PushEngine

        if isinstance(device, str):
            backend, descriptor = resolve_device(device)
            name = device
        else:
            backend, descriptor = get_backend(device.backend), device
            name = device.name
        runner = rebuild_with_retry(
            lambda: PushEngine(
                backend.make_queue(descriptor,
                                   program_cache=self.program_cache,
                                   threads_per_unit=self.threads_per_unit),
                self.ensemble, self.scenario, self.source, self.dt,
                fusion=self.fusion, diagnostics=self.diagnostics),
            self.policy, self.stats)
        if self.runner is not None:
            self._elapsed_base += self.queue.timeline.makespan
        runner.time = self.time
        self.device_name = name
        self.queue = runner.queue
        self.runner = runner

    # -- recovery ----------------------------------------------------------

    def _on_device_lost(self) -> None:
        """Restore the latest checkpoint, then take the next rung.

        The restore comes first, so an exhausted ladder raises
        :class:`~repro.errors.DeviceLostError` with the ensemble,
        :attr:`step_index`, :attr:`time` and :attr:`step_seconds`
        already at the checkpoint — where a caller that owns placement
        (the service) resumes it on another device.
        """
        self.devices_lost.append(self.device_name)
        tracer = active_tracer()
        if tracer is not None:
            tracer.recovery("device-fallback", lost=self.device_name,
                            step=self.step_index)
        if self.checkpointer is not None \
                and self.checkpointer.latest_step() is not None:
            step, self.time = self.checkpointer.restore_push(self.ensemble)
            self.replayed_steps += self.step_index - step
            self.step_index = step
            del self.step_seconds[step:]
            self.restores += 1
            if tracer is not None:
                tracer.recovery("restore", step=step)
        self.device_index += 1
        if self.device_index >= len(self.devices):
            raise DeviceLostError(
                f"device fallback chain exhausted after losing "
                f"{tuple(self.devices_lost)}")
        self.move_to(self.devices[self.device_index])

    # -- driving -----------------------------------------------------------

    def step(self):
        """One resilient push step; returns the launch record."""
        while True:
            try:
                record = run_with_retry(
                    self.runner.step, self.queue, self.runner.spec,
                    policy=self.policy, watchdog=self.watchdog,
                    stats=self.stats)
            except DeviceLostError:
                self._on_device_lost()
                continue
            self.step_index += 1
            self.time = self.runner.time
            self.step_seconds.append(self.runner.step_seconds[-1]
                                     + record.timing.recovery_seconds)
            if self.checkpointer is not None:
                self.checkpointer.maybe_save_push(
                    self.step_index, self.ensemble, self.time)
            return record

    @property
    def simulated_seconds(self) -> float:
        """Simulated time of the whole run, abandoned device epochs
        included (their replayed steps are paid for again)."""
        return self._elapsed_base + self.queue.timeline.makespan

    def queues(self) -> tuple:
        """The queue the hazard detector should judge.

        Only the *current* queue: a device loss abandons the old
        queue's timeline mid-flight, so its command log is not a
        completed schedule.
        """
        return (self.queue,)

    def run(self, steps: int) -> Tuple[List[object], RecoveryReport]:
        """Run ``steps`` pushes; returns ``(records, report)``.

        ``records[i]`` is the launch record of the attempt that finally
        completed step ``i`` (replayed steps overwrite the records the
        lost device produced for them).
        """
        if steps < 0:
            raise ConfigurationError(f"steps must be >= 0, got {steps}")
        injector = active_fault_injector()
        report = RecoveryReport(
            plan=injector.plan.name if injector is not None else "none",
            seed=injector.seed if injector is not None else None,
            steps=steps)
        if self.checkpointer is not None and self.step_index == 0:
            self.checkpointer.save_push(0, self.ensemble, self.time)
        records: List[object] = []
        with trace_span(f"resilient-run:{self.scenario}", "runner",
                        steps=steps, device=self.device_name):
            while self.step_index < steps:
                record = self.step()
                # a restore rewinds step_index; drop the records the
                # lost device produced for the steps being replayed
                del records[self.step_index - 1:]
                records.append(record)
        report.completed = True
        report.final_device = self.device_name
        report.devices_lost = tuple(self.devices_lost)
        report.retries = self.stats.retries
        report.backoff_seconds = self.stats.backoff_seconds
        report.watchdog_seconds = self.stats.watchdog_seconds
        report.scrubbed_allocations = self.stats.scrubbed_allocations
        report.giveups = self.stats.giveups
        report.fault_counts = (injector.counts()
                               if injector is not None else {})
        report.checkpoints_saved = (self.checkpointer.saved_count
                                    if self.checkpointer is not None else 0)
        report.restores = self.restores
        report.replayed_steps = self.replayed_steps
        return records, report
