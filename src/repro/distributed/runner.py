"""The sharded push runner: one workload over a device group.

:class:`ShardedPushEngine` is the distributed counterpart of
:class:`~repro.oneapi.runtime.PushEngine`: it partitions one master
ensemble into contiguous shards (one per group member), drives a real
per-shard push engine on every member's out-of-order queue, prices the
per-step halo exchange through the
:class:`~repro.distributed.exchange.ExchangeModel`, and reassembles the
master ensemble at every synchronisation point.

Because the Boris push is elementwise per particle — no cross-particle
reduction anywhere in the kernel — the gathered result of a sharded run
is **bit-identical** to a single-device run of the same ensemble, for
any partition.  That invariant is what the whole layer leans on: it
makes even-vs-proportional comparisons physics-free and turns
device-loss recovery into plain bookkeeping (restore the checkpoint,
re-shard over the survivors, replay).

Scheduling semantics (per shard, on its member's out-of-order queue):

* push *k+1* depends on push *k* — a shard's pushes always serialize;
* exchange *k* depends on push *k* (the halo must exist) and on
  exchange *k-1* (one link, one transfer at a time);
* with ``overlap=True`` (default) the next push does *not* wait for the
  exchange — the transfer hides behind compute, the async pattern
  DPC++'s event graph exists for; with ``overlap=False`` push *k+1*
  additionally depends on exchange *k* (the naive bulk-synchronous
  schedule, kept as the comparison baseline).

Failure handling:

* transient faults (failed submits, hung launches, exchange stalls)
  are retried in place under the bounded
  :class:`~repro.resilience.recovery.RetryPolicy`, their cost charged
  to the simulated clock;
* a :class:`~repro.errors.DeviceLostError` is fatal for the member:
  the runner drops it from the group, restores the last checkpoint
  (one is always written at step 0), re-shards over the survivors and
  replays — producing the same final state as a fault-free run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..errors import ConfigurationError, DeviceLostError
from ..fields.base import FieldSource
from ..observability.tracer import active_tracer, trace_span
from ..oneapi.events import SimEvent
from ..oneapi.runtime import PushEngine
from ..particles.ensemble import COMPONENTS, ParticleEnsemble
from ..pic.diagnostics import load_imbalance
from ..resilience.checkpoint import Checkpointer
from ..resilience.faults import active_fault_injector
from ..resilience.recovery import (RecoveryStats, RetryPolicy, Watchdog,
                                   run_with_retry)
from .exchange import ExchangeModel, ExchangePolicy, ExchangeReport
from .group import DeviceGroup
from .sharding import EvenSharding, ShardingStrategy

__all__ = ["ShardReport", "GroupReport", "ShardedPushEngine"]


@dataclass
class ShardReport:
    """Final accounting of one shard."""

    name: str
    key: str
    particles: int
    steps: int
    busy_seconds: float
    mean_nsps: float


@dataclass
class GroupReport:
    """Final accounting of a sharded run."""

    n_devices: int
    strategy: str
    n_particles: int
    steps: int
    #: Simulated wall time since the last measurement reset (sum of
    #: group makespans across device-set epochs; replayed steps are
    #: paid for again).
    simulated_seconds: float
    #: Group NSPS: simulated nanoseconds per particle per step.
    nsps: float
    #: ``max/mean - 1`` over per-shard busy seconds (final epoch).
    imbalance: float
    redistributions: int
    exchange: ExchangeReport
    recovery: RecoveryStats
    shards: List[ShardReport] = field(default_factory=list)


class _ShardState:
    """Mutable per-shard run state (one device-set epoch)."""

    def __init__(self, member, start: int, stop: int,
                 ensemble: Optional[ParticleEnsemble],
                 runner: Optional[PushEngine]) -> None:
        self.member = member
        self.start = start
        self.stop = stop
        self.ensemble = ensemble
        self.runner = runner
        self.last_push: Optional[SimEvent] = None
        self.last_exchange: Optional[SimEvent] = None
        self.busy_seconds = 0.0
        self.nsps_samples: List[float] = []
        self.steps = 0

    @property
    def size(self) -> int:
        return self.stop - self.start


class ShardedPushEngine:
    """Drives one ensemble across a device group, step by step.

    Args:
        group: The device group to execute on.
        ensemble: The master ensemble (stays authoritative at every
            synchronisation point; holds the final state after
            :meth:`run`).
        scenario: "precalculated" or "analytical".
        source: Field source (see :class:`~repro.oneapi.runtime.PushEngine`).
        dt: Time step [s].
        strategy: Sharding strategy (default even split).
        policy: Exchange policy (default :class:`ExchangePolicy`).
        overlap: Hide exchange behind the next push (default True).
        checkpointer: Enables device-loss recovery; a checkpoint is
            written at step 0 and at the checkpointer's cadence.
            Without one, a device loss propagates.
        retry_policy / watchdog: Transient-fault recovery knobs
            (defaults as in :mod:`repro.resilience.recovery`).
        fusion: Kernel-graph execution mode of every shard's
            :class:`~repro.oneapi.runtime.PushEngine` (None = paper
            harness, untimed field refresh).  All shards share the
            group's :class:`~repro.oneapi.programcache.ProgramCache`, so
            only the first shard of each device model pays the JIT cost.
    """

    def __init__(self, group: DeviceGroup, ensemble: ParticleEnsemble,
                 scenario: str, source: FieldSource, dt: float,
                 strategy: Optional[ShardingStrategy] = None,
                 policy: Optional[ExchangePolicy] = None,
                 overlap: bool = True,
                 checkpointer: Optional[Checkpointer] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 watchdog: Optional[Watchdog] = None,
                 fusion: Optional[bool] = None) -> None:
        self.fusion = fusion
        self.group = group
        self.ensemble = ensemble
        self.scenario = scenario
        self.source = source
        self.dt = float(dt)
        self.strategy = strategy if strategy is not None else EvenSharding()
        self.policy = policy if policy is not None else ExchangePolicy()
        self.overlap = bool(overlap)
        self.checkpointer = checkpointer
        self.retry_policy = retry_policy
        self.watchdog = watchdog
        self.recovery_stats = RecoveryStats()
        self.time = 0.0
        self.steps_done = 0
        self.redistributions = 0
        #: Makespan of completed device-set epochs (a redistribution
        #: abandons the old group's timelines, so their cost is banked
        #: here before the new epoch starts at zero).
        self._elapsed_base = 0.0
        self._seconds_before_reset = 0.0
        self._steps_at_reset = 0
        #: Simulated seconds when the first step completed.
        self.first_step_seconds: Optional[float] = None
        self._busy_by_member: Dict[str, float] = {}
        self.exchange = self._make_exchange(group)
        self.counts = list(self.strategy.initial_counts(
            ensemble.size, group.devices))
        self.shards = self._partition(self.counts)

    # -- construction helpers --------------------------------------------

    def _make_exchange(self, group: DeviceGroup) -> ExchangeModel:
        precision = self.ensemble.precision
        bytes_per_particle = precision.particle_bytes
        if self.scenario == "precalculated":
            # Halo particles carry their interpolated field values too.
            bytes_per_particle += 6 * precision.itemsize
        model = ExchangeModel(group, self.policy, bytes_per_particle)
        if hasattr(self, "exchange"):
            model.report = self.exchange.report  # keep accounting across epochs
        return model

    def _partition(self, counts: Sequence[int]) -> List[_ShardState]:
        """Slice the master ensemble into per-member shard copies."""
        if len(counts) != len(self.group):
            raise ConfigurationError(
                f"got {len(counts)} shard counts for "
                f"{len(self.group)} members")
        if sum(counts) != self.ensemble.size:
            raise ConfigurationError(
                f"shard counts sum to {sum(counts)}, ensemble has "
                f"{self.ensemble.size} particles")
        shards: List[_ShardState] = []
        offset = 0
        for member, count in zip(self.group.members, counts):
            start, stop = offset, offset + int(count)
            offset = stop
            if count == 0:
                shards.append(_ShardState(member, start, stop, None, None))
                continue
            # A copy, not a view: the USM manager keys allocations on
            # ``array.base``, so a view would register the master's
            # whole arrays with every member.
            shard = self.ensemble.view(start, stop).copy()
            runner = PushEngine(member.queue, shard, self.scenario,
                                self.source, self.dt, fusion=self.fusion)
            runner.time = self.time
            shards.append(_ShardState(member, start, stop, shard, runner))
        return shards

    def _gather(self) -> None:
        """Write every shard's state back into the master ensemble."""
        for state in self.shards:
            if state.ensemble is None:
                continue
            for name in COMPONENTS:
                self.ensemble.component(name)[state.start:state.stop] = \
                    state.ensemble.component(name)
            self.ensemble.type_ids[state.start:state.stop] = \
                state.ensemble.type_ids

    # -- accounting -------------------------------------------------------

    @property
    def measured_seconds(self) -> float:
        """Simulated wall time since the last measurement reset."""
        return self._elapsed_base + self.group.makespan

    @property
    def simulated_seconds(self) -> float:
        """Simulated time of the whole run: warm-up, measured steps and
        every abandoned device-set epoch."""
        return self._seconds_before_reset + self.measured_seconds

    def nsps(self) -> float:
        """Group NSPS over the steps since the last measurement reset."""
        work = self.ensemble.size * (self.steps_done - self._steps_at_reset)
        if work == 0:
            raise ConfigurationError("no particle-steps completed yet")
        return self.measured_seconds * 1.0e9 / work

    def reset_measurement(self) -> None:
        """Start a fresh measurement epoch after warm-up steps.

        Clears every member's timeline and launch records (JIT caches
        and page state survive, as on a warm process), the exchange and
        busy-time accounting, and the step counter NSPS divides by —
        the group-level analogue of the harness's ``skip_warmup`` rule,
        so steady-state group NSPS excludes the one-off JIT charge.  The
        cleared epoch's seconds stay in :attr:`simulated_seconds`.
        """
        self._seconds_before_reset = self.simulated_seconds
        self.group.reset_records()
        self._elapsed_base = 0.0
        self._steps_at_reset = self.steps_done
        self._busy_by_member.clear()
        self.exchange.report = ExchangeReport()
        for state in self.shards:
            state.busy_seconds = 0.0
            state.nsps_samples.clear()
            state.steps = 0
            # Old events belong to the cleared timelines; depending on
            # them would teleport their end times into the new epoch.
            state.last_push = None
            state.last_exchange = None

    def _total_busy(self) -> Dict[str, float]:
        """Per-member busy seconds across every epoch, banked + current."""
        totals = dict(self._busy_by_member)
        for s in self.shards:
            totals[s.member.name] = totals.get(s.member.name, 0.0) \
                + s.busy_seconds
        return totals

    def report(self) -> GroupReport:
        """Accounting snapshot (call after :meth:`run`)."""
        totals = self._total_busy()
        busy = [totals[s.member.name] for s in self.shards]
        shards = [ShardReport(
            name=s.member.name, key=s.member.key, particles=s.size,
            steps=s.steps, busy_seconds=totals[s.member.name],
            mean_nsps=(float(np.mean(s.nsps_samples))
                       if s.nsps_samples else float("nan")))
            for s in self.shards]
        return GroupReport(
            n_devices=len(self.group),
            strategy=self.strategy.name,
            n_particles=self.ensemble.size,
            steps=self.steps_done,
            simulated_seconds=self.measured_seconds,
            nsps=(self.nsps() if self.steps_done > self._steps_at_reset
                  else float("nan")),
            imbalance=load_imbalance(busy) if any(b > 0.0 for b in busy)
            else 0.0,
            redistributions=self.redistributions,
            exchange=self.exchange.report,
            recovery=self.recovery_stats,
            shards=shards)

    # -- the run loop -----------------------------------------------------

    def queues(self) -> tuple:
        """Every member queue (uniform across engines).

        One entry per group member, each owning its own shard's address
        space — the hazard detector must replay them separately, never
        as one concatenated log, because members reuse stream names for
        *different* arrays.
        """
        return tuple(member.queue for member in self.group.members)

    def run(self, steps: int) -> GroupReport:
        """Advance the ensemble ``steps`` pushes across the group."""
        if steps < 0:
            raise ConfigurationError(f"steps must be >= 0, got {steps}")
        if self.checkpointer is not None and self.steps_done == 0:
            self.checkpointer.save_push(0, self.ensemble, self.time)
        while self.steps_done < steps:
            try:
                self._step_all(self.steps_done)
            except DeviceLostError:
                self._redistribute()
                continue
            self.steps_done += 1
            self.time += self.dt
            if self.first_step_seconds is None:
                self.first_step_seconds = self.simulated_seconds
            if self.checkpointer is not None \
                    and self.checkpointer.should_save(self.steps_done):
                self._gather()
                self.checkpointer.save_push(self.steps_done, self.ensemble,
                                            self.time)
        self._gather()
        return self.report()

    def run_measured(self, warmup: int, steps: int) -> GroupReport:
        """The sharded measurement protocol: ``warmup`` steps, a
        measurement reset, then ``steps`` measured steps, which alone
        the returned report covers."""
        if warmup > 0:
            self.run(warmup)
            self.reset_measurement()
        return self.run(warmup + steps)

    def _push_dependencies(self, state: _ShardState
                           ) -> Optional[List[SimEvent]]:
        deps = [state.last_push]
        if not self.overlap:
            deps.append(state.last_exchange)
        deps = [e for e in deps if e is not None]
        return deps or None

    def _step_all(self, step: int) -> None:
        """One synchronous step: every shard pushes, then exchanges."""
        injector = active_fault_injector()
        with trace_span(f"shard-step:{step}", "distributed",
                        n_devices=len(self.group)):
            for state in self.shards:
                if state.runner is None:
                    continue
                deps = self._push_dependencies(state)
                if injector is None:
                    record = state.runner.step(depends_on=deps)
                else:
                    record = run_with_retry(
                        lambda: state.runner.step(depends_on=deps),
                        state.member.queue, state.runner.spec,
                        policy=self.retry_policy, watchdog=self.watchdog,
                        stats=self.recovery_stats)
                state.last_push = record.event
                # The whole step (every launch of an unfused graph),
                # plus any retry penalty folded into its last record.
                seconds = state.runner.step_seconds[-1] \
                    + record.timing.recovery_seconds
                state.busy_seconds += seconds
                state.nsps_samples.append(seconds * 1.0e9 / record.n_items)
                state.steps += 1
            exchange_deps = [
                [e for e in (s.last_push, s.last_exchange) if e is not None]
                or None
                for s in self.shards]
            events = self.exchange.exchange_step(
                step, [s.size for s in self.shards], exchange_deps)
            for state, event in zip(self.shards, events):
                if event is not None:
                    state.last_exchange = event

    # -- device-loss recovery ---------------------------------------------

    def _bank_busy_seconds(self) -> None:
        """Carry per-member busy time across a repartition, so shard
        reports survive redistributions."""
        for state in self.shards:
            self._busy_by_member[state.member.name] = \
                self._busy_by_member.get(state.member.name, 0.0) \
                + state.busy_seconds

    def _redistribute(self) -> None:
        """Drop lost members, restore the checkpoint, re-shard, replay."""
        injector = active_fault_injector()
        lost = [i for i, m in enumerate(self.group.members)
                if injector is not None and m.name in injector.lost_devices]
        if not lost or self.checkpointer is None:
            # Not an injected loss we can recover from (or no
            # checkpoint to restore) — propagate as fatal.
            raise DeviceLostError(
                "device lost with no checkpointer attached"
                if self.checkpointer is None else
                "device lost but no group member is marked lost")
        # Bank the abandoned epoch's simulated time before its
        # timelines disappear with the old queues.
        self._elapsed_base += self.group.makespan
        self._bank_busy_seconds()
        group = self.group
        for index in sorted(lost, reverse=True):
            name = group.members[index].name
            tracer = active_tracer()
            if tracer is not None:
                tracer.recovery("redistribute", device=name,
                                step=self.steps_done,
                                survivors=len(group) - 1)
            group = group.drop(index)
        self.group = group
        self.exchange = self._make_exchange(group)
        self.steps_done, self.time = self.checkpointer.restore_push(
            self.ensemble)
        self.counts = list(self.strategy.initial_counts(
            self.ensemble.size, group.devices))
        self.shards = self._partition(self.counts)
        self.redistributions += 1
