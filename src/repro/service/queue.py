"""Admission control: who gets into the schedule, and in what order.

:class:`JobQueue` is the service's front door.  It enforces three
things before a job ever touches a device:

* **Backpressure** — at most ``capacity`` non-terminal jobs live in
  the service at once.  An over-capacity submit first tries to *evict*
  a strictly-lower-priority job that is still queued (the evictee
  fails typed, with :class:`~repro.errors.JobPreemptedError`); if no
  such victim exists the submit itself is refused with
  :class:`~repro.errors.JobRejectedError`.  Rejection is an answer,
  not a crash: the caller knows immediately, with a reason, and the
  rest of the schedule is untouched.
* **Fair share** — no tenant may hold more than
  ``max(1, ceil(per_tenant_share * capacity))`` live jobs, so one
  noisy tenant cannot starve the fleet.
* **Feasibility** — a job the fleet can *never* run (group spec
  needing more cards than exist, non-positive deadline or budget,
  config knobs the service mode does not support) is rejected at
  submit time rather than left to time out in the queue.

Ready ordering is priority-first, then fair-share (tenants that have
consumed less simulated device time go first), then arrival order —
the classic weighted fair queueing compromise: urgent work jumps the
line, equally-urgent work interleaves across tenants.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from ..errors import ConfigurationError, JobRejectedError
from .job import JobSpec

__all__ = ["JobQueue"]


class JobQueue:
    """Priority + fair-share admission queue over :class:`JobSpec`s.

    Args:
        capacity: Maximum live (non-terminal) jobs; submits beyond it
            evict lower-priority queued work or are rejected.
        per_tenant_share: Fraction of ``capacity`` one tenant may hold
            (floored at one job, so a lone tenant is never locked out).

    The queue does not know about devices; the scheduler asks it for
    the next runnable job via :meth:`pop_ready` and reports device
    time back through :meth:`charge` so fair-share stays current.
    """

    def __init__(self, capacity: int = 16,
                 per_tenant_share: float = 0.5) -> None:
        if capacity < 1:
            raise ConfigurationError(
                f"queue capacity must be >= 1, got {capacity}")
        if not 0.0 < per_tenant_share <= 1.0:
            raise ConfigurationError(
                f"per_tenant_share must be in (0, 1], "
                f"got {per_tenant_share}")
        self.capacity = int(capacity)
        self.per_tenant_share = float(per_tenant_share)
        #: Live jobs (READY or PENDING-arrival), admission order.
        self._queued: List[JobSpec] = []
        #: Names of jobs currently running (they count against caps).
        self._running: List[str] = []
        #: Simulated device seconds consumed, per tenant (fair share).
        self._usage: Dict[str, float] = {}
        #: Monotone submit sequence, the final ordering tie-break.
        self._seq: Dict[str, int] = {}
        self._next_seq = 0
        #: Tenant of every job ever admitted (running-cap accounting).
        self._tenants: Dict[str, str] = {}
        #: Ready times (simulated clock) — set at admission/requeue.
        self._ready_at: Dict[str, float] = {}
        #: Evictions performed to make room, surfaced to the scheduler.
        self.evicted: List[JobSpec] = []

    # -- introspection ----------------------------------------------------

    @property
    def tenant_cap(self) -> int:
        """Live-job ceiling for one tenant."""
        return max(1, math.ceil(self.per_tenant_share * self.capacity))

    def live_count(self, tenant: Optional[str] = None) -> int:
        """Live (queued + running) jobs, optionally for one tenant."""
        queued = [job for job in self._queued
                  if tenant is None or job.tenant == tenant]
        if tenant is None:
            return len(queued) + len(self._running)
        running = [name for name in self._running
                   if self._tenant_of(name) == tenant]
        return len(queued) + len(running)

    def _tenant_of(self, name: str) -> str:
        return self._tenants.get(name, "default")

    def usage(self, tenant: str) -> float:
        """Simulated device seconds this tenant has consumed so far."""
        return self._usage.get(tenant, 0.0)

    def __len__(self) -> int:
        return len(self._queued)

    def __contains__(self, name: str) -> bool:
        return any(job.name == name for job in self._queued)

    # -- admission ---------------------------------------------------------

    def admit(self, spec: JobSpec, clock: float = 0.0,
              fleet_size: int = 0, fleet_keys: Optional[List[str]] = None
              ) -> None:
        """Admit ``spec`` or raise :class:`JobRejectedError` with a reason.

        ``fleet_size``/``fleet_keys`` let admission check feasibility:
        a job is refused outright when the fleet can never satisfy it
        (better a fast typed "no" than an eternal queue wait).  May
        evict a strictly-lower-priority queued job to make room; the
        victim lands on :attr:`evicted` for the scheduler to fail with
        :class:`JobPreemptedError`.
        """
        if any(job.name == spec.name for job in self._queued) \
                or spec.name in self._running:
            raise JobRejectedError(
                f"job name {spec.name!r} already live in the queue")
        self._check_feasible(spec, fleet_size, fleet_keys or [])
        if self.live_count(spec.tenant) >= self.tenant_cap:
            raise JobRejectedError(
                f"tenant {spec.tenant!r} is over its fair share "
                f"({self.tenant_cap} live jobs of capacity "
                f"{self.capacity}); job {spec.name!r} refused")
        if self.live_count() >= self.capacity:
            victim = self._eviction_victim(spec)
            if victim is None:
                raise JobRejectedError(
                    f"queue at capacity ({self.capacity} live jobs) and "
                    f"no queued job has lower priority than "
                    f"{spec.priority}; job {spec.name!r} refused")
            self._queued.remove(victim)
            self._ready_at.pop(victim.name, None)
            self.evicted.append(victim)
        self._seq[spec.name] = self._next_seq
        self._next_seq += 1
        self._tenants[spec.name] = spec.tenant
        self._queued.append(spec)
        self._ready_at[spec.name] = max(clock, spec.arrival)

    def _check_feasible(self, spec: JobSpec, fleet_size: int,
                        fleet_keys: List[str]) -> None:
        config = spec.config
        if spec.deadline_seconds is not None and spec.deadline_seconds <= 0:
            raise JobRejectedError(
                f"job {spec.name!r}: deadline_seconds must be > 0, "
                f"got {spec.deadline_seconds}")
        if spec.budget_seconds is not None and spec.budget_seconds <= 0:
            raise JobRejectedError(
                f"job {spec.name!r}: budget_seconds must be > 0, "
                f"got {spec.budget_seconds}")
        device = getattr(config, "device", None)
        if device is not None and fleet_keys and device not in fleet_keys:
            raise JobRejectedError(
                f"job {spec.name!r}: device {device!r} is not in the "
                f"fleet ({sorted(set(fleet_keys))}); set device=None to "
                f"let the scheduler choose")
        if getattr(config, "devices", None):
            raise JobRejectedError(
                f"job {spec.name!r}: explicit failover ladders "
                f"(config.devices) are not supported in service mode — "
                f"the scheduler owns placement")
        if getattr(config, "fault_plan", None) is not None:
            raise JobRejectedError(
                f"job {spec.name!r}: set fault plans on the JobSpec "
                f"(fault_plan=...), not on the RunConfig — the service "
                f"scopes injection per job")
        if getattr(config, "config", None) == "auto":
            raise JobRejectedError(
                f"job {spec.name!r}: config='auto' (autotuning) is not "
                f"supported in service mode; submit a concrete config")
        if getattr(config, "persist_cache", None) is not None \
                or getattr(config, "program_cache", None) is not None:
            raise JobRejectedError(
                f"job {spec.name!r}: the service owns the fleet-wide "
                f"program cache; per-job persist_cache/program_cache "
                f"are not accepted")
        group = getattr(config, "group", None)
        if group and fleet_size:
            from ..distributed.group import parse_group_spec
            try:
                keys = parse_group_spec(group)
            except ConfigurationError as exc:
                raise JobRejectedError(
                    f"job {spec.name!r}: bad group {group!r}: {exc}"
                ) from exc
            if len(keys) > fleet_size:
                raise JobRejectedError(
                    f"job {spec.name!r}: group {group!r} needs "
                    f"{len(keys)} devices but the fleet has "
                    f"{fleet_size}")
            available = list(fleet_keys)
            for key in keys:
                if key not in available:
                    raise JobRejectedError(
                        f"job {spec.name!r}: group {group!r} needs a "
                        f"{key!r} the fleet does not have")
                available.remove(key)

    def _eviction_victim(self, spec: JobSpec) -> Optional[JobSpec]:
        """Lowest-priority queued job strictly below ``spec``, if any."""
        candidates = [job for job in self._queued
                      if job.priority < spec.priority]
        if not candidates:
            return None
        return min(candidates,
                   key=lambda job: (job.priority,
                                    -self._seq[job.name]))

    # -- scheduling interface ---------------------------------------------

    def ready_jobs(self, clock: float) -> List[JobSpec]:
        """Jobs whose arrival has passed, best-first."""
        ready = [job for job in self._queued if job.arrival <= clock]
        ready.sort(key=lambda job: (-job.priority,
                                    self.usage(job.tenant),
                                    job.arrival,
                                    self._seq[job.name]))
        return ready

    def next_arrival(self, clock: float) -> Optional[float]:
        """Earliest future arrival time, or None when nothing is pending."""
        future = [job.arrival for job in self._queued
                  if job.arrival > clock]
        return min(future) if future else None

    def ready_at(self, name: str) -> float:
        """When this job (re-)entered the ready state — queue-wait basis."""
        return self._ready_at.get(name, 0.0)

    def mark_running(self, spec: JobSpec) -> None:
        """Move a queued job to the running set (still counts in caps)."""
        self._queued.remove(spec)
        self._ready_at.pop(spec.name, None)
        self._running.append(spec.name)

    def requeue(self, spec: JobSpec, clock: float) -> None:
        """Return a running job to the queue (device loss, preemption)."""
        if spec.name in self._running:
            self._running.remove(spec.name)
        self._queued.append(spec)
        self._ready_at[spec.name] = clock

    def finish(self, spec: JobSpec) -> None:
        """Drop a job from the live set (any terminal state)."""
        if spec.name in self._running:
            self._running.remove(spec.name)
        self._queued = [job for job in self._queued
                        if job.name != spec.name]
        self._ready_at.pop(spec.name, None)

    def charge(self, tenant: str, device_seconds: float) -> None:
        """Account simulated device time to a tenant (fair-share input)."""
        self._usage[tenant] = self._usage.get(tenant, 0.0) \
            + max(0.0, device_seconds)

    def pop_evicted(self) -> List[JobSpec]:
        """Drain jobs evicted by admission since the last call."""
        evicted, self.evicted = self.evicted, []
        return evicted
