"""Exception hierarchy for :mod:`repro`.

Every error raised deliberately by the library derives from
:class:`ReproError`, so callers can catch library failures without
masking programming errors such as :class:`TypeError`.

The full catch hierarchy::

    ReproError
    ├── ConfigurationError
    ├── LayoutError
    ├── DeviceError
    │   ├── MemoryModelError
    │   │   └── AllocationFailedError
    │   ├── KernelError
    │   │   ├── GraphError
    │   │   └── HazardError
    │   ├── DeviceLostError
    │   └── LaunchTimeoutError
    │       └── ExchangeTimeoutError
    ├── FieldError
    ├── SimulationError
    │   └── ValidationError
    ├── ServiceError
    │   ├── JobRejectedError
    │   ├── JobDeadlineError
    │   └── JobPreemptedError
    └── TraceError

The :mod:`repro.api` facade guarantees this hierarchy is the *only*
failure surface: any exception escaping the scheduler, exchange or
kernel-graph paths that is not already a :class:`ReproError` is wrapped
into the closest documented class before it reaches the caller (see
:func:`repro.api.run_push`), so ``except ReproError`` around a facade
call is exhaustive.

The :class:`ServiceError` branch belongs to the multi-tenant scheduler
(:mod:`repro.service`) and is ordered by catch specificity: catch
:class:`JobRejectedError` to handle admission-control overload (the job
never ran), :class:`JobDeadlineError` for jobs killed for exceeding
their deadline or simulated-time budget (the job ran and was stopped),
:class:`JobPreemptedError` for jobs displaced by higher-priority work
that could not be resumed, and :class:`ServiceError` as the one arm
that covers every way the scheduler can fail a job.  Device failures
*inside* a scheduled job keep their own taxonomy (a job that exhausts
the fleet fails with :class:`DeviceLostError`, not a service error):
``except (ServiceError, DeviceError)`` around a schedule is exhaustive
for per-job failures, and plain ``except ReproError`` remains the
catch-all, as everywhere else.

The leaves under :class:`DeviceError` added for the resilience layer
(:mod:`repro.resilience`) split device failures by recovery semantics:
:class:`AllocationFailedError` and :class:`LaunchTimeoutError` (with
its inter-device specialisation :class:`ExchangeTimeoutError`, raised
by the distributed layer when a cost-modeled exchange stalls) are
*transient* (a bounded retry with backoff can succeed), while
:class:`DeviceLostError` is *fatal to the device* (recovery means
failing over to the next device in the fallback chain — or, for a
sharded :class:`~repro.distributed.ShardedPushEngine`, redistributing
the lost shard over the surviving devices — and restoring from a
checkpoint).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library.

    Usage: catch this to handle *any* deliberate library failure in one
    place (e.g. around a whole experiment run) while letting genuine
    bugs — ``TypeError``, ``AttributeError`` — propagate::

        try:
            table2_rows()
        except ReproError as exc:
            print(f"benchmark aborted: {exc}")
    """


class ConfigurationError(ReproError):
    """An object was configured with inconsistent or invalid parameters.

    Usage: raised eagerly at construction or call time (bad step
    counts, unknown scenario names, mismatched cost model and device),
    never mid-computation — if you see it, fix the arguments at the
    raising call site; retrying cannot succeed.
    """


class LayoutError(ReproError):
    """A particle-storage layout operation was invalid (e.g. mixing
    ensembles with different layouts or precisions).

    Usage: convert one side explicitly (``ensemble.to_layout`` /
    ``astype``-style helpers) before combining; the library never
    converts silently because layout is the variable under study.
    """


class DeviceError(ReproError):
    """A simulated oneAPI device or queue was used incorrectly.

    Usage: the base class for runtime-simulator misuse; catch it to
    guard a whole simulated execution.  The more specific
    :class:`MemoryModelError` and :class:`KernelError` derive from it,
    so ``except DeviceError`` catches those too.
    """


class MemoryModelError(DeviceError):
    """A USM allocation or access violated the simulated memory model.

    Usage: typically an out-of-range touch, a double free, or use after
    free on a :class:`~repro.oneapi.memory.UsmAllocation` — the bug is
    in the calling kernel/driver code, not in the data.
    """


class AllocationFailedError(MemoryModelError):
    """A simulated USM allocation could not be satisfied.

    Usage: raised by :class:`~repro.oneapi.memory.UsmMemoryManager`
    when the (possibly fault-injected) allocator reports exhaustion.
    Transient by contract: freeing memory or simply retrying after a
    backoff (see :class:`~repro.resilience.RetryPolicy`) may succeed,
    unlike the other :class:`MemoryModelError` cases, which are caller
    bugs.
    """


class KernelError(DeviceError):
    """A kernel submission failed (bad range, unbound buffers, ...).

    Usage: raised when a :class:`~repro.oneapi.kernelspec.KernelSpec`
    is self-inconsistent (negative sizes, span smaller than payload) or
    a launch is malformed; validate specs once at build time and reuse
    them, as :func:`repro.oneapi.runtime.PushEngine` does with the step
    graph :func:`repro.oneapi.runtime.build_step_graph` builds.
    """


class GraphError(KernelError):
    """A kernel graph was built or fused illegally.

    Usage: raised by :mod:`repro.oneapi.graph` when nodes are recorded
    with inconsistent item counts, when a fusion is requested across a
    barrier node (deposition, sorting) or across layout/precision
    boundaries, or when merged specs disagree about a shared stream.
    The graph is the caller's declaration, so the fix is at the
    recording site; fusion itself never raises — illegal pairs are
    simply left unfused by the planner.
    """


class HazardError(KernelError):
    """Two simulated commands raced on a shared memory stream.

    Usage: raised by :mod:`repro.validation.hazard` when replaying an
    out-of-order queue's command log finds a RAW/WAR/WAW pair touching
    the same declared stream without a ``depends_on`` path ordering
    them.  The bug is in the submission code (a missing event edge),
    not in the data: the fix is to thread the earlier command's
    :class:`~repro.oneapi.events.SimEvent` into the later launch's
    ``depends_on`` — exactly what
    :class:`~repro.oneapi.graph.GraphExecutor` does between fused
    groups.  In-order queues serialize every pair and can never raise
    this.
    """


class DeviceLostError(DeviceError):
    """The simulated device died mid-run (reset, hang, hot-unplug).

    Usage: mirrors ``sycl::errc::device_lost`` / ``CL_DEVICE_LOST``.
    The device is gone for the rest of the process: retrying on the
    same queue cannot succeed.  Recover by failing over to the next
    device of a :class:`~repro.resilience.FallbackChain` and restoring
    particle state from the last checkpoint
    (:class:`~repro.resilience.Checkpointer`).
    """


class LaunchTimeoutError(DeviceError):
    """A kernel launch exceeded the watchdog timeout and was killed.

    Usage: raised when a (fault-injected) hung launch runs past
    :class:`~repro.resilience.Watchdog` seconds of simulated time.
    Transient: the watchdog charges the timeout to the simulated
    timeline and a bounded retry usually succeeds; repeated timeouts
    escalate to :class:`DeviceLostError` semantics via the retry
    policy's attempt bound.
    """


class ExchangeTimeoutError(LaunchTimeoutError):
    """A cost-modeled inter-device exchange stalled past the watchdog.

    Usage: raised at the exchange sites of the distributed layer
    (:meth:`repro.oneapi.queue.Queue.memcpy_async`, driven by
    :class:`~repro.distributed.ExchangeModel`) when a halo or
    field-replication transfer hangs — the multi-device analogue of a
    hung kernel launch.  Transient, like its base class: the stalled
    window is charged to the simulated timeline and the exchange is
    re-issued under the bounded retry policy; ``except
    LaunchTimeoutError`` handlers therefore recover exchanges too.
    """


class FieldError(ReproError):
    """A field source was evaluated outside its domain of validity.

    Usage: e.g. the m-dipole series expansion probed beyond its
    convergence radius; either restrict the sampling region or switch
    to the closed-form evaluation path.
    """


class SimulationError(ReproError):
    """A PIC simulation reached an invalid state (NaNs, CFL violation, ...).

    Usage: raised by :meth:`repro.pic.simulation.PicSimulation.check_state`
    and by constructors rejecting unstable setups.  On CFL violations
    reduce ``dt`` (or use the spectral solver, which has no Courant
    limit); on NaNs inspect the last stable step's diagnostics.
    """


class ValidationError(SimulationError):
    """An engine's result diverged from the scalar Boris reference.

    Usage: raised by :mod:`repro.validation.differential` (and by
    :func:`repro.api.run_push` with ``validate=True``) when a pushed
    ensemble drifts past the per-precision ULP tolerance from
    :func:`repro.core.boris.boris_push_particle`, or when two runs that
    must be bit-identical (fused vs unfused, sharded gather vs single
    device) disagree on their sha256 state digests.  The message names
    the worst component and its measured ULP distance; see
    ``docs/VALIDATION.md`` for what the tolerances mean.
    """


class ServiceError(ReproError):
    """The multi-tenant job scheduler failed a job deliberately.

    Usage: the base class of every way :mod:`repro.service` can end a
    job other than successful completion — admission rejection,
    deadline/budget enforcement, unresumable preemption.  Catch it
    around a whole schedule to handle "the scheduler said no" in one
    place while letting device failures inside jobs
    (:class:`DeviceError`) keep their own recovery semantics.
    """


class JobRejectedError(ServiceError):
    """Admission control refused the job; it never ran.

    Usage: raised by :meth:`repro.service.JobQueue.admit` (and thus by
    :meth:`repro.service.PushService.submit`) under overload — queue
    capacity reached with no lower-priority job to evict, a tenant over
    its fair share, or a job spec the fleet can never satisfy.  The
    message carries the reason.  Rejection is a *backpressure signal*,
    not a crash: resubmit later, lower the ask, or raise the priority.
    """


class JobDeadlineError(ServiceError):
    """A job exceeded its deadline or its simulated-time budget.

    Usage: raised (and recorded on the :class:`~repro.service.JobReport`)
    when a job's completion would land past ``arrival +
    deadline_seconds`` on the simulated clock, or when its accumulated
    device seconds exceed ``budget_seconds``.  The job's state is
    whatever its last completed step left (checkpoints are kept for
    inspection); retrying needs a longer deadline, a bigger budget, or
    a smaller job.
    """


class JobPreemptedError(ServiceError):
    """A job was displaced by higher-priority work and not resumed.

    Usage: raised when admission control evicts a still-queued job to
    admit a higher-priority one, or when a running job exhausts the
    scheduler's preemption allowance (``max_preemptions``).  Ordinary
    preemption is *not* an error — the job is checkpointed, requeued
    and resumed, and only ``JobReport.preemptions`` records it.
    """


class TraceError(ReproError):
    """The observability layer was driven through an invalid transition.

    Usage: unbalanced :meth:`~repro.observability.tracer.Tracer.end_span`
    calls or a simulated slice ending before it starts.  Prefer the
    context managers (``tracer.span(...)``,
    :func:`~repro.observability.tracer.trace_span`) over manual
    begin/end pairs — they cannot produce this error.
    """
