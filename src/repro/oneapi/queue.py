"""SYCL-like queue: submit kernels, get real results and simulated times.

A :class:`Queue` binds a simulated device, a cost model, a USM memory
manager and a scheduling policy.  ``parallel_for`` optionally executes a
real (vectorized numpy) kernel body — so the physics is genuine — while
the launch is *timed* by the cost model against the declared
:class:`~repro.oneapi.kernelspec.KernelSpec`.

The queue also models the two runtimes the paper compares:

* ``runtime="dpcpp"`` — TBB dynamic scheduling (or NUMA arenas when
  ``RuntimeConfig.cpu_places == "numa_domains"``, the paper's
  ``DPCPP_CPU_PLACES`` knob), kernel JIT on first launch;
* ``runtime="openmp"`` — the reference implementation: static
  scheduling, no JIT, no dynamic-runtime penalty.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, FrozenSet, Iterable, List, Optional, Tuple

from ..errors import ConfigurationError, KernelError
from ..fp import Precision
from ..observability.tracer import active_tracer
from ..resilience.faults import active_fault_injector
from .costmodel import CostModel, LaunchTiming
from .device import DeviceDescriptor, DeviceType
from .events import SimEvent, Timeline
from .kernelspec import KernelSpec
from .memory import UsmMemoryManager
from .programcache import ProgramCache, ProgramKey
from .scheduler import (DynamicScheduler, GpuScheduler, NumaArenaScheduler,
                        Scheduler, StaticScheduler, ThreadTopology)

__all__ = ["RuntimeConfig", "KernelLaunchRecord", "CommandRecord", "Queue"]

#: Value of the environment variable the paper sets for NUMA arenas.
NUMA_DOMAINS = "numa_domains"

#: Sequence numbers distinguishing trace tracks of queues that share a
#: device (each queue owns one simulated-timeline row in a trace).
_QUEUE_SEQ = itertools.count()


@dataclass
class RuntimeConfig:
    """Launch-time configuration of a queue.

    Attributes:
        runtime: "dpcpp" or "openmp" (the reference parallelisation).
        cpu_places: "" or "numa_domains" — mirrors the
            ``DPCPP_CPU_PLACES`` environment variable; only meaningful
            for the dpcpp runtime on CPUs.
        units: Compute units (cores) to use; None = all.
        threads_per_unit: Hardware threads per unit; None = all
            (hyperthreading on).
        scheduler: Explicit scheduler override (None = derive from the
            other fields).
        in_order: Queue ordering semantics.  True serializes launches
            (``sycl::queue{property::queue::in_order{}}`` — the
            pattern the paper's port uses); False (DPC++'s default)
            lets independent launches overlap on the simulated
            timeline, ordered only by explicit ``depends_on`` events.
    """

    runtime: str = "dpcpp"
    cpu_places: str = ""
    units: Optional[int] = None
    threads_per_unit: Optional[int] = None
    scheduler: Optional[Scheduler] = None
    in_order: bool = True

    def __post_init__(self) -> None:
        if self.runtime not in ("dpcpp", "openmp"):
            raise ConfigurationError(
                f"runtime must be 'dpcpp' or 'openmp', got {self.runtime!r}")
        if self.cpu_places not in ("", NUMA_DOMAINS):
            raise ConfigurationError(
                f"cpu_places must be '' or {NUMA_DOMAINS!r}, "
                f"got {self.cpu_places!r}")


@dataclass
class KernelLaunchRecord:
    """One completed launch: what ran, on how many items, how long."""

    kernel_name: str
    n_items: int
    precision: Precision
    timing: LaunchTiming
    #: Timeline placement (filled by the queue at submission).
    event: Optional[SimEvent] = None

    @property
    def simulated_seconds(self) -> float:
        """Total simulated wall time of the launch."""
        return self.timing.total_seconds


@dataclass(frozen=True)
class CommandRecord:
    """One entry of a queue's command log: what a command touched.

    The log is the evidence the hazard detector
    (:mod:`repro.validation.hazard`) replays: ``reads``/``writes`` are
    the stream names the command *declared* (via its
    :class:`~repro.oneapi.kernelspec.KernelSpec` for kernels, or the
    explicit sets a :meth:`Queue.memcpy_async` caller passes), and
    ``depends_on`` are the event edges it was ordered after.  A pair of
    commands that conflict on a stream without a ``depends_on`` path
    between them is a race on an out-of-order queue.
    """

    name: str
    event: SimEvent
    reads: FrozenSet[str]
    writes: FrozenSet[str]
    depends_on: Tuple[SimEvent, ...]


class Queue:
    """An in-order queue on one simulated device."""

    def __init__(self, device: DeviceDescriptor,
                 config: Optional[RuntimeConfig] = None,
                 cost_model: Optional[CostModel] = None,
                 program_cache: Optional[ProgramCache] = None) -> None:
        self.device = device
        self.config = config if config is not None else RuntimeConfig()
        self.cost_model = cost_model if cost_model is not None \
            else CostModel(device)
        if self.cost_model.device is not device:
            raise ConfigurationError(
                "cost_model was built for a different device")
        self.memory = UsmMemoryManager()
        self.records: List[KernelLaunchRecord] = []
        #: Submission-ordered log of every command (kernel launches and
        #: async copies) with its declared access sets and dependency
        #: edges — the input of :func:`repro.validation.hazard.find_hazards`.
        self.commands: List[CommandRecord] = []
        self.timeline = Timeline(
            in_order=self.config.in_order,
            label=f"{device.name} [q{next(_QUEUE_SEQ)}]")
        #: Compiled-program registry; pass a shared instance to let
        #: several queues (the shards of a device group) reuse each
        #: other's JIT work, as SYCL's per-context program cache does.
        self.program_cache = program_cache if program_cache is not None \
            else ProgramCache()
        self._topology = ThreadTopology(device, self.config.units,
                                        self.config.threads_per_unit)
        self._scheduler = self._make_scheduler()

    def _make_scheduler(self) -> Scheduler:
        if self.config.scheduler is not None:
            return self.config.scheduler
        if self.device.device_type is DeviceType.GPU:
            return GpuScheduler()
        if self.config.runtime == "openmp":
            return StaticScheduler()
        if self.config.cpu_places == NUMA_DOMAINS:
            return NumaArenaScheduler()
        return DynamicScheduler()

    @property
    def topology(self) -> ThreadTopology:
        """Thread placement this queue launches kernels with."""
        return self._topology

    @property
    def scheduler(self) -> Scheduler:
        """Scheduler derived from the runtime configuration."""
        return self._scheduler

    # -- USM convenience ----------------------------------------------------

    def malloc_shared(self, shape, dtype, name: str = ""):
        """Allocate a shared USM array on this queue."""
        return self.memory.malloc_shared(shape, dtype, name)

    # -- kernel submission ------------------------------------------------

    def parallel_for(self, n_items: int, spec: KernelSpec,
                     kernel: Optional[Callable[[], None]] = None,
                     precision: Precision = Precision.DOUBLE,
                     depends_on: Optional[List[SimEvent]] = None,
                     program_key: Optional[ProgramKey] = None,
                     ) -> KernelLaunchRecord:
        """Launch a kernel over ``n_items`` work items.

        ``kernel`` (if given) is a no-argument callable performing the
        real vectorized work over the full range; it executes exactly
        once.  The simulated time comes from the cost model and the
        queue's scheduling policy.  JIT compile time is charged through
        the queue's :class:`~repro.oneapi.programcache.ProgramCache` on
        the first (cold) build of the launch's program under the dpcpp
        runtime; ``program_key`` overrides the default single-kernel
        identity — the graph executor passes the fused chain's key so a
        fused program compiles once as a whole.  ``depends_on`` orders
        this launch after other launches' events (only meaningful on
        out-of-order queues; an in-order queue serializes regardless).
        """
        if n_items < 0:
            raise KernelError(f"n_items must be >= 0, got {n_items}")
        tracer = active_tracer()
        injector = active_fault_injector()
        if injector is not None:
            # May fail the submit, hang the launch, or poison a USM
            # allocation feeding it; all raise *before* the kernel
            # body runs, so a failed launch never advances physics.
            injector.on_launch(self.device.name, spec)
            injector.check_readable(spec)
        schedule = self._scheduler.schedule(n_items, self._topology)
        if program_key is None:
            program_key = ProgramKey(chain=(spec.name,),
                                     device=self.device.jit_key,
                                     precision=precision.value,
                                     backend=self.device.backend)
        jit_done = (self.config.runtime == "openmp"
                    or self.program_cache.is_warm(program_key))
        if not jit_done and injector is not None:
            # A JIT failure leaves the cache cold: the retry compiles
            # (and is charged for) the kernel again.
            injector.on_jit(spec.name, self.device.name)
        timing = self.cost_model.time_launch(
            spec, schedule, precision=precision, jit_compiled=jit_done)
        if self.config.runtime != "openmp":
            self.program_cache.build(program_key,
                                     self.device.jit_compile_seconds)
            if tracer is not None:
                tracer.program_cache(program_key, warm=jit_done,
                                     stats=self.program_cache.stats)
        if injector is not None:
            factor = injector.launch_slowdown(self.device.name, spec.name)
            if factor is not None:
                slowdown = (factor - 1.0) * timing.total_seconds
                timing.slowdown_seconds = slowdown
                timing.total_seconds += slowdown
        wall_seconds = 0.0
        if kernel is not None:
            if tracer is not None:
                with tracer.span(f"kernel:{spec.name}", "kernel",
                                 n_items=n_items) as span:
                    kernel()
                wall_seconds = span.duration
            else:
                kernel()
        trace_args = None
        if tracer is not None:
            trace_args = {
                "n_items": n_items,
                "precision": precision.value,
                "bound": timing.bound,
                "memory_seconds": timing.memory_seconds,
                "compute_seconds": timing.compute_seconds,
                "scheduling_seconds": timing.scheduling_seconds,
                "jit_seconds": timing.jit_seconds,
                "slowdown_seconds": timing.slowdown_seconds,
                "cold_page_seconds": timing.cold_page_seconds,
                "cold_pages": timing.cold_pages,
                "remote_bytes": timing.remote_bytes,
            }
        event = self.timeline.schedule(spec.name, timing.total_seconds,
                                       depends_on=depends_on,
                                       trace_args=trace_args)
        record = KernelLaunchRecord(spec.name, n_items, precision, timing,
                                    event=event)
        self.records.append(record)
        self.commands.append(CommandRecord(
            name=spec.name, event=event, reads=spec.reads,
            writes=spec.writes, depends_on=tuple(depends_on or ())))
        if tracer is not None:
            tracer.kernel_launch(spec.name, n_items, timing,
                                 wall_seconds=wall_seconds)
        return record

    def submit(self, n_items: int, spec: KernelSpec,
               accessors,
               kernel: Optional[Callable[[], None]] = None,
               precision: Precision = Precision.DOUBLE,
               ) -> KernelLaunchRecord:
        """Launch a kernel declared through buffer accessors.

        The buffer/accessor model of Section 4.2: each
        :class:`~repro.oneapi.buffer.Accessor` carries the bytes the
        runtime had to move to honour the declared access; those are
        charged at the device's ``host_transfer_bandwidth`` on top of
        the ordinary launch time.
        """
        record = self.parallel_for(n_items, spec, kernel=kernel,
                                   precision=precision)
        moved = sum(int(a.transfer_bytes) for a in accessors)
        if moved:
            transfer = moved / self.device.host_transfer_bandwidth
            record.timing.transfer_seconds = transfer
            record.timing.total_seconds += transfer
            tracer = active_tracer()
            if tracer is not None:
                tracer.transfer(spec.name, transfer, moved)
        return record

    def memcpy_async(self, name: str, nbytes: int, *,
                     bandwidth: float, latency: float = 0.0,
                     depends_on: Optional[List[SimEvent]] = None,
                     reads: Iterable[str] = (),
                     writes: Iterable[str] = ()) -> SimEvent:
        """Model an asynchronous copy command on this queue's timeline.

        The simulated analogue of ``sycl::queue::memcpy``: a transfer
        of ``nbytes`` over a link of the given ``bandwidth`` [bytes/s]
        and per-message ``latency`` [s] is placed on the timeline as
        its own command, ordered after ``depends_on`` (on an
        out-of-order queue a copy with no dependencies overlaps freely
        with compute — the mechanism the distributed layer uses to hide
        halo exchange behind push kernels).  Under an active fault
        injector this is an ``exchange-stall`` opportunity: a stalled
        copy raises :class:`~repro.errors.ExchangeTimeoutError`
        *before* anything is charged, so the caller can burn the
        watchdog window and re-issue it.

        ``reads``/``writes`` optionally declare the stream names the
        copy touches, so it participates in hazard detection like a
        kernel launch; an undeclared copy is invisible to the detector.
        """
        if nbytes < 0:
            raise KernelError(f"nbytes must be >= 0, got {nbytes}")
        if bandwidth <= 0.0:
            raise ConfigurationError(
                f"bandwidth must be positive, got {bandwidth!r}")
        if latency < 0.0:
            raise ConfigurationError(
                f"latency must be >= 0, got {latency!r}")
        injector = active_fault_injector()
        if injector is not None:
            injector.on_exchange(self.device.name, name, nbytes)
        seconds = latency + nbytes / bandwidth
        event = self.timeline.schedule(
            name, seconds, depends_on=depends_on,
            trace_args={"bytes": nbytes, "bandwidth": bandwidth,
                        "latency": latency})
        self.commands.append(CommandRecord(
            name=name, event=event, reads=frozenset(reads),
            writes=frozenset(writes), depends_on=tuple(depends_on or ())))
        return event

    def create_buffer(self, data, name: str = ""):
        """Create a :class:`~repro.oneapi.buffer.Buffer` on this queue's
        context (convenience mirroring ``sycl::buffer``)."""
        from .buffer import Buffer
        return Buffer(data, name=name)

    def access(self, buffer, mode):
        """Declare an access of this queue's device to ``buffer``."""
        return buffer.get_access(mode, self.device.name)

    def wait(self) -> None:
        """Block until all submitted commands complete.

        The simulation executes eagerly, so this only exists for API
        familiarity; the simulated completion time is
        ``timeline.makespan``."""

    # -- accounting ------------------------------------------------------------

    def reset_records(self) -> None:
        """Clear launch records, the command log and the timeline
        (keeps JIT cache and page state)."""
        self.records.clear()
        self.commands.clear()
        self.timeline.reset()

    def reset_warmup(self) -> None:
        """Forget JIT compilations and page homes (fresh-process state).

        On a *shared* program cache only this device model's entries
        are dropped — resetting one shard's queue must not chill
        programs other device models compiled.
        """
        self.program_cache.clear(device=self.device.jit_key)
        for allocation in self.memory.allocations():
            allocation.reset_pages()
