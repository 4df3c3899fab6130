"""Roofline cost model: simulated kernel times on simulated devices.

For every kernel launch the model combines

* the :class:`~repro.oneapi.kernelspec.KernelSpec` (bytes and flops per
  work item),
* the :class:`~repro.oneapi.scheduler.Schedule` (which thread — hence
  which compute unit and NUMA domain — executes which items),
* the USM page state (which domain each touched page is homed in),
* and the :class:`~repro.oneapi.device.DeviceDescriptor`

into a :class:`LaunchTiming`:

``total = max(memory_time, compute_time) + scheduling + warm-up``

with

* ``memory_time`` — the slowest NUMA domain's DRAM traffic over its
  achievable bandwidth (itself capped by per-core bandwidth at low
  thread counts — the Fig. 1 mechanism), or the cross-domain traffic
  over the UPI bandwidth, whichever is worse;
* ``compute_time`` — the busiest compute unit's flops over its
  sustained vector throughput;
* scheduling — per-chunk dynamic overhead plus the TBB runtime
  efficiency factor (the paper's "~10% on average" DPC++ gap), with an
  extra penalty at very low thread counts (the slow DPC++ single-core
  baseline that makes Fig. 1's DPC++ speedup super-linear);
* warm-up — JIT compilation on a kernel's first launch and cold-page
  (first-touch) cost, together the paper's "first iteration takes 50%
  longer" effect.

One routine, :meth:`CostModel._price`, computes those terms from a
:class:`_Load`, built either from a real schedule and page state
(:meth:`CostModel.time_launch`) or analytically
(:meth:`CostModel.estimate_spec_seconds`, the fusion planner's and the
autotuner's predictor), so prediction and measurement cannot drift.

All tunable constants default to physically motivated values and are
overridden per device in :mod:`repro.bench.calibration`, where each
choice is documented against the paper number it was fitted to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from ..errors import KernelError, MemoryModelError
from ..fp import Precision
from .device import DeviceDescriptor, DeviceType
from .kernelspec import KernelSpec, MemoryStream, StreamKind
from .scheduler import DEFAULT_WORKGROUP_SIZE, Schedule

__all__ = ["CostModel", "LaunchTiming", "stream_multiplier"]

#: Cache lines per small page (4096 / 64).
_LINES_PER_PAGE = 64


@dataclass
class LaunchTiming:
    """Timing breakdown of one simulated kernel launch (seconds)."""

    total_seconds: float = 0.0
    memory_seconds: float = 0.0
    compute_seconds: float = 0.0
    scheduling_seconds: float = 0.0
    jit_seconds: float = 0.0
    cold_page_seconds: float = 0.0
    launch_overhead_seconds: float = 0.0
    #: Host<->device copy time for buffer/accessor submissions.
    transfer_seconds: float = 0.0
    #: Extra time from an injected transient slowdown of this launch.
    slowdown_seconds: float = 0.0
    #: Backoff + watchdog time folded in by the recovery layer when
    #: earlier attempts of this launch failed (see repro.resilience).
    recovery_seconds: float = 0.0
    #: DRAM traffic actually moved [bytes], all domains.
    bytes_moved: float = 0.0
    #: Bytes that crossed the NUMA interconnect.
    remote_bytes: float = 0.0
    #: Bytes served from pages homed in the executing domain.
    local_bytes: float = 0.0
    #: Pages first-touched by this launch.
    cold_pages: int = 0
    #: Whether memory or compute dominated the roofline.
    bound: str = "memory"

    def nsps(self, n_items: int, steps_per_launch: int = 1) -> float:
        """Nanoseconds per item per step for this launch."""
        if n_items <= 0 or steps_per_launch <= 0:
            raise KernelError("n_items and steps_per_launch must be positive")
        return self.total_seconds * 1.0e9 / (n_items * steps_per_launch)


def stream_multiplier(stream: MemoryStream, write_allocate: bool) -> float:
    """DRAM traffic per span byte of one stream.

    A READ moves its span once and a READ_WRITE twice (read, then write
    back).  A WRITE moves it twice on a ``write_allocate`` device, whose
    caches read the line before the store, and once otherwise.  The
    cost model and :mod:`repro.oneapi.roofline` both apply this rule.
    """
    if stream.kind is StreamKind.READ:
        return 1.0
    if stream.kind is StreamKind.READ_WRITE:
        return 2.0
    return 2.0 if write_allocate else 1.0


class _Load(NamedTuple):
    """What one launch asks of the device: the pricing core's input."""

    #: Work items (with the spec, decides cache residency).
    n_items: int
    #: DRAM bytes each NUMA domain serves, in domain order.
    dram_bytes: Tuple[float, ...]
    #: Bytes that cross the NUMA interconnect.
    remote_bytes: float
    #: Bytes served from pages homed in the executing domain.
    local_bytes: float
    #: Pages this launch first-touches.
    cold_pages: int
    #: Busy compute units in each domain, in domain order.
    active_units: Tuple[int, ...]
    threads_per_unit: int
    n_threads: int
    #: Work items on the busiest compute unit.
    busiest_unit_items: float
    #: Whether a dynamic (TBB-style) runtime deals the chunks.
    dynamic: bool
    #: Chunks the busiest thread claims.
    busiest_thread_chunks: int


class CostModel:
    """Times kernel launches on one device.

    Args:
        device: The simulated hardware.
        dynamic_chunk_overhead: Seconds of scheduler work per
            dynamically claimed chunk (TBB task bookkeeping).
        static_launch_barrier: Seconds of fork/join barrier per launch
            for static schedules (OpenMP parallel-for entry/exit).
        dynamic_efficiency: Fraction of roofline throughput a dynamic
            (TBB) schedule sustains — cache-refill after chunk
            migration, task-queue contention.  1.0 for static.
        single_thread_excess: Extra relative cost of the TBB runtime at
            low thread counts, decaying as 1/n_threads (makes the
            DPC++ single-core baseline slow, as the paper observes).
        strided_compute_penalty: Compute-side multiplier on CPUs when
            the kernel has strided (AoS) streams — vector loads become
            gathers.  GPUs pay on the bandwidth side instead (see
            ``DeviceDescriptor.strided_access_efficiency`` — modelled
            here via :attr:`gpu_strided_efficiency`).
        gpu_strided_efficiency: Fraction of DRAM bandwidth retained for
            non-contiguous streams on GPUs (partial transactions).
        cold_line_latency: Seconds charged per cache line of a
            first-touched page (lumped page-fault/zero-fill/TLB cost;
            produces the paper's slow first iteration).
    """

    def __init__(self, device: DeviceDescriptor,
                 dynamic_chunk_overhead: float = 0.5e-6,
                 static_launch_barrier: float = 2.0e-6,
                 dynamic_efficiency: float = 0.92,
                 single_thread_excess: float = 0.5,
                 strided_compute_penalty: float = 1.15,
                 gpu_strided_efficiency: float = 0.6,
                 cold_line_latency: float = 2.5e-7) -> None:
        if not 0.0 < dynamic_efficiency <= 1.0:
            raise KernelError("dynamic_efficiency must be in (0, 1]")
        if strided_compute_penalty < 1.0:
            raise KernelError("strided_compute_penalty must be >= 1")
        if not 0.0 < gpu_strided_efficiency <= 1.0:
            raise KernelError("gpu_strided_efficiency must be in (0, 1]")
        self.device = device
        self.dynamic_chunk_overhead = dynamic_chunk_overhead
        self.static_launch_barrier = static_launch_barrier
        self.dynamic_efficiency = dynamic_efficiency
        self.single_thread_excess = single_thread_excess
        self.strided_compute_penalty = strided_compute_penalty
        self.gpu_strided_efficiency = gpu_strided_efficiency
        self.cold_line_latency = cold_line_latency

    # -- backend hooks ---------------------------------------------------
    #
    # A non-oneAPI backend (see repro.backends) subclasses CostModel and
    # overrides these three seams instead of re-deriving the roofline:
    # occupancy quantisation (CUDA warps), the steady-state launch
    # overhead the analytic estimate assumes (graph replay amortisation),
    # and the per-launch overhead a measured launch pays (which may be
    # stateful — capture thresholds, one-off context initialisation).

    def _occupancy_items(self, busiest: float) -> float:
        """Occupancy-quantised work items on the busiest compute unit.

        The oneAPI model charges exactly the scheduled items; backends
        whose hardware retires work in fixed-size bundles (CUDA warps)
        round up here.  :meth:`_price` applies it to measured and
        estimated launches alike.
        """
        return busiest

    def _steady_launch_overhead(self) -> float:
        """Per-launch overhead a warm steady-state launch pays.

        Charged by :meth:`estimate_spec_seconds` — the fusion planner's
        and the autotuner's price of the configuration a long run
        converges to.
        """
        return self.device.kernel_launch_overhead

    def _measured_launch_overhead(self, spec: KernelSpec) -> float:
        """Per-launch overhead charged to one *measured* launch.

        Unlike the steady-state hook this may be stateful: a backend
        can charge one-off setup to the first launch or discount
        overhead only after a repeated launch pattern has been
        captured.  Called exactly once per timed launch.
        """
        return self.device.kernel_launch_overhead

    # -- memory side -----------------------------------------------------

    def _stream_efficiency(self, stream: MemoryStream) -> float:
        """Bandwidth efficiency of one stream's access pattern."""
        if stream.contiguous:
            return 1.0
        if self.device.device_type is DeviceType.GPU:
            return self.gpu_strided_efficiency
        # CPU cores consume the whole record, and the hardware
        # prefetcher handles small constant strides, so AoS costs only
        # its span (already accounted), not extra transactions.
        return 1.0

    def _traffic(self, stream: MemoryStream, items):
        """DRAM bytes one stream moves over ``items`` work items (a
        count, or an array of chunk sizes)."""
        return (items * stream.span_bytes_per_item
                * stream_multiplier(stream, self.device.write_allocate)
                / self._stream_efficiency(stream))

    def _domain_bandwidth(self, units: int, threads_per_unit: int) -> float:
        """Achievable DRAM bandwidth of one domain with ``units`` busy
        compute units, each running ``threads_per_unit`` threads."""
        if units == 0:
            return self.device.domain_bandwidth
        per_unit = self.device.unit_bandwidth
        domain_cap = self.device.domain_bandwidth
        if threads_per_unit >= 2:
            per_unit *= self.device.smt_bandwidth_boost
        else:
            domain_cap *= self.device.smt_domain_efficiency
        return min(domain_cap, units * per_unit)

    # -- the pricing core ------------------------------------------------

    def _price(self, spec: KernelSpec, load: _Load, precision: Precision,
               overhead: float, jit: float) -> LaunchTiming:
        """Turn one launch's load into its roofline timing.

        The only place the memory, compute, scheduling and overhead
        terms are computed: :meth:`time_launch` feeds it the load of a
        real schedule and page state, :meth:`estimate_spec_seconds` an
        analytic one.  ``overhead`` is the per-launch runtime overhead
        and ``jit`` the compile seconds this launch pays.
        """
        device = self.device

        # ---- memory time: the slowest domain, or the interconnect ------
        cache_resident = (spec.working_set_bytes_per_item * load.n_items
                          < device.cache_per_domain * device.numa_domains)
        memory_time = 0.0
        for dram, units in zip(load.dram_bytes, load.active_units):
            if dram:
                bandwidth = self._domain_bandwidth(units,
                                                   load.threads_per_unit)
                if cache_resident:
                    bandwidth *= 4.0     # LLC streams ~4x faster than DRAM
                memory_time = max(memory_time, dram / bandwidth)
        if device.numa_domains > 1 and load.remote_bytes > 0.0:
            memory_time = max(memory_time, load.remote_bytes
                              / device.interconnect_bandwidth)

        # ---- compute time: the busiest unit ------------------------------
        flops_item = spec.flops_per_item
        if spec.has_strided_streams \
                and device.device_type is DeviceType.CPU:
            flops_item *= self.strided_compute_penalty
        per_unit_flops = device.clock_hz * device.flops_per_cycle_sp \
            * device.vector_efficiency
        if precision is Precision.DOUBLE:
            per_unit_flops *= device.dp_throughput_ratio
        compute_time = self._occupancy_items(load.busiest_unit_items) \
            * flops_item / per_unit_flops

        # ---- scheduling and runtime overheads ----------------------------
        if load.dynamic:
            scheduling = (load.busiest_thread_chunks
                          * self.dynamic_chunk_overhead)
            penalty = (1.0 / self.dynamic_efficiency
                       + self.single_thread_excess / load.n_threads)
            memory_time *= penalty
            compute_time *= penalty
        else:
            scheduling = self.static_launch_barrier

        # ---- warm-up -------------------------------------------------------
        cold = load.cold_pages * self.cold_line_latency * _LINES_PER_PAGE
        return LaunchTiming(
            total_seconds=(max(memory_time, compute_time) + scheduling
                           + overhead + jit + cold),
            memory_seconds=memory_time, compute_seconds=compute_time,
            scheduling_seconds=scheduling, jit_seconds=jit,
            cold_page_seconds=cold, launch_overhead_seconds=overhead,
            bytes_moved=sum(load.dram_bytes),
            remote_bytes=load.remote_bytes, local_bytes=load.local_bytes,
            cold_pages=load.cold_pages,
            bound="memory" if memory_time >= compute_time else "compute")

    # -- the analytic load -----------------------------------------------

    def estimate_spec_seconds(self, spec: KernelSpec, n_items: int,
                              precision: Precision = Precision.DOUBLE,
                              threads_per_unit: Optional[int] = None
                              ) -> float:
        """Predict one *warm* steady-state launch, no schedule or pages.

        The fusion planner and the autotuner price kernels before any
        schedule or page state exists, so this builds the load the
        facade's configuration would put on the whole device — every
        unit busy with ``threads_per_unit`` threads (default the
        device's; 1 predicts an SMT-off run), traffic homed uniformly
        over the NUMA domains as the plain-DPC++ dynamic schedule's
        first touch leaves it, the TBB grain (16 per thread) on CPUs,
        :data:`~repro.oneapi.scheduler.DEFAULT_WORKGROUP_SIZE`
        work-groups dealt round-robin on GPUs — and prices it through
        the measured launch's core.  Warm-up (JIT, first touch) is
        excluded: it is one-off, and the same whichever configuration
        runs.
        """
        if n_items < 0:
            raise KernelError(f"n_items must be >= 0, got {n_items}")
        device = self.device
        units = device.compute_units
        tpu = device.threads_per_unit if threads_per_unit is None \
            else threads_per_unit
        if tpu < 1:
            raise KernelError("threads_per_unit must be >= 1")
        n_threads = units * tpu
        domains = device.numa_domains
        traffic = sum(self._traffic(s, n_items) for s in spec.streams)
        cpu = device.device_type is DeviceType.CPU
        if cpu:
            grain = max(1, n_items // (n_threads * 16))
            chunks = -(-n_items // grain)
        else:
            chunks = -(-n_items // DEFAULT_WORKGROUP_SIZE)
        busiest_chunks = -(-chunks // n_threads)
        busiest = n_items / units if cpu \
            else min(n_items, tpu * busiest_chunks * DEFAULT_WORKGROUP_SIZE)
        share = traffic / domains
        load = _Load(
            n_items=n_items, dram_bytes=(share,) * domains,
            remote_bytes=traffic * (domains - 1) / domains,
            local_bytes=share, cold_pages=0,
            active_units=(max(1, units // domains),) * domains,
            threads_per_unit=tpu, n_threads=n_threads,
            busiest_unit_items=busiest, dynamic=cpu,
            busiest_thread_chunks=busiest_chunks)
        return self._price(spec, load, precision,
                           self._steady_launch_overhead(),
                           0.0).total_seconds

    # -- the measured launch ---------------------------------------------

    def time_launch(self, spec: KernelSpec, schedule: Schedule,
                    precision: Precision = Precision.DOUBLE,
                    jit_compiled: bool = True,
                    update_pages: bool = True) -> LaunchTiming:
        """Simulate one launch of ``spec`` under ``schedule``.

        ``jit_compiled=False`` charges the one-off JIT compile time (the
        queue tracks which kernels have been compiled).  Page state in
        the spec's allocations is consulted for NUMA locality and, when
        ``update_pages`` is true, updated by first-touch.
        """
        if self.device.numa_domains == 1:
            # Single memory domain: every access is local, so the
            # per-chunk walk collapses to whole-range accounting (the
            # GPU schedules have tens of thousands of work-groups).
            traffic = 0.0
            cold_pages = 0
            for stream in spec.streams:
                traffic += self._traffic(stream, schedule.n_items)
                if stream.allocation is not None and update_pages:
                    end = min(int(schedule.n_items
                                  * stream.span_bytes_per_item),
                              stream.allocation.nbytes)
                    cold_pages += stream.allocation.touch(0, end, 0)
            walked = ({0: traffic}, 0.0, traffic, cold_pages)
        else:
            walked = self._walk_domains(spec, schedule, update_pages)
        jit = 0.0 if jit_compiled else self.device.jit_compile_seconds
        return self._price(spec, self._schedule_load(schedule, *walked),
                           precision, self._measured_launch_overhead(spec),
                           jit)

    def _walk_domains(self, spec: KernelSpec, schedule: Schedule,
                      update_pages: bool
                      ) -> Tuple[Dict[int, float], float, float, int]:
        """Price every (chunk, stream) pair of a multi-domain launch.

        One numpy pass over all pairs, numbered in walk order
        ``i = chunk * n_streams + stream`` (the schedule's chunk order,
        then the spec's stream order).  Each pair moves ``traffic``
        bytes; the share on pages homed in the executing domain (or not
        yet homed — this access is about to home them) is charged to
        that domain's DRAM, the rest to the majority home of the
        range's remote pages and to the interconnect.  Returns
        ``(dram_bytes, remote_total, local_total, cold_pages)``.

        The result is bit-identical to visiting the pairs one by one:
        a pair sees the page homes left by the pairs before it (see
        :func:`_walk_allocation`), and every float total is a
        sequential ``np.add.accumulate`` in walk order — never the
        pairwise ``np.sum``, whose different rounding would move the
        last bits.
        """
        n_domains = self.device.numa_domains
        streams = spec.streams
        exec_domain = schedule.topology.thread_domains[schedule.threads]
        traffic = np.empty((len(schedule.starts), len(streams)))
        local_frac = np.ones_like(traffic)
        remote_home = np.repeat(exec_domain[:, None], len(streams), axis=1)
        sharing: Dict[int, List[int]] = {}
        for index, stream in enumerate(streams):
            traffic[:, index] = self._traffic(stream, schedule.sizes)
            if stream.allocation is not None:
                sharing.setdefault(id(stream.allocation), []).append(index)
        cold_pages = 0
        for indices in sharing.values():
            local, home, cold = _walk_allocation(
                [streams[i] for i in indices], indices, len(streams),
                schedule, exec_domain, n_domains, update_pages)
            local_frac[:, indices] = local
            remote_home[:, indices] = home
            cold_pages += cold
        local_traffic = (traffic * local_frac).ravel()
        remote_traffic = (traffic * (1.0 - local_frac)).ravel()
        exec_pair = np.repeat(exec_domain, len(streams))
        remote_home = remote_home.ravel()
        dram_bytes = {
            domain: _running_total(
                np.where(exec_pair == domain, local_traffic, 0.0)
                + np.where(remote_home == domain, remote_traffic, 0.0))
            for domain in range(n_domains)}
        return (dram_bytes, _running_total(remote_traffic),
                _running_total(local_traffic), cold_pages)

    def _schedule_load(self, schedule: Schedule, dram_bytes: Dict[int, float],
                       remote_bytes: float, local_bytes: float,
                       cold_pages: int) -> _Load:
        """The load of a real schedule, given its walked traffic
        (``dram_bytes`` keyed by every domain, in order)."""
        topo = schedule.topology
        return _Load(
            n_items=schedule.n_items,
            dram_bytes=tuple(dram_bytes.values()),
            remote_bytes=remote_bytes, local_bytes=local_bytes,
            cold_pages=cold_pages,
            active_units=tuple(topo.active_units_in_domain(domain)
                               for domain in dram_bytes),
            threads_per_unit=topo.threads_per_unit,
            n_threads=topo.n_threads,
            busiest_unit_items=max(schedule.items_per_unit().values(),
                                   default=0),
            dynamic=schedule.dynamic,
            busiest_thread_chunks=(schedule.max_chunks_on_a_thread()
                                   if schedule.dynamic else 0))


def _running_total(values: np.ndarray) -> float:
    """``0.0 + values[0] + values[1] + ...``, added strictly in order."""
    return float(np.add.accumulate(values)[-1]) if values.size else 0.0


def _walk_allocation(streams: List[MemoryStream], indices: List[int],
                     n_streams: int, schedule: Schedule,
                     exec_domain: np.ndarray, n_domains: int,
                     update_pages: bool
                     ) -> Tuple[np.ndarray, np.ndarray, int]:
    """Locality of every (chunk, stream) pair on one USM allocation.

    ``streams`` are the spec's streams over this allocation (their
    spec positions are ``indices``); two streams can share one, e.g. a
    READ and a WRITE of the same array.  Returns per-pair arrays of
    shape ``(n_chunks, len(streams))`` — the local byte fraction and
    the majority home of the remote pages (ties to the lowest domain)
    — plus the number of pages this launch homes.

    First touch is order-sensitive: pair ``i`` sees a page's pre-launch
    home if it has one.  Otherwise, with ``update_pages``, it sees the
    domain of the page's first toucher, the lowest-numbered pair whose
    range covers the page: either an earlier pair, whose touch already
    homed it, or ``i`` itself, whose own domain makes the page local
    (as an untouched page is).  The first toucher homes every fresh
    page once the walk is done.
    """
    from .memory import PAGE_SIZE

    allocation = streams[0].allocation
    spans = [stream.span_bytes_per_item for stream in streams]
    lo = np.stack([(schedule.starts * span).astype(np.int64)
                   for span in spans], axis=1).ravel()
    hi = np.stack([(schedule.ends * span).astype(np.int64)
                   for span in spans], axis=1).ravel()
    if np.any(lo > hi):
        bad = np.flatnonzero(lo > hi)[0]
        raise MemoryModelError(
            f"byte range [{lo[bad]}, {hi[bad]}) runs backwards on "
            f"allocation {allocation.name!r}")
    # A range past the allocation's end touches only what exists of it
    # (a grid-sized stream walked with per-particle chunks): clamp both
    # ends, so a range that starts past the end is empty.
    lo = np.minimum(lo, allocation.nbytes)
    hi = np.minimum(hi, allocation.nbytes)
    walk = (np.arange(len(schedule.starts))[:, None] * n_streams
            + np.asarray(indices)).ravel()
    pair_domain = exec_domain[walk // n_streams]

    # One entry per (pair, page) the pair's byte range overlaps.
    first_page = lo // PAGE_SIZE
    n_pages = np.where(hi > lo, (hi - 1) // PAGE_SIZE + 1 - first_page, 0)
    pair = np.repeat(np.arange(len(lo)), n_pages)
    page = first_page[pair] + np.arange(len(pair)) \
        - np.repeat(np.cumsum(n_pages) - n_pages, n_pages)
    home = allocation.page_domains[page].astype(np.int64)
    if update_pages:
        toucher = np.full(allocation.n_pages, np.iinfo(np.int64).max)
        np.minimum.at(toucher, page, walk[pair])
        fresh = home < 0
        home[fresh] = exec_domain[toucher[page[fresh]] // n_streams]
    if home.size and home.max() >= n_domains:
        raise MemoryModelError(
            f"allocation {allocation.name!r} has pages homed in domain "
            f"{home.max()}, beyond this device's {n_domains}")
    remote = (home >= 0) & (home != pair_domain[pair])
    overlap = (np.minimum(hi[pair], (page + 1) * PAGE_SIZE)
               - np.maximum(lo[pair], page * PAGE_SIZE))
    remote_bytes = np.bincount(pair, weights=overlap * remote,
                               minlength=len(lo))
    total = hi - lo
    local_frac = np.ones(len(lo))
    np.divide(total - remote_bytes, total, out=local_frac, where=total > 0)
    remote_counts = np.bincount(pair[remote] * n_domains + home[remote],
                                minlength=len(lo) * n_domains)
    majority = remote_counts.reshape(-1, n_domains).argmax(axis=1)
    remote_home = np.where(remote_bytes > 0, majority, pair_domain)

    cold = 0
    if update_pages:
        fresh = (allocation.page_domains < 0) \
            & (toucher < np.iinfo(np.int64).max)
        cold = int(np.count_nonzero(fresh))
        allocation.page_domains[fresh] = \
            exec_domain[toucher[fresh] // n_streams]
    shape = (len(schedule.starts), len(streams))
    return local_frac.reshape(shape), remote_home.reshape(shape), cold
