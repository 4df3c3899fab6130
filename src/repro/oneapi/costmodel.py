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

All tunable constants default to physically motivated values and are
overridden per device in :mod:`repro.bench.calibration`, where each
choice is documented against the paper number it was fitted to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import KernelError, MemoryModelError
from ..fp import Precision
from .device import DeviceDescriptor, DeviceType
from .kernelspec import KernelSpec, MemoryStream, StreamKind
from .scheduler import Schedule

__all__ = ["CostModel", "LaunchTiming"]

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
    # overhead the *predictors* assume (graph replay amortisation), and
    # the per-launch overhead the *measured* path charges (which may be
    # stateful — capture thresholds, one-off context initialisation).

    def _occupancy_items(self, busiest: float) -> float:
        """Occupancy-quantised work items on the busiest compute unit.

        The oneAPI model charges exactly the scheduled items; backends
        whose hardware retires work in fixed-size bundles (CUDA warps)
        round up here, on both the measured and predicted paths.
        """
        return busiest

    def _steady_launch_overhead(self) -> float:
        """Per-launch overhead a warm steady-state launch pays.

        Used by :meth:`estimate_spec_seconds` and
        :meth:`predict_launch_seconds` — the planning/tuning paths that
        price the configuration a long run converges to.
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

    def _stream_multiplier(self, stream: MemoryStream) -> float:
        """DRAM traffic per span byte for one stream."""
        if stream.kind is StreamKind.READ:
            return 1.0
        if stream.kind is StreamKind.READ_WRITE:
            return 2.0           # read once + write back
        # WRITE: write-allocate reads the line before the store.
        return 2.0 if self.device.write_allocate else 1.0

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

    def _domain_bandwidth(self, schedule: Schedule, domain: int) -> float:
        """Achievable DRAM bandwidth of one domain for this schedule."""
        topo = schedule.topology
        units = topo.active_units_in_domain(domain)
        if units == 0:
            return self.device.domain_bandwidth
        per_unit = self.device.unit_bandwidth
        domain_cap = self.device.domain_bandwidth
        if topo.threads_per_unit >= 2:
            per_unit *= self.device.smt_bandwidth_boost
        else:
            domain_cap *= self.device.smt_domain_efficiency
        return min(domain_cap, units * per_unit)

    # -- planning estimates ----------------------------------------------

    def estimate_spec_seconds(self, spec: KernelSpec, n_items: int,
                              precision: Precision = Precision.DOUBLE
                              ) -> float:
        """Rough steady-state cost of one launch of ``spec``, no schedule.

        The fusion planner (:class:`repro.oneapi.graph.FusionPass`)
        prices candidate kernels before any schedule or page state
        exists, so this estimate assumes the whole device at full
        occupancy with local pages: traffic over aggregate bandwidth
        (with the cache-residency boost the full model applies, so the
        planner notices when a *fused* working set falls out of cache)
        versus flops over aggregate throughput, plus the per-launch
        overhead — the term fusion actually eliminates.  Warm-up costs
        (JIT, first touch) are excluded: they are one-off and identical
        in total either way.
        """
        if n_items < 0:
            raise KernelError(f"n_items must be >= 0, got {n_items}")
        device = self.device
        traffic = sum(n_items * s.span_bytes_per_item
                      * self._stream_multiplier(s)
                      / self._stream_efficiency(s)
                      for s in spec.streams)
        bandwidth = device.total_bandwidth
        if (spec.working_set_bytes_per_item * n_items
                < device.cache_per_domain * device.numa_domains):
            bandwidth *= 4.0
        memory_time = traffic / bandwidth
        flops_item = spec.flops_per_item
        if spec.has_strided_streams \
                and device.device_type is DeviceType.CPU:
            flops_item *= self.strided_compute_penalty
        compute_time = (n_items * flops_item
                        / device.achievable_flops(precision,
                                                  device.compute_units))
        return max(memory_time, compute_time) \
            + self._steady_launch_overhead()

    def predict_launch_seconds(self, spec: KernelSpec, n_items: int,
                               precision: Precision = Precision.DOUBLE,
                               units: Optional[int] = None,
                               threads_per_unit: Optional[int] = None
                               ) -> float:
        """Predict one *warm* steady-state launch, no schedule or pages.

        Where :meth:`estimate_spec_seconds` is the fusion planner's
        comparator (pure kernel cost, overheads excluded so margins
        compare kernels, not runtimes), this is the autotuner's
        measurement predictor: it adds the terms a warm launch of the
        facade's configuration actually pays —

        * the runtime's scheduling overhead (per-chunk TBB bookkeeping
          on CPUs, the work-group dispatch barrier on GPUs) and the
          dynamic-runtime efficiency penalty;
        * per-domain bandwidth walls, SMT effects included: one thread
          per unit forfeits the SMT bandwidth boost *and* pays the
          domain-efficiency discount, exactly as
          :meth:`_domain_bandwidth` charges a real schedule;
        * NUMA blindness: the plain-DPC++ dynamic schedule scatters
          chunks across sockets while first-touch homes pages
          uniformly, so ``1 - 1/numa_domains`` of the traffic crosses
          the interconnect — usually the binding constraint on the
          two-socket CPU, as in the paper's non-NUMA DPC++ rows.

        ``units``/``threads_per_unit`` default to the whole device
        (the facade's occupancy); pass ``threads_per_unit=1`` to
        predict an SMT-off run.
        """
        if n_items < 0:
            raise KernelError(f"n_items must be >= 0, got {n_items}")
        device = self.device
        if units is None:
            units = device.compute_units
        tpu = device.threads_per_unit if threads_per_unit is None \
            else threads_per_unit
        if units < 1 or tpu < 1:
            raise KernelError("units and threads_per_unit must be >= 1")
        n_threads = units * tpu

        # -- memory side: per-domain walls, mirroring _domain_bandwidth --
        traffic = sum(n_items * s.span_bytes_per_item
                      * self._stream_multiplier(s)
                      / self._stream_efficiency(s)
                      for s in spec.streams)
        per_unit = device.unit_bandwidth
        domain_cap = device.domain_bandwidth
        if tpu >= 2:
            per_unit *= device.smt_bandwidth_boost
        else:
            domain_cap *= device.smt_domain_efficiency
        domains = device.numa_domains
        units_per_domain = max(1, units // domains)
        domain_bw = min(domain_cap, units_per_domain * per_unit)
        cache_resident = (spec.working_set_bytes_per_item * n_items
                          < device.cache_per_domain * domains)
        if cache_resident:
            domain_bw *= 4.0     # same LLC-streaming boost as _finish
        memory_time = (traffic / domains) / domain_bw if traffic else 0.0
        if domains > 1 and traffic:
            remote = traffic * (domains - 1) / domains
            memory_time = max(memory_time,
                              remote / device.interconnect_bandwidth)

        # -- compute side ------------------------------------------------
        flops_item = spec.flops_per_item
        if spec.has_strided_streams \
                and device.device_type is DeviceType.CPU:
            flops_item *= self.strided_compute_penalty
        per_unit_flops = device.clock_hz * device.flops_per_cycle_sp \
            * device.vector_efficiency
        if precision is Precision.DOUBLE:
            per_unit_flops *= device.dp_throughput_ratio
        if device.device_type is DeviceType.GPU:
            # Work-group occupancy: fixed-size groups dispatch
            # round-robin over EU hardware threads (GpuScheduler), so
            # a small grid piles sibling groups onto few EUs instead
            # of spreading across all of them — the busiest EU, not
            # the mean, sets the compute time.
            from .scheduler import DEFAULT_WORKGROUP_SIZE as wg
            chunks = -(-n_items // wg) if n_items else 0
            per_thread = -(-chunks // n_threads) if chunks else 0
            busiest = min(n_items, tpu * per_thread * wg)
        else:
            busiest = n_items / units
        compute_time = self._occupancy_items(busiest) * flops_item \
            / per_unit_flops

        # -- scheduling and runtime overheads ----------------------------
        if device.device_type is DeviceType.CPU:
            # The facade's plain-DPC++ CPU path is TBB-dynamic.
            penalty = (1.0 / self.dynamic_efficiency
                       + self.single_thread_excess / n_threads)
            memory_time *= penalty
            compute_time *= penalty
            # auto_partitioner grain: 16 grains per thread (the
            # DynamicScheduler default), claimed round-robin.
            grain = max(1, n_items // (n_threads * 16))
            chunks = -(-n_items // grain) if n_items else 0
            scheduling = -(-chunks // n_threads) \
                * self.dynamic_chunk_overhead
        else:
            scheduling = self.static_launch_barrier
        return max(memory_time, compute_time) + scheduling \
            + self._steady_launch_overhead()

    # -- the launch ---------------------------------------------------------

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
        timing = LaunchTiming()
        device = self.device

        # ---- 1. walk chunks: locality, first-touch, traffic ------------
        dram_bytes: Dict[int, float] = {d: 0.0 for d
                                        in range(device.numa_domains)}
        remote_total = 0.0
        local_total = 0.0
        cold_pages = 0
        if device.numa_domains == 1:
            # Single memory domain: every access is local, so the
            # per-chunk walk collapses to whole-range accounting (the
            # GPU schedules have tens of thousands of work-groups).
            for stream in spec.streams:
                span = stream.span_bytes_per_item
                traffic = (schedule.n_items * span
                           * self._stream_multiplier(stream)
                           / self._stream_efficiency(stream))
                dram_bytes[0] += traffic
                local_total += traffic
                if stream.allocation is not None and update_pages:
                    end = min(int(schedule.n_items * span),
                              stream.allocation.nbytes)
                    cold_pages += stream.allocation.touch(0, end, 0)
            return self._finish(timing, spec, schedule, precision,
                                jit_compiled, dram_bytes, remote_total,
                                local_total, cold_pages)
        dram_bytes, remote_total, local_total, cold_pages = \
            self._walk_domains(spec, schedule, update_pages)
        return self._finish(timing, spec, schedule, precision, jit_compiled,
                            dram_bytes, remote_total, local_total, cold_pages)

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
            traffic[:, index] = (schedule.sizes * stream.span_bytes_per_item
                                 * self._stream_multiplier(stream)
                                 / self._stream_efficiency(stream))
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

    def _finish(self, timing: LaunchTiming, spec: KernelSpec,
                schedule: Schedule, precision: Precision,
                jit_compiled: bool, dram_bytes: Dict[int, float],
                remote_total: float, local_total: float,
                cold_pages: int) -> LaunchTiming:
        """Combine traffic accounting into the roofline timing."""
        device = self.device
        topo = schedule.topology

        # ---- 2. memory time ------------------------------------------------
        total_traffic = sum(dram_bytes.values())
        cache_resident = (spec.working_set_bytes_per_item * schedule.n_items
                          < device.cache_per_domain * device.numa_domains)
        dram_times = []
        for domain, load in dram_bytes.items():
            bandwidth = self._domain_bandwidth(schedule, domain)
            if cache_resident:
                bandwidth *= 4.0     # LLC streams ~4x faster than DRAM
            dram_times.append(load / bandwidth if load else 0.0)
        memory_time = max(dram_times) if dram_times else 0.0
        if device.numa_domains > 1 and remote_total > 0.0:
            memory_time = max(memory_time,
                              remote_total / device.interconnect_bandwidth)

        # ---- 3. compute time -------------------------------------------------
        flops_item = spec.flops_per_item
        if spec.has_strided_streams \
                and device.device_type is DeviceType.CPU:
            flops_item *= self.strided_compute_penalty
        per_unit_flops = device.clock_hz * device.flops_per_cycle_sp \
            * device.vector_efficiency
        if precision is Precision.DOUBLE:
            per_unit_flops *= device.dp_throughput_ratio
        busiest = max(schedule.items_per_unit().values(), default=0)
        compute_time = self._occupancy_items(busiest) * flops_item \
            / per_unit_flops

        # ---- 4. scheduling and runtime overheads ---------------------------
        if schedule.dynamic:
            scheduling = (schedule.max_chunks_on_a_thread()
                          * self.dynamic_chunk_overhead)
            penalty = (1.0 / self.dynamic_efficiency
                       + self.single_thread_excess / topo.n_threads)
            memory_time *= penalty
            compute_time *= penalty
        else:
            scheduling = self.static_launch_barrier

        # ---- 5. warm-up and launch overhead --------------------------------
        jit = 0.0 if jit_compiled else device.jit_compile_seconds
        cold = cold_pages * self.cold_line_latency * _LINES_PER_PAGE
        overhead = self._measured_launch_overhead(spec)

        timing.memory_seconds = memory_time
        timing.compute_seconds = compute_time
        timing.scheduling_seconds = scheduling
        timing.launch_overhead_seconds = overhead
        timing.jit_seconds = jit
        timing.cold_page_seconds = cold
        timing.bytes_moved = total_traffic
        timing.remote_bytes = remote_total
        timing.local_bytes = local_total
        timing.cold_pages = cold_pages
        timing.bound = "memory" if memory_time >= compute_time else "compute"
        timing.total_seconds = (max(memory_time, compute_time) + scheduling
                                + overhead + jit + cold)
        return timing


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
    hi = np.minimum(np.stack([(schedule.ends * span).astype(np.int64)
                              for span in spans], axis=1).ravel(),
                    allocation.nbytes)
    if np.any(lo > hi):
        bad = np.flatnonzero(lo > hi)[0]
        raise MemoryModelError(
            f"byte range [{lo[bad]}, {hi[bad]}) outside allocation "
            f"{allocation.name!r} of {allocation.nbytes} bytes")
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
