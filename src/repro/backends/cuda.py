"""Simulated CUDA backend: in-order streams, graphs, warp occupancy.

The portability claim of the backend layer is only credible if the
second backend differs where real runtimes differ.  This one models a
CUDA-style runtime the way :mod:`repro.oneapi` models DPC++ — same
real numpy physics underneath (the differential harness demands
bit-exact digests across backends), different *timing* semantics:

* **In-order streams.**  A CUDA stream executes its work in submission
  order; concurrency comes from using several streams, not from
  reordering within one.  :class:`CudaStream` therefore always builds
  an in-order timeline, even when a caller (the distributed layer)
  asks for out-of-order — exchange and compute on one simulated card
  serialise, exactly as they would on a single ``cudaStream_t``.
* **Warp-quantised occupancy.**  The SM retires work in warps of 32
  lanes: a remainder of 3 work items still occupies a full warp.
  :meth:`CudaCostModel._occupancy_items` rounds the busiest unit's
  items up to a multiple of :data:`WARP_SIZE` (the oneAPI model
  charges the exact count).  Thread blocks are 128 threads
  (:data:`CUDA_BLOCK_SIZE`), four warps per block.
* **Graph capture and replay.**  The pusher launches the same kernel
  sequence every step — the canonical CUDA-graph workload.  The model
  mirrors ``cudaStreamBeginCapture``/``cudaGraphLaunch``: the first
  :data:`GRAPH_CAPTURE_LAUNCHES` launches of a kernel pay the full
  driver submission cost, after which the launch replays from the
  captured graph at :data:`GRAPH_REPLAY_DISCOUNT` of it.  The
  *steady-state* overhead the planners price is the replay cost.
* **Context initialisation.**  The very first launch on a fresh
  context pays ``cuInit``/primary-context setup
  (:data:`CONTEXT_INIT_SECONDS`) — a one-off on top of JIT, excluded
  from steady-state NSPS by the engines' warm-up iterations.
* **NVRTC JIT.**  Compiling CUDA C++ to PTX and then SASS is slower
  than the SPIR-V -> ISA translation the oneAPI devices pay: 0.5 s
  calibrated, against 0.15-0.3 s.

The two devices are calibrated against public datasheet figures the
same way :mod:`repro.bench.calibration` justifies the paper's devices:

* ``gpu0`` — a V100-class data-center card: 80 SMs at 1.38 GHz boost,
  2 FMA x 64 FP32 lanes per SM per cycle, native 1:2 DP, ~810 GB/s
  achievable of the 900 GB/s HBM2 peak (STREAM-like fraction), 32 B
  memory transaction granularity.
* ``gpu1`` — a T4-class inference card: 40 SMs at 1.35 GHz sustained,
  1:32 DP (the double-precision cliff the portability score has to
  surface), ~220 GB/s achievable of 320 GB/s GDDR6.

Both are discrete cards behind PCIe 3.0 x16 (~12.6 GB/s achievable),
which is what the distributed layer prices halo exchange over.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

from ..distributed.links import LinkDescriptor
from ..errors import ConfigurationError
from ..oneapi.costmodel import CostModel
from ..oneapi.device import DeviceDescriptor, DeviceType
from ..oneapi.kernelspec import KernelSpec
from ..oneapi.queue import Queue, RuntimeConfig
from ..oneapi.scheduler import GpuScheduler
from .base import Backend

__all__ = ["CudaBackend", "CudaCostModel", "CudaStream", "WARP_SIZE",
           "CUDA_BLOCK_SIZE", "GRAPH_CAPTURE_LAUNCHES",
           "GRAPH_REPLAY_DISCOUNT", "CONTEXT_INIT_SECONDS"]

#: SIMT execution width: work is retired in bundles of 32 lanes.
WARP_SIZE = 32

#: Thread-block size the simulated launches use (4 warps — the common
#: default for memory-bound elementwise kernels).
CUDA_BLOCK_SIZE = 128

#: Launches of one kernel before its submission is considered captured
#: into a graph and starts replaying.
GRAPH_CAPTURE_LAUNCHES = 3

#: Fraction of the full driver submission cost a graph replay pays.
GRAPH_REPLAY_DISCOUNT = 0.25

#: One-off cuInit / primary-context creation charged to the first
#: launch on a fresh context (i.e. per cost-model instance).
CONTEXT_INIT_SECONDS = 0.08


def _v100_like() -> DeviceDescriptor:
    """An 80-SM HBM2 data-center card (V100 class)."""
    return DeviceDescriptor(
        name="CUDA GPU0 (V100-class)",
        device_type=DeviceType.GPU,
        compute_units=80,            # SMs
        threads_per_unit=8,          # resident blocks worth of latency hiding
        numa_domains=1,
        clock_hz=1.38e9,             # sustained boost
        flops_per_cycle_sp=128,      # 2 x 64 FP32 FMA lanes per SM
        dp_throughput_ratio=0.5,     # native 1:2 double precision
        vector_efficiency=0.45,      # pusher loop vs. peak FMA issue
        domain_bandwidth=810.0e9,    # STREAM-like fraction of 900 GB/s HBM2
        interconnect_bandwidth=810.0e9,
        unit_bandwidth=12.0e9,       # one SM's share of HBM bandwidth
        smt_bandwidth_boost=1.0,
        smt_domain_efficiency=1.0,
        access_granularity=32,       # L2 sector / memory transaction
        cache_per_domain=6.0e6,      # L2
        write_allocate=True,
        kernel_launch_overhead=8.0e-6,
        jit_compile_seconds=0.5,     # NVRTC -> PTX -> SASS
        host_transfer_bandwidth=12.6e9,   # PCIe 3.0 x16
        backend="cuda",
    )


def _t4_like() -> DeviceDescriptor:
    """A 40-SM GDDR6 inference card (T4 class) with the 1:32 DP cliff."""
    return DeviceDescriptor(
        name="CUDA GPU1 (T4-class)",
        device_type=DeviceType.GPU,
        compute_units=40,
        threads_per_unit=8,
        numa_domains=1,
        clock_hz=1.35e9,
        flops_per_cycle_sp=128,
        dp_throughput_ratio=0.03125,  # 1:32 — consumer-die DP units
        vector_efficiency=0.45,
        domain_bandwidth=220.0e9,     # of 320 GB/s GDDR6 peak
        interconnect_bandwidth=220.0e9,
        unit_bandwidth=9.0e9,
        smt_bandwidth_boost=1.0,
        smt_domain_efficiency=1.0,
        access_granularity=32,
        cache_per_domain=4.0e6,
        write_allocate=True,
        kernel_launch_overhead=8.0e-6,
        jit_compile_seconds=0.5,
        host_transfer_bandwidth=12.6e9,
        backend="cuda",
    )


#: Device factories by bare key, in display order.
_DEVICE_FACTORIES = {
    "gpu0": _v100_like,
    "gpu1": _t4_like,
}


def _pcie3_x16() -> LinkDescriptor:
    """PCIe 3.0 x16 host interface of both simulated cards.

    15.75 GB/s raw per direction; ~12.6 GB/s achievable with pinned
    memory, ~5 us submission latency.
    """
    return LinkDescriptor(name="PCIe 3.0 x16", bandwidth=12.6e9,
                          latency=5.0e-6)


class CudaCostModel(CostModel):
    """CUDA-flavoured timing on top of the shared roofline.

    Overrides the three backend hooks of :class:`CostModel`:

    * occupancy is warp-quantised (:data:`WARP_SIZE`);
    * the steady-state launch overhead the planners price is the
      graph-*replay* cost — a long-running pusher amortises capture
      within its warm-up;
    * the measured path is stateful per instance: launches 1..N of a
      kernel pay full submission (capture), later ones the replay
      discount, and the first launch ever also pays context init.

    One instance corresponds to one CUDA context: a fresh stream gets a
    fresh model, so context init and capture state never leak between
    runs (mirrored by :meth:`CudaBackend.make_queue` building a new
    model per stream).
    """

    def __init__(self, device: DeviceDescriptor) -> None:
        # GPUs pay strided access on the bandwidth side; 32 B sectors
        # make partial transactions cheaper than the 64 B oneAPI GPUs.
        super().__init__(device,
                         static_launch_barrier=3.0e-6,
                         gpu_strided_efficiency=0.7,
                         cold_line_latency=1.0e-7)
        self._launches_by_kernel: Dict[str, int] = {}
        self._context_initialized = False

    def _occupancy_items(self, busiest: float) -> float:
        if busiest <= 0.0:
            return busiest
        return float(math.ceil(busiest / WARP_SIZE) * WARP_SIZE)

    def _steady_launch_overhead(self) -> float:
        return self.device.kernel_launch_overhead * GRAPH_REPLAY_DISCOUNT

    def _measured_launch_overhead(self, spec: KernelSpec) -> float:
        count = self._launches_by_kernel.get(spec.name, 0)
        self._launches_by_kernel[spec.name] = count + 1
        if count < GRAPH_CAPTURE_LAUNCHES:
            overhead = self.device.kernel_launch_overhead
        else:
            overhead = self.device.kernel_launch_overhead \
                * GRAPH_REPLAY_DISCOUNT
        if not self._context_initialized:
            self._context_initialized = True
            overhead += CONTEXT_INIT_SECONDS
        return overhead


class CudaStream(Queue):
    """A CUDA stream: an in-order queue, always.

    Callers that request out-of-order ordering (the distributed
    layer's exchange/compute overlap) still get an in-order timeline —
    within one stream, CUDA serialises; the hazard detector and the
    makespan both see that semantic difference.
    """

    def __init__(self, device: DeviceDescriptor,
                 config: Optional[RuntimeConfig] = None,
                 cost_model: Optional[CostModel] = None,
                 program_cache=None) -> None:
        if config is None:
            config = RuntimeConfig()
        if not config.in_order:
            # Single-stream CUDA semantics: demote, don't reject — the
            # distributed layer asks generically and must keep working.
            config = RuntimeConfig(
                runtime=config.runtime, cpu_places=config.cpu_places,
                units=config.units,
                threads_per_unit=config.threads_per_unit,
                scheduler=config.scheduler, in_order=True)
        if config.scheduler is None:
            config.scheduler = GpuScheduler(workgroup_size=CUDA_BLOCK_SIZE)
        super().__init__(device, config=config, cost_model=cost_model,
                         program_cache=program_cache)


class CudaBackend(Backend):
    """The simulated CUDA runtime."""

    name = "cuda"

    def device_keys(self) -> Tuple[str, ...]:
        return tuple(_DEVICE_FACTORIES)

    def device(self, key: str) -> DeviceDescriptor:
        try:
            factory = _DEVICE_FACTORIES[key.lower()]
        except KeyError:
            raise ConfigurationError(
                f"unknown cuda device {key!r}; expected one of "
                f"{tuple(_DEVICE_FACTORIES)}") from None
        return factory()

    def cost_model(self, device: DeviceDescriptor) -> CudaCostModel:
        return CudaCostModel(device)

    def make_queue(self, device: DeviceDescriptor, *,
                   program_cache=None,
                   threads_per_unit: Optional[int] = None,
                   out_of_order: bool = False) -> CudaStream:
        # out_of_order is accepted and ignored: CudaStream demotes to
        # in-order (see class docstring).
        config = RuntimeConfig(runtime="dpcpp",
                               threads_per_unit=threads_per_unit,
                               in_order=not out_of_order)
        return CudaStream(device, config=config,
                          cost_model=self.cost_model(device),
                          program_cache=program_cache)

    def host_link(self, key: str) -> LinkDescriptor:
        if key.lower() not in _DEVICE_FACTORIES:
            raise ConfigurationError(
                f"cuda backend has no host link for device {key!r}; "
                f"known: {tuple(_DEVICE_FACTORIES)}")
        return _pcie3_x16()
