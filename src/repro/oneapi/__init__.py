"""Execution-model simulator of the DPC++/oneAPI runtime.

The paper's evaluation is a story about runtime mechanisms: USM memory
with NUMA first-touch pages, OpenMP-style static versus TBB-style
dynamic scheduling, NUMA arenas (``DPCPP_CPU_PLACES=numa_domains``),
layout-dependent memory traffic, JIT compilation on first kernel
launch, and the roofline of each device.  With no Intel hardware or
DPC++ toolchain available, this subpackage substitutes each mechanism
with an explicit, testable model:

* :mod:`~repro.oneapi.device` — device descriptors (cores/EUs, clocks,
  bandwidths, NUMA domains) mirroring the paper's Table 1;
* :mod:`~repro.oneapi.memory` — the USM allocation model with 4-KiB
  pages and first-touch NUMA placement;
* :mod:`~repro.oneapi.scheduler` — static (OpenMP), dynamic (TBB) and
  NUMA-arena chunk schedulers over an explicit thread topology;
* :mod:`~repro.oneapi.kernelspec` — per-work-item byte and flop
  characterisation of kernels by layout/scenario/precision;
* :mod:`~repro.oneapi.costmodel` — the roofline timing model that
  combines all of the above into simulated kernel times;
* :mod:`~repro.oneapi.queue` / :mod:`~repro.oneapi.runtime` — the
  SYCL-like queue API: kernels execute *for real* on numpy arrays while
  every launch is also timed by the cost model.

Simulated times are what the benchmark harness reports as the paper's
NSPS numbers; the physics produced by the kernels is real.
"""

from .device import DeviceType, DeviceDescriptor
from .memory import UsmKind, UsmAllocation, UsmMemoryManager, PAGE_SIZE
from .scheduler import (
    ThreadTopology,
    Chunk,
    Schedule,
    StaticScheduler,
    DynamicScheduler,
    NumaArenaScheduler,
    GpuScheduler,
)
from .kernelspec import KernelSpec, StreamKind, MemoryStream
from .costmodel import CostModel, LaunchTiming
from .buffer import AccessMode, Accessor, Buffer
from .builders import make_cpu_descriptor, make_gpu_descriptor
from .events import SimEvent, Timeline
from .roofline import RooflinePoint, analyze_kernel
from .queue import Queue, KernelLaunchRecord, RuntimeConfig
from .programcache import CacheStats, ProgramCache, ProgramKey
from .graph import (FusionPass, FusionPlan, GraphExecutor, KernelGraph,
                    KernelNode, fuse_nodes)
from .runtime import (
    PUSH_FLOPS,
    build_push_spec,
    build_step_graph,
    PushEngine,
)

__all__ = [
    "AccessMode",
    "Accessor",
    "Buffer",
    "make_cpu_descriptor",
    "make_gpu_descriptor",
    "RooflinePoint",
    "analyze_kernel",
    "SimEvent",
    "Timeline",
    "PUSH_FLOPS",
    "build_push_spec",
    "build_step_graph",
    "PushEngine",
    "CacheStats",
    "ProgramCache",
    "ProgramKey",
    "FusionPass",
    "FusionPlan",
    "GraphExecutor",
    "KernelGraph",
    "KernelNode",
    "fuse_nodes",
    "DeviceType",
    "DeviceDescriptor",
    "UsmKind",
    "UsmAllocation",
    "UsmMemoryManager",
    "PAGE_SIZE",
    "ThreadTopology",
    "Chunk",
    "Schedule",
    "StaticScheduler",
    "DynamicScheduler",
    "NumaArenaScheduler",
    "GpuScheduler",
    "KernelSpec",
    "StreamKind",
    "MemoryStream",
    "CostModel",
    "LaunchTiming",
    "Queue",
    "KernelLaunchRecord",
    "RuntimeConfig",
]
