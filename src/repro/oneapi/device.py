"""Simulated device descriptors.

A :class:`DeviceDescriptor` carries everything the cost model needs to
time a kernel on a device: compute topology (units, threads, NUMA
domains), clocks, per-unit SIMD throughput, and the memory system
(per-domain DRAM bandwidth, cross-domain interconnect, per-core
bandwidth limits, access-granularity for coalescing analysis).

The concrete descriptors for the paper's hardware (Table 1: 2x Xeon
Platinum 8260L, Intel P630, Iris Xe Max) live in
:mod:`repro.bench.calibration`, together with the justification of
every number.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import ConfigurationError
from ..fp import Precision

__all__ = ["DeviceType", "DeviceDescriptor"]


class DeviceType(enum.Enum):
    """Kind of compute device."""

    CPU = "cpu"
    GPU = "gpu"


@dataclass(frozen=True)
class DeviceDescriptor:
    """Static hardware description used by the cost model.

    Attributes:
        name: Display name ("2x Xeon Platinum 8260L", ...).
        device_type: CPU or GPU.
        compute_units: Physical cores (CPU) or execution units (GPU),
            total across all domains.
        threads_per_unit: Hardware threads per unit (2 with
            hyperthreading; 7 on Gen9 EUs).
        numa_domains: Memory domains (CPU sockets; 1 for the GPUs here).
        clock_hz: Sustained all-core/EU clock under vector load [Hz].
        flops_per_cycle_sp: Peak single-precision flops per unit per
            cycle (e.g. 2 AVX-512 FMA ports x 16 lanes x 2 = 64 on
            Cascade Lake; 16 on a Gen9 EU).
        dp_throughput_ratio: Double- to single-precision throughput
            ratio (0.5 for native DP; ~0.03 when DP is emulated, as on
            Iris Xe Max).
        vector_efficiency: Fraction of peak vector throughput the
            compiled pusher loop achieves (calibration constant; real
            loops never reach peak because of dependency chains and
            non-FMA operations).
        domain_bandwidth: Achievable DRAM bandwidth of one NUMA domain
            [bytes/s] (STREAM-like, not the theoretical peak).
        interconnect_bandwidth: Achievable cross-domain (UPI) bandwidth
            [bytes/s], all links combined; irrelevant when
            ``numa_domains == 1``.
        unit_bandwidth: Bandwidth one unit can extract by itself
            [bytes/s] (line-fill-buffer limited on CPUs); this is what
            makes low-core-count runs compute the Fig. 1 shape.
        smt_bandwidth_boost: Multiplier on ``unit_bandwidth`` when both
            hardware threads of a unit are active (latency hiding; >1).
        smt_domain_efficiency: Fraction of ``domain_bandwidth``
            achievable with only one thread per unit — even a full
            socket of single-threaded cores keeps fewer memory requests
            in flight than with SMT, which is why the paper finds 96
            threads on 48 cores "empirically the best".  1.0 disables
            the effect (GPUs).
        access_granularity: Memory transaction size [bytes] used by the
            coalescing model (cache line / GPU transaction).
        cache_per_domain: Last-level cache per domain [bytes]; working
            sets below this are considered cache-resident.
        write_allocate: Whether a streaming store still reads the line
            first (true for ordinary stores on these CPUs/GPUs); makes
            a write cost 2x its bytes.
        kernel_launch_overhead: Fixed host-side cost per kernel launch
            [s] (SYCL runtime submission, barriers).
        jit_compile_seconds: One-off cost of the first launch of each
            kernel (SPIR-V to ISA JIT).
        host_transfer_bandwidth: Host<->device copy bandwidth [bytes/s]
            used by the buffer/accessor model.  Effectively infinite
            for CPUs and integrated GPUs sharing host DRAM; PCIe-bound
            for discrete cards (the Iris Xe Max).
        model: Hardware model identity shared by all cards of the same
            kind.  A :class:`~repro.distributed.DeviceGroup` renames
            its member copies ("Iris Xe Max #1"), but a JIT-compiled
            program is valid on every card of the model, so program
            caching keys on :attr:`jit_key`, which prefers this field.
            Empty means "the name is the model" (the single-device
            case).
        backend: Name of the runtime backend that owns this device
            (see :mod:`repro.backends`).  Program-cache keys carry it
            so a kernel chain compiled by one backend is never a warm
            hit for another — a SPIR-V program and a cubin are
            different artefacts even for the same chain.
    """

    name: str
    device_type: DeviceType
    compute_units: int
    threads_per_unit: int
    numa_domains: int
    clock_hz: float
    flops_per_cycle_sp: float
    dp_throughput_ratio: float
    vector_efficiency: float
    domain_bandwidth: float
    interconnect_bandwidth: float
    unit_bandwidth: float
    smt_bandwidth_boost: float
    smt_domain_efficiency: float = 1.0
    access_granularity: int = 64
    cache_per_domain: float = 32.0e6
    write_allocate: bool = True
    kernel_launch_overhead: float = 5.0e-6
    jit_compile_seconds: float = 0.15
    host_transfer_bandwidth: float = 1.0e15
    model: str = ""
    backend: str = "oneapi"

    def __post_init__(self) -> None:
        if self.compute_units < 1:
            raise ConfigurationError(f"compute_units must be >= 1, "
                                     f"got {self.compute_units}")
        if self.numa_domains < 1:
            raise ConfigurationError(f"numa_domains must be >= 1, "
                                     f"got {self.numa_domains}")
        if self.compute_units % self.numa_domains != 0:
            raise ConfigurationError(
                f"compute_units ({self.compute_units}) must divide evenly "
                f"into numa_domains ({self.numa_domains})")
        if self.threads_per_unit < 1:
            raise ConfigurationError(f"threads_per_unit must be >= 1, "
                                     f"got {self.threads_per_unit}")
        for attr in ("clock_hz", "flops_per_cycle_sp", "domain_bandwidth",
                     "unit_bandwidth"):
            if getattr(self, attr) <= 0.0:
                raise ConfigurationError(f"{attr} must be positive")
        if not 0.0 < self.vector_efficiency <= 1.0:
            raise ConfigurationError(
                f"vector_efficiency must be in (0, 1], "
                f"got {self.vector_efficiency}")
        if not 0.0 < self.dp_throughput_ratio <= 1.0:
            raise ConfigurationError(
                f"dp_throughput_ratio must be in (0, 1], "
                f"got {self.dp_throughput_ratio}")

    @property
    def jit_key(self) -> str:
        """Program-cache identity: the model when set, else the name."""
        return self.model or self.name

    @property
    def units_per_domain(self) -> int:
        """Compute units in each NUMA domain."""
        return self.compute_units // self.numa_domains

    @property
    def total_bandwidth(self) -> float:
        """Aggregate DRAM bandwidth across all domains [bytes/s]."""
        return self.domain_bandwidth * self.numa_domains

    def peak_flops(self, precision: Precision) -> float:
        """Theoretical peak flops of the whole device at a precision."""
        sp = self.compute_units * self.clock_hz * self.flops_per_cycle_sp
        if precision is Precision.SINGLE:
            return sp
        return sp * self.dp_throughput_ratio

    def achievable_flops(self, precision: Precision, units: int) -> float:
        """Flops the pusher loop can sustain on ``units`` compute units."""
        if not 1 <= units <= self.compute_units:
            raise ConfigurationError(
                f"units must be in [1, {self.compute_units}], got {units}")
        per_unit = self.clock_hz * self.flops_per_cycle_sp \
            * self.vector_efficiency
        if precision is Precision.DOUBLE:
            per_unit *= self.dp_throughput_ratio
        return per_unit * units

    def domain_of_unit(self, unit: int) -> int:
        """NUMA domain that compute unit ``unit`` belongs to.

        Units are numbered domain-major: units ``[0, units_per_domain)``
        are domain 0, and so on — matching how cores are enumerated and
        pinned on the real machines.
        """
        if not 0 <= unit < self.compute_units:
            raise ConfigurationError(
                f"unit {unit} out of range [0, {self.compute_units})")
        return unit // self.units_per_domain
