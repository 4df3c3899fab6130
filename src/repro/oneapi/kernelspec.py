"""Kernel characterisation: memory streams and arithmetic per work item.

The cost model does not inspect Python bytecode; kernels declare what
they do per work item through a :class:`KernelSpec` — a set of
:class:`MemoryStream` entries (who is read/written, how many bytes per
item, whether access is contiguous) plus a flop count.  The benchmark
scenarios build these specs from the particle layout, precision and
field scenario under study (see
:func:`repro.bench.scenarios.build_kernel_spec`).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple

from ..errors import KernelError
from .memory import UsmAllocation

__all__ = ["StreamKind", "MemoryStream", "KernelSpec"]


class StreamKind(enum.Enum):
    """Access mode of a memory stream."""

    READ = "read"
    WRITE = "write"
    READ_WRITE = "read_write"


@dataclass(frozen=True)
class MemoryStream:
    """One per-item memory access pattern of a kernel.

    Attributes:
        name: Label for diagnostics ("particle-records", "fields-soa").
        kind: Read, write, or read-modify-write.
        bytes_per_item: Useful payload bytes per work item.
        span_bytes_per_item: Bytes of address space per item the stream
            walks over (the record size for AoS; equals
            ``bytes_per_item`` for packed SoA).  Cache-line granularity
            means the span, not the payload, is what moves.
        contiguous: Whether consecutive items are adjacent in memory
            (False for strided AoS component access); non-contiguous
            streams pay the device's strided-access efficiency.
        allocation: The USM allocation the stream walks (None for pure
            modelling without NUMA accounting — such streams count as
            domain-local).
    """

    name: str
    kind: StreamKind
    bytes_per_item: float
    span_bytes_per_item: float = 0.0
    contiguous: bool = True
    allocation: Optional[UsmAllocation] = None

    def __post_init__(self) -> None:
        if self.bytes_per_item < 0:
            raise KernelError(f"stream {self.name!r}: bytes_per_item must "
                              f"be >= 0, got {self.bytes_per_item}")
        if self.span_bytes_per_item == 0.0:
            object.__setattr__(self, "span_bytes_per_item",
                               self.bytes_per_item)
        if self.span_bytes_per_item < self.bytes_per_item:
            raise KernelError(
                f"stream {self.name!r}: span_bytes_per_item "
                f"({self.span_bytes_per_item}) must be >= bytes_per_item "
                f"({self.bytes_per_item})")


@dataclass(frozen=True)
class KernelSpec:
    """Complete per-item characterisation of one kernel.

    Attributes:
        name: Kernel name (also the JIT-cache key of the queue).
        streams: The kernel's memory streams.
        flops_per_item: Floating-point work per item in
            single-precision-equivalent flops (the device's DP
            throughput ratio converts for double).
        working_set_bytes_per_item: Unique bytes an item's data
            occupies — used for the cache-residency check.  Defaults to
            the sum of stream spans.
    """

    name: str
    streams: Tuple[MemoryStream, ...]
    flops_per_item: float
    working_set_bytes_per_item: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise KernelError("kernel spec needs a non-empty name")
        if not (math.isfinite(self.flops_per_item)
                and self.flops_per_item >= 0):
            raise KernelError(f"flops_per_item must be finite and >= 0, "
                              f"got {self.flops_per_item}")
        if self.working_set_bytes_per_item == 0.0:
            object.__setattr__(
                self, "working_set_bytes_per_item",
                sum(s.span_bytes_per_item for s in self.streams))

    @property
    def has_strided_streams(self) -> bool:
        """True when any stream is non-contiguous (AoS component access)."""
        return any(not s.contiguous for s in self.streams)

    @property
    def reads(self) -> FrozenSet[str]:
        """Stream names this kernel reads (incl. read-modify-write).

        The single source of truth for *declared* access: the kernel
        graph's nodes and the queue's command log — and hence the
        hazard detector — all derive their read/write sets here.
        """
        return frozenset(s.name for s in self.streams
                         if s.kind in (StreamKind.READ,
                                       StreamKind.READ_WRITE))

    @property
    def writes(self) -> FrozenSet[str]:
        """Stream names this kernel writes (incl. read-modify-write)."""
        return frozenset(s.name for s in self.streams
                         if s.kind in (StreamKind.WRITE,
                                       StreamKind.READ_WRITE))

    def payload_bytes_per_item(self) -> float:
        """Useful bytes per item across all streams (reads + writes once)."""
        return sum(s.bytes_per_item for s in self.streams)
