"""Unified Shared Memory (USM) model with NUMA first-touch pages.

The paper uses the USM model ("the simplest, but quite functional
option") and finds that NUMA page placement dominates CPU performance.
This module models exactly the mechanism behind that finding: USM
allocations are divided into 4-KiB pages, and each page is *homed* in
the NUMA domain of the first thread that touches it.  A kernel chunk
executing in domain ``e`` that accesses a page homed in domain ``h``
generates cross-domain (UPI) traffic when ``e != h`` — the quantity
the cost model charges against the interconnect.

Allocations can be *backed* (wrapping a real numpy array, used when the
kernels actually run) or *virtual* (size only, used when modelling the
paper's 1e7-particle working set without allocating 720 MB).

The resilience layer hooks in at two points (both no-ops unless a
:func:`~repro.resilience.faults.active_fault_injector` is installed):
adopting a *new* allocation may be refused
(:class:`~repro.errors.AllocationFailedError`), and an allocation can
be *poisoned* — reads fail until the recovery layer scrubs it.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import MemoryModelError
from ..observability.tracer import active_tracer
from ..resilience.faults import active_fault_injector

__all__ = ["PAGE_SIZE", "UsmKind", "UsmAllocation", "UsmMemoryManager"]

#: Small page size used for first-touch accounting [bytes].
PAGE_SIZE = 4096


class UsmKind:
    """USM allocation kinds (string constants, mirroring sycl::usm::alloc)."""

    HOST = "host"
    DEVICE = "device"
    SHARED = "shared"

    ALL = (HOST, DEVICE, SHARED)


class UsmAllocation:
    """One USM allocation: size, kind, and per-page NUMA homing.

    ``page_domains[i]`` is the domain that first touched page ``i``, or
    -1 while untouched.  :meth:`touch` takes a *byte range* relative to
    the allocation start; the cost model reads ``page_domains`` to split
    a range into local and remote bytes.
    """

    def __init__(self, nbytes: int, kind: str = UsmKind.SHARED,
                 array: Optional[np.ndarray] = None,
                 name: str = "") -> None:
        if nbytes < 0:
            raise MemoryModelError(f"nbytes must be >= 0, got {nbytes}")
        if kind not in UsmKind.ALL:
            raise MemoryModelError(f"unknown USM kind {kind!r}")
        self.nbytes = int(nbytes)
        self.kind = kind
        self.array = array
        self.name = name or (f"usm-{id(self):x}" if array is None
                             else f"usm-array-{id(array):x}")
        self.page_domains = np.full(self.n_pages, -1, dtype=np.int16)
        #: Set by fault injection; a poisoned allocation fails the
        #: queue's pre-launch read check until :meth:`scrub` clears it.
        self.poisoned = False

    @property
    def n_pages(self) -> int:
        """Number of (possibly partial) pages in the allocation."""
        return (self.nbytes + PAGE_SIZE - 1) // PAGE_SIZE

    def _page_range(self, start: int, end: int) -> Tuple[int, int]:
        if not 0 <= start <= end <= self.nbytes:
            raise MemoryModelError(
                f"byte range [{start}, {end}) outside allocation "
                f"{self.name!r} of {self.nbytes} bytes")
        if start == end:
            return 0, 0
        return start // PAGE_SIZE, (end - 1) // PAGE_SIZE + 1

    def touch(self, start: int, end: int, domain: int) -> int:
        """First-touch the byte range from a thread in ``domain``.

        Pages already homed keep their home (that is what first-touch
        means).  Returns the number of pages newly homed — the cost
        model charges these with the cold-page (page fault + zeroing)
        penalty of the first iteration.
        """
        p0, p1 = self._page_range(start, end)
        if p0 == p1:
            return 0
        pages = self.page_domains[p0:p1]
        fresh = pages < 0
        count = int(fresh.sum())
        if count:
            pages[fresh] = domain
        return count

    def home_histogram(self) -> Dict[int, int]:
        """Pages homed per domain (untouched pages under key -1)."""
        domains, counts = np.unique(self.page_domains, return_counts=True)
        return {int(d): int(c) for d, c in zip(domains, counts)}

    def reset_pages(self) -> None:
        """Forget all first-touch assignments (e.g. after a free+realloc)."""
        self.page_domains[:] = -1

    def poison(self) -> None:
        """Mark the allocation corrupted (fault-injection entry point)."""
        self.poisoned = True

    def scrub(self) -> None:
        """Repair a poisoned allocation (recovery entry point)."""
        self.poisoned = False


class UsmMemoryManager:
    """Tracks USM allocations for one simulated device/queue.

    When a tracer is active, every allocation event (``register``,
    ``virtual``, ``free`` — ``malloc_*`` routes through ``register``)
    is reported as an instant marker plus a ``usm_allocated_bytes``
    counter sample, so an exported trace shows the working set's
    growth next to the kernel timeline.
    """

    def __init__(self) -> None:
        self._by_key: Dict[int, UsmAllocation] = {}

    def _trace(self, op: str, allocation: UsmAllocation) -> None:
        tracer = active_tracer()
        if tracer is not None:
            tracer.instant(f"usm:{op}", "memory",
                           name=allocation.name, kind=allocation.kind,
                           nbytes=allocation.nbytes,
                           backed=allocation.array is not None)
            tracer.counter("usm_allocated_bytes",
                           total=self.total_allocated)

    def malloc_shared(self, shape, dtype, name: str = "") -> np.ndarray:
        """Allocate a shared USM numpy array and register it."""
        array = np.zeros(shape, dtype=dtype)
        self.register(array, kind=UsmKind.SHARED, name=name)
        return array

    def malloc_device(self, shape, dtype, name: str = "") -> np.ndarray:
        """Allocate a device USM numpy array and register it."""
        array = np.zeros(shape, dtype=dtype)
        self.register(array, kind=UsmKind.DEVICE, name=name)
        return array

    def register(self, array: np.ndarray, kind: str = UsmKind.SHARED,
                 name: str = "") -> UsmAllocation:
        """Adopt an existing numpy array as a USM allocation.

        Registering the same array again returns the existing
        allocation (idempotent), so ensembles can be re-registered
        freely between launches.
        """
        base = array if array.base is None else array.base
        key = id(base)
        existing = self._by_key.get(key)
        if existing is not None:
            return existing
        injector = active_fault_injector()
        if injector is not None:
            injector.on_alloc(name, int(base.nbytes))
        allocation = UsmAllocation(int(base.nbytes), kind, array=base,
                                   name=name)
        self._by_key[key] = allocation
        self._trace("register", allocation)
        return allocation

    def virtual(self, nbytes: int, kind: str = UsmKind.SHARED,
                name: str = "") -> UsmAllocation:
        """Create an unbacked allocation (size-only, for pure modelling)."""
        injector = active_fault_injector()
        if injector is not None:
            injector.on_alloc(name, int(nbytes))
        allocation = UsmAllocation(nbytes, kind, array=None, name=name)
        self._by_key[id(allocation)] = allocation
        self._trace("virtual", allocation)
        return allocation

    def allocation_of(self, array: np.ndarray) -> UsmAllocation:
        """Look up the allocation wrapping ``array`` (or its base)."""
        base = array if array.base is None else array.base
        try:
            return self._by_key[id(base)]
        except KeyError:
            raise MemoryModelError(
                "array is not registered with this USM manager; call "
                "register() or allocate through malloc_shared()") from None

    def free(self, allocation: UsmAllocation) -> None:
        """Drop an allocation from the table."""
        for key, value in list(self._by_key.items()):
            if value is allocation:
                del self._by_key[key]
                self._trace("free", allocation)
                return
        raise MemoryModelError(f"allocation {allocation.name!r} is not "
                               "registered with this manager")

    @property
    def total_allocated(self) -> int:
        """Bytes across all live allocations."""
        return sum(a.nbytes for a in self._by_key.values())

    def allocations(self):
        """Iterate over all live allocations."""
        return iter(list(self._by_key.values()))

    def __len__(self) -> int:
        return len(self._by_key)
