"""Work schedulers: OpenMP-static, TBB-dynamic and NUMA arenas.

The paper compares three parallelisation regimes:

* the OpenMP reference uses *static* scheduling — each thread owns the
  same contiguous chunk of the particle array on every time step, so
  after the first step every page it touches is NUMA-local;
* plain DPC++ runs on TBB with *dynamic* scheduling — chunks migrate
  between threads (and thus sockets) from step to step, so roughly half
  of all accesses on a 2-socket node are remote;
* ``DPCPP_CPU_PLACES=numa_domains`` creates one TBB *arena per NUMA
  domain* — the iteration space is split between domains statically and
  scheduled dynamically only inside each domain, restoring locality
  ("the same particles are processed on the same CPU at every step").

Schedulers here produce explicit chunk-to-thread assignments over a
:class:`ThreadTopology`; the cost model walks those assignments to
charge memory locality and scheduling overhead.
"""

from __future__ import annotations

import abc
import functools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..observability.tracer import active_tracer
from .device import DeviceDescriptor

__all__ = ["ThreadTopology", "Chunk", "Schedule", "StaticScheduler",
           "DynamicScheduler", "NumaArenaScheduler", "GpuScheduler"]


class ThreadTopology:
    """Mapping of software threads onto compute units and NUMA domains.

    Threads are placed compactly and bound: thread ``i`` runs on unit
    ``i // threads_per_unit`` (so "48 cores, 2 threads per core" fills
    socket 0's cores before socket 1's, each with both hyperthreads —
    the binding the paper describes for its scaling study).
    """

    #: True on per-domain views used inside the NUMA-arena scheduler;
    #: schedules over subset views are not reported to the tracer
    #: (their chunks reappear, renumbered, in the enclosing schedule).
    is_subset = False

    def __init__(self, device: DeviceDescriptor, units: Optional[int] = None,
                 threads_per_unit: Optional[int] = None) -> None:
        self.device = device
        self.units = device.compute_units if units is None else int(units)
        if not 1 <= self.units <= device.compute_units:
            raise ConfigurationError(
                f"units must be in [1, {device.compute_units}], "
                f"got {units}")
        tpu = device.threads_per_unit if threads_per_unit is None \
            else int(threads_per_unit)
        if not 1 <= tpu <= device.threads_per_unit:
            raise ConfigurationError(
                f"threads_per_unit must be in [1, {device.threads_per_unit}],"
                f" got {threads_per_unit}")
        self.threads_per_unit = tpu

    @property
    def n_threads(self) -> int:
        """Total software threads."""
        return self.units * self.threads_per_unit

    def unit_of(self, thread: int) -> int:
        """Compute unit a thread is bound to."""
        if not 0 <= thread < self.n_threads:
            raise ConfigurationError(
                f"thread {thread} out of range [0, {self.n_threads})")
        return thread // self.threads_per_unit

    def domain_of(self, thread: int) -> int:
        """NUMA domain a thread is bound to."""
        return self.device.domain_of_unit(self.unit_of(thread))

    def threads_in_domain(self, domain: int) -> List[int]:
        """All thread ids bound to one NUMA domain."""
        return [t for t in range(self.n_threads) if self.domain_of(t) == domain]

    def active_units_in_domain(self, domain: int) -> int:
        """Number of busy compute units in a domain."""
        return int(np.count_nonzero(np.bincount(
            self.thread_units[self.thread_domains == domain])))

    @property
    def active_domains(self) -> List[int]:
        """Domains that have at least one bound thread."""
        return sorted({self.domain_of(t) for t in range(self.n_threads)})

    @functools.cached_property
    def thread_units(self) -> np.ndarray:
        """Compute unit of every thread, indexed by thread id."""
        return np.arange(self.n_threads) // self.threads_per_unit

    @functools.cached_property
    def thread_domains(self) -> np.ndarray:
        """NUMA domain of every thread, indexed by thread id."""
        return self.thread_units // self.device.units_per_domain


@dataclass(frozen=True)
class Chunk:
    """A contiguous range of work items assigned to one thread."""

    start: int
    end: int
    thread: int

    @property
    def size(self) -> int:
        return self.end - self.start


class Schedule:
    """A complete assignment of ``n_items`` work items to threads.

    Stored as a struct of arrays: chunk ``k`` covers items
    ``[starts[k], ends[k])`` on thread ``threads[k]``, in the order the
    scheduler dealt them (the order the cost model walks).  The arrays
    are read-only int64; :attr:`chunks` derives :class:`Chunk` objects
    from them on demand.
    """

    def __init__(self, starts, ends, threads, topology: ThreadTopology,
                 n_items: int, dynamic: bool) -> None:
        self.starts = _frozen(starts)
        self.ends = _frozen(ends)
        self.threads = _frozen(threads)
        self.topology = topology
        self.n_items = int(n_items)
        #: Whether the schedule came from a dynamic (TBB-style)
        #: scheduler; the cost model applies the dynamic-runtime
        #: efficiency factor when true.
        self.dynamic = dynamic
        if not len(self.starts) == len(self.ends) == len(self.threads):
            raise ConfigurationError(
                "schedule starts, ends and threads differ in length")
        if len(self.threads) and not (
                0 <= self.threads.min()
                and self.threads.max() < topology.n_threads):
            raise ConfigurationError(
                f"schedule threads must be in [0, {topology.n_threads})")
        self._check_tiling()
        tracer = active_tracer()
        if tracer is not None and not topology.is_subset:
            tracer.instant("schedule", "scheduler",
                           n_items=self.n_items, n_chunks=len(self.starts),
                           n_threads=topology.n_threads,
                           dynamic=self.dynamic,
                           max_chunks_on_a_thread=
                           self.max_chunks_on_a_thread())

    @classmethod
    def from_chunks(cls, chunks: Sequence[Chunk], topology: ThreadTopology,
                    n_items: int, dynamic: bool) -> "Schedule":
        """Build a schedule from explicit :class:`Chunk` objects."""
        return cls([c.start for c in chunks], [c.end for c in chunks],
                   [c.thread for c in chunks], topology, n_items, dynamic)

    def _check_tiling(self) -> None:
        """Require an exact disjoint tiling of ``[0, n_items)``.

        A plain item-count sum would accept overlapping chunks
        compensated by gaps — two threads pushing the same particles
        while others are skipped, the intra-launch analogue of the
        inter-launch hazards :mod:`repro.validation.hazard` detects.
        Empty chunks cover nothing, so they may sit anywhere.
        """
        backwards = np.flatnonzero(self.ends < self.starts)
        if backwards.size:
            k = backwards[0]
            raise ConfigurationError(
                f"schedule chunk [{self.starts[k]}, {self.ends[k]}) ends "
                f"before it starts")
        filled = np.flatnonzero(self.ends > self.starts)
        order = filled[np.argsort(self.starts[filled])]
        starts, ends = self.starts[order], self.ends[order]
        expected = np.concatenate(([0], ends[:-1]))
        mismatch = np.flatnonzero(starts != expected)
        if mismatch.size:
            k = mismatch[0]
            if starts[k] < expected[k]:
                raise ConfigurationError(
                    f"schedule chunks overlap at item {starts[k]} "
                    f"(thread {self.threads[order[k]]})")
            raise ConfigurationError(
                f"schedule leaves items [{expected[k]}, {starts[k]}) "
                f"uncovered")
        covered = int(ends[-1]) if len(ends) else 0
        if covered != self.n_items:
            raise ConfigurationError(
                f"schedule covers {covered} items, expected {self.n_items}")

    @functools.cached_property
    def chunks(self) -> Tuple[Chunk, ...]:
        """The chunks in walk order (derived, read-only)."""
        return tuple(map(Chunk, self.starts.tolist(), self.ends.tolist(),
                         self.threads.tolist()))

    @property
    def sizes(self) -> np.ndarray:
        """Items per chunk, in walk order."""
        return self.ends - self.starts

    def _totals(self, keys: np.ndarray, weights=None) -> Dict[int, int]:
        counts = np.bincount(keys)
        totals = counts if weights is None \
            else np.bincount(keys, weights=weights).astype(np.int64)
        used = np.flatnonzero(counts)
        return dict(zip(used.tolist(), totals[used].tolist()))

    def items_per_thread(self) -> Dict[int, int]:
        """Total work items executed by each thread."""
        return self._totals(self.threads, self.sizes)

    def chunks_per_thread(self) -> Dict[int, int]:
        """Number of chunks (scheduling events) per thread."""
        return self._totals(self.threads)

    def items_per_unit(self) -> Dict[int, int]:
        """Total work items executed on each compute unit."""
        return self._totals(self.topology.thread_units[self.threads],
                            self.sizes)

    def max_chunks_on_a_thread(self) -> int:
        """Largest chunk count any one thread processes."""
        if not len(self.threads):
            return 0
        return int(np.bincount(self.threads).max())


def _frozen(values) -> np.ndarray:
    """``values`` as a read-only 1-D int64 array (copied if writeable,
    so no caller can mutate a schedule after validation)."""
    array = np.asarray(values, dtype=np.int64).reshape(-1)
    if array.flags.writeable:
        array = array.copy()
        array.flags.writeable = False
    return array


class Scheduler(abc.ABC):
    """Interface: produce a :class:`Schedule` for ``n_items`` items."""

    @abc.abstractmethod
    def schedule(self, n_items: int, topology: ThreadTopology) -> Schedule:
        """Assign ``n_items`` items to the topology's threads."""


def _split_even(n_items: int, parts: int) -> Tuple[np.ndarray, np.ndarray]:
    """Split [0, n_items) into ``parts`` near-equal contiguous ranges;
    returns their ``(starts, ends)``."""
    sizes = n_items // parts + (np.arange(parts) < n_items % parts)
    ends = np.cumsum(sizes, dtype=np.int64)
    return ends - sizes, ends


class StaticScheduler(Scheduler):
    """OpenMP ``schedule(static)``: one contiguous chunk per thread.

    Deterministic: thread ``i`` always receives the ``i``-th slice, so
    repeated launches touch the same pages from the same threads — the
    property that makes the OpenMP version NUMA-clean after the first
    iteration.
    """

    def __init__(self) -> None:
        # Deterministic chunking: memoize per (n_items, threads) so the
        # graph path's several same-range launches per step don't
        # rebuild identical chunk arrays (they are read-only; each call
        # still gets its own Schedule, so tracing is unchanged).
        self._memo: Dict[tuple, Tuple[np.ndarray, ...]] = {}

    def schedule(self, n_items: int, topology: ThreadTopology) -> Schedule:
        if n_items < 0:
            raise ConfigurationError(f"n_items must be >= 0, got {n_items}")
        key = (n_items, topology.n_threads)
        arrays = self._memo.get(key)
        if arrays is None:
            starts, ends = _split_even(n_items, topology.n_threads)
            used = np.flatnonzero(ends > starts)
            arrays = self._memo[key] = tuple(
                map(_frozen, (starts[used], ends[used], used)))
        return Schedule(*arrays, topology, n_items, dynamic=False)


class DynamicScheduler(Scheduler):
    """TBB-style dynamic scheduling without arenas.

    The iteration space is recursively split into grains and the grains
    are claimed by whichever thread is free — here modelled by a seeded
    random assignment that changes on every call, the way TBB's
    work-stealing produces a different mapping on every time step.  On
    a multi-socket machine this is precisely what destroys NUMA
    locality.

    Args:
        grain_size: Items per grain; None picks ``n_items`` /
            (threads * target_grains_per_thread), mimicking
            ``tbb::auto_partitioner``.
        target_grains_per_thread: Grains each thread should see with
            the automatic grain size.
        seed: Seed of the assignment RNG (per-instance stream; calls
            advance the stream).
    """

    def __init__(self, grain_size: Optional[int] = None,
                 target_grains_per_thread: int = 16,
                 seed: int = 12345) -> None:
        if grain_size is not None and grain_size < 1:
            raise ConfigurationError(
                f"grain_size must be >= 1, got {grain_size}")
        if target_grains_per_thread < 1:
            raise ConfigurationError(
                f"target_grains_per_thread must be >= 1, "
                f"got {target_grains_per_thread}")
        self.grain_size = grain_size
        self.target_grains_per_thread = int(target_grains_per_thread)
        self._rng = np.random.default_rng(seed)

    def _grain(self, n_items: int, n_threads: int) -> int:
        if self.grain_size is not None:
            return self.grain_size
        return max(1, n_items
                   // (n_threads * self.target_grains_per_thread))

    def schedule(self, n_items: int, topology: ThreadTopology) -> Schedule:
        if n_items < 0:
            raise ConfigurationError(f"n_items must be >= 0, got {n_items}")
        from ..resilience.faults import active_fault_injector
        injector = active_fault_injector()
        n_threads = topology.n_threads
        if injector is not None and injector.scheduler_imbalance():
            # Injected imbalance: half the worker threads stall for
            # this launch, so the survivors absorb the whole deal.
            n_threads = max(1, n_threads // 2)
        grain = self._grain(n_items, n_threads)
        # Threads claim grains as they finish the previous one; with
        # uniform per-item cost this is a balanced random deal of the
        # grain sequence across threads.
        grains = np.arange(0, n_items, grain, dtype=np.int64)
        starts = grains[self._rng.permutation(len(grains))]
        return Schedule(starts, np.minimum(starts + grain, n_items),
                        np.arange(len(starts)) % n_threads, topology,
                        n_items, dynamic=True)


class NumaArenaScheduler(Scheduler):
    """TBB with one arena per NUMA domain (``DPCPP_CPU_PLACES=numa_domains``).

    The iteration space is divided between domains proportionally to
    their thread counts — *statically*, so a given particle is always
    processed by the same domain — and scheduled dynamically only among
    the threads of that domain.
    """

    def __init__(self, grain_size: Optional[int] = None,
                 target_grains_per_thread: int = 16,
                 seed: int = 54321) -> None:
        self._inner = DynamicScheduler(grain_size, target_grains_per_thread,
                                       seed)

    def schedule(self, n_items: int, topology: ThreadTopology) -> Schedule:
        if n_items < 0:
            raise ConfigurationError(f"n_items must be >= 0, got {n_items}")
        domains = topology.active_domains
        weights = [len(topology.threads_in_domain(d)) for d in domains]
        total_threads = sum(weights)
        starts, ends, threads = [], [], []
        offset = 0
        for domain, weight in zip(domains, weights):
            size = n_items * weight // total_threads
            if domain == domains[-1]:
                size = n_items - offset
            domain_threads = topology.threads_in_domain(domain)
            sub = self._inner.schedule(
                size, _SubsetTopology(topology, domain_threads))
            starts.append(sub.starts + offset)
            ends.append(sub.ends + offset)
            threads.append(np.asarray(domain_threads,
                                      dtype=np.int64)[sub.threads])
            offset += size
        return Schedule(np.concatenate(starts), np.concatenate(ends),
                        np.concatenate(threads), topology, n_items,
                        dynamic=True)


class _SubsetTopology(ThreadTopology):
    """View of a topology restricted to an explicit thread subset.

    Thread ids are renumbered 0..len(subset)-1; used internally by the
    arena scheduler to run the dynamic scheduler inside one domain.
    """

    is_subset = True

    def __init__(self, parent: ThreadTopology, threads: List[int]) -> None:
        self._parent = parent
        self._threads = list(threads)
        self.device = parent.device
        self.units = max(1, len({parent.unit_of(t) for t in threads}))
        self.threads_per_unit = max(
            1, len(threads) // max(1, self.units))

    @property
    def n_threads(self) -> int:
        return len(self._threads)

    def unit_of(self, thread: int) -> int:
        return self._parent.unit_of(self._threads[thread])

    def domain_of(self, thread: int) -> int:
        return self._parent.domain_of(self._threads[thread])

    @functools.cached_property
    def thread_units(self) -> np.ndarray:
        return self._parent.thread_units[self._threads]

    @functools.cached_property
    def thread_domains(self) -> np.ndarray:
        return self._parent.thread_domains[self._threads]


#: Work-group size :class:`GpuScheduler` uses unless overridden — also
#: what ``CostModel.estimate_spec_seconds`` assumes for occupancy.
DEFAULT_WORKGROUP_SIZE = 256


class GpuScheduler(Scheduler):
    """Work-group scheduling on a (single-domain) GPU.

    Work items are grouped into fixed-size work-groups dispatched
    round-robin over the EU hardware threads.  Locality is moot (one
    memory domain); the schedule exists so the cost model can account
    compute occupancy and per-group dispatch overhead uniformly.
    """

    def __init__(self, workgroup_size: int = DEFAULT_WORKGROUP_SIZE) -> None:
        if workgroup_size < 1:
            raise ConfigurationError(
                f"workgroup_size must be >= 1, got {workgroup_size}")
        self.workgroup_size = int(workgroup_size)
        # Same memoization as StaticScheduler: GPU dispatches build tens
        # of thousands of work-group chunks, identical launch to launch.
        self._memo: Dict[tuple, Tuple[np.ndarray, ...]] = {}

    def schedule(self, n_items: int, topology: ThreadTopology) -> Schedule:
        if n_items < 0:
            raise ConfigurationError(f"n_items must be >= 0, got {n_items}")
        key = (n_items, topology.n_threads)
        arrays = self._memo.get(key)
        if arrays is None:
            starts = np.arange(0, n_items, self.workgroup_size,
                               dtype=np.int64)
            arrays = self._memo[key] = tuple(map(_frozen, (
                starts, np.minimum(starts + self.workgroup_size, n_items),
                np.arange(len(starts)) % topology.n_threads)))
        return Schedule(*arrays, topology, n_items, dynamic=False)
