"""Per-kernel accumulators: what every launch contributed, and where.

A :class:`KernelStats` aggregates all launches of one kernel name
within one tracing scope (the bench harness scopes by benchmark cell).
It keeps both the running totals — flops, DRAM and interconnect bytes,
modelled vs. real wall seconds, JIT and first-touch warm-up — and the
full per-launch :class:`LaunchSample` list, so the summary layer can
recompute steady-state NSPS with the bench harness's warm-up-skipping
rule (:func:`repro.bench.metrics.nsps_from_records`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List

__all__ = ["LaunchSample", "KernelStats"]


@dataclass
class LaunchSample:
    """Timing snapshot of one kernel launch (seconds; modelled unless
    named otherwise)."""

    n_items: int
    total_seconds: float
    memory_seconds: float
    compute_seconds: float
    scheduling_seconds: float
    jit_seconds: float
    cold_page_seconds: float
    transfer_seconds: float
    wall_seconds: float
    bytes_moved: float
    remote_bytes: float
    cold_pages: int
    bound: str

    def nsps(self) -> float:
        """Modelled nanoseconds per item for this launch."""
        if self.n_items <= 0:
            return 0.0
        return self.total_seconds * 1.0e9 / self.n_items


@dataclass
class KernelStats:
    """Accumulated statistics of one kernel under one tracing scope.

    ``name`` is the kernel-spec name — the same key
    :func:`repro.oneapi.roofline.analyze_kernel` reports, so roofline
    predictions and traced measurements join on it directly.
    """

    name: str
    scope: str = ""
    launches: int = 0
    items: int = 0
    flops: float = 0.0
    modelled_seconds: float = 0.0
    wall_seconds: float = 0.0
    jit_seconds: float = 0.0
    cold_page_seconds: float = 0.0
    transfer_seconds: float = 0.0
    bytes_moved: float = 0.0
    remote_bytes: float = 0.0
    cold_pages: int = 0
    samples: List[LaunchSample] = field(default_factory=list)

    def add_launch(self, n_items: int, timing: Any,
                   wall_seconds: float = 0.0) -> LaunchSample:
        """Fold one launch in.  ``timing`` is duck-typed against
        :class:`~repro.oneapi.costmodel.LaunchTiming`."""
        sample = LaunchSample(
            n_items=int(n_items),
            total_seconds=timing.total_seconds,
            memory_seconds=timing.memory_seconds,
            compute_seconds=timing.compute_seconds,
            scheduling_seconds=timing.scheduling_seconds,
            jit_seconds=timing.jit_seconds,
            cold_page_seconds=timing.cold_page_seconds,
            transfer_seconds=timing.transfer_seconds,
            wall_seconds=float(wall_seconds),
            bytes_moved=timing.bytes_moved,
            remote_bytes=timing.remote_bytes,
            cold_pages=timing.cold_pages,
            bound=timing.bound,
        )
        self.samples.append(sample)
        self.launches += 1
        self.items += sample.n_items
        self.modelled_seconds += sample.total_seconds
        self.wall_seconds += sample.wall_seconds
        self.jit_seconds += sample.jit_seconds
        self.cold_page_seconds += sample.cold_page_seconds
        self.transfer_seconds += sample.transfer_seconds
        self.bytes_moved += sample.bytes_moved
        self.remote_bytes += sample.remote_bytes
        self.cold_pages += sample.cold_pages
        return sample

    def add_transfer(self, seconds: float, nbytes: int) -> None:
        """Charge buffer/accessor transfer to the most recent launch
        (mirrors how :meth:`repro.oneapi.queue.Queue.submit` extends the
        launch's timing after the fact)."""
        if not self.samples:
            return
        last = self.samples[-1]
        last.transfer_seconds += seconds
        last.total_seconds += seconds
        last.bytes_moved += nbytes
        self.transfer_seconds += seconds
        self.modelled_seconds += seconds
        self.bytes_moved += nbytes

    @property
    def first_launch_seconds(self) -> float:
        """Modelled seconds of the first (JIT + cold-page) launch."""
        return self.samples[0].total_seconds if self.samples else 0.0

    @property
    def warmup_seconds(self) -> float:
        """Total one-off warm-up charged across all launches (JIT plus
        first-touch cold pages — the paper's first-iteration penalty)."""
        return self.jit_seconds + self.cold_page_seconds
