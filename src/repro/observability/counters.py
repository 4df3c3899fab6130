"""Per-kernel accumulators: what every launch contributed, and where.

A :class:`KernelStats` aggregates all launches of one kernel name
within one tracing scope (the bench harness scopes by benchmark cell).
It keeps the running totals the summary and the Chrome trace export
read — DRAM and interconnect bytes, modelled vs. real wall seconds,
JIT and first-touch warm-up — and each launch's modelled seconds and
item count, so the summary layer can average steady-state NSPS with
the one warm-up-skipping routine
(:func:`repro.bench.metrics.nsps_from_steps`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List

__all__ = ["KernelStats"]


@dataclass
class KernelStats:
    """Accumulated statistics of one kernel under one tracing scope.

    ``name`` is the kernel-spec name — the same key
    :func:`repro.oneapi.roofline.analyze_kernel` reports, so roofline
    predictions and traced measurements join on it directly.
    """

    name: str
    scope: str = ""
    modelled_seconds: float = 0.0
    wall_seconds: float = 0.0
    jit_seconds: float = 0.0
    cold_page_seconds: float = 0.0
    bytes_moved: float = 0.0
    remote_bytes: float = 0.0
    cold_pages: int = 0
    #: Roofline side of the most recent launch.
    bound: str = "-"
    #: Modelled seconds of each launch, in launch order.
    launch_seconds: List[float] = field(default_factory=list)
    #: Work items of each launch, in launch order.
    launch_items: List[int] = field(default_factory=list)

    def add_launch(self, n_items: int, timing: Any,
                   wall_seconds: float = 0.0) -> None:
        """Fold one launch in.  ``timing`` is duck-typed against
        :class:`~repro.oneapi.costmodel.LaunchTiming`."""
        self.launch_seconds.append(timing.total_seconds)
        self.launch_items.append(int(n_items))
        self.modelled_seconds += timing.total_seconds
        self.wall_seconds += float(wall_seconds)
        self.jit_seconds += timing.jit_seconds
        self.cold_page_seconds += timing.cold_page_seconds
        self.bytes_moved += timing.bytes_moved
        self.remote_bytes += timing.remote_bytes
        self.cold_pages += timing.cold_pages
        self.bound = timing.bound

    def add_transfer(self, seconds: float, nbytes: int) -> None:
        """Charge buffer/accessor transfer to the most recent launch
        (mirrors how :meth:`repro.oneapi.queue.Queue.submit` extends the
        launch's timing after the fact)."""
        if not self.launch_seconds:
            return
        self.launch_seconds[-1] += seconds
        self.modelled_seconds += seconds
        self.bytes_moved += nbytes

    @property
    def launches(self) -> int:
        return len(self.launch_seconds)

    @property
    def items(self) -> int:
        return sum(self.launch_items)

    @property
    def warmup_seconds(self) -> float:
        """Total one-off warm-up charged across all launches (JIT plus
        first-touch cold pages — the paper's first-iteration penalty)."""
        return self.jit_seconds + self.cold_page_seconds
