"""Slow reference for the cost model's multi-domain pricing walk.

``CostModel.time_launch`` prices a multi-domain launch in one numpy pass
over every (chunk, stream) pair.  This module keeps the original
pair-by-pair loop it replaced — one locality split, one majority-home
lookup and one first touch per pair, in walk order — so tests can check
that the vectorised pass reproduces it bit for bit.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.fp import Precision
from repro.oneapi import PAGE_SIZE, UsmAllocation
from repro.oneapi.costmodel import CostModel, LaunchTiming
from repro.oneapi.kernelspec import KernelSpec
from repro.oneapi.scheduler import Schedule

__all__ = ["locality", "remote_home", "walk_domains", "time_launch"]


def locality(allocation: UsmAllocation, start: int, end: int,
             domain: int) -> Tuple[int, int]:
    """Split a byte range into (local, remote) bytes for ``domain``.

    Untouched pages count as local (they are about to be homed by this
    access).  Partial first/last pages are attributed proportionally.
    """
    p0, p1 = allocation._page_range(start, end)
    if p0 == p1:
        return 0, 0
    total = end - start
    pages = allocation.page_domains[p0:p1]
    remote_mask = (pages >= 0) & (pages != domain)
    if not remote_mask.any():
        return total, 0
    sizes = np.full(p1 - p0, PAGE_SIZE, dtype=np.int64)
    sizes[0] -= start - p0 * PAGE_SIZE
    sizes[-1] -= p1 * PAGE_SIZE - end
    remote = int(sizes[remote_mask].sum())
    return total - remote, remote


def remote_home(allocation: UsmAllocation, start: int, end: int,
                exec_domain: int) -> int:
    """The domain whose DRAM serves this range's remote part: the
    majority home among its remote pages (ties to the lowest domain)."""
    p0 = start // PAGE_SIZE
    p1 = max(p0 + 1, (end - 1) // PAGE_SIZE + 1) if end > start else p0 + 1
    pages = allocation.page_domains[p0:p1]
    remote = pages[(pages >= 0) & (pages != exec_domain)]
    if remote.size == 0:
        return exec_domain
    values, counts = np.unique(remote, return_counts=True)
    return int(values[counts.argmax()])


def walk_domains(model: CostModel, spec: KernelSpec, schedule: Schedule,
                 update_pages: bool = True
                 ) -> Tuple[Dict[int, float], float, float, int]:
    """The pair-by-pair multi-domain walk: ``(dram_bytes, remote_total,
    local_total, cold_pages)``, as ``CostModel._walk_domains`` returns."""
    topo = schedule.topology
    dram_bytes: Dict[int, float] = {d: 0.0 for d
                                    in range(model.device.numa_domains)}
    remote_total = 0.0
    local_total = 0.0
    cold_pages = 0
    for chunk in schedule.chunks:
        exec_domain = topo.domain_of(chunk.thread)
        for stream in spec.streams:
            span = stream.span_bytes_per_item
            traffic = model._traffic(stream, chunk.size)
            if stream.allocation is None:
                dram_bytes[exec_domain] += traffic
                local_total += traffic
                continue
            start = min(int(chunk.start * span), stream.allocation.nbytes)
            end = min(int(chunk.end * span), stream.allocation.nbytes)
            local, remote = locality(stream.allocation, start, end,
                                     exec_domain)
            total = local + remote
            local_frac = local / total if total > 0 else 1.0
            dram_bytes[exec_domain] += traffic * local_frac
            remote_traffic = traffic * (1.0 - local_frac)
            other = remote_home(stream.allocation, start, end, exec_domain)
            dram_bytes[other] += remote_traffic
            remote_total += remote_traffic
            local_total += traffic * local_frac
            if update_pages:
                cold_pages += stream.allocation.touch(start, end,
                                                      exec_domain)
    return dram_bytes, remote_total, local_total, cold_pages


def time_launch(model: CostModel, spec: KernelSpec, schedule: Schedule,
                precision: Precision = Precision.DOUBLE,
                jit_compiled: bool = True,
                update_pages: bool = True) -> LaunchTiming:
    """``model.time_launch`` of a multi-domain launch: the reference
    walk's totals, priced by the model's own core."""
    load = model._schedule_load(
        schedule, *walk_domains(model, spec, schedule, update_pages))
    jit = 0.0 if jit_compiled else model.device.jit_compile_seconds
    return model._price(spec, load, precision,
                        model._measured_launch_overhead(spec), jit)
