"""The flat per-kernel summary table and steady-state NSPS agreement.

:func:`kernel_summary` reduces a tracer's per-kernel statistics to one
row per ``(scope, kernel)`` pair; its steady NSPS is
:func:`repro.bench.metrics.nsps_from_steps` over each launch's modelled
seconds per item, skipping the same two warm-up launches as the bench
harness skips steps.  Seconds per item, because one tracing scope can
hold launches of several shards or runs, which differ in ``n_items``.
The harness averages whole-step seconds over its fixed particle count;
with one launch per step the two agree to round-off — the invariant
the ``repro trace`` CLI and the regression-guard test rely on.
"""

from __future__ import annotations

from typing import Any, Dict, List

from .counters import KernelStats
from .tracer import Tracer

__all__ = ["kernel_summary", "format_kernel_summary"]


def kernel_summary(tracer: Tracer,
                   skip_warmup: int = 2) -> List[Dict[str, Any]]:
    """One summary row per (scope, kernel), sorted by scope then name.

    Each row carries: ``scope``, ``kernel``, ``launches``, ``items``,
    ``steady_nsps`` (modelled ns/item/step after warm-up),
    ``first_nsps`` (the cold first launch), ``modelled_seconds``,
    ``wall_seconds``, ``warmup_seconds`` (JIT + first-touch),
    ``bytes_moved``, ``remote_fraction``, ``cold_pages`` and ``bound``.
    """
    rows: List[Dict[str, Any]] = []
    for (scope, name), stats in sorted(tracer.kernel_stats.items()):
        rows.append(_row(scope, name, stats, skip_warmup))
    return rows


def _row(scope: str, name: str, stats: KernelStats,
         skip_warmup: int) -> Dict[str, Any]:
    from ..bench.metrics import nsps_from_steps
    steady_nsps = first_nsps = 0.0
    if stats.launch_seconds:
        per_item = [seconds / n if n > 0 else 0.0 for seconds, n
                    in zip(stats.launch_seconds, stats.launch_items)]
        steady_nsps, first_nsps = nsps_from_steps(per_item, 1, skip_warmup)
    return {
        "scope": scope,
        "kernel": name,
        "launches": stats.launches,
        "items": stats.items,
        "steady_nsps": steady_nsps,
        "first_nsps": first_nsps,
        "modelled_seconds": stats.modelled_seconds,
        "wall_seconds": stats.wall_seconds,
        "warmup_seconds": stats.warmup_seconds,
        "bytes_moved": stats.bytes_moved,
        "remote_fraction": (stats.remote_bytes / stats.bytes_moved
                            if stats.bytes_moved else 0.0),
        "cold_pages": stats.cold_pages,
        "bound": stats.bound,
    }


_COLUMNS = (
    ("scope", "scope", "{}"),
    ("kernel", "kernel", "{}"),
    ("launches", "launches", "{}"),
    ("steady_nsps", "steady NSPS", "{:.3f}"),
    ("first_nsps", "first NSPS", "{:.3f}"),
    ("warmup_seconds", "warm-up s", "{:.4f}"),
    ("wall_seconds", "wall s", "{:.4f}"),
    ("remote_fraction", "remote", "{:.0%}"),
    ("bound", "bound", "{}"),
)


def format_kernel_summary(tracer: Tracer, skip_warmup: int = 2,
                          title: str = "Per-kernel trace summary") -> str:
    """Render :func:`kernel_summary` as an aligned text table.

    Deliberately self-contained (no :mod:`repro.bench.tables` import)
    so the observability package stays dependency-free of the layers it
    measures.
    """
    rows = kernel_summary(tracer, skip_warmup)
    cells = [[fmt.format(row[key]) for key, _, fmt in _COLUMNS]
             for row in rows]
    headers = [header for _, header, _ in _COLUMNS]
    widths = [max(len(headers[i]), *(len(r[i]) for r in cells))
              if cells else len(headers[i]) for i in range(len(headers))]
    lines = [title,
             "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
             "  ".join("-" * w for w in widths)]
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
