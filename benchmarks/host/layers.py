"""Per-layer host-time attribution by wrapping public entry points.

The benchmark measures which layer of the simulator the host spends its
wall time in without putting any instrumentation inside ``src/``: for a
single traced call it swaps each layer's public callables for timing
wrappers, at every binding a caller resolves (the defining module, each
``from x import y`` copy in another ``repro`` module, or the class
attribute a method call looks up), and swaps the originals back in a
``finally`` block.

Every wrapper records one span in an *uninstalled*
:class:`repro.observability.Tracer` (the program's own instrumentation
stays off, so the traced call runs the same code as an untraced one):
its category is the layer, its parent is the enclosing span, and its
``request`` argument names the call (``<workload>#<index>``).  A span's
self time is its inclusive time minus the inclusive time of the wrapped
spans nested directly inside it; the root span of the call keeps what
no layer claimed, reported as ``other.self_s``.

Counts (calls, chunks, particles, bytes) are taken only where a layer
is *entered* — a span whose parent belongs to another layer — so a
layer that calls itself (``PrecalculatedField.refresh`` evaluating the
dipole wave, the NUMA-arena scheduler running the dynamic one) counts
its work once.  Counts are computed after the span's end timestamp, so
their cost lands in the parent's self time, not the layer's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from dataclasses import dataclass
from typing import (Callable, ContextManager, Dict, List, Optional,
                    Tuple)

from repro.observability import Tracer

__all__ = ["Hook", "HOOKS", "LAYER_COUNTS", "ROOT", "LayerRecorder",
           "add_self_times", "layer_metrics", "per_layer_metric_units"]

#: Category of the root span of a traced call (the unattributed rest).
ROOT = "request"

#: Bytes per particle a Boris push reads and writes, in units of the
#: storage itemsize: six field components and six phase-space
#: components read, six phase-space components and gamma written.
#: Computed from array sizes, not measured.
_BORIS_ITEMS_PER_PARTICLE = 19


@dataclass(frozen=True)
class Hook:
    """One wrapped callable.

    ``target`` is ``"function"`` or ``"Class.method"`` inside
    ``module``; ``count`` maps the call's bound arguments and its
    result to count increments of the hook's layer.
    """

    layer: str
    module: str
    target: str
    count: Optional[Callable[[Dict[str, object], object],
                             Dict[str, float]]] = None


def _launch_visits(a, _result) -> Dict[str, float]:
    spec, schedule = a["spec"], a["schedule"]
    walked = len(schedule.chunks) \
        if a["self"].device.numa_domains > 1 else 1
    return {"calls": 1, "chunk_stream_visits": walked * len(spec.streams)}


def _boris(a, _result) -> Dict[str, float]:
    ensemble = a["ensemble"]
    n = ensemble.size
    return {"calls": 1, "particles": n,
            "bytes_computed": n * ensemble.precision.itemsize
            * _BORIS_ITEMS_PER_PARTICLE}


def _saved(a, result) -> Dict[str, float]:
    return {"saves": 1, "bytes_written": result.stat().st_size}


def _service_run(_a, report) -> Dict[str, float]:
    jobs = report.jobs.values()
    return {"jobs_completed": report.completed,
            "restores": sum(job.restores for job in jobs),
            "preemptions": sum(job.preemptions for job in jobs)}


def _schedule(_a, schedule) -> Dict[str, float]:
    return {"calls": 1, "chunks": len(schedule.chunks)}


#: Every wrapped entry point, grouped by layer (the metric prefix).
HOOKS: Tuple[Hook, ...] = (
    Hook("costmodel", "repro.oneapi.costmodel", "CostModel.time_launch",
         _launch_visits),
    Hook("costmodel", "repro.oneapi.costmodel",
         "CostModel.estimate_spec_seconds", lambda a, r: {"calls": 1}),
    *(Hook("scheduler", "repro.oneapi.scheduler", f"{cls}.schedule",
           _schedule)
      for cls in ("StaticScheduler", "DynamicScheduler",
                  "NumaArenaScheduler", "GpuScheduler")),
    Hook("queue", "repro.oneapi.queue", "Queue.parallel_for",
         lambda a, r: {"launches": 1}),
    Hook("timeline", "repro.oneapi.events", "Timeline.schedule",
         lambda a, r: {"events": 1}),
    Hook("timeline", "repro.oneapi.events", "Timeline.makespan"),
    Hook("graph", "repro.oneapi.graph", "GraphExecutor.run",
         lambda a, r: {"plans": 1, "kernels_eliminated":
                       a["self"].last_plan.kernels_eliminated}),
    Hook("programcache", "repro.oneapi.programcache", "ProgramCache.build",
         lambda a, r: {"builds": 1, "hits": 1 if r == 0.0 else 0}),
    Hook("programcache", "repro.oneapi.programcache",
         "ProgramCache.is_warm"),
    Hook("programcache", "repro.oneapi.programcache",
         "ProgramCache.is_profile_warm"),
    Hook("boris", "repro.core.boris", "boris_push", _boris),
    Hook("fields", "repro.fields.dipole", "MDipoleWave.evaluate",
         lambda a, r: {"calls": 1, "points": len(a["x"])}),
    Hook("fields", "repro.fields.precalculated",
         "PrecalculatedField.refresh",
         lambda a, r: {"calls": 1, "points": a["ensemble"].size}),
    Hook("interpolation", "repro.fields.interpolation",
         "interpolate_from_yee_grid",
         lambda a, r: {"particles": len(a["positions"])}),
    *(Hook("deposition", "repro.pic.deposition", name,
           lambda a, r: {"calls": 1, "particles": a["ensemble"].size})
      for name in ("deposit_current_esirkepov", "deposit_current_direct")),
    *(Hook("fieldsolver", module, f"{cls}.step",
           lambda a, r: {"cells": a["self"].grid.num_cells})
      for module, cls in (("repro.pic.fdtd", "FdtdSolver"),
                          ("repro.pic.spectral", "SpectralSolver"))),
    *(Hook("montecarlo", "repro.pic.montecarlo", f"{cls}.apply",
           lambda a, r: {"particles": a["ensemble"].size})
      for cls in ("CollisionOperator", "IonizationOperator")),
    Hook("checkpoint", "repro.resilience.checkpoint",
         "Checkpointer.save_push", _saved),
    Hook("checkpoint", "repro.resilience.checkpoint",
         "Checkpointer.save_simulation", _saved),
    Hook("checkpoint", "repro.resilience.checkpoint",
         "Checkpointer.load_push", lambda a, r: {"loads": 1}),
    Hook("checkpoint", "repro.resilience.checkpoint",
         "Checkpointer.load_simulation", lambda a, r: {"loads": 1}),
    Hook("checkpoint", "repro.resilience.checkpoint", "Checkpointer.gc"),
    Hook("digest", "repro.core.stepping", "state_digest"),
    Hook("digest", "repro.pic.engine", "pic_state_digest"),
    Hook("service", "repro.service.scheduler", "PushService.__init__"),
    Hook("service", "repro.service.scheduler", "PushService.submit"),
    Hook("service", "repro.service.scheduler", "PushService.run",
         _service_run),
)

#: The counts each layer reports, in output order.  ``programcache``
#: turns its ``hits`` into ``hit_ratio`` (base: ``builds``).
LAYER_COUNTS: Dict[str, Tuple[str, ...]] = {
    "costmodel": ("calls", "chunk_stream_visits"),
    "scheduler": ("calls", "chunks"),
    "queue": ("launches",),
    "timeline": ("events",),
    "graph": ("plans", "kernels_eliminated"),
    "programcache": ("builds", "hits"),
    "boris": ("calls", "particles", "bytes_computed"),
    "fields": ("calls", "points"),
    "interpolation": ("particles",),
    "deposition": ("calls", "particles"),
    "fieldsolver": ("cells",),
    "montecarlo": ("particles",),
    "checkpoint": ("saves", "loads", "bytes_written"),
    "digest": (),
    "service": ("jobs_completed", "restores", "preemptions"),
}


class LayerRecorder:
    """Installs the hooks, records spans, restores the originals.

    Use as a context manager around exactly one traced call::

        with LayerRecorder("push-cpu-numa#6") as recorder, \
                recorder.request_span():
            workload.call(inputs)
        metrics = layer_metrics(recorder.tracer)

    The tracer is never installed as the process-wide tracer.
    """

    def __init__(self, request: str) -> None:
        self.request = request
        self.tracer = Tracer()
        #: The layer of each wrapper's span name.
        self._layer_of: Dict[str, str] = {}
        #: ``(owner, attribute, original)`` in installation order.
        self._patches: List[Tuple[object, str, object]] = []

    # -- install / restore ---------------------------------------------

    def __enter__(self) -> "LayerRecorder":
        try:
            for hook in HOOKS:
                self._install(hook)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        """Put every original back (reverse order, idempotent)."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _install(self, hook: Hook) -> None:
        module = importlib.import_module(hook.module)
        if "." in hook.target:
            cls_name, attr = hook.target.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[attr]
            if isinstance(original, property):
                wrapped = property(self._wrap(hook, original.fget),
                                   original.fset, original.fdel,
                                   original.__doc__)
            else:
                wrapped = self._wrap(hook, original)
            self._patches.append((cls, attr, original))
            setattr(cls, attr, wrapped)
            return
        original = getattr(module, hook.target)
        wrapped = self._wrap(hook, original)
        # Patch the definition and every imported copy of it.
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (name == "repro"
                                      or name.startswith("repro.")):
                continue
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    self._patches.append((loaded, attr, original))
                    setattr(loaded, attr, wrapped)

    # -- spans -----------------------------------------------------------

    def _wrap(self, hook: Hook, func: Callable) -> Callable:
        signature = inspect.signature(func) if hook.count else None
        name = f"{hook.module.rsplit('.', 1)[-1]}.{hook.target}"
        self._layer_of[name] = hook.layer
        tracer = self.tracer

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            entered = self._layer_of.get(tracer.current_scope) != hook.layer
            span = tracer.begin_span(name, hook.layer, request=self.request)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.end_span(span)
            if signature is not None and entered:
                bound = signature.bind(*args, **kwargs).arguments
                span.args.update(hook.count(bound, result))
            return result
        return wrapper

    def request_span(self) -> ContextManager[object]:
        """The root span of the traced call (keeps the unattributed
        rest as its self time)."""
        return self.tracer.span(self.request, ROOT, request=self.request)


def per_layer_metric_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit, in output order."""
    units: Dict[str, str] = {}
    for layer, counts in LAYER_COUNTS.items():
        for count in counts:
            if count == "hits":
                units[f"{layer}.hit_ratio"] = "ratio"
            else:
                units[f"{layer}.{count}"] = "B" if count.startswith(
                    "bytes") else "count"
        units[f"{layer}.self_s"] = "s"
    units.update({"other.self_s": "s", "trace.wall_s": "s",
                  "trace.overhead_ratio": "ratio", "host.probe_s": "s"})
    return units


def add_self_times(tracer: Tracer) -> None:
    """Set each span's ``self_s`` argument: its inclusive time minus
    that of the spans directly inside it.

    The tracer appends a span when it closes, so a span's children come
    before it, one depth deeper, and after any earlier sibling's.
    """
    children: Dict[int, float] = {}
    for span in tracer.spans:
        inside = children.pop(span.depth + 1, 0.0)
        span.args["self_s"] = span.duration - inside
        children[span.depth] = children.get(span.depth, 0.0) + span.duration


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Aggregate one traced call's spans into per-layer metrics.

    Returns every layer metric of :func:`per_layer_metric_units` except
    the two the caller measures itself (``trace.overhead_ratio`` and
    ``host.probe_s``).  Raises ``KeyError`` on a count that
    :data:`LAYER_COUNTS` does not list for the span's layer.
    """
    add_self_times(tracer)
    totals: Dict[str, float] = {}
    for layer, counts in LAYER_COUNTS.items():
        totals[f"{layer}.self_s"] = 0.0
        for count in counts:
            totals[f"{layer}.{count}"] = 0
    for span in tracer.spans:
        layer = span.category
        if layer == ROOT:
            totals["other.self_s"] = span.args["self_s"]
            totals["trace.wall_s"] = span.duration
            continue
        unlisted = set(span.args) - {"request", "self_s",
                                     *LAYER_COUNTS[layer]}
        if unlisted:
            raise KeyError(f"{span.name} counts {sorted(unlisted)}, which "
                           f"LAYER_COUNTS[{layer!r}] does not list")
        totals[f"{layer}.self_s"] += span.args["self_s"]
        for count in LAYER_COUNTS[layer]:
            totals[f"{layer}.{count}"] += span.args.get(count, 0)
    builds = totals["programcache.builds"]
    hits = totals.pop("programcache.hits")
    totals["programcache.hit_ratio"] = hits / builds if builds else 0.0
    return totals
