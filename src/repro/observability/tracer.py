"""The tracer: nestable spans, counters, and the global no-op hook.

Two clocks run through every traced execution:

* the **host wall clock** (``time.perf_counter``) — real seconds spent
  in Python, recorded as nestable :class:`Span` objects;
* the **simulated device timeline** — the cost-model seconds that the
  queues' :class:`~repro.oneapi.events.Timeline` assigns to kernel
  launches, recorded as flat :class:`SimSlice` objects.

Instrumented code never holds a tracer; it asks :func:`active_tracer`
(a single module-global read) and does nothing when the answer is
``None``.  That is the "no-op by default" contract: an untraced run
executes the same arithmetic as before instrumentation, so the
traced-vs-untraced NSPS regression guard in
``tests/test_observability.py`` can demand exact equality.

This module deliberately imports nothing from :mod:`repro.oneapi` or
:mod:`repro.bench`; the runtime reports in via duck-typed payloads, so
there are no import cycles.
"""

from __future__ import annotations

import contextlib
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..errors import TraceError
from .counters import KernelStats

__all__ = ["Span", "SimSlice", "TraceError", "Tracer", "active_tracer",
           "install_tracer", "tracing", "trace_span"]


@dataclass
class Span:
    """One nestable host-side interval (wall-clock seconds).

    ``start``/``end`` are seconds relative to the tracer's epoch;
    ``depth`` is the nesting level (0 = top) and ``parent`` the
    enclosing span's name, both fixed when the span closes.
    """

    name: str
    category: str = "host"
    start: float = 0.0
    end: Optional[float] = None
    depth: int = 0
    parent: Optional[str] = None
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Wall seconds from start to end (0.0 while still open)."""
        return 0.0 if self.end is None else self.end - self.start


@dataclass(frozen=True)
class SimSlice:
    """One interval on a queue's *simulated* timeline (model seconds)."""

    name: str
    start: float
    end: float
    track: str = "sim"
    args: Tuple[Tuple[str, Any], ...] = ()

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Instant:
    """A zero-duration marker on the host wall clock."""

    name: str
    category: str
    timestamp: float
    args: Tuple[Tuple[str, Any], ...] = ()


@dataclass(frozen=True)
class CounterSample:
    """One sample of a named set of counter series."""

    name: str
    timestamp: float
    values: Tuple[Tuple[str, float], ...]


class Tracer:
    """Collects spans, instants, counters, simulated-timeline slices and
    per-kernel statistics for one traced execution.

    A tracer is cheap to construct and single-use: create one, run the
    workload under :func:`tracing`, then hand it to
    :func:`~repro.observability.export.write_chrome_trace` and
    :func:`~repro.observability.summary.kernel_summary`.

    Kernel statistics are keyed by ``(scope, kernel_name)`` where
    *scope* is the name of the innermost open span when the launch was
    reported — the bench harness opens one span per benchmark cell, so
    the same kernel name measured under different runtime
    configurations stays separable (see
    :meth:`~repro.observability.counters.KernelStats`).
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self._epoch = clock()
        self._stack: List[Span] = []
        self.spans: List[Span] = []
        self.instants: List[Instant] = []
        self.counters: List[CounterSample] = []
        self.sim_slices: List[SimSlice] = []
        self.kernel_stats: Dict[Tuple[str, str], KernelStats] = {}

    # -- clocks ----------------------------------------------------------

    def now(self) -> float:
        """Wall seconds since this tracer's epoch."""
        return self._clock() - self._epoch

    @property
    def open_depth(self) -> int:
        """Number of currently open (unclosed) spans."""
        return len(self._stack)

    @property
    def current_scope(self) -> str:
        """Name of the innermost open span ("" at top level)."""
        return self._stack[-1].name if self._stack else ""

    # -- spans -----------------------------------------------------------

    def begin_span(self, name: str, category: str = "host", /,
                   **args: Any) -> Span:
        """Open a span; it nests under any span already open."""
        span = Span(name=name, category=category, start=self.now(),
                    depth=len(self._stack),
                    parent=self._stack[-1].name if self._stack else None,
                    args=dict(args))
        self._stack.append(span)
        return span

    def end_span(self, span: Optional[Span] = None, **args: Any) -> Span:
        """Close the innermost span (which must be ``span`` if given)."""
        if not self._stack:
            raise TraceError("end_span with no span open")
        top = self._stack.pop()
        if span is not None and span is not top:
            self._stack.append(top)
            raise TraceError(
                f"unbalanced span exit: tried to close {span.name!r} "
                f"but {top.name!r} is innermost")
        top.end = self.now()
        top.args.update(args)
        self.spans.append(top)
        return top

    @contextlib.contextmanager
    def span(self, name: str, category: str = "host", /,
             **args: Any) -> Iterator[Span]:
        """Context manager recording one nestable wall-clock span."""
        opened = self.begin_span(name, category, **args)
        try:
            yield opened
        finally:
            self.end_span(opened)

    # -- point events ----------------------------------------------------

    def instant(self, name: str, category: str = "host", /,
                **args: Any) -> None:
        """Record a zero-duration marker at the current wall time."""
        self.instants.append(Instant(name=name, category=category,
                                     timestamp=self.now(),
                                     args=tuple(args.items())))

    def counter(self, name: str, /, **values: float) -> None:
        """Record a sample of one or more named counter series."""
        self.counters.append(CounterSample(
            name=name, timestamp=self.now(),
            values=tuple((k, float(v)) for k, v in values.items())))

    # -- simulated timeline ----------------------------------------------

    def sim_slice(self, name: str, start: float, end: float,
                  track: str = "sim", /, **args: Any) -> None:
        """Record one interval of a queue's simulated timeline.

        ``start``/``end`` are cost-model seconds; ``track`` names the
        timeline (one per queue) so concurrent queues get separate rows
        in the exported trace.
        """
        if end < start:
            raise TraceError(
                f"sim slice {name!r} ends before it starts ({end} < {start})")
        self.sim_slices.append(SimSlice(name=name, start=start, end=end,
                                        track=track,
                                        args=tuple(args.items())))

    # -- kernel accounting -----------------------------------------------

    def kernel_launch(self, name: str, n_items: int, timing: Any,
                      wall_seconds: float = 0.0,
                      scope: Optional[str] = None) -> KernelStats:
        """Report one completed kernel launch.

        ``timing`` is duck-typed against
        :class:`~repro.oneapi.costmodel.LaunchTiming` (the tracer reads
        its public float fields); ``wall_seconds`` is the real time the
        numpy kernel body took (0.0 for timing-only launches).
        """
        key = (self.current_scope if scope is None else scope, name)
        stats = self.kernel_stats.get(key)
        if stats is None:
            stats = self.kernel_stats[key] = KernelStats(name=name,
                                                         scope=key[0])
        stats.add_launch(n_items, timing, wall_seconds)
        return stats

    def transfer(self, name: str, seconds: float, nbytes: int,
                 scope: Optional[str] = None) -> None:
        """Report host<->device transfer charged to a kernel's last
        launch (buffer/accessor submissions add it after the fact)."""
        key = (self.current_scope if scope is None else scope, name)
        stats = self.kernel_stats.get(key)
        if stats is not None:
            stats.add_transfer(seconds, nbytes)
        self.instant(f"transfer:{name}", "memory",
                     seconds=seconds, bytes=nbytes)

    # -- distributed events ----------------------------------------------

    def exchange(self, name: str, seconds: float, nbytes: int, /,
                 **args: Any) -> None:
        """Report one cost-modeled inter-device exchange.

        ``name`` identifies the transfer (typically
        ``"<src> -> <dst>"``), ``seconds`` is the simulated link time it
        was charged, ``nbytes`` the payload.  Recorded as an
        ``exchange``-category instant plus a sample of the
        ``exchange-bytes`` counter series, so traces show both the
        individual transfers and the cumulative per-link traffic.
        """
        self.instant(f"exchange:{name}", "exchange",
                     seconds=seconds, bytes=nbytes, **args)
        self.counter("exchange-bytes", **{name: float(nbytes)})

    # -- kernel-graph events ---------------------------------------------

    def fusion_plan(self, groups: List[List[str]],
                    kernels_eliminated: int,
                    refusals: Optional[Dict[str, str]] = None) -> None:
        """Report the fusion plan of one kernel graph.

        A :class:`~repro.oneapi.graph.GraphExecutor` plans its graph
        once, so this fires once per engine, when the plan is made, not
        once per step.  ``groups`` are the planned launch groups as
        kernel-name lists, ``kernels_eliminated`` the launches each
        replay saves versus the unfused graph, ``refusals`` the
        boundaries left unfused and why.  Recorded as a
        ``fusion``-category instant plus a sample of the ``fusion``
        counter series, so traces show both the plan shape and the
        launch savings.
        """
        self.instant(
            "fusion:plan", "fusion",
            groups=" | ".join("+".join(g) for g in groups),
            kernels_eliminated=kernels_eliminated,
            **({"refusals": "; ".join(f"{k}: {v}" for k, v
                                      in refusals.items())}
               if refusals else {}))
        self.counter("fusion", kernels_eliminated=float(kernels_eliminated),
                     groups=float(len(groups)))

    def program_cache(self, key: Any, warm: bool,
                      stats: Optional[Any] = None) -> None:
        """Report one program-cache lookup.

        ``key`` is duck-typed against
        :class:`~repro.oneapi.programcache.ProgramKey` (the tracer reads
        ``chain`` and ``device``); ``stats`` — when given — is the
        cache's running :class:`~repro.oneapi.programcache.CacheStats`,
        sampled into the ``program-cache`` counter series so traces
        show the hit/miss totals over time.
        """
        self.instant(
            f"program-cache:{'hit' if warm else 'miss'}", "jit",
            chain="+".join(getattr(key, "chain", ())),
            device=getattr(key, "device", ""))
        if stats is not None:
            self.counter("program-cache",
                         hits=float(stats.hits),
                         misses=float(stats.misses),
                         jit_seconds_charged=float(stats.jit_seconds_charged))

    # -- resilience events -----------------------------------------------

    def fault(self, kind: str, /, **args: Any) -> None:
        """Report one injected fault (an instant in the ``fault``
        category; ``args`` carry the injector's audit fields)."""
        self.instant(f"fault:{kind}", "fault", **args)

    def recovery(self, action: str, /, **args: Any) -> None:
        """Report one recovery action (retry, scrub, watchdog giveup,
        checkpoint, restore, device fallback) as a ``recovery``-category
        instant."""
        self.instant(f"recovery:{action}", "recovery", **args)

    # -- validation events -----------------------------------------------

    def hazard(self, kind: str, earlier: str, later: str,
               streams: Any, /, **args: Any) -> None:
        """Report one detected memory hazard.

        ``kind`` is "RAW", "WAR" or "WAW"; ``earlier``/``later`` name
        the two conflicting commands in submission order; ``streams``
        are the shared stream names they race on.  Recorded as a
        ``hazard``-category instant — the detector raises
        :class:`~repro.errors.HazardError` afterwards, so the trace
        keeps the evidence even when the exception is caught.
        """
        self.instant(f"hazard:{kind}", "hazard",
                     earlier=earlier, later=later,
                     streams=",".join(sorted(streams)), **args)

    def validation(self, check: str, passed: bool, /, **args: Any) -> None:
        """Report one differential-validation check outcome.

        ``check`` identifies the comparison (e.g. ``"ulp:single/AoS"``
        or ``"digest:sharded-gather"``); ``args`` carry its measured
        numbers (max ULP distance, digests).  A ``validation``-category
        instant, so traced runs record what was compared and how close
        it came to the tolerance, not just pass/fail.
        """
        self.instant(f"validation:{'pass' if passed else 'fail'}:{check}",
                     "validation", **args)

    # -- service events ----------------------------------------------------

    def job(self, name: str, event: str, /, **args: Any) -> None:
        """Report one scheduler job lifecycle event.

        ``name`` is the job's name, ``event`` the lifecycle transition
        (``"submitted"``, ``"admitted"``, ``"launched"``,
        ``"preempted"``, ``"device-lost"``, ``"restored"``,
        ``"collected"``, ``"completed"``, ``"failed"``, ``"rejected"``
        — see ``docs/SERVICE.md``).  Recorded as a ``service``-category
        instant carrying the job name and the scheduler's simulated
        clock, so a traced schedule shows every job's history next to
        the kernel launches it caused.
        """
        self.instant(f"job:{event}", "service", job=name, **args)

    # -- autotuning events -----------------------------------------------

    def autotune(self, event: str, /, **args: Any) -> None:
        """Report one autotuner event as an ``autotune``-category instant.

        ``event`` is the stage: ``"search"`` (one candidate priced),
        ``"selected"`` (the winning config), ``"calibrated"`` (measured
        NSPS landed within tolerance of the prediction) or
        ``"mispredict"`` (it did not — the cost model's picture of the
        device disagrees with the simulated measurement; see
        ``docs/TUNING.md`` for how to read these).  ``args`` carry the
        candidate label and the predicted/measured numbers.
        """
        self.instant(f"autotune:{event}", "autotune", **args)


# -- the process-wide hook --------------------------------------------------

_lock = threading.Lock()
_active: Optional[Tracer] = None


def active_tracer() -> Optional[Tracer]:
    """The installed tracer, or None when tracing is off (the default).

    Instrumentation sites call this once and skip all reporting on
    ``None`` — the entire cost of the observability layer for untraced
    runs is this one global read per site.
    """
    return _active


def install_tracer(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """Install ``tracer`` as the process-wide tracer; returns the
    previously installed one (None to uninstall)."""
    global _active
    with _lock:
        previous = _active
        _active = tracer
    return previous


@contextlib.contextmanager
def tracing(tracer: Optional[Tracer] = None) -> Iterator[Tracer]:
    """Install a tracer for the duration of a ``with`` block.

    Creates a fresh :class:`Tracer` when none is given and always
    restores the previous hook on exit, so traced regions can nest.
    """
    own = Tracer() if tracer is None else tracer
    previous = install_tracer(own)
    try:
        yield own
    finally:
        install_tracer(previous)


@contextlib.contextmanager
def trace_span(name: str, category: str = "host", /,
               **args: Any) -> Iterator[Optional[Span]]:
    """Span on the active tracer, or a no-op when tracing is off.

    The convenience used by coarse-grained instrumentation sites
    (bench runners, PIC stages) where a context manager reads better
    than an explicit ``if`` guard.
    """
    tracer = _active
    if tracer is None:
        yield None
        return
    with tracer.span(name, category, **args) as span:
        yield span
