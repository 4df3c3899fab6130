"""Deterministic fault injection for the simulated oneAPI runtime.

A :class:`FaultPlan` declares *what* can go wrong (one :class:`FaultRule`
per fault kind: a probability per opportunity, an explicit schedule of
opportunity indices, or both); a :class:`FaultInjector` binds a plan to
a seed and makes the actual injection decisions.  Determinism is the
core contract: every fault kind draws from its own
``numpy.random.default_rng([seed, kind_index])`` stream and counts its
own opportunities, so two runs with the same plan, seed and workload
inject byte-identical fault sequences — regardless of whether a tracer
is installed and regardless of what the *other* fault kinds do.

Instrumented runtime code never holds an injector; like the tracer
(:func:`repro.observability.tracer.active_tracer`) it asks
:func:`active_fault_injector` — a single module-global read — and does
nothing when the answer is ``None``.  Untraced, uninjected runs
therefore execute exactly as before this layer existed.

The fault kinds and where they strike:

====================  ====================================================
kind                  injection site
====================  ====================================================
``launch-failure``    :meth:`repro.oneapi.queue.Queue.parallel_for` —
                      the submit fails (transient ``KernelError``)
``launch-hang``       same site — the launch hangs; the watchdog kills
                      it (``LaunchTimeoutError``)
``launch-slowdown``   same site — the launch completes but takes
                      ``slowdown``x its modelled time
``jit-failure``       first launch of a kernel under the dpcpp runtime —
                      the JIT compiler fails (transient ``KernelError``)
``alloc-failure``     :class:`repro.oneapi.memory.UsmMemoryManager` —
                      a USM allocation is refused
                      (``AllocationFailedError``)
``poisoned-read``     a USM allocation feeding a launch is corrupted;
                      the read fails (``MemoryModelError``) until the
                      recovery layer scrubs it
``scheduler-imbalance``  :class:`repro.oneapi.scheduler.DynamicScheduler`
                      — half the worker threads stall for one launch
``device-loss``       :meth:`repro.oneapi.runtime.PushEngine.step` —
                      the whole device dies, permanently
                      (``DeviceLostError``)
``exchange-stall``    :meth:`repro.oneapi.queue.Queue.memcpy_async` —
                      an inter-device exchange hangs; the watchdog
                      kills it (``ExchangeTimeoutError``)
====================  ====================================================
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

import numpy as np

from ..errors import (AllocationFailedError, ConfigurationError,
                      DeviceLostError, ExchangeTimeoutError, KernelError,
                      LaunchTimeoutError, MemoryModelError)
from ..observability.tracer import active_tracer

__all__ = ["FAULT_KINDS", "FaultRule", "FaultPlan", "InjectedFault",
           "FaultInjector", "active_fault_injector",
           "install_fault_injector", "fault_injection"]

#: Every fault kind the injector understands, in stream-index order
#: (the index seeds the kind's private RNG stream — append only).
FAULT_KINDS = (
    "launch-failure",
    "launch-hang",
    "launch-slowdown",
    "jit-failure",
    "alloc-failure",
    "poisoned-read",
    "scheduler-imbalance",
    "device-loss",
    "exchange-stall",
)


@dataclass(frozen=True)
class FaultRule:
    """When one fault kind fires.

    Attributes:
        kind: One of :data:`FAULT_KINDS`.
        probability: Chance of injection per opportunity (0 disables
            the probabilistic path).
        at_ops: Explicit opportunity indices (0-based, per kind) that
            always inject — the schedule-based path, used to place a
            device loss at an exact step.
        max_injections: Cap on total injections of this kind
            (None = unlimited); keeps chaos plans recoverable.
        devices: Substring filters on the device name; empty matches
            every device.  Only meaningful for device-bound kinds.
        slowdown: Time multiplier for ``launch-slowdown`` (>= 1).
    """

    kind: str
    probability: float = 0.0
    at_ops: Tuple[int, ...] = ()
    max_injections: Optional[int] = None
    devices: Tuple[str, ...] = ()
    slowdown: float = 4.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{FAULT_KINDS}")
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigurationError(
                f"probability must be in [0, 1], got {self.probability}")
        if any(op < 0 for op in self.at_ops):
            raise ConfigurationError("at_ops indices must be >= 0")
        if self.max_injections is not None and self.max_injections < 0:
            raise ConfigurationError("max_injections must be >= 0")
        if self.slowdown < 1.0:
            raise ConfigurationError(
                f"slowdown must be >= 1, got {self.slowdown}")


@dataclass(frozen=True)
class FaultPlan:
    """A named set of fault rules (at most one per kind).

    Plans are pure declarations — they carry no RNG state; bind one to
    a seed with :class:`FaultInjector` (or :func:`fault_injection`).
    """

    name: str
    rules: Tuple[FaultRule, ...] = ()

    def __post_init__(self) -> None:
        kinds = [rule.kind for rule in self.rules]
        if len(kinds) != len(set(kinds)):
            raise ConfigurationError(
                f"plan {self.name!r} has duplicate rules for a kind")

    def rule_for(self, kind: str) -> Optional[FaultRule]:
        """The rule governing ``kind``, or None when the kind is off."""
        for rule in self.rules:
            if rule.kind == kind:
                return rule
        return None


@dataclass(frozen=True)
class InjectedFault:
    """One fault the injector actually fired (the audit record)."""

    kind: str
    op_index: int
    detail: str
    device: str


class FaultInjector:
    """Binds a :class:`FaultPlan` to a seed and makes injection calls.

    The runtime's injection sites call the ``on_*`` methods; each
    counts an *opportunity* for its kind and either returns normally or
    raises the kind's error.  All decisions come from per-kind RNG
    streams seeded ``[seed, kind_index]``, so the injection sequence is
    a pure function of (plan, seed, workload).
    """

    def __init__(self, plan: FaultPlan, seed: int = 0) -> None:
        self.plan = plan
        self.seed = int(seed)
        self.injected: List[InjectedFault] = []
        self.lost_devices: set = set()
        self._ops = {kind: 0 for kind in FAULT_KINDS}
        self._fired = {kind: 0 for kind in FAULT_KINDS}
        self._rng = {kind: np.random.default_rng([self.seed, index])
                     for index, kind in enumerate(FAULT_KINDS)}

    # -- the decision core ------------------------------------------------

    def _decide(self, kind: str, detail: str = "",
                device: str = "") -> bool:
        """Count one opportunity for ``kind``; True when it injects."""
        rule = self.plan.rule_for(kind)
        op = self._ops[kind]
        self._ops[kind] = op + 1
        if rule is None:
            return False
        if rule.devices and not any(want in device
                                    for want in rule.devices):
            return False
        if rule.max_injections is not None \
                and self._fired[kind] >= rule.max_injections:
            return False
        inject = op in rule.at_ops
        if not inject and rule.probability > 0.0:
            inject = bool(self._rng[kind].random() < rule.probability)
        if inject:
            self._fired[kind] += 1
            fault = InjectedFault(kind=kind, op_index=op, detail=detail,
                                  device=device)
            self.injected.append(fault)
            tracer = active_tracer()
            if tracer is not None:
                tracer.fault(kind, op_index=op, detail=detail,
                             device=device, total=len(self.injected))
        return inject

    # -- accounting -------------------------------------------------------

    def counts(self) -> dict:
        """Injections per kind (only kinds that fired)."""
        totals: dict = {}
        for fault in self.injected:
            totals[fault.kind] = totals.get(fault.kind, 0) + 1
        return totals

    def opportunities(self, kind: str) -> int:
        """Opportunities seen so far for one kind."""
        return self._ops[kind]

    # -- injection sites --------------------------------------------------

    def on_launch(self, device: str, spec) -> None:
        """Called by the queue before every kernel launch.

        May poison a USM allocation feeding the launch (detected by the
        queue's read check), fail the submit, or hang the launch.  On a
        device already lost, raises immediately.
        """
        if device in self.lost_devices:
            raise DeviceLostError(
                f"device {device!r} was lost earlier in this run")
        if self._decide("poisoned-read", detail=spec.name, device=device):
            allocations = [s.allocation for s in spec.streams
                           if s.allocation is not None]
            if allocations:
                index = int(self._rng["poisoned-read"].integers(
                    len(allocations)))
                allocations[index].poison()
        if self._decide("launch-failure", detail=spec.name, device=device):
            raise KernelError(
                f"injected launch failure for kernel {spec.name!r} "
                f"on {device!r}")
        if self._decide("launch-hang", detail=spec.name, device=device):
            raise LaunchTimeoutError(
                f"injected hang: kernel {spec.name!r} on {device!r} "
                f"exceeded the launch watchdog")

    def launch_slowdown(self, device: str, kernel_name: str
                        ) -> Optional[float]:
        """Slowdown multiplier for this launch, or None for full speed."""
        if self._decide("launch-slowdown", detail=kernel_name,
                        device=device):
            rule = self.plan.rule_for("launch-slowdown")
            return rule.slowdown if rule is not None else None
        return None

    def on_jit(self, kernel_name: str, device: str = "") -> None:
        """Called on a kernel's first (JIT-compiling) launch."""
        if self._decide("jit-failure", detail=kernel_name, device=device):
            raise KernelError(
                f"injected JIT compilation failure for kernel "
                f"{kernel_name!r}")

    def on_alloc(self, name: str, nbytes: int) -> None:
        """Called by the USM manager before adopting a new allocation."""
        if self._decide("alloc-failure", detail=name):
            raise AllocationFailedError(
                f"injected USM allocation failure for {name!r} "
                f"({nbytes} bytes)")

    def scheduler_imbalance(self) -> bool:
        """Whether this launch's dynamic schedule loses half its threads."""
        return self._decide("scheduler-imbalance")

    def on_exchange(self, device: str, name: str, nbytes: int) -> None:
        """Called before every cost-modeled inter-device exchange.

        A lost device can no longer exchange; otherwise the stall
        decision may hang the transfer, which the exchange watchdog
        kills (:class:`~repro.errors.ExchangeTimeoutError`) so a
        bounded retry can re-issue it.
        """
        if device in self.lost_devices:
            raise DeviceLostError(
                f"device {device!r} was lost earlier in this run")
        if self._decide("exchange-stall", detail=name, device=device):
            raise ExchangeTimeoutError(
                f"injected exchange stall: transfer {name!r} "
                f"({nbytes} bytes) on {device!r} exceeded the exchange "
                f"watchdog")

    def on_device_step(self, device: str) -> None:
        """Called by the push runner at the top of every step."""
        if device in self.lost_devices:
            raise DeviceLostError(
                f"device {device!r} was lost earlier in this run")
        if self._decide("device-loss", device=device):
            self.lost_devices.add(device)
            raise DeviceLostError(f"injected device loss on {device!r}")

    @staticmethod
    def check_readable(spec) -> None:
        """Raise if any USM allocation feeding ``spec`` is poisoned."""
        for stream in spec.streams:
            allocation = stream.allocation
            if allocation is not None and allocation.poisoned:
                raise MemoryModelError(
                    f"poisoned read: allocation {allocation.name!r} "
                    f"feeding kernel {spec.name!r} is corrupted")


# -- the process-wide hook --------------------------------------------------

_lock = threading.Lock()
_active: Optional[FaultInjector] = None


def active_fault_injector() -> Optional[FaultInjector]:
    """The installed injector, or None when injection is off (default).

    Injection sites call this once and skip all fault logic on ``None``
    — the entire cost of the resilience layer for fault-free runs is
    this one global read per site.
    """
    return _active


def install_fault_injector(injector: Optional[FaultInjector]
                           ) -> Optional[FaultInjector]:
    """Install ``injector`` process-wide; returns the previous one."""
    global _active
    with _lock:
        previous = _active
        _active = injector
    return previous


@contextlib.contextmanager
def fault_injection(plan: FaultPlan, seed: int = 0,
                    injector: Optional[FaultInjector] = None
                    ) -> Iterator[FaultInjector]:
    """Install a fault injector for the duration of a ``with`` block.

    Builds a fresh :class:`FaultInjector` from (plan, seed) unless one
    is passed explicitly; always restores the previous hook on exit.
    """
    own = FaultInjector(plan, seed) if injector is None else injector
    previous = install_fault_injector(own)
    try:
        yield own
    finally:
        install_fault_injector(previous)
