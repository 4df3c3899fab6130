"""Named fault plans: the scenarios the CLI and tests run under.

Each plan is a :class:`~repro.resilience.faults.FaultPlan` built from
the hazards real oneAPI porting efforts report (JIT failures on first
launch, USM exhaustion, device loss mid-run); probabilities are chosen
so the default :class:`~repro.resilience.recovery.RetryPolicy` recovers
with margin — chaos testing is about exercising recovery paths, not
about guaranteed death.

Use :func:`named_plan` to look a plan up by name (``repro push
--fault-plan chaos``); :data:`PLAN_NAMES` lists what it accepts.
"""

from __future__ import annotations

from ..errors import ConfigurationError
from .faults import FaultPlan, FaultRule

__all__ = ["PLAN_NAMES", "named_plan"]


def _none() -> FaultPlan:
    """No faults at all — the control arm of every experiment."""
    return FaultPlan(name="none")


def _transient() -> FaultPlan:
    """Only transient faults: every one is recoverable by retrying."""
    return FaultPlan(name="transient", rules=(
        FaultRule("launch-failure", probability=0.05),
        FaultRule("launch-slowdown", probability=0.05, slowdown=4.0),
        FaultRule("jit-failure", probability=0.25),
        FaultRule("alloc-failure", probability=0.02),
    ))


def _default() -> FaultPlan:
    """The default mix: transients plus rare hangs and poisoned reads."""
    return FaultPlan(name="default", rules=(
        FaultRule("launch-failure", probability=0.04),
        FaultRule("launch-slowdown", probability=0.04, slowdown=4.0),
        FaultRule("launch-hang", probability=0.02),
        FaultRule("jit-failure", probability=0.2),
        FaultRule("alloc-failure", probability=0.02),
        FaultRule("poisoned-read", probability=0.02),
    ))


def _device_loss() -> FaultPlan:
    """One scheduled whole-device loss plus mild transients.

    The loss fires on the 6th runner step (opportunity index 5), which
    lands mid-run for the CLI defaults — the scenario the fallback
    chain and checkpoint restore exist for.
    """
    return FaultPlan(name="device-loss", rules=(
        FaultRule("device-loss", at_ops=(5,), max_injections=1),
        FaultRule("launch-failure", probability=0.02),
        FaultRule("launch-slowdown", probability=0.02, slowdown=3.0),
    ))


def _exchange() -> FaultPlan:
    """Stalled inter-device exchanges plus mild launch transients.

    Only meaningful for multi-device workloads (the sharded runner of
    :mod:`repro.distributed`): exchange-stall opportunities occur at
    :meth:`~repro.oneapi.queue.Queue.memcpy_async` sites, which a
    single-device push never reaches.
    """
    return FaultPlan(name="exchange", rules=(
        FaultRule("exchange-stall", probability=0.15),
        FaultRule("launch-failure", probability=0.02),
    ))


def _chaos() -> FaultPlan:
    """Everything at once, bounded so recovery stays possible."""
    return FaultPlan(name="chaos", rules=(
        FaultRule("launch-failure", probability=0.08),
        FaultRule("launch-slowdown", probability=0.08, slowdown=6.0),
        FaultRule("launch-hang", probability=0.04),
        FaultRule("jit-failure", probability=0.3),
        FaultRule("alloc-failure", probability=0.04),
        FaultRule("poisoned-read", probability=0.04),
        FaultRule("scheduler-imbalance", probability=0.1),
        FaultRule("device-loss", probability=0.01, max_injections=2),
        FaultRule("exchange-stall", probability=0.08),
    ))


_PLANS = {
    "none": _none,
    "transient": _transient,
    "default": _default,
    "device-loss": _device_loss,
    "exchange": _exchange,
    "chaos": _chaos,
}

#: Plan names :func:`named_plan` accepts (CLI ``--fault-plan`` choices).
PLAN_NAMES = tuple(sorted(_PLANS))


def named_plan(name: str) -> FaultPlan:
    """Build a fresh named :class:`FaultPlan`."""
    try:
        return _PLANS[name]()
    except KeyError:
        raise ConfigurationError(
            f"unknown fault plan {name!r}; expected one of "
            f"{PLAN_NAMES}") from None
