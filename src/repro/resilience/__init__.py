"""Fault injection and recovery for the simulated oneAPI runtime.

The layer has two halves that meet at the runtime's injection sites:

* **faults** (:mod:`~repro.resilience.faults`,
  :mod:`~repro.resilience.plans`) — a deterministic, seedable
  :class:`FaultInjector` that makes the simulated stack fail the ways
  real oneAPI deployments do: failed or hung kernel launches, JIT
  compile errors, refused USM allocations, poisoned reads, scheduler
  imbalance, whole-device loss;
* **recovery** (:mod:`~repro.resilience.recovery`,
  :mod:`~repro.resilience.checkpoint`,
  :mod:`~repro.resilience.runner`) — bounded retries with exponential
  backoff charged to the *simulated* clock, a launch watchdog,
  step-granular checkpoints, and a device fallback chain that restores
  and replays after a loss.

Everything is off by default: without an installed injector the
runtime behaves exactly as before this package existed.  See
``docs/RESILIENCE.md`` for the fault taxonomy, the determinism
contract and the recovery semantics.

Typical use::

    from repro.resilience import fault_injection, named_plan
    with fault_injection(named_plan("transient"), seed=7) as injector:
        records, report = runner.run(steps=40)
    print(report.summary())
"""

from .faults import (FAULT_KINDS, FaultInjector, FaultPlan, FaultRule,
                     InjectedFault, active_fault_injector, fault_injection,
                     install_fault_injector)
from .plans import PLAN_NAMES, named_plan
from .recovery import (RecoveryStats, RetryPolicy, Watchdog,
                       allocate_with_retry, run_with_retry)
from .checkpoint import Checkpointer
from .runner import DEVICE_LADDER, RecoveryReport, ResilientPushEngine
from .selfcheck import SelfCheckResult, chaos_self_check

__all__ = [
    "FAULT_KINDS",
    "FaultRule",
    "FaultPlan",
    "InjectedFault",
    "FaultInjector",
    "active_fault_injector",
    "install_fault_injector",
    "fault_injection",
    "PLAN_NAMES",
    "named_plan",
    "RetryPolicy",
    "Watchdog",
    "RecoveryStats",
    "run_with_retry",
    "allocate_with_retry",
    "Checkpointer",
    "DEVICE_LADDER",
    "RecoveryReport",
    "ResilientPushEngine",
    "SelfCheckResult",
    "chaos_self_check",
]
