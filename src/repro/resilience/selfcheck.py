"""Chaos self-check: every fault plan x a seed matrix, nothing escapes.

The smoke test behind the chaos section of ``repro validate`` (and
the marked ``slow`` pytest): run a small resilient push under *every* named fault
plan for a matrix of seeds and demand that

* no exception other than the documented terminal one (a
  :class:`~repro.errors.DeviceLostError` after the fallback chain is
  exhausted) ever escapes the recovery stack, and
* the physics stays finite — injected faults may cost time, never
  correctness.

Chain exhaustion and retry give-up are *reported* outcomes, not
failures: a chaos plan is allowed to kill a run, but only through the
errors the taxonomy documents.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..errors import (AllocationFailedError, DeviceLostError, KernelError,
                      LaunchTimeoutError)
from .checkpoint import Checkpointer
from .faults import fault_injection
from .plans import PLAN_NAMES, named_plan
from .recovery import RetryPolicy
from .runner import ResilientPushEngine

__all__ = ["SelfCheckResult", "chaos_self_check"]

#: Errors the taxonomy allows to terminate a run (everything else is a
#: self-check failure).
_DOCUMENTED_TERMINAL = (DeviceLostError, KernelError, LaunchTimeoutError,
                        AllocationFailedError)


@dataclass(frozen=True)
class SelfCheckResult:
    """Outcome of one (plan, seed) chaos cell."""

    plan: str
    seed: int
    outcome: str          # "completed" | "exhausted" | "gave-up"
    faults: int
    retries: int
    devices_lost: int

    @property
    def survived(self) -> bool:
        """True when the run completed all its steps."""
        return self.outcome == "completed"


def _fresh_ensemble(n: int, seed: int):
    from ..fp import Precision
    from ..particles.ensemble import Layout, make_ensemble
    ensemble = make_ensemble(n, Layout.SOA, Precision.DOUBLE)
    rng = np.random.default_rng(seed)
    for name in ("x", "y", "z"):
        ensemble.component(name)[:] = rng.random(n) * 1.0e-6
    for name in ("px", "py", "pz"):
        ensemble.component(name)[:] = rng.standard_normal(n) * 1.0e-22
    return ensemble


def _finite(ensemble) -> bool:
    return all(bool(np.all(np.isfinite(ensemble.component(name))))
               for name in ("x", "y", "z", "px", "py", "pz"))


def chaos_self_check(seeds: Sequence[int] = (0, 1, 2),
                     steps: int = 24,
                     n_particles: int = 256,
                     plans: Optional[Sequence[str]] = None
                     ) -> Dict[Tuple[str, int], SelfCheckResult]:
    """Run the chaos matrix; returns one result per (plan, seed) cell.

    Raises whatever escaped if any cell dies with an error outside the
    documented taxonomy, or if any cell's physics goes non-finite — the
    two invariants this check exists to enforce.
    """
    from ..fields.dipole import MDipoleWave

    plans = tuple(plans) if plans is not None else PLAN_NAMES
    source = MDipoleWave()
    dt = 1.0e-12
    results: Dict[Tuple[str, int], SelfCheckResult] = {}
    for plan_name in plans:
        for seed in seeds:
            ensemble = _fresh_ensemble(n_particles, seed)
            runner = None
            with fault_injection(named_plan(plan_name),
                                 seed=seed) as injector:
                try:
                    runner = ResilientPushEngine(
                        ensemble, "analytical", source, dt,
                        policy=RetryPolicy(seed=seed),
                        checkpointer=Checkpointer(every=5, keep=2))
                    runner.run(steps)
                    outcome = "completed"
                except DeviceLostError:
                    outcome = "exhausted"
                except _DOCUMENTED_TERMINAL:
                    outcome = "gave-up"
                # anything else propagates: self-check failure
            if not _finite(ensemble):
                raise AssertionError(
                    f"chaos cell plan={plan_name!r} seed={seed} produced "
                    f"non-finite particle state")
            results[(plan_name, seed)] = SelfCheckResult(
                plan=plan_name, seed=seed, outcome=outcome,
                faults=len(injector.injected),
                retries=runner.stats.retries if runner is not None else 0,
                devices_lost=(len(runner.devices_lost)
                              if runner is not None else 0))
    return results
