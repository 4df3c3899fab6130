"""Roofline-driven autotuner: the "auto cannot lose" smoke.

The tentpole claims, pinned as CI assertions:

* **no pessimal pick** — ``RunConfig(config="auto")`` measures a warm
  NSPS no worse than the *worst* candidate the tuner enumerated (NSPS
  is ns per particle-step: lower is better, so auto <= worst);
* **calibrated prediction** — the pick's measured NSPS lands within
  :data:`~repro.analysis.autotune.CALIBRATION_TOLERANCE` of its own
  roofline/cost-model prediction and the run report carries no
  calibration warnings (the analytic ``estimate_spec_seconds`` shares
  its pricing core with the measured launch, so a warning here means
  its analytic load is missing something a real schedule puts on the
  device — a cost-model bug, see ``docs/TUNING.md``);
* **report plumbing** — the auto report exposes the full ranked
  :class:`~repro.analysis.autotune.TuningReport` plus
  ``predicted_nsps`` for downstream tooling.

Run:  pytest benchmarks/bench_autotune.py --benchmark-only -s
"""

import pytest

from repro.analysis.autotune import CALIBRATION_TOLERANCE
from repro.bench.harness import autotune_rows

from conftest import once

N = 50_000
WARMUP = 2
STEPS = 6
DEVICE = "iris-xe-max"


@pytest.fixture(scope="module")
def reports():
    """One auto run plus every enumerated candidate, measured on the
    simulated clock (shared by every assertion below)."""
    return autotune_rows(n=N, steps=STEPS, warmup=WARMUP, device=DEVICE)


def test_auto_never_pessimal(benchmark, reports):
    auto = reports["auto"]
    measured = {label: report.nsps
                for label, report in reports["candidates"].items()}
    worst_label = max(measured, key=measured.get)
    best_label = min(measured, key=measured.get)
    once(benchmark, lambda: auto.nsps)
    benchmark.extra_info["auto_nsps"] = auto.nsps
    benchmark.extra_info["worst_nsps"] = measured[worst_label]
    benchmark.extra_info["best_nsps"] = measured[best_label]
    print(f"\nauto {auto.nsps:.3f} ns/particle-step vs best "
          f"{measured[best_label]:.3f} ({best_label}) and worst "
          f"{measured[worst_label]:.3f} ({worst_label})")
    assert auto.nsps <= measured[worst_label], \
        "autotuner selected a pessimal configuration"


def test_prediction_within_tolerance(reports):
    auto = reports["auto"]
    assert auto.predicted_nsps is not None
    error = abs(auto.nsps - auto.predicted_nsps) / auto.predicted_nsps
    assert error <= CALIBRATION_TOLERANCE, \
        f"predicted {auto.predicted_nsps:.3f} vs measured " \
        f"{auto.nsps:.3f}: {error:.1%} off"
    assert auto.calibration_warnings == []


def test_report_carries_tuning(reports):
    auto = reports["auto"]
    tuning = auto.tuning
    assert tuning is not None
    # ranked ascending: the selected best heads the table
    nsps = [p.predicted_nsps for p in tuning.ranked]
    assert nsps == sorted(nsps)
    assert tuning.best is tuning.ranked[0]
    # every enumerated candidate was measured by the harness
    labels = {p.candidate.label for p in tuning.ranked}
    assert labels == set(reports["candidates"])
