"""Multi-device sharded execution: scaling, placement and resilience.

The paper runs the Boris pusher on one device at a time; this benchmark
exercises the :mod:`repro.distributed` layer that shards the same
workload across a simulated device *group* and prices the halo exchange
through the interconnect cost model.  Four claims are pinned:

* strong scaling — two Iris Xe Max cards beat one by >1.5x on the
  paper's SoA/float precalculated configuration;
* placement matters — on the heterogeneous {cpu, p630, iris-xe-max}
  group a bandwidth-proportional split beats the naive even split;
* overlap matters — hiding the exchange behind the next push (the
  DPC++ event-graph pattern) beats the bulk-synchronous schedule;
* resilience — a traced device-loss run completes via checkpoint
  restore + re-sharding and reproduces the fault-free final particle
  state bit-exactly.

``test_sharded_nsps_matches_recorded_baseline`` doubles as the CI
smoke: it replays the committed ``benchmarks/BENCH_shard.json``
configuration and fails if group NSPS drifts from the recorded value.

Run:  pytest benchmarks/bench_multidevice_scaling.py --benchmark-only -s
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.bench import paper_time_step, paper_wave
from repro.bench.scenarios import paper_ensemble
from repro.distributed import (DeviceGroup, ProportionalSharding,
                               ShardedPushEngine)
from repro.fp import Precision
from repro.observability import Tracer, tracing
from repro.particles import Layout
from repro.particles.ensemble import COMPONENTS
from repro.resilience import Checkpointer, fault_injection, named_plan

from conftest import once

#: Paper benchmark configuration, scaled down (the cost model is linear
#: in n far above the caches, so 2e5 particles measure the same NSPS).
N = 200_000
WARMUP = 2
STEPS = 8


def _runner(group_spec, n=N, **kwargs):
    ensemble = paper_ensemble(n, Layout.SOA, Precision.SINGLE)
    group = DeviceGroup.from_spec(group_spec)
    return ShardedPushEngine(group, ensemble, "precalculated",
                             paper_wave(), paper_time_step(), **kwargs)


def _steady_state_nsps(group_spec, **kwargs):
    """Group NSPS after warm-up (JIT + first-touch excluded)."""
    return _runner(group_spec, **kwargs).run_measured(WARMUP, STEPS)


def test_strong_scaling_two_iris(benchmark):
    """Two Iris Xe Max cards beat one by >1.5x (SoA, float)."""
    one, two = once(benchmark, lambda: (
        _steady_state_nsps("iris-xe-max"),
        _steady_state_nsps("2x iris-xe-max")))
    speedup = one.nsps / two.nsps
    print(f"\n1x iris {one.nsps:.3f} NSPS, 2x iris {two.nsps:.3f} NSPS "
          f"-> speedup {speedup:.2f}")
    benchmark.extra_info["speedup 1->2 iris"] = round(speedup, 2)
    assert speedup > 1.5
    # The exchange was actually priced, not skipped.
    assert two.exchange.transfers == 2 * STEPS
    assert two.exchange.total_bytes > 0


def test_bandwidth_proportional_beats_even(benchmark):
    """Heterogeneous placement: bandwidth-proportional beats even."""
    spec = "cpu, p630, iris-xe-max"
    even, proportional = once(benchmark, lambda: (
        _steady_state_nsps(spec),
        _steady_state_nsps(
            spec, strategy=ProportionalSharding(metric="bandwidth"))))
    print(f"\n{spec}: even {even.nsps:.3f} NSPS, "
          f"bandwidth-proportional {proportional.nsps:.3f} NSPS")
    benchmark.extra_info["even"] = round(even.nsps, 3)
    benchmark.extra_info["bandwidth"] = round(proportional.nsps, 3)
    assert proportional.nsps < even.nsps
    # The split actually follows Table 1 bandwidths: cpu > iris > p630.
    by_key = {s.key: s.particles for s in proportional.shards}
    assert by_key["cpu"] > by_key["iris-xe-max"] > by_key["p630"]
    assert sum(by_key.values()) == N


def test_overlap_hides_exchange(benchmark):
    """Async exchange/push overlap beats the bulk-synchronous schedule."""
    overlapped, synchronous = once(benchmark, lambda: (
        _steady_state_nsps("2x iris-xe-max", overlap=True),
        _steady_state_nsps("2x iris-xe-max", overlap=False)))
    print(f"\noverlap {overlapped.nsps:.3f} NSPS, "
          f"bulk-synchronous {synchronous.nsps:.3f} NSPS")
    assert overlapped.nsps < synchronous.nsps


def test_device_loss_redistribution_bit_exact(benchmark):
    """A traced device-loss run completes and matches fault-free bits."""
    steps, n = 12, 20_000

    def scenario():
        reference = _runner("cpu, iris-xe-max", n=n)
        reference.run(steps)

        tracer = Tracer()
        with tempfile.TemporaryDirectory() as scratch:
            faulty = _runner(
                "cpu, iris-xe-max", n=n,
                checkpointer=Checkpointer(scratch, every=5))
            with tracing(tracer):
                with fault_injection(named_plan("device-loss"), seed=3):
                    report = faulty.run(steps)
        return reference.ensemble, faulty.ensemble, report, tracer

    reference, survivor, report, tracer = once(benchmark, scenario)
    assert report.steps == steps
    assert report.redistributions >= 1
    # The recovery is visible in the trace: the injected loss and the
    # redistribute action both left instants.
    names = [i.name for i in tracer.instants]
    assert any(name == "fault:device-loss" for name in names)
    assert any(name == "recovery:redistribute" for name in names)
    # Bit-exact: checkpoint restore + elementwise kernels mean the
    # survivor's replay lands on the identical final state.
    for name in COMPONENTS:
        assert np.array_equal(reference.component(name),
                              survivor.component(name)), name
    benchmark.extra_info["redistributions"] = report.redistributions


def test_sharded_nsps_matches_recorded_baseline():
    """CI smoke: replay the committed BENCH_shard.json configuration.

    The tolerance comparison lives in :mod:`repro.regress` (the repo's
    single drift code path); this test just drives the declared suite
    against the committed baseline and surfaces its per-cell diff.
    """
    from repro.regress import load_baseline, run_regression
    directory = Path(__file__).parent
    if load_baseline("shard", directory) is None:
        pytest.skip("no recorded shard baseline (run `repro bench "
                    "shard --record` first)")
    report = run_regression(directory=directory, suites=["shard"])
    assert report.passed, "\n" + report.render()
