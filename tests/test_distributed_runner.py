"""End-to-end behaviour of the sharded runner.

The one invariant everything else leans on: the Boris push has no
cross-particle term, so a sharded run gathered back together is
**bit-identical** to a single-device run, for any partition, any
device mix, and any mid-run repartition.  These tests pin that, plus
the scheduling semantics (overlap), the measurement epochs, and the
fault paths (exchange stalls retried in place, device loss recovered
by checkpoint restore + re-sharding).
"""

import tempfile

import numpy as np
import pytest

from repro.bench import paper_time_step, paper_wave
from repro.bench.scenarios import paper_ensemble
from repro.distributed import DeviceGroup, ExchangePolicy, ShardedPushEngine
from repro.errors import (ConfigurationError, DeviceLostError,
                          ExchangeTimeoutError)
from repro.fp import Precision
from repro.observability import Tracer, tracing
from repro.oneapi.runtime import PushEngine
from repro.particles import Layout
from repro.particles.ensemble import COMPONENTS
from repro.resilience import (Checkpointer, FaultPlan, FaultRule,
                              fault_injection, named_plan)

N = 2_000
STEPS = 4


def _ensemble(n=N):
    return paper_ensemble(n, Layout.SOA, Precision.SINGLE)


def _runner(spec, n=N, **kwargs):
    return ShardedPushEngine(DeviceGroup.from_spec(spec), _ensemble(n),
                             "precalculated", paper_wave(),
                             paper_time_step(), **kwargs)


def _assert_same_state(a, b):
    for name in COMPONENTS:
        assert np.array_equal(a.component(name), b.component(name)), name


# -- the bit-exactness invariant -------------------------------------------

def test_sharded_run_matches_single_device_bits():
    reference = _ensemble()
    queue = DeviceGroup.from_spec("iris-xe-max").members[0].queue
    PushEngine(queue, reference, "precalculated", paper_wave(),
               paper_time_step()).run(STEPS)

    for spec in ("iris-xe-max", "2x iris-xe-max", "cpu, p630, iris-xe-max"):
        runner = _runner(spec)
        runner.run(STEPS)
        _assert_same_state(reference, runner.ensemble)


def test_more_devices_than_particles():
    runner = _runner("cpu, p630, iris-xe-max", n=2)
    report = runner.run(2)
    assert report.steps == 2
    assert sorted(s.particles for s in report.shards) == [0, 1, 1]
    empty = [s for s in report.shards if s.particles == 0][0]
    assert empty.steps == 0
    assert empty.mean_nsps != empty.mean_nsps  # NaN: nothing measured


# -- accounting and measurement epochs -------------------------------------

def test_nsps_requires_completed_steps():
    runner = _runner("2x p630")
    assert runner.report().nsps != runner.report().nsps  # NaN: no step
    runner.run(2)
    assert runner.report().nsps > 0.0


def test_reset_measurement_excludes_jit_warmup():
    warm = _runner("2x iris-xe-max", n=50_000)
    warm.run(2)
    warm.reset_measurement()
    steady = warm.run(2 + STEPS).nsps

    cold = _runner("2x iris-xe-max", n=50_000).run(STEPS).nsps
    # The cold run pays the one-off JIT charge inside the measurement.
    assert steady < cold


def test_unfused_shard_busy_time_counts_every_launch():
    # An unfused step is two launches (field eval, push); a shard's
    # busy time and NSPS samples must cover both, not just the last.
    runner = _runner("2x iris-xe-max", fusion=False)
    report = runner.run(STEPS)
    for shard, member in zip(report.shards, runner.group.members):
        records = member.queue.records
        assert len(records) == 2 * STEPS
        assert shard.busy_seconds == pytest.approx(
            sum(r.simulated_seconds for r in records), rel=1e-12)
        assert shard.mean_nsps == pytest.approx(
            np.mean([(a.simulated_seconds + b.simulated_seconds) * 1.0e9
                     / shard.particles
                     for a, b in zip(records[::2], records[1::2])]),
            rel=1e-12)


def test_overlap_beats_bulk_synchronous():
    overlapped = _runner("2x iris-xe-max", n=50_000, overlap=True)
    synchronous = _runner("2x iris-xe-max", n=50_000, overlap=False)
    assert overlapped.run(STEPS).simulated_seconds < \
        synchronous.run(STEPS).simulated_seconds


def test_exchange_is_priced_and_traced():
    tracer = Tracer()
    with tracing(tracer):
        report = _runner("2x p630").run(2)
    assert report.exchange.transfers == 4  # 2 shards x 2 steps
    assert report.exchange.total_bytes > 0
    assert report.exchange.total_seconds > 0.0
    assert set(report.exchange.per_member_bytes) == \
        {"Intel P630 #0", "Intel P630 #1"}
    names = [i.name for i in tracer.instants]
    assert any(n.startswith("exchange:") for n in names)


# -- fault paths ------------------------------------------------------------

def test_exchange_stalls_are_retried_in_place():
    # Stall the first attempts, succeed within the retry budget: the
    # run completes, the stall windows land in the accounting.
    plan = FaultPlan(name="stalls", rules=(
        FaultRule("exchange-stall", probability=1.0, max_injections=2),))
    with fault_injection(plan, seed=0):
        report = _runner("2x p630").run(2)
    assert report.steps == 2
    assert report.exchange.stalls == 2
    assert report.exchange.stalled_seconds == pytest.approx(2 * 5.0e-4)


def test_exchange_stall_exhausts_retry_budget():
    plan = FaultPlan(name="always-stalls", rules=(
        FaultRule("exchange-stall", probability=1.0),))
    with fault_injection(plan, seed=0):
        with pytest.raises(ExchangeTimeoutError):
            _runner("2x p630",
                    policy=ExchangePolicy(max_attempts=2)).run(1)


def test_named_exchange_plan_completes():
    with fault_injection(named_plan("exchange"), seed=1):
        report = _runner("2x p630").run(STEPS)
    assert report.steps == STEPS


def test_device_loss_without_checkpointer_is_fatal():
    with fault_injection(named_plan("device-loss"), seed=3):
        with pytest.raises(DeviceLostError):
            _runner("cpu, iris-xe-max").run(STEPS * 3)


def test_device_loss_redistributes_and_matches_fault_free_bits():
    steps = 10
    reference = _runner("cpu, iris-xe-max")
    reference.run(steps)

    tracer = Tracer()
    with tempfile.TemporaryDirectory() as scratch:
        faulty = _runner("cpu, iris-xe-max",
                         checkpointer=Checkpointer(scratch, every=4))
        with tracing(tracer):
            with fault_injection(named_plan("device-loss"), seed=3):
                report = faulty.run(steps)
    assert report.steps == steps
    assert report.redistributions == 1
    assert report.n_devices == 1  # one survivor finished the run
    assert any(i.name == "recovery:redistribute" for i in tracer.instants)
    _assert_same_state(reference.ensemble, faulty.ensemble)


# -- the committed performance trajectory ----------------------------------

def _shard_cell(nsps):
    return {"suite": "smoke", "backend": "oneapi", "device": "2x p630",
            "config": "sharded/even", "metrics": {"nsps": nsps}}


def test_trajectory_round_trip(tmp_path):
    # The trajectory is the v1 baseline's append-only snapshot list.
    from repro.regress import append_snapshot, baseline_path, load_baseline
    path = append_snapshot("smoke", [_shard_cell(1.25)], 1000,
                           directory=tmp_path, sha="abc123")
    assert path == baseline_path("smoke", tmp_path)
    append_snapshot("smoke", [_shard_cell(1.5)], 1000,
                    directory=tmp_path, sha="def456")
    baseline = load_baseline("smoke", tmp_path)
    assert [s.git_sha for s in baseline.snapshots] == ["abc123", "def456"]
    assert baseline.latest.cells[0].metrics == {"nsps": 1.5}
    assert baseline.latest.n_particles == 1000


def test_trajectory_validation(tmp_path):
    from repro.errors import ValidationError
    from repro.regress import append_snapshot, baseline_path, load_baseline
    assert load_baseline("absent", tmp_path) is None
    with pytest.raises(ConfigurationError):
        append_snapshot("smoke", [], 10, directory=tmp_path)
    with pytest.raises(ValidationError):
        append_snapshot("smoke", [{"config": "no-metrics"}], 10,
                        directory=tmp_path)
    with pytest.raises(ConfigurationError):
        baseline_path("../escape")
    baseline_path("other", tmp_path).write_text(
        '{"schema_version": 1, "suite": "mismatched", "snapshots": []}')
    with pytest.raises(ValidationError):
        load_baseline("other", tmp_path)


def test_cli_devices_and_shard(capsys, tmp_path):
    from repro.cli import main

    assert main(["devices"]) == 0
    out = capsys.readouterr().out
    assert "peak DP" in out and "host link" in out

    assert main(["push", "--group", "2x p630", "--steps", "2",
                 "--particles", "2000"]) == 0
    out = capsys.readouterr().out
    assert "Sharded push — '2x p630'" in out
    assert "group NSPS" in out
    assert "exchange:" in out
    # the shard baseline is written by `bench shard --record` only,
    # in the regression farm's schema v1
    assert main(["--particles", "2000", "bench", "shard", "--record",
                 "--record-dir", str(tmp_path)]) == 0
    from repro.regress import load_baseline
    recorded = load_baseline("shard", tmp_path).latest
    cell = recorded.cells[0]
    assert cell.keys["device"] == "2x iris-xe-max"
    assert cell.keys["backend"] == "oneapi"
    assert cell.metrics["n_devices"] == 2


@pytest.mark.parametrize("argv", [["--halo", "0.1"], ["--no-overlap"],
                                  ["--rebalance-every", "2"]])
def test_cli_shard_has_no_engine_only_knobs(argv, capsys):
    # `repro push --group` is a facade run; these engine keywords have
    # no RunConfig field, so argparse rejects them
    from repro.cli import main

    with pytest.raises(SystemExit) as exc_info:
        main(["push", "--group", "2x iris-xe-max", *argv])
    assert exc_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
