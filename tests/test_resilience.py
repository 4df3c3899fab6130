"""Tests for the fault-injection and resilience layer.

The contracts under test, in the order the layer builds them up:

* determinism — same (plan, seed, workload) injects byte-identical
  fault sequences, tracer or not;
* injection sites — every fault kind actually strikes where the
  taxonomy says it does, and never after the kernel body ran;
* recovery accounting — retries, watchdog kills and backoff land on
  the *simulated* timeline and in the surviving record's timing;
* checkpoint/restore — step-granular push and whole-PIC round trips
  are bit-exact;
* device fallback — losing a device mid-run recovers to physics
  identical to an uninterrupted run (the acceptance criterion);
* the chaos self-check (marked ``slow``) — no fault plan can make an
  undocumented exception escape or the physics go non-finite.
"""

import numpy as np
import pytest

from repro.errors import (AllocationFailedError, ConfigurationError,
                          DeviceLostError, KernelError, LaunchTimeoutError,
                          MemoryModelError)
from repro.fields.dipole import MDipoleWave
from repro.fp import Precision
from repro.particles.ensemble import COMPONENTS, Layout, make_ensemble
from repro.resilience import (Checkpointer, FaultInjector, FaultPlan,
                              FaultRule, ResilientPushEngine, RetryPolicy,
                              Watchdog, active_fault_injector,
                              chaos_self_check, fault_injection,
                              named_plan, run_with_retry, PLAN_NAMES)


def cpu_queue(n=2048, scenario="precalculated"):
    from repro.bench.calibration import cost_model_for, device_by_name
    from repro.oneapi.queue import Queue, RuntimeConfig
    from repro.oneapi.runtime import build_push_spec
    device = device_by_name("cpu")
    queue = Queue(device, RuntimeConfig(runtime="dpcpp"),
                  cost_model_for(device))
    spec = build_push_spec(n, Layout.SOA, Precision.SINGLE,
                           scenario, queue.memory)
    return queue, spec, n


def seeded_ensemble(n=128, seed=5):
    ensemble = make_ensemble(n, Layout.SOA, Precision.DOUBLE)
    rng = np.random.default_rng(seed)
    for name in ("x", "y", "z"):
        ensemble.component(name)[:] = rng.random(n) * 1.0e-6
    for name in ("px", "py", "pz"):
        ensemble.component(name)[:] = rng.standard_normal(n) * 1.0e-22
    return ensemble


class TestPlanValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultRule("meteor-strike")

    def test_probability_range_enforced(self):
        with pytest.raises(ConfigurationError):
            FaultRule("launch-failure", probability=1.5)

    def test_duplicate_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(name="dup", rules=(
                FaultRule("jit-failure"), FaultRule("jit-failure")))

    def test_named_plans_all_build(self):
        for name in PLAN_NAMES:
            assert named_plan(name).name == name
        with pytest.raises(ConfigurationError):
            named_plan("no-such-plan")

    def test_hook_off_by_default_and_restored(self):
        assert active_fault_injector() is None
        with fault_injection(named_plan("none"), seed=0) as injector:
            assert active_fault_injector() is injector
        assert active_fault_injector() is None


class TestDeterminism:
    def _inject_sequence(self, seed, opportunities=200):
        injector = FaultInjector(named_plan("default"), seed=seed)
        queue, spec, _ = cpu_queue()
        for _ in range(opportunities):
            try:
                injector.on_launch("cpu-sim", spec)
            except (KernelError, LaunchTimeoutError):
                pass
            try:
                injector.on_jit(spec.name)
            except KernelError:
                pass
        return [(f.kind, f.op_index) for f in injector.injected]

    def test_same_seed_same_faults(self):
        assert self._inject_sequence(7) == self._inject_sequence(7)

    def test_different_seed_different_faults(self):
        assert self._inject_sequence(7) != self._inject_sequence(8)

    def test_tracer_presence_does_not_change_decisions(self):
        from repro.observability import Tracer, tracing
        untraced = self._inject_sequence(3)
        with tracing(Tracer()):
            traced = self._inject_sequence(3)
        assert traced == untraced

    def test_kind_streams_are_independent(self):
        # Disabling one kind must not shift another kind's decisions.
        full = named_plan("default")
        only_jit = FaultPlan(name="jit-only", rules=(
            full.rule_for("jit-failure"),))

        def jit_ops(plan):
            injector = FaultInjector(plan, seed=9)
            fired = []
            for _ in range(100):
                try:
                    injector.on_jit("k")
                except KernelError:
                    fired.append(injector.opportunities("jit-failure") - 1)
            return fired

        assert jit_ops(full) == jit_ops(only_jit)


class TestInjectionSites:
    def test_launch_failure_raises_before_kernel_runs(self):
        queue, spec, n = cpu_queue()
        ran = []
        plan = FaultPlan(name="f", rules=(
            FaultRule("launch-failure", at_ops=(0,)),))
        with fault_injection(plan, seed=0):
            with pytest.raises(KernelError):
                queue.parallel_for(n, spec, kernel=lambda: ran.append(1))
        assert not ran
        assert not queue.records

    def test_jit_failure_keeps_cache_cold(self):
        queue, spec, n = cpu_queue()
        plan = FaultPlan(name="f", rules=(
            FaultRule("jit-failure", at_ops=(0,)),))
        with fault_injection(plan, seed=0):
            with pytest.raises(KernelError):
                queue.parallel_for(n, spec)
            record = queue.parallel_for(n, spec)
        # the retry still pays the JIT cost: the failed compile never
        # populated the cache
        assert record.timing.jit_seconds > 0.0

    def test_slowdown_scales_total_time(self):
        clean_queue, clean_spec, n = cpu_queue()
        clean = [clean_queue.parallel_for(n, clean_spec) for _ in range(2)]
        queue, spec, n = cpu_queue()
        plan = FaultPlan(name="s", rules=(
            FaultRule("launch-slowdown", at_ops=(1,), slowdown=3.0),))
        with fault_injection(plan, seed=0):
            records = [queue.parallel_for(n, spec) for _ in range(2)]
        assert records[0].timing.total_seconds == pytest.approx(
            clean[0].timing.total_seconds)
        assert records[1].timing.total_seconds == pytest.approx(
            3.0 * clean[1].timing.total_seconds)
        assert records[1].timing.slowdown_seconds == pytest.approx(
            2.0 * clean[1].timing.total_seconds)

    def test_alloc_failure_strikes_new_allocations_only(self):
        from repro.oneapi.memory import UsmMemoryManager
        plan = FaultPlan(name="a", rules=(
            FaultRule("alloc-failure", at_ops=(0,)),))
        memory = UsmMemoryManager()
        array = np.zeros(64)
        with fault_injection(plan, seed=0):
            with pytest.raises(AllocationFailedError):
                memory.register(array)
            allocation = memory.register(array)    # retry succeeds
            assert memory.register(array) is allocation  # idempotent path

    def test_alloc_failure_during_spec_build_is_retried(self):
        # Spec construction allocates before any launch exists, so the
        # harness wraps it in allocate_with_retry (backoff:alloc on the
        # timeline) rather than run_with_retry.
        from repro.bench.calibration import cost_model_for, device_by_name
        from repro.oneapi.queue import Queue, RuntimeConfig
        from repro.oneapi.runtime import build_push_spec
        from repro.resilience import allocate_with_retry
        device = device_by_name("cpu")
        queue = Queue(device, RuntimeConfig(runtime="dpcpp"),
                      cost_model_for(device))
        plan = FaultPlan(name="a", rules=(
            FaultRule("alloc-failure", at_ops=(0, 1)),))
        with fault_injection(plan, seed=0):
            spec = allocate_with_retry(
                lambda: build_push_spec(
                    512, Layout.SOA, Precision.SINGLE, "precalculated",
                    queue.memory), queue)
        assert spec is not None
        backoffs = [e for e in queue.timeline.events
                    if e.name == "backoff:alloc"]
        assert len(backoffs) == 2

    def test_harness_survives_spec_build_alloc_failure(self):
        from repro.bench.harness import model_push_nsps
        from repro.bench.scenarios import BenchmarkCase
        case = BenchmarkCase("precalculated", Layout.SOA, Precision.SINGLE,
                             "DPC++ NUMA")
        plan = FaultPlan(name="a", rules=(
            FaultRule("alloc-failure", at_ops=(0,)),))
        with fault_injection(plan, seed=0):
            result = model_push_nsps(case, n=4096, steps=3)
        assert result.nsps > 0.0

    def test_poisoned_read_detected_and_scrubbed(self):
        queue, spec, n = cpu_queue()
        plan = FaultPlan(name="p", rules=(
            FaultRule("poisoned-read", at_ops=(0,)),))
        with fault_injection(plan, seed=0):
            with pytest.raises(MemoryModelError):
                queue.parallel_for(n, spec)
            record = run_with_retry(lambda: queue.parallel_for(n, spec),
                                    queue, spec, policy=RetryPolicy())
        assert record is not None
        assert not any(s.allocation.poisoned for s in spec.streams
                       if s.allocation is not None)

    def test_genuine_memory_error_not_swallowed(self):
        # run_with_retry only scrubs *poisoned* allocations; a
        # MemoryModelError with nothing to scrub must propagate.
        queue, spec, _ = cpu_queue()

        def broken():
            raise MemoryModelError("real bug")

        with fault_injection(named_plan("none"), seed=0):
            with pytest.raises(MemoryModelError):
                run_with_retry(broken, queue, spec)

    def test_device_loss_is_sticky(self):
        plan = FaultPlan(name="d", rules=(
            FaultRule("device-loss", at_ops=(0,), max_injections=1),))
        injector = FaultInjector(plan, seed=0)
        with pytest.raises(DeviceLostError):
            injector.on_device_step("gpu-sim")
        # every later touch of the dead device fails, without a new
        # injection being counted
        with pytest.raises(DeviceLostError):
            injector.on_device_step("gpu-sim")
        assert len(injector.injected) == 1

    def test_scheduler_imbalance_halves_threads(self):
        from repro.oneapi.scheduler import DynamicScheduler, ThreadTopology
        from repro.bench.calibration import device_by_name
        topology = ThreadTopology(device_by_name("cpu"))
        plan = FaultPlan(name="i", rules=(
            FaultRule("scheduler-imbalance", at_ops=(0,)),))
        with fault_injection(plan, seed=0):
            schedule = DynamicScheduler(seed=1).schedule(10_000, topology)
        threads = {c.thread for c in schedule.chunks}
        assert max(threads) < topology.n_threads // 2 + 1

    def test_retry_exhaustion_raises_last_error(self):
        queue, spec, n = cpu_queue()
        plan = FaultPlan(name="f", rules=(FaultRule("launch-failure",
                                                    probability=1.0),))
        policy = RetryPolicy(max_attempts=3)
        with fault_injection(plan, seed=0):
            with pytest.raises(KernelError):
                run_with_retry(lambda: queue.parallel_for(n, spec),
                               queue, spec, policy=policy)
        backoffs = [e for e in queue.timeline.events
                    if e.name.startswith("backoff:")]
        assert len(backoffs) == 2    # attempts - 1

    def test_policy_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ConfigurationError):
            Watchdog(timeout_seconds=0.0)


class TestCheckpointer:
    def test_cadence_and_pruning(self, tmp_path):
        checkpointer = Checkpointer(tmp_path, every=2, keep=2)
        ensemble = seeded_ensemble()
        for step in range(1, 9):
            checkpointer.maybe_save_push(step, ensemble, step * 1.0e-12)
        assert checkpointer.steps_on_disk() == [6, 8]
        assert checkpointer.latest_step() == 8

    def test_push_round_trip_is_bit_exact(self, tmp_path):
        checkpointer = Checkpointer(tmp_path, every=1)
        ensemble = seeded_ensemble()
        checkpointer.save_push(3, ensemble, 3.0e-12)
        step, time, restored = checkpointer.load_push()
        assert (step, time) == (3, 3.0e-12)
        for name in COMPONENTS:
            assert np.array_equal(restored.component(name),
                                  ensemble.component(name))

    def test_restore_push_overwrites_in_place(self, tmp_path):
        checkpointer = Checkpointer(tmp_path, every=1)
        ensemble = seeded_ensemble()
        saved = ensemble.copy()
        checkpointer.save_push(3, ensemble, 3.0e-12)
        views = {name: ensemble.component(name) for name in COMPONENTS}
        for view in views.values():
            view[:] = 0.0
        ensemble.type_ids[:] = -1
        assert checkpointer.restore_push(ensemble) == (3, 3.0e-12)
        for name, view in views.items():
            assert np.array_equal(view, saved.component(name))
        assert np.array_equal(ensemble.type_ids, saved.type_ids)

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(ConfigurationError):
            Checkpointer(tmp_path).load_push()

    def test_invalid_cadence_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            Checkpointer(tmp_path, every=0)


class TestPicCheckpoint:
    def _simulation(self):
        from repro.fields import UniformField, YeeGrid
        from repro.particles import ParticleEnsemble
        from repro.pic import PicSimulation, max_stable_dt
        grid = YeeGrid((0.0, 0.0, 0.0), (1.0e-3,) * 3, (8, 4, 4))
        grid.fill_from_source(UniformField(b=(0.0, 0.0, 1.0e4)), 0.0)
        rng = np.random.default_rng(2)
        positions = rng.random((32, 3)) * [8.0e-3, 4.0e-3, 4.0e-3]
        momenta = rng.standard_normal((32, 3)) * 1.0e-23
        ensemble = ParticleEnsemble.from_arrays(positions, momenta)
        dt = max_stable_dt(grid.spacing, 0.9)
        return PicSimulation(grid, ensemble, dt, deposition="direct")

    def test_save_load_round_trip(self, tmp_path):
        simulation = self._simulation()
        simulation.run(3)
        path = tmp_path / "sim.npz"
        simulation.save_checkpoint(path)
        restored = type(simulation).load_checkpoint(path)
        assert restored.step_count == 3
        assert restored.time == simulation.time
        assert restored.deposition == simulation.deposition
        assert restored.solver_kind == simulation.solver_kind
        for name in simulation.grid.fields:
            assert np.array_equal(restored.grid.fields[name],
                                  simulation.grid.fields[name])

    def test_resume_matches_uninterrupted(self, tmp_path):
        reference = self._simulation()
        reference.run(10)
        interrupted = self._simulation()
        interrupted.run(6, checkpointer=Checkpointer(tmp_path, every=3))
        resumed = Checkpointer(tmp_path, every=3).load_simulation()
        assert resumed.step_count == 6
        resumed.run(4)
        assert np.array_equal(resumed.ensembles[0].positions(),
                              reference.ensembles[0].positions())
        for name in reference.grid.fields:
            assert np.array_equal(resumed.grid.fields[name],
                                  reference.grid.fields[name])


class TestDeviceFallback:
    def _run(self, plan_name=None, seed=0, steps=14, checkpointer=None,
             devices=("iris-xe-max", "p630", "cpu")):
        ensemble = seeded_ensemble()
        source = MDipoleWave()
        runner = ResilientPushEngine(ensemble, "analytical", source,
                                     1.0e-12, devices=devices,
                                     checkpointer=checkpointer)
        if plan_name is None:
            records, report = runner.run(steps)
        else:
            with fault_injection(named_plan(plan_name), seed=seed):
                records, report = runner.run(steps)
        return ensemble, records, report

    def test_device_loss_recovers_to_identical_physics(self, tmp_path):
        reference, _, _ = self._run()
        checkpointer = Checkpointer(tmp_path, every=4, keep=2)
        survivor, records, report = self._run("device-loss", seed=1,
                                              checkpointer=checkpointer)
        assert report.completed
        assert report.devices_lost == ("iris-xe-max",)
        assert report.restores == 1
        assert len(records) == report.steps
        for name in COMPONENTS:
            assert np.array_equal(survivor.component(name),
                                  reference.component(name))

    def test_fixed_seed_is_bit_reproducible(self, tmp_path):
        first, _, report_a = self._run("chaos", seed=4,
                                       checkpointer=Checkpointer(
                                           tmp_path / "a", every=4))
        second, _, report_b = self._run("chaos", seed=4,
                                        checkpointer=Checkpointer(
                                            tmp_path / "b", every=4))
        assert report_a.fault_counts == report_b.fault_counts
        assert report_a.devices_lost == report_b.devices_lost
        assert report_a.backoff_seconds == report_b.backoff_seconds
        for name in COMPONENTS:
            assert np.array_equal(first.component(name),
                                  second.component(name))

    def test_chain_exhaustion_raises(self):
        plan = FaultPlan(name="kill-all", rules=(
            FaultRule("device-loss", probability=1.0),))
        ensemble = seeded_ensemble()
        runner = ResilientPushEngine(ensemble, "analytical",
                                     MDipoleWave(), 1.0e-12,
                                     devices=("p630", "cpu"))
        with fault_injection(plan, seed=0):
            with pytest.raises(DeviceLostError, match="exhausted"):
                runner.run(4)

    def test_report_summary_renders(self, tmp_path):
        _, _, report = self._run("device-loss", seed=1,
                                 checkpointer=Checkpointer(tmp_path,
                                                           every=4))
        text = report.summary()
        assert "device-loss" in text
        assert "devices lost" in text


class TestCli:
    PUSH = ["--steps", "8", "--warmup", "2", "--checkpoint-every", "5",
            "--particles", "512"]

    def test_faults_command_runs(self, capsys):
        from repro.cli import main
        assert main(["push", "--fault-plan", "device-loss",
                     *self.PUSH]) == 0
        out = capsys.readouterr().out
        assert "plan=device-loss" in out
        assert "devices lost" in out

    def test_faults_device_loss_plan_loses_iris_xe_max(self, capsys):
        # the global --fault-plan (either side of the command) drives
        # the resilient push, whose ladder starts at --device; without
        # a plan the push is a single-device run with no recovery
        from repro.cli import main
        assert main(["--fault-plan", "device-loss", "push",
                     *self.PUSH]) == 0
        out = capsys.readouterr().out
        assert "plan=device-loss" in out
        assert "devices lost: iris-xe-max" in out
        assert main(["push", "--device", "cpu", "--fault-plan",
                     "device-loss", *self.PUSH]) == 0
        assert "devices lost: cpu" in capsys.readouterr().out
        assert main(["push", *self.PUSH]) == 0
        out = capsys.readouterr().out
        assert "mode                       single" in out
        assert "plan=" not in out

    def test_fault_flags_accepted_globally(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(
            ["--fault-plan", "transient", "--fault-seed", "9", "devices"])
        assert args.fault_plan == "transient"
        assert args.fault_seed == 9
        args = build_parser().parse_args(
            ["devices", "--fault-plan", "chaos"])
        assert args.fault_plan == "chaos"

    def test_example_smoke(self):
        # the checkpoint_resume example asserts its own bit-exactness
        import runpy
        import pathlib
        example = (pathlib.Path(__file__).resolve().parent.parent
                   / "examples" / "checkpoint_resume.py")
        runpy.run_path(str(example), run_name="__main__")


@pytest.mark.slow
class TestChaosSelfCheck:
    def test_matrix_stays_within_taxonomy(self):
        results = chaos_self_check(seeds=(0, 1, 2), steps=20,
                                   n_particles=128)
        assert len(results) == 3 * len(PLAN_NAMES)
        for (plan, seed), cell in results.items():
            assert cell.outcome in ("completed", "exhausted", "gave-up")
        # the control arm never sees a fault
        assert all(results[("none", seed)].faults == 0
                   for seed in (0, 1, 2))
        # chaos actually injects somewhere in the matrix
        assert any(results[("chaos", seed)].faults > 0
                   for seed in (0, 1, 2))