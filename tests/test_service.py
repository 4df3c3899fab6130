"""Push-as-a-service: scheduler, admission, failover and accounting.

The acceptance bar (ISSUE 7): a schedule of >= 8 concurrent jobs with
injected device loss and launch timeouts completes with every job's
state digest bit-exact versus the same ``RunConfig`` run solo and
fault-free; overload answers with a typed
:class:`~repro.errors.JobRejectedError` rather than a crash; and every
:class:`~repro.service.JobReport` accounts retries, queue wait and
recovery on the simulated clock.  This module pins all of that, plus
the admission/eviction/preemption/deadline/budget semantics documented
in ``docs/SERVICE.md``.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import errors
from repro.api import RunConfig, run_push
from repro.errors import (ConfigurationError, DeviceLostError,
                          JobDeadlineError, JobPreemptedError,
                          JobRejectedError, ReproError)
from repro.observability import Tracer, tracing
from repro.resilience.faults import FaultPlan, FaultRule
from repro.service import (DEFAULT_FLEET, JobQueue, JobSpec, JobState,
                           PushService, ServiceReport)

#: A deterministic launch-timeout plan: the 4th kernel launch hangs
#: once; the retry machinery must absorb it (watchdog + backoff).
HANG_PLAN = FaultPlan("hang-once", rules=(
    FaultRule("launch-hang", at_ops=(3,), max_injections=1),))

_SOLO_DIGESTS = {}


def small_config(**overrides):
    """A service-sized workload: big enough to shard, small enough to
    keep the suite fast."""
    base = dict(n_particles=500, steps=4, warmup=1)
    base.update(overrides)
    return RunConfig(**base)


def solo_digest(config: RunConfig) -> str:
    """Digest of the same config run solo and fault-free (memoised)."""
    key = (config.n_particles, config.steps, config.warmup,
           config.scenario, str(config.layout), str(config.precision),
           config.group, config.device)
    if key not in _SOLO_DIGESTS:
        solo = RunConfig(n_particles=config.n_particles,
                         steps=config.steps, warmup=config.warmup,
                         scenario=config.scenario, layout=config.layout,
                         precision=config.precision, group=config.group,
                         device=config.device or "iris-xe-max")
        _SOLO_DIGESTS[key] = run_push(solo).digest
    return _SOLO_DIGESTS[key]


# -- the acceptance schedule (module-scoped: many tests read it) -----------

@pytest.fixture(scope="module")
def acceptance() -> ServiceReport:
    """Eight concurrent jobs, three tenants, mixed priorities, with one
    injected device loss and one injected launch hang."""
    service = PushService(fleet=DEFAULT_FLEET, checkpoint_every=2)
    tenants = ("alice", "bob", "carol")
    for i in range(8):
        fault = None
        if i == 1:
            fault = "device-loss"
        elif i == 3:
            fault = HANG_PLAN
        service.submit(JobSpec(
            f"job-{i}",
            small_config(n_particles=400 + 100 * (i % 2)),
            tenant=tenants[i % 3], priority=i % 3, fault_plan=fault))
    return service.run()


def test_acceptance_all_jobs_complete(acceptance):
    assert len(acceptance.jobs) == 8
    assert acceptance.completed == 8
    assert acceptance.failed == 0 and acceptance.rejected == 0
    assert acceptance.all_completed
    assert acceptance.makespan > 0.0


def test_acceptance_digests_bit_exact(acceptance):
    # THE acceptance bar: recovery, retries and preemption must never
    # change physics — every digest equals the solo fault-free run's.
    for report in acceptance.jobs.values():
        assert report.digest == solo_digest(
            small_config(n_particles=400 + 100 * (int(
                report.name.split("-")[1]) % 2)))


def test_acceptance_device_loss_survived(acceptance):
    victim = acceptance.jobs["job-1"]
    assert victim.completed
    assert victim.fault_counts.get("device-loss", 0) >= 1
    assert len(victim.devices_lost) == 1
    assert victim.restores >= 1
    assert len(victim.devices) == 2          # relaunched elsewhere
    assert victim.checkpoints_saved >= 1
    # The dead card shows up in the fleet ledger too.
    dead = [n for n in acceptance.nodes if not n["alive"]]
    assert [n["name"] for n in dead] == list(victim.devices_lost)


def test_acceptance_launch_hang_absorbed(acceptance):
    hung = acceptance.jobs["job-3"]
    assert hung.completed
    assert hung.fault_counts.get("launch-hang", 0) == 1
    assert hung.retries >= 1
    assert hung.watchdog_seconds > 0.0
    assert hung.backoff_seconds > 0.0


def test_acceptance_accounting_consistent(acceptance):
    for report in acceptance.jobs.values():
        assert report.state == JobState.COMPLETED
        assert report.steps == 5             # warmup 1 + steps 4
        assert report.nsps > 0.0
        assert report.device_seconds > 0.0
        assert report.queue_wait_seconds >= 0.0
        assert report.launched is not None
        assert report.finished is not None
        assert report.finished <= acceptance.makespan + 1e-12
        events = [e.event for e in report.events]
        assert events[0] == "admit"
        assert "launch" in events
        assert events[-1] == "complete"
        clocks = [e.clock for e in report.events]
        assert clocks == sorted(clocks)


def test_acceptance_jit_amortized(acceptance):
    # 8 jobs share one (layout, precision) profile: the fleet-shared
    # ProgramCache means the whole schedule JIT-compiles at most once
    # per device model it touched, not once per job.
    assert acceptance.cache_stats["misses"] <= len(
        {n["key"] for n in acceptance.nodes})
    assert acceptance.cache_stats["hits"] > acceptance.cache_stats["misses"]


# -- admission control ------------------------------------------------------

def test_overload_rejects_with_reason():
    service = PushService(fleet="1x cpu",
                          queue=JobQueue(capacity=2, per_tenant_share=1.0))
    service.submit(JobSpec("a", small_config(device="cpu", steps=1)))
    service.submit(JobSpec("b", small_config(device="cpu", steps=1)))
    with pytest.raises(JobRejectedError) as excinfo:
        service.submit(JobSpec("c", small_config(device="cpu", steps=1)))
    assert "capacity" in str(excinfo.value)
    report = service.run()
    assert report.completed == 2 and report.rejected == 1
    rejected = report.jobs["c"]
    assert rejected.state == JobState.REJECTED
    assert rejected.error_type == "JobRejectedError"
    assert [e.event for e in rejected.events] == ["reject"]


def test_fair_share_caps_one_tenant():
    queue = JobQueue(capacity=8, per_tenant_share=0.25)
    assert queue.tenant_cap == 2
    service = PushService(fleet="1x cpu", queue=queue)
    service.submit(JobSpec("n1", small_config(device="cpu", steps=1),
                           tenant="noisy"))
    service.submit(JobSpec("n2", small_config(device="cpu", steps=1),
                           tenant="noisy"))
    with pytest.raises(JobRejectedError, match="fair share"):
        service.submit(JobSpec("n3", small_config(device="cpu", steps=1),
                               tenant="noisy"))
    # The other tenant is unaffected by noisy's backpressure.
    service.submit(JobSpec("q1", small_config(device="cpu", steps=1),
                           tenant="quiet"))
    assert service.run().completed == 3


def test_admission_evicts_lower_priority_queued_job():
    service = PushService(fleet="1x cpu",
                          queue=JobQueue(capacity=2, per_tenant_share=1.0))
    service.submit(JobSpec("low-a", small_config(device="cpu", steps=1),
                           tenant="bulk", priority=0))
    service.submit(JobSpec("low-b", small_config(device="cpu", steps=1),
                           tenant="bulk", priority=0))
    service.submit(JobSpec("urgent", small_config(device="cpu", steps=1),
                           tenant="vip", priority=5))
    report = service.run()
    evicted = report.jobs["low-b"]           # newest of the low-priority
    assert evicted.state == JobState.FAILED
    assert evicted.error_type == "JobPreemptedError"
    assert "evicted" in evicted.error
    assert report.jobs["urgent"].completed
    assert report.jobs["low-a"].completed


def test_infeasible_submits_reject_fast():
    service = PushService(fleet="2x iris-xe-max")
    cases = [
        (JobSpec("g", small_config(group="8x iris-xe-max")), "needs"),
        (JobSpec("d", small_config(device="p630")), "not in the fleet"),
        (JobSpec("auto", small_config(config="auto")), "auto"),
        (JobSpec("ladder", small_config(devices=("cpu",))), "ladder"),
        (JobSpec("fp", small_config(fault_plan="chaos")), "JobSpec"),
        (JobSpec("pc", small_config(persist_cache="/tmp/x.json")),
         "program cache"),
        (JobSpec("dl", small_config(), deadline_seconds=0.0), "deadline"),
        (JobSpec("bu", small_config(), budget_seconds=-1.0), "budget"),
    ]
    for spec, fragment in cases:
        with pytest.raises(JobRejectedError, match=fragment):
            service.submit(spec)
    service.submit(JobSpec("ok", small_config(steps=1)))
    with pytest.raises(JobRejectedError, match="already live"):
        service.submit(JobSpec("ok", small_config(steps=1)))
    # Rejections never leak into the runnable schedule, and a rejected
    # duplicate never shadows the live job's report entry.
    report = service.run()
    assert report.completed == 1
    assert report.rejected == len(cases)
    assert report.jobs["ok"].completed


@pytest.mark.parametrize("config", [small_config(),
                                    small_config(group="2x iris-xe-max")],
                         ids=["single", "sharded"])
def test_unknown_fault_plan_is_rejected_at_submit(config):
    service = PushService(fleet="2x iris-xe-max")
    with pytest.raises(JobRejectedError, match="unknown fault plan"):
        service.submit(JobSpec("bad", config, fault_plan="nope"))
    service.submit(JobSpec("ok", small_config(steps=1)))
    report = service.run()
    assert report.rejected == 1 and report.completed == 1
    assert report.jobs["bad"].state == JobState.REJECTED


def test_nsps_counts_recovery_like_the_resilient_engine():
    config = dict(n_particles=4000, steps=6, warmup=2, fusion=True)
    nsps = {}
    for plan in (None, "default"):
        service = PushService(fleet="1x iris-xe-max")
        service.submit(JobSpec("j", RunConfig(**config), fault_plan=plan,
                               fault_seed=0))
        job = service.run().jobs["j"]
        assert job.completed
        nsps[plan] = job.nsps
    resilient = run_push(RunConfig(devices=("iris-xe-max",),
                                   fault_plan="default", fault_seed=0,
                                   **config))
    assert nsps["default"] == pytest.approx(resilient.nsps, rel=1e-12)
    assert nsps["default"] > nsps[None]


def test_fault_free_job_agrees_with_run_push(layout, precision):
    # Metamorphic: one fault-free job through the service and the same
    # config through ``run_push`` run the same engine on the same
    # device model.  The job's one placement starts on an empty
    # timeline and covers the whole run, so the device seconds it
    # banks are the run's simulated seconds, exactly.
    config = RunConfig(n_particles=3000, steps=4, warmup=2, layout=layout,
                       precision=precision, device="iris-xe-max")
    service = PushService(fleet="1x iris-xe-max")
    service.submit(JobSpec("j", config))
    job = service.run().jobs["j"]
    solo = run_push(config)
    assert job.completed and job.steps == 6 and job.restores == 0
    assert job.digest == solo.digest
    assert job.nsps == pytest.approx(solo.nsps, rel=1e-12)
    assert job.device_seconds == solo.simulated_seconds


#: One malformed value per field; a fuzz example breaks at most one.
_MALFORMED_JOB = {
    "n_particles": [0], "steps": [0], "warmup": [-1], "layout": ["bogus"],
    "device": ["teapot", "p630"], "group": ["3x cpu", "0x cpu"],
    "fault_plan": ["nope"], "deadline_seconds": [0.0, -1.0],
    "budget_seconds": [-1.0],
}


@st.composite
def _job_specs(draw):
    """Tiny single or sharded JobSpecs, each valid or broken in one
    field; names repeat, so duplicate submissions are drawn too."""
    config = dict(n_particles=draw(st.integers(1, 48)),
                  steps=draw(st.integers(1, 3)),
                  warmup=draw(st.integers(0, 1)),
                  layout=draw(st.sampled_from(["AoS", "SoA"])),
                  fusion=draw(st.sampled_from([None, False, True])))
    if draw(st.booleans()):
        config["device"] = draw(st.sampled_from([None, "cpu",
                                                 "iris-xe-max"]))
    else:
        config["group"] = draw(st.sampled_from(["1x cpu", "cpu, "
                                                "iris-xe-max"]))
    job = dict(priority=draw(st.integers(0, 3)),
               arrival=draw(st.sampled_from([0.0, 1e-4])),
               deadline_seconds=draw(st.sampled_from([None, 1e-3, 10.0])),
               budget_seconds=draw(st.sampled_from([None, 1e-3, 10.0])),
               fault_plan=draw(st.sampled_from(
                   [None, "transient", "device-loss", "default"])),
               fault_seed=draw(st.integers(0, 3)),
               preemptible=draw(st.booleans()))
    if draw(st.integers(0, 2)) == 0:
        broken = draw(st.sampled_from(sorted((set(config) | set(job))
                                             & set(_MALFORMED_JOB))))
        (config if broken in config else job)[broken] = draw(
            st.sampled_from(_MALFORMED_JOB[broken]))
    return JobSpec(draw(st.sampled_from(["a", "b", "c"])),
                   RunConfig(**config), **job)


class TestJobSpecFuzz:
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(specs=st.lists(_job_specs(), min_size=1, max_size=3))
    def test_every_job_ends_rejected_or_terminal_and_typed(self, specs):
        service = PushService(fleet="1x cpu, 1x iris-xe-max")
        for spec in specs:
            try:
                service.submit(spec)
            except JobRejectedError:
                pass
        report = service.run()
        for job in report.jobs.values():
            assert job.state in JobState.TERMINAL
            if job.error_type is not None:
                assert issubclass(getattr(errors, job.error_type),
                                  ReproError)


def test_malformed_group_is_rejected_at_admission():
    service = PushService(fleet="1x cpu, 1x iris-xe-max")
    spec = JobSpec("g", RunConfig(n_particles=8, steps=1, group="0x cpu"))
    with pytest.raises(JobRejectedError, match="bad group"):
        service.submit(spec)


def test_bad_specs_are_configuration_errors():
    with pytest.raises(ConfigurationError):
        JobSpec("")
    with pytest.raises(ConfigurationError):
        JobSpec("late", arrival=-1.0)
    with pytest.raises(ConfigurationError):
        JobQueue(capacity=0)
    with pytest.raises(ConfigurationError):
        JobQueue(per_tenant_share=0.0)
    with pytest.raises(ConfigurationError):
        PushService(checkpoint_every=0)


# -- runtime preemption, deadlines, budgets ---------------------------------

def test_runtime_preemption_resumes_bit_exact():
    service = PushService(fleet="1x iris-xe-max", preempt_margin=2)
    victim_config = small_config(steps=6)
    service.submit(JobSpec("victim", victim_config, priority=0))
    # Arrives mid-first-step of the victim (JIT makes step 0 long).
    service.submit(JobSpec("urgent", small_config(steps=2), priority=5,
                           arrival=1e-4))
    report = service.run()
    assert report.all_completed
    victim = report.jobs["victim"]
    assert victim.preemptions >= 1
    assert any(e.event == "preempt" for e in victim.events)
    assert victim.digest == solo_digest(victim_config)
    urgent = report.jobs["urgent"]
    assert urgent.completed
    # The urgent job ran in the gap the victim vacated.
    assert urgent.launched < victim.finished


def test_non_preemptible_jobs_are_left_alone():
    service = PushService(fleet="1x iris-xe-max", preempt_margin=2)
    service.submit(JobSpec("pinned", small_config(steps=6), priority=0,
                           preemptible=False))
    service.submit(JobSpec("urgent", small_config(steps=2), priority=5,
                           arrival=1e-4))
    report = service.run()
    assert report.all_completed
    assert report.jobs["pinned"].preemptions == 0
    # The urgent job simply waited for the node instead.
    assert report.jobs["urgent"].queue_wait_seconds > 0.0


def test_deadline_fails_typed():
    service = PushService(fleet="2x iris-xe-max")
    service.submit(JobSpec("rushed", small_config(),
                           deadline_seconds=1e-6))
    service.submit(JobSpec("calm", small_config()))
    report = service.run()
    rushed = report.jobs["rushed"]
    assert rushed.state == JobState.FAILED
    assert rushed.error_type == "JobDeadlineError"
    assert "deadline" in rushed.error
    assert report.jobs["calm"].completed


def test_budget_exhaustion_fails_typed():
    service = PushService(fleet="2x iris-xe-max")
    service.submit(JobSpec("broke", small_config(), budget_seconds=1e-6))
    report = service.run()
    broke = report.jobs["broke"]
    assert broke.state == JobState.FAILED
    assert broke.error_type == "JobDeadlineError"
    assert "budget" in broke.error
    with pytest.raises(JobDeadlineError):
        raise JobDeadlineError(broke.error)   # typed end, re-raisable


# -- failover ---------------------------------------------------------------

def test_device_loss_failover_accounting():
    service = PushService(fleet="2x iris-xe-max", checkpoint_every=2)
    config = small_config()
    service.submit(JobSpec("phoenix", config, fault_plan="device-loss"))
    report = service.run()
    job = report.jobs["phoenix"]
    assert job.completed
    assert job.digest == solo_digest(config)
    assert job.restores == 1
    assert len(job.devices) == 2 and len(job.devices_lost) == 1
    assert job.devices_lost[0] == job.devices[0]
    assert job.replayed_steps >= 0
    assert job.device_seconds > 0.0          # both placements banked
    events = [e.event for e in job.events]
    assert "device-lost" in events
    assert events.count("launch") == 2


def test_device_loss_restore_replays_a_step():
    """Set up as ``repro validate``'s ``service[device-loss]`` cells:
    four warm-up steps and a checkpoint every 3, so the loss lands one
    step after the step-3 checkpoint.  The restore must then replay a
    step, and a restore that left the particles alone would show in
    the digest."""
    service = PushService(fleet="2x iris-xe-max", checkpoint_every=3)
    config = small_config(n_particles=192, steps=3, warmup=4,
                          device="iris-xe-max")
    service.submit(JobSpec("replay", config, fault_plan="device-loss"))
    job = service.run().jobs["replay"]
    assert job.completed
    assert job.restores == 1
    assert job.replayed_steps == 1
    assert job.digest == run_push(config).digest


def test_fleet_exhaustion_is_a_typed_failure():
    service = PushService(fleet="1x iris-xe-max")
    service.submit(JobSpec("doomed", small_config(),
                           fault_plan="device-loss"))
    report = service.run()                    # must return, not hang
    doomed = report.jobs["doomed"]
    assert doomed.state == JobState.FAILED
    assert doomed.error_type == "DeviceLostError"
    assert len(doomed.devices_lost) == 1
    with pytest.raises(DeviceLostError):
        raise DeviceLostError(doomed.error)
    assert all(not n["alive"] for n in report.nodes)


# -- placement --------------------------------------------------------------

def test_warm_affinity_bin_packing():
    # Job A warms the CPU's JIT profile; job B (unconstrained) then
    # prefers the warm CPU over the cold (but faster) Iris card.
    service = PushService(fleet="1x iris-xe-max, 1x cpu")
    service.submit(JobSpec("warmer", small_config(device="cpu", steps=2)))
    service.submit(JobSpec("drafter", small_config(device=None, steps=2),
                           arrival=100.0))
    report = service.run()
    assert report.all_completed
    by_key = {n["key"]: n for n in report.nodes}
    assert by_key["cpu"]["jobs_run"] == 2
    assert by_key["iris-xe-max"]["jobs_run"] == 0
    assert report.cache_stats["misses"] == 1  # one JIT for both jobs


def test_queue_wait_accounts_contention():
    service = PushService(fleet="1x iris-xe-max")
    service.submit(JobSpec("first", small_config(steps=2)))
    service.submit(JobSpec("second", small_config(steps=2)))
    report = service.run()
    assert report.all_completed
    assert report.jobs["first"].queue_wait_seconds == pytest.approx(0.0)
    # The second job waited for the whole first placement.
    assert report.jobs["second"].queue_wait_seconds > 0.0
    assert report.jobs["second"].launched >= report.jobs["first"].finished


def test_sharded_job_through_the_service():
    service = PushService(fleet=DEFAULT_FLEET)
    config = small_config(n_particles=600, group="2x iris-xe-max")
    service.submit(JobSpec("wide", config))
    service.submit(JobSpec("narrow", small_config(device="cpu", steps=2)))
    report = service.run()
    assert report.all_completed
    wide = report.jobs["wide"]
    assert len(wide.devices) == 2
    assert wide.nsps > 0.0
    assert wide.digest == solo_digest(config)


def test_arrivals_advance_the_idle_clock():
    service = PushService(fleet="1x cpu")
    service.submit(JobSpec("later", small_config(device="cpu", steps=1),
                           arrival=42.0))
    report = service.run()
    assert report.all_completed
    assert report.jobs["later"].launched >= 42.0
    assert report.makespan >= 42.0


# -- observability ----------------------------------------------------------

def test_events_stream_and_trace_instants():
    seen = []
    service = PushService(
        fleet="2x iris-xe-max", checkpoint_every=1,
        on_event=lambda name, event, detail: seen.append((name, event)))
    service.submit(JobSpec("observed", small_config()))
    tracer = Tracer()
    with tracing(tracer):
        report = service.run()
    assert report.all_completed
    assert ("observed", "admit") in seen
    assert ("observed", "launch") in seen
    assert seen[-1] == ("observed", "complete")
    names = [i.name for i in tracer.instants]
    assert "job:launch" in names
    assert "job:complete" in names
    assert "checkpoint:gc" in names           # GC ran at collect time
    job = report.jobs["observed"]
    assert job.checkpoints_saved > 3
    assert job.checkpoints_pruned > 0         # cadence 1 outruns keep=3


def test_job_report_serialises():
    service = PushService(fleet="2x iris-xe-max")
    service.submit(JobSpec("flat", small_config(steps=1)))
    report = service.run()
    flat = report.jobs["flat"].as_dict()
    json.dumps(flat)                          # JSON-ready, by contract
    assert flat["state"] == "completed"
    assert flat["events"] >= 3
    line = report.jobs["flat"].summary()
    assert "flat" in line and "completed" in line
    assert "completed" in report.summary()


# -- CLI --------------------------------------------------------------------

class TestServiceCli:
    def test_serve_exit_zero(self, capsys):
        from repro.cli import main
        assert main(["serve", "--jobs", "3", "--steps", "3",
                     "--serve-particles", "400"]) == 0
        out = capsys.readouterr().out
        assert "completed" in out
        assert "[job-1]" in out               # streamed progress lines

    def test_submit_survives_device_loss(self, capsys):
        from repro.cli import main
        assert main(["submit", "--name", "cli-job", "--steps", "4",
                     "--warmup", "1", "--submit-particles", "400",
                     "--fault-plan", "device-loss"]) == 0
        out = capsys.readouterr().out
        assert "cli-job" in out and "completed" in out

    def test_submit_rejection_exits_two(self):
        from repro.cli import main
        # Device not in the serve fleet: typed rejection, exit code 2.
        assert main(["submit", "--name", "nope", "--steps", "1",
                     "--fleet", "1x cpu"]) == 2
