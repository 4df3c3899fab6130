"""The ``repro.api`` facade and the deprecation shims behind it.

One ``RunConfig`` must drive all three engines (single-device,
resilient, sharded) and produce comparable ``RunReport`` objects; the
pre-facade runner names must keep working while warning; and every
failure escaping the facade must be a documented
:class:`~repro.errors.ReproError` subclass — the error-surfacing
guarantee stated in :mod:`repro.errors`.
"""

import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import (PicConfig, PicReport, RunConfig, RunReport,
                       run_pic, run_push)
from repro.bench import paper_time_step, paper_wave
from repro.bench.scenarios import paper_ensemble
from repro.errors import (ConfigurationError, KernelError, ReproError)
from repro.fp import Precision
from repro.particles.ensemble import Layout

N = 4096
STEPS = 5


def _config(**kwargs):
    defaults = dict(n_particles=N, steps=STEPS, warmup=1)
    defaults.update(kwargs)
    return RunConfig(**defaults)


class TestModeSelection:
    def test_default_is_single_device(self):
        assert _config().mode == "single"

    def test_group_selects_sharded(self):
        assert _config(group="2x iris-xe-max").mode == "sharded"

    def test_ladder_or_fault_plan_selects_resilient(self):
        assert _config(devices=("p630", "cpu")).mode == "resilient"
        assert _config(fault_plan="transient").mode == "resilient"

    def test_group_plus_ladder_rejected(self):
        with pytest.raises(ConfigurationError):
            run_push(_config(group="2x cpu", devices=("cpu",)))


class TestRunPush:
    def test_single_device_run(self):
        report = run_push(_config(fusion=True))
        assert isinstance(report, RunReport)
        assert report.mode == "single"
        assert report.nsps > 0
        assert report.first_step_nsps > report.nsps  # JIT + cold pages
        assert report.cache_stats["misses"] == 1
        assert len(report.digest) == 64
        assert report.as_dict()["nsps"] == report.nsps

    def test_string_layout_and_precision_accepted(self):
        report = run_push(_config(layout="aos", precision="double"))
        assert report.layout == "AoS"
        assert report.precision == "double"

    def test_resilient_run(self):
        report = run_push(_config(fault_plan="transient",
                                  checkpoint_every=2))
        assert report.mode == "resilient"
        assert report.recovery is not None
        assert report.recovery.completed

    @pytest.mark.parametrize("fusion", [False, True, None],
                             ids=["unfused", "fused", "legacy"])
    def test_fault_free_resilient_reports_match_single(self, fusion):
        # A fault-free resilient run on a one-device ladder, and a
        # one-device group, are the single-device run; an unfused step
        # spans a field-eval and a push launch, and every mode must
        # count the whole step.
        config = dict(n_particles=20_000, device="iris-xe-max",
                      fusion=fusion)
        single = run_push(_config(**config))
        resilient = run_push(_config(**config, devices=("iris-xe-max",)))
        assert resilient.mode == "resilient"
        assert resilient.digest == single.digest
        assert resilient.nsps == single.nsps
        assert resilient.first_step_nsps == single.first_step_nsps
        assert resilient.simulated_seconds == single.simulated_seconds
        sharded = run_push(_config(**config, group="1x iris-xe-max"))
        assert sharded.mode == "sharded"
        assert sharded.digest == single.digest
        # the group divides its makespan, the engine averages steps
        assert sharded.nsps == pytest.approx(single.nsps, rel=1e-12)
        assert sharded.first_step_nsps == single.first_step_nsps
        # the group banks its warm-up epoch before the measurement reset
        assert sharded.simulated_seconds == pytest.approx(
            single.simulated_seconds, rel=1e-12)

    @pytest.mark.parametrize("mode", [dict(devices=("iris-xe-max",)),
                                      dict(fault_plan="none")],
                             ids=["ladder", "fault-plan"])
    @pytest.mark.parametrize("option", [dict(diagnostics=True),
                                        dict(threads_per_unit=1)],
                             ids=["diagnostics", "threads"])
    def test_ladder_runs_take_single_device_options(self, mode, option):
        # One engine runs single-device and ladder pushes, so the
        # options of one reach the other.
        report = run_push(_config(**mode, **option))
        assert report.mode == "resilient"
        assert report.recovery.completed
        assert len(report.digest) == 64

    def test_device_loss_counts_the_abandoned_epoch(self):
        # The lost device's queue is abandoned mid-run; its makespan is
        # simulated time the run paid for, so a recovered run cannot
        # report less than the fault-free one.
        config = dict(n_particles=2000, steps=3, warmup=2,
                      checkpoint_every=2)
        fault_free = run_push(RunConfig(**config,
                                        devices=("iris-xe-max", "p630")))
        lost = run_push(RunConfig(**config, fault_plan="device-loss"))
        assert lost.recovery.devices_lost == ("iris-xe-max",)
        assert lost.digest == fault_free.digest
        assert lost.simulated_seconds > fault_free.simulated_seconds

    @pytest.mark.parametrize("device,scenario,nsps,first_step_nsps", [
        ("cpu", "precalculated", 4.707688017230731, 36836.73893801723),
        ("cpu", "analytical", 4.473120792675395, 36742.754370792674),
        ("iris-xe-max", "precalculated", 8.434836647727272,
         73334.99733664774),
        ("iris-xe-max", "analytical", 16.72082149621212,
         73305.78332149622),
    ])
    def test_paper_harness_numbers_are_pinned(self, device, scenario, nsps,
                                              first_step_nsps):
        # The default (fusion=None) graph stages fields untimed and
        # times one push launch: exactly the numbers the dedicated
        # single-launch loop it replaced produced.
        report = run_push(RunConfig(n_particles=N, steps=3, warmup=2,
                                    device=device, scenario=scenario))
        assert report.nsps == nsps
        assert report.first_step_nsps == first_step_nsps

    def test_sharded_run_shares_program_cache(self):
        report = run_push(_config(n_particles=8192,
                                  group="2x iris-xe-max", fusion=True))
        assert report.mode == "sharded"
        assert report.group_report.n_devices == 2
        # one device model => exactly one JIT compile across both shards
        assert report.cache_stats["misses"] == 1

    def test_all_modes_agree_on_physics(self):
        digests = {
            run_push(_config()).digest,
            run_push(_config(fusion=True)).digest,
            run_push(_config(group="2x iris-xe-max", fusion=True)).digest,
            run_push(_config(devices=("iris-xe-max", "cpu"))).digest,
        }
        assert len(digests) == 1

    def test_fused_beats_unfused_on_paper_scenario(self):
        fused = run_push(_config(n_particles=100_000, fusion=True))
        unfused = run_push(_config(n_particles=100_000, fusion=False))
        assert fused.digest == unfused.digest
        assert fused.nsps < unfused.nsps
        assert fused.kernels_eliminated >= 1

    def test_persist_cache_warms_second_process(self, tmp_path):
        path = str(tmp_path / "programs.json")
        cold = run_push(_config(fusion=True, persist_cache=path))
        warm = run_push(_config(fusion=True, persist_cache=path))
        assert cold.cache_stats["misses"] == 1
        assert warm.cache_stats["misses"] == 0
        assert warm.first_step_nsps < cold.first_step_nsps

    def test_trace_written(self, tmp_path):
        out = tmp_path / "push.json"
        report = run_push(_config(trace_path=str(out)))
        assert report.trace_path == str(out)
        assert out.exists() and out.stat().st_size > 0


class TestErrorSurfacing:
    def test_bad_layout_is_configuration_error(self):
        with pytest.raises(ConfigurationError):
            run_push(_config(layout="bogus"))

    def test_bad_scenario_is_configuration_error(self):
        with pytest.raises(ConfigurationError):
            run_push(_config(scenario="magnetostatic"))

    def test_bad_group_spec_is_configuration_error(self):
        with pytest.raises(ConfigurationError):
            run_push(_config(group="7 teapots"))

    @pytest.mark.parametrize("dt", [float("nan"), float("inf"),
                                    float("-inf")])
    def test_non_finite_dt_is_configuration_error(self, dt):
        with pytest.raises(ConfigurationError, match="dt must be finite"):
            run_push(_config(n_particles=64, steps=2, dt=dt))

    def test_diagnostics_in_group_mode_rejected(self):
        # The sharded engine never records the node, so the flag would
        # be dropped silently.
        with pytest.raises(ConfigurationError, match="diagnostics"):
            run_push(_config(diagnostics=True, group="1x iris-xe-max"))

    def test_nsps_strategy_is_gone(self):
        with pytest.raises(ConfigurationError, match="strategy"):
            RunConfig(group="cpu, iris-xe-max", strategy="nsps").validate()

    def test_foreign_exceptions_are_wrapped(self, monkeypatch):
        # a bug deep in a kernel body must not escape as a bare
        # RuntimeError: the facade wraps it into the documented
        # hierarchy with the original chained as __cause__
        import repro.api as api

        def boom(config, source, dt):
            raise RuntimeError("numpy blew up")
        monkeypatch.setitem(api._RUNNERS, "single", boom)
        with pytest.raises(KernelError) as excinfo:
            run_push(_config())
        assert isinstance(excinfo.value, ReproError)
        assert isinstance(excinfo.value.__cause__, RuntimeError)

    def test_repro_errors_pass_through_unwrapped(self, monkeypatch):
        import repro.api as api

        def boom(config, source, dt):
            raise ConfigurationError("already documented")
        monkeypatch.setitem(api._RUNNERS, "single", boom)
        with pytest.raises(ConfigurationError,
                           match="already documented"):
            run_push(_config())


#: One malformed value per field; a fuzz example breaks at most one.
_MALFORMED = {
    "scenario": ["magnetostatic"],
    "layout": ["bogus"],
    "precision": ["half"],
    "n_particles": [0, -1],
    "steps": [0, -1],
    "warmup": [-1],
    "dt": [float("nan"), float("inf"), float("-inf")],
    "checkpoint_every": [-1],
    "device": ["teapot", "cuda:gpu9"],
    "devices": [(), ("teapot",)],
    "fault_plan": ["bogus"],
    "group": ["0x iris-xe-max", "2x", "", "7 teapots", "x cpu"],
    "strategy": ["fastest"],
}


@st.composite
def _run_configs(draw):
    """Tiny RunConfigs of every mode, each valid or broken in one field."""
    fields = dict(
        scenario=draw(st.sampled_from(["precalculated", "analytical"])),
        layout=draw(st.sampled_from([Layout.AOS, "SoA", "aos"])),
        precision=draw(st.sampled_from([Precision.DOUBLE, "float",
                                        "single"])),
        n_particles=draw(st.integers(1, 48)),
        steps=draw(st.integers(1, 3)),
        warmup=draw(st.integers(0, 2)),
        dt=draw(st.one_of(st.none(), st.floats(1e-19, 1e-16))),
        fusion=draw(st.sampled_from([None, False, True])),
        checkpoint_every=draw(st.integers(0, 2)))
    mode = draw(st.sampled_from(["single", "resilient", "sharded"]))
    if mode == "single":
        fields["device"] = draw(st.sampled_from(["cpu", "iris-xe-max",
                                                 "cuda:gpu0"]))
    elif mode == "resilient":
        fields["devices"] = draw(st.sampled_from(
            [("iris-xe-max",), ("p630", "cpu")]))
        fields["fault_plan"] = draw(st.sampled_from(
            [None, "transient", "device-loss"]))
    else:
        fields["group"] = draw(st.sampled_from(
            ["1x iris-xe-max", "2x cpu", "cpu, p630"]))
        fields["strategy"] = draw(st.sampled_from(
            [None, "even", "bandwidth", "flops"]))
    if draw(st.integers(0, 2)) == 0:
        broken = draw(st.sampled_from(sorted(set(fields) & set(_MALFORMED))))
        fields[broken] = draw(st.sampled_from(_MALFORMED[broken]))
    return RunConfig(**fields)


class TestRunConfigFuzz:
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(config=_run_configs())
    def test_run_push_returns_a_report_or_a_typed_error(self, config):
        try:
            report = run_push(config)
        except ReproError:
            return
        assert isinstance(report, RunReport)
        assert report.mode == config.mode
        assert report.simulated_seconds > 0.0


#: One malformed PicConfig value per field.
_MALFORMED_PIC = {
    "scenario": ["two-stream-ish"],
    "layout": ["bogus"],
    "precision": ["half"],
    "n_particles": [0, -3],
    "steps": [0],
    "warmup": [-1],
    "deposition": ["magic"],
    "solver": ["psatd"],
    "device": ["teapot"],
    "fusion": [None, "yes"],
}


@st.composite
def _pic_configs(draw):
    """Tiny PicConfigs, each valid or broken in one field."""
    fields = dict(
        scenario=draw(st.sampled_from(["laser-slab", "magnetic-mirror",
                                       "relativistic-beam"])),
        layout=draw(st.sampled_from([Layout.AOS, "SoA"])),
        precision=draw(st.sampled_from([Precision.DOUBLE, "float"])),
        n_particles=draw(st.integers(1, 16)),
        steps=draw(st.integers(1, 2)),
        warmup=draw(st.integers(0, 1)),
        seed=draw(st.integers(0, 3)),
        deposition=draw(st.sampled_from([None, "esirkepov", "direct",
                                         "none"])),
        solver=draw(st.sampled_from([None, "fdtd", "spectral"])),
        device=draw(st.sampled_from(["cpu", "iris-xe-max", "cuda:gpu0"])),
        fusion=draw(st.booleans()))
    if draw(st.integers(0, 2)) == 0:
        broken = draw(st.sampled_from(sorted(_MALFORMED_PIC)))
        fields[broken] = draw(st.sampled_from(_MALFORMED_PIC[broken]))
    return PicConfig(**fields)


class TestPicConfigFuzz:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(config=_pic_configs())
    def test_run_pic_returns_a_report_or_a_typed_error(self, config):
        try:
            report = run_pic(config)
        except ReproError:
            return
        assert isinstance(report, PicReport)
        assert report.simulated_seconds > 0.0


class TestRunnerShimsRemoved:
    """The PR-4 ``*PushRunner`` deprecation shims are gone for good."""

    def _queue(self):
        from repro.bench.calibration import cost_model_for, device_by_name
        from repro.oneapi.queue import Queue, RuntimeConfig
        device = device_by_name("iris-xe-max")
        return Queue(device, RuntimeConfig(runtime="dpcpp"),
                     cost_model_for(device))

    def test_shim_names_are_gone(self):
        import repro.distributed as distributed
        import repro.oneapi.runtime as runtime
        import repro.resilience as resilience
        for module, name in ((runtime, "PushRunner"),
                             (resilience, "ResilientPushRunner"),
                             (distributed, "ShardedPushRunner")):
            assert not hasattr(module, name)
            assert name not in module.__all__

    def test_engine_names_do_not_warn(self):
        from repro.oneapi.runtime import PushEngine
        ensemble = paper_ensemble(N, Layout.SOA, Precision.SINGLE)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            PushEngine(self._queue(), ensemble, "precalculated",
                       paper_wave(), paper_time_step())


class TestCliNormalizedFlags:
    def test_runner_commands_share_flag_set(self):
        from repro.cli import build_parser
        parser = build_parser()
        for command in ("bench", "shard", "faults", "push", "pic",
                        "serve", "submit", "trace"):
            if command == "trace":
                argv = [command, "table2", "--out", "/tmp/x.json"]
            else:
                argv = [command]
            args = parser.parse_args(
                argv + ["--layout", "SoA", "--precision", "float"])
            assert args.layout == "SoA"
            assert args.precision == "float"
            assert hasattr(args, "device") and hasattr(args, "group")
            # only the two commands that reach the suite runner record
            assert hasattr(args, "record") == (command in ("bench",
                                                           "trace"))

    def test_push_fusion_flags(self):
        from repro.cli import build_parser
        parser = build_parser()
        assert parser.parse_args(["push"]).fusion is None
        assert parser.parse_args(["push", "--fusion"]).fusion is True
        assert parser.parse_args(["push", "--no-fusion"]).fusion is False
