"""The roofline-driven autotuner: graph classification, search, wiring.

Three layers under test:

* :func:`repro.analysis.analyze_graph` — whole-graph roofline
  classification that sees the *fused* memory traffic (dedup, RW merge,
  transient elision), reproducing the paper's compute-vs-memory-bound
  contrast per launch group rather than per recorded node;
* :func:`repro.analysis.tune` — the layout x precision x fusion x
  tiling x shard-strategy search, priced by the cost model's
  steady-state predictor and returned as a ranked ``TuningReport``;
* the facade wiring — ``RunConfig(config="auto")`` runs the predicted
  best, records predicted-vs-measured NSPS, and flags cost-model
  miscalibration as warnings plus ``autotune:mispredict`` tracer
  events without failing the run.
"""

import dataclasses

import pytest

from repro.analysis import (CALIBRATION_TOLERANCE, Candidate, analyze_graph,
                            apply_candidate, check_calibration,
                            enumerate_candidates, tune)
from repro.api import RunConfig, run_push
from repro.bench.calibration import iris_xe_max, xeon_8260l_node
from repro.cli import main
from repro.errors import ConfigurationError, GraphError
from repro.fp import Precision
from repro.observability import Tracer, tracing
from repro.oneapi.graph import KernelGraph
from repro.oneapi.runtime import build_step_graph
from repro.particles.ensemble import Layout

N = 4096
STEPS = 4


def _config(**kwargs):
    defaults = dict(n_particles=N, steps=STEPS, warmup=1,
                    scenario="precalculated")
    defaults.update(kwargs)
    return RunConfig(**defaults)


def _step_graph(scenario, n=1_000_000, field_flops=0.0):
    return build_step_graph(n, Layout.SOA, Precision.SINGLE,
                            scenario, field_flops=field_flops)


#: A deliberately wrong device description — fantasy bandwidth,
#: interconnect and clock — for exercising the miscalibration path:
#: predictions priced against it must disagree with the (correctly
#: calibrated) measured run far beyond tolerance.
class TestGraphRoofline:
    def test_paper_contrast_on_fused_cpu_graph(self):
        # The paper's Table 2/3 argument, fused-graph edition: the
        # precalculated step streams from DRAM (memory-bound), while
        # analytical field evaluation fused into the push crosses the
        # CPU ridge (compute-bound).  Both are *computed* from the
        # merged specs, not asserted per recorded node.
        device = xeon_8260l_node()
        pre = analyze_graph(_step_graph("precalculated"), device)
        ana = analyze_graph(_step_graph("analytical", field_flops=250.0),
                            device)
        assert pre.bound == "memory"
        assert ana.bound == "compute"

    def test_fusion_dedups_field_streams(self):
        # Fusing field-eval into the push turns the six staged field
        # arrays into register-carried transients: the merged spec the
        # analysis prices must not touch them at all.
        graph = _step_graph("analytical", field_flops=250.0)
        roofline = analyze_graph(graph, iris_xe_max())
        fused = [g for g in roofline.groups if g.fused]
        assert fused, "fusion pass declined to fuse the paper step"
        group = fused[0]
        assert len(group.nodes) >= 2
        elided = set(group.elided_streams)
        assert elided, "no transient streams were elided"
        spec_streams = {stream.name for stream in group.spec.streams}
        assert not (elided & spec_streams)

    def test_unfused_plan_analyses_every_node(self):
        graph = _step_graph("analytical", field_flops=250.0)
        from repro.oneapi.graph import unfused_plan
        roofline = analyze_graph(graph, iris_xe_max(),
                                 plan=unfused_plan(graph))
        assert all(not g.fused for g in roofline.groups)
        assert len(roofline.groups) == len(graph.nodes)

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphError):
            analyze_graph(KernelGraph(), xeon_8260l_node())

    def test_floor_and_nsps_are_consistent(self):
        roofline = analyze_graph(_step_graph("precalculated"),
                                 xeon_8260l_node())
        n = roofline.groups[0].n_items
        assert roofline.predicted_nsps(n) == pytest.approx(
            roofline.floor_seconds * 1.0e9 / n)


class TestSearch:
    def test_candidate_space_covers_all_axes(self):
        labels = {c.label
                  for c in enumerate_candidates(_config(device="cpu"))}
        # CPU single-device: 2 layouts x 2 precisions x 3 paths
        # x 2 SMT tilings
        assert len(labels) == 24
        assert "SoA/float/fused" in labels
        assert "AoS/double/legacy/1t" in labels

    def test_gpu_has_no_smt_axis(self):
        labels = {c.label
                  for c in enumerate_candidates(
                      _config(device="iris-xe-max"))}
        assert len(labels) == 12
        assert not any("1t" in label for label in labels)

    def test_sharded_space_includes_strategies(self):
        labels = {c.label
                  for c in enumerate_candidates(
                      _config(group="cpu, iris-xe-max"))}
        assert len(labels) == 36
        assert "SoA/float/fused/even" in labels
        assert "SoA/float/fused/bandwidth" in labels

    def test_report_is_ranked_ascending(self):
        report = tune(_config(device="iris-xe-max"))
        nsps = [p.predicted_nsps for p in report.ranked]
        assert nsps == sorted(nsps)
        assert report.best is report.ranked[0]
        assert report.worst is report.ranked[-1]
        assert report.best.predicted_nsps > 0

    def test_search_emits_tracer_instants(self):
        with tracing(Tracer()) as tracer:
            report = tune(_config(device="iris-xe-max"))
        names = [i.name for i in tracer.instants]
        assert names.count("autotune:search") == len(report.ranked)
        assert "autotune:selected" in names

    def test_apply_candidate_round_trips(self):
        config = _config()
        candidate = Candidate(layout=Layout.SOA,
                              precision=Precision.SINGLE, fusion=True,
                              threads_per_unit=1)
        config.config = "auto"
        applied = apply_candidate(config, candidate)
        assert applied.config is None
        assert applied.layout is Layout.SOA
        assert applied.fusion is True
        assert applied.threads_per_unit == 1
        assert applied.n_particles == config.n_particles

    def test_render_lists_every_candidate(self):
        report = tune(_config(device="iris-xe-max"))
        rendered = report.render()
        for prediction in report.ranked:
            assert prediction.candidate.label in rendered


class TestAutoRuns:
    def test_auto_single_run_is_calibrated(self):
        report = run_push(_config(config="auto", device="iris-xe-max"))
        assert report.tuning is not None
        assert report.predicted_nsps == \
            report.tuning.best.predicted_nsps
        assert report.calibration_warnings == []
        assert report.nsps > 0

    def test_auto_matches_manual_run_bit_exactly(self):
        auto = run_push(_config(config="auto"), validate=True)
        manual = run_push(apply_candidate(_config(),
                                          auto.tuning.best.candidate))
        assert auto.digest == manual.digest

    def test_auto_sharded_selects_a_strategy(self):
        report = run_push(_config(config="auto",
                                  group="cpu, iris-xe-max"))
        assert report.tuning.best.candidate.strategy in (
            "even", "bandwidth", "flops")
        assert report.calibration_warnings == []

    def test_report_dict_exposes_prediction(self):
        report = run_push(_config(config="auto", device="iris-xe-max"))
        as_dict = report.as_dict()
        assert as_dict["predicted_nsps"] == report.predicted_nsps
        assert as_dict["calibration_warnings"] == []

    def test_manual_run_has_no_tuning_fields(self):
        report = run_push(_config())
        assert report.tuning is None
        assert report.predicted_nsps is None
        assert "predicted_nsps" not in report.as_dict()


class TestCalibrationWarnings:
    def test_miscalibrated_device_raises_warning_and_event(self,
                                                          monkeypatch):
        # A winner whose prediction is 3x off the measurement: the gap
        # must surface as a report warning plus an autotune:mispredict
        # instant — and the run itself still succeeds.
        import repro.analysis.autotune as autotune

        def miscalibrated_tune(config):
            report = tune(config)
            best = report.best
            report.ranked[0] = dataclasses.replace(
                best, predicted_nsps=3.0 * best.predicted_nsps)
            return report

        monkeypatch.setattr(autotune, "tune", miscalibrated_tune)
        config = _config(config="auto", device="cpu")
        with tracing(Tracer()) as tracer:
            report = run_push(config)
        assert report.calibration_warnings
        assert "mispredict" in report.calibration_warnings[0]
        assert report.nsps > 0
        names = [i.name for i in tracer.instants]
        assert "autotune:mispredict" in names
        assert "autotune:calibrated" not in names

    def test_calibrated_run_emits_calibrated_event(self):
        with tracing(Tracer()) as tracer:
            run_push(_config(config="auto", device="iris-xe-max"))
        names = [i.name for i in tracer.instants]
        assert "autotune:calibrated" in names
        assert "autotune:mispredict" not in names

    def test_check_calibration_direct(self):
        report = tune(_config(device="iris-xe-max"))
        best = report.best
        assert check_calibration(best, best.predicted_nsps, "x") == []
        off = best.predicted_nsps * (1.0 + 2 * CALIBRATION_TOLERANCE)
        warnings = check_calibration(best, off, "iris-xe-max")
        assert len(warnings) == 1
        assert best.candidate.label in warnings[0]

    def test_zero_tolerance_rejected(self):
        best = tune(_config(device="iris-xe-max")).best
        with pytest.raises(ConfigurationError):
            check_calibration(best, 1.0, "x", tolerance=0.0)


class TestConfigValidation:
    def test_unknown_config_keyword_rejected(self):
        with pytest.raises(ConfigurationError):
            run_push(_config(config="fastest"))

    def test_bad_strategy_rejected(self):
        with pytest.raises(ConfigurationError):
            run_push(_config(group="2x cpu", strategy="teapot"))

    def test_strategy_requires_sharded_mode(self):
        with pytest.raises(ConfigurationError):
            run_push(_config(strategy="even"))

    def test_threads_per_unit_requires_single_mode(self):
        with pytest.raises(ConfigurationError):
            run_push(_config(group="2x cpu", threads_per_unit=1))


class TestCli:
    def test_push_auto_runs(self, capsys):
        assert main(["push", "--auto", "--device", "iris-xe-max",
                     "--push-particles", "4096", "--steps", "4"]) == 0
        out = capsys.readouterr().out
        assert "candidate" in out
        assert "autotuned" in out

    def test_auto_plus_record_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["push", "--auto", "--record"])
