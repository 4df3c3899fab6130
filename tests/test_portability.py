"""Tests for the Pennycook PP score and its committed baseline.

The baseline side goes through the regression farm only: the declared
``portability`` suite turns a sweep into schema-v1 cells,
``repro bench portability --record`` is the one writer of
``benchmarks/BENCH_portability.json``, :func:`repro.regress.load_baseline`
the one reader and ``repro bench portability --regress`` the one
comparator.  The simulated clock is deterministic, so "within
tolerance" really means "recomputes exactly" unless a cost model
changed.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.backends.portability import (DEFAULT_N_PARTICLES,
                                        PORTABLE_CONFIG,
                                        PP_DRIFT_TOLERANCE,
                                        DeviceEfficiency,
                                        PortabilityReport,
                                        measure_portability, pp_score)
from repro.backends.registry import all_device_specs
from repro.errors import ConfigurationError, ValidationError
from repro.regress import (BaselineCell, append_snapshot, baseline_path,
                           compare_cells, load_baseline, run_regression)
from repro.regress.suites import PortabilitySuite, SuiteArtifact

REPO_BENCH = Path(__file__).resolve().parent.parent / "benchmarks"


def _report(pp=0.9, devices=("cpu", "cuda:gpu0")):
    rows = [DeviceEfficiency(device=d, backend=d.split(":")[0]
                             if ":" in d else "oneapi",
                             best_nsps=1.0, portable_nsps=1.1,
                             efficiency=0.9, best_label="SoA/float",
                             predicted_nsps=1.0) for d in devices]
    return PortabilityReport(pp=pp, devices=rows)


def _cells(report):
    """The suite's schema-v1 cells for a report."""
    return PortabilitySuite().cells(SuiteArtifact(
        report, report.n_particles,
        {"steps": report.steps, "warmup": report.warmup}))


def _statuses(current, baseline):
    """compare_cells over two reports: {(device, metric): status}."""
    reference = [BaselineCell.from_dict(c) for c in _cells(baseline)]
    return {(r.keys["device"], r.metric): r.status
            for r in compare_cells(PortabilitySuite(), _cells(current),
                                   reference)}


class TestPpScore:
    def test_harmonic_mean(self):
        assert pp_score([1.0, 1.0]) == 1.0
        assert pp_score([0.5, 1.0]) == pytest.approx(2 / 3)
        assert pp_score([0.25]) == 0.25

    def test_empty_set_is_zero(self):
        assert pp_score([]) == 0.0

    def test_unsupported_platform_zeroes_the_metric(self):
        assert pp_score([1.0, 0.0, 1.0]) == 0.0

    def test_out_of_range_efficiency_raises(self):
        with pytest.raises(ConfigurationError):
            pp_score([1.2])
        with pytest.raises(ConfigurationError):
            pp_score([-0.1])


class TestReportRoundTrip:
    def test_json_round_trip(self):
        cells = _cells(_report())
        clone = [BaselineCell.from_dict(c).as_dict()
                 for c in json.loads(json.dumps(cells))]
        assert clone == cells
        assert [c["device"] for c in cells] == ["cpu", "cuda:gpu0", "*"]
        assert cells[-1]["extra"]["portable_config"] \
            == dict(PORTABLE_CONFIG)

    def test_write_and_load_baseline(self, tmp_path):
        directory = tmp_path / "sub"
        path = append_snapshot("portability", _cells(_report()), 20_000,
                               directory=directory)
        loaded = load_baseline("portability", directory).latest
        pp_cell = next(c for c in loaded.cells
                       if c.keys["config"] == "pp")
        assert pp_cell.metrics["pp"] == pytest.approx(0.9)
        assert pp_cell.tolerance == PP_DRIFT_TOLERANCE
        # pretty-printed with a trailing newline, diff-friendly
        text = path.read_text()
        assert text.endswith("\n") and "\n " in text

    def test_corrupt_baseline_raises_typed(self, tmp_path):
        assert load_baseline("portability", tmp_path) is None
        baseline_path("portability", tmp_path).write_text("{not json")
        with pytest.raises(ValidationError, match="unreadable"):
            load_baseline("portability", tmp_path)


class TestDriftCheck:
    def test_identical_reports_have_no_findings(self):
        statuses = _statuses(_report(), _report())
        assert set(statuses.values()) == {"ok"}
        assert ("*", "pp") in statuses

    def test_small_drift_within_tolerance(self):
        assert _statuses(_report(pp=0.905), _report(pp=0.9))[
            ("*", "pp")] == "ok"

    def test_pp_drift_is_a_finding(self):
        assert _statuses(_report(pp=0.80), _report(pp=0.9))[
            ("*", "pp")] == "drift"

    def test_device_set_change_is_a_finding(self):
        statuses = _statuses(_report(devices=("cpu",)),
                             _report(devices=("cpu", "cuda:gpu0")))
        assert statuses[("cuda:gpu0", "predicted_nsps")] == "missing"
        statuses = _statuses(_report(devices=("cpu", "cuda:gpu0")),
                             _report(devices=("cpu",)))
        assert statuses[("cuda:gpu0", "predicted_nsps")] == "new"


class TestCommittedBaseline:
    def test_baseline_is_committed_and_sane(self):
        latest = load_baseline("portability", REPO_BENCH).latest
        efficiency = [c for c in latest.cells
                      if c.keys["config"] == "efficiency"]
        (pp_cell,) = [c for c in latest.cells if c.keys["config"] == "pp"]
        assert 0.0 < pp_cell.metrics["pp"] <= 1.0
        assert [c.keys["device"] for c in efficiency] \
            == all_device_specs()
        assert pp_cell.extra["portable_config"] == dict(PORTABLE_CONFIG)
        for cell in efficiency:
            assert 0.0 < cell.metrics["efficiency"] <= 1.0
            assert cell.metrics["best_nsps"] > 0.0
            assert cell.metrics["portable_nsps"] > 0.0

    def test_sweep_matches_committed_baseline(self):
        # the CI drift smoke, in-process: deterministic clock, so the
        # recomputed sweep must land within the recorded tolerances
        report = run_regression(directory=REPO_BENCH,
                                suites=["portability"])
        assert report.passed, "\n" + report.render()
        assert report.results[0].n_compared == len(all_device_specs()) + 1


class TestMeasurePortability:
    def test_defaults_are_ci_sized(self):
        assert DEFAULT_N_PARTICLES <= 50_000

    def test_empty_device_list_raises(self):
        with pytest.raises(ConfigurationError):
            measure_portability(devices=[])

    def test_rows_carry_tuning_evidence(self):
        report = measure_portability(devices=["cuda:gpu1"],
                                     n_particles=2_000, steps=3,
                                     warmup=1)
        assert len(report.devices) == 1
        row = report.devices[0]
        assert row.backend == "cuda"
        assert row.predicted_nsps is not None
        assert row.best_label


class TestPortabilityCli:
    def test_cli_record_writes_baseline(self, tmp_path, capsys):
        # --record appends to the committed trajectory, never replaces it
        from repro.cli import main
        shutil.copy(REPO_BENCH / "BENCH_portability.json", tmp_path)
        committed = load_baseline("portability", REPO_BENCH)
        code = main(["bench", "portability", "--record",
                     "--record-dir", str(tmp_path)])
        assert code == 0
        assert "PP score" in capsys.readouterr().out
        written = load_baseline("portability", tmp_path)
        assert len(written.snapshots) == len(committed.snapshots) + 1
        assert written.snapshots[:-1] == committed.snapshots
        assert [c.keys["device"] for c in written.latest.cells] \
            == all_device_specs() + ["*"]
