"""The declarative regression farm: filters, tolerances, migration, CLI.

Covers the PR 9 surface end to end:

* the single tolerance predicate — closed interval, exactly-at-bound
  passes, one epsilon over fails;
* ``--filter`` parsing and :class:`TestFilter` matching across
  suite/device/backend/tag axes;
* schema v1 as the only baseline format read or written (v0 documents
  fail with a typed error);
* the uniform performance stage (:func:`compare_cells`): at-bound,
  drifted, missing and new cells;
* ``repro bench`` exit codes: 0 green, 1 on injected drift (with the
  per-cell diff naming suite/device/backend/config), 2 on bad filters
  and unknown suites.
"""

import json
import math
import shutil
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import ConfigurationError, ValidationError
from repro.regress import (Baseline, BaselineCell, RegressionTest,
                           SCHEMA_VERSION, TestFilter, append_snapshot,
                           backend_of_device, baseline_path, cell_label,
                           compare_cells, load_baseline, parse_filter,
                           relative_drift, run_regression,
                           within_tolerance)

REPO_BENCH = Path(__file__).resolve().parent.parent / "benchmarks"


# -- the single tolerance predicate ------------------------------------

def test_within_tolerance_closed_interval():
    # exactly at the bound passes (closed interval)...
    assert within_tolerance(110.0, 100.0, 0.1)
    assert within_tolerance(90.0, 100.0, 0.1)
    # ...one epsilon over fails
    assert not within_tolerance(math.nextafter(110.0, math.inf),
                                100.0, 0.1)
    assert not within_tolerance(math.nextafter(90.0, -math.inf),
                                100.0, 0.1)
    # zero tolerance means exact reproduction
    assert within_tolerance(1.5, 1.5, 0.0)
    assert not within_tolerance(math.nextafter(1.5, 2.0), 1.5, 0.0)


def test_within_tolerance_rejects_negative_tolerance():
    with pytest.raises(ConfigurationError):
        within_tolerance(1.0, 1.0, -0.1)


def test_relative_drift_signed_and_zero_reference():
    assert relative_drift(110.0, 100.0) == pytest.approx(0.10)
    assert relative_drift(90.0, 100.0) == pytest.approx(-0.10)
    assert relative_drift(0.0, 0.0) == 0.0
    assert relative_drift(1.0, 0.0) == math.inf


# -- filters -----------------------------------------------------------

class _Fake(RegressionTest):
    suite = "fake"
    tags = frozenset({"smoke", "paper"})
    devices = ("cpu", "iris-xe-max")
    backends = ("oneapi",)


def test_parse_filter_buckets_and_terms():
    f = parse_filter(["suite=fake,device=cpu", "backend=oneapi",
                      "tag=smoke", "paper"])
    assert f.suites == ("fake",)
    assert f.devices == ("cpu",)
    assert f.backends == ("oneapi",)
    assert f.tags == ("smoke",)
    assert f.terms == ("paper",)
    assert parse_filter(None) == TestFilter()


def test_parse_filter_rejects_bad_terms():
    with pytest.raises(ConfigurationError):
        parse_filter(["bogus=x"])
    with pytest.raises(ConfigurationError):
        parse_filter(["suite="])


def test_filter_matching_axes():
    test = _Fake()
    assert TestFilter().matches(test)
    assert TestFilter(suites=("fake",)).matches(test)
    assert not TestFilter(suites=("other",)).matches(test)
    assert TestFilter(devices=("cpu",)).matches(test)
    assert not TestFilter(devices=("cuda:gpu0",)).matches(test)
    assert TestFilter(backends=("oneapi",)).matches(test)
    assert not TestFilter(backends=("cuda",)).matches(test)
    assert TestFilter(tags=("smoke",)).matches(test)
    assert not TestFilter(tags=("manual",)).matches(test)
    # bare terms match the suite name OR a tag, and AND together
    assert TestFilter(terms=("fake",)).matches(test)
    assert TestFilter(terms=("smoke", "paper")).matches(test)
    assert not TestFilter(terms=("smoke", "manual")).matches(test)


def test_backend_inference():
    assert backend_of_device("cuda:gpu0") == "cuda"
    assert backend_of_device("iris-xe-max") == "oneapi"
    assert backend_of_device("2x iris-xe-max") == "oneapi"


# -- schema v1 ---------------------------------------------------------

def test_writer_only_emits_v1(tmp_path):
    cell = {"suite": "demo", "backend": "oneapi", "device": "cpu",
            "config": "default", "metrics": {"nsps": 1.0},
            "tolerance": 0.1}
    append_snapshot("demo", [cell], 500, directory=tmp_path)
    document = json.loads(baseline_path("demo", tmp_path).read_text())
    assert document["schema_version"] == SCHEMA_VERSION
    # a v0 file is no longer migrated: appending to it fails typed
    v0 = {"scenario": "old", "snapshots": [
        {"git_sha": "aaa", "date": "", "n_particles": 5,
         "cells": [{"config": "c", "device": "cpu", "nsps": 2.0}]}]}
    baseline_path("old", tmp_path).write_text(json.dumps(v0))
    with pytest.raises(ValidationError, match="schema_version"):
        append_snapshot("old", [dict(cell, suite="old")], 500,
                        directory=tmp_path)


def test_corrupt_and_mismatched_baselines_raise(tmp_path):
    assert load_baseline("absent", tmp_path) is None
    baseline_path("bad", tmp_path).write_text("{not json")
    with pytest.raises(ValidationError):
        load_baseline("bad", tmp_path)
    baseline_path("liar", tmp_path).write_text(
        json.dumps({"schema_version": 1, "suite": "other",
                    "snapshots": []}))
    with pytest.raises(ValidationError):
        load_baseline("liar", tmp_path)
    baseline_path("future", tmp_path).write_text(
        json.dumps({"schema_version": 99, "suite": "future",
                    "snapshots": []}))
    with pytest.raises(ValidationError):
        load_baseline("future", tmp_path)
    # both retired v0 shapes: the trajectory file and the flat
    # portability dump
    baseline_path("trajectory", tmp_path).write_text(json.dumps(
        {"scenario": "trajectory", "snapshots": []}))
    baseline_path("portability", tmp_path).write_text(json.dumps(
        {"pp": 0.9, "devices": []}))
    for suite in ("trajectory", "portability"):
        with pytest.raises(ValidationError, match="schema_version"):
            load_baseline(suite, tmp_path)
    with pytest.raises(ConfigurationError):
        baseline_path("../escape")


# -- the uniform performance stage -------------------------------------

def _cell(nsps, config="c", device="cpu", **keys):
    data = {"suite": "fake", "backend": "oneapi", "device": device,
            "config": config, "metrics": {"nsps": nsps},
            "tolerance": 0.1}
    data.update(keys)
    return data


def _ref(nsps, config="c", device="cpu", tolerance=0.1):
    return BaselineCell(
        keys={"suite": "fake", "backend": "oneapi", "device": device,
              "config": config},
        metrics={"nsps": nsps}, tolerance=tolerance)


def test_compare_cells_at_bound_and_over():
    test = _Fake()
    at_bound = compare_cells(test, [_cell(110.0)], [_ref(100.0)])
    assert [c.status for c in at_bound] == ["ok"]
    over = compare_cells(
        test, [_cell(math.nextafter(110.0, math.inf))], [_ref(100.0)])
    assert [c.status for c in over] == ["drift"]
    assert over[0].drift == pytest.approx(0.1)
    assert "fake/oneapi:cpu/c" in over[0].label


def test_compare_cells_missing_and_new():
    test = _Fake()
    results = compare_cells(
        test,
        [_cell(1.0, config="kept"), _cell(2.0, config="added")],
        [_ref(1.0, config="kept"), _ref(3.0, config="vanished")])
    by_status = {c.status: c for c in results}
    assert by_status["ok"].keys["config"] == "kept"
    assert by_status["missing"].keys["config"] == "vanished"
    assert not by_status["missing"].passed
    assert by_status["new"].keys["config"] == "added"
    assert by_status["new"].passed


def test_baseline_cell_requires_identity_and_metrics():
    with pytest.raises(ValidationError):
        BaselineCell.from_dict({"device": "cpu", "config": "c",
                                "metrics": {"nsps": 1.0}})
    with pytest.raises(ValidationError):
        BaselineCell.from_dict({"backend": "oneapi", "device": "cpu",
                                "config": "c"})
    assert "layout=" not in cell_label(
        {"suite": "s", "backend": "b", "device": "d", "config": "c",
         "layout": "SoA"})


# -- the matrix runner + CLI exit codes --------------------------------

@pytest.fixture()
def shard_dir(tmp_path):
    """A baseline directory holding only the committed shard file."""
    shutil.copy(REPO_BENCH / "BENCH_shard.json",
                tmp_path / "BENCH_shard.json")
    return tmp_path


def test_regress_green_on_committed_baseline(shard_dir):
    report = run_regression(directory=shard_dir, suites=["shard"])
    assert report.passed
    assert report.results[0].n_compared == 1


def test_regress_fails_on_injected_drift(shard_dir, capsys):
    path = shard_dir / "BENCH_shard.json"
    document = json.loads(path.read_text())
    cell = document["snapshots"][-1]["cells"][0]
    cell["metrics"]["nsps"] *= 1.5
    path.write_text(json.dumps(document))
    with pytest.raises(SystemExit) as exc:
        main(["bench", "shard", "--regress",
              "--record-dir", str(shard_dir)])
    assert exc.value.code == 1
    out = capsys.readouterr().out
    # the per-cell diff names suite, backend, device and config
    assert "shard/oneapi:2x iris-xe-max/sharded/even" in out
    assert "drift" in out and "±10%" in out


def test_regress_fails_on_missing_baseline(tmp_path):
    report = run_regression(directory=tmp_path, suites=["fusion"])
    assert not report.passed
    assert "no committed baseline" in report.results[0].error


def test_measure_suite_is_listed_but_never_regressed():
    report = run_regression(suites=["measure"])
    assert report.passed
    assert report.results[0].skipped is not None


def test_cli_bench_list_and_errors(capsys):
    assert main(["bench", "--list"]) == 0
    out = capsys.readouterr().out
    for suite in ("table2", "fusion", "portability", "measure"):
        assert suite in out
    # bad filter expression -> usage error (exit 2)
    assert main(["bench", "--regress", "--filter", "bogus=x"]) == 2
    assert "bad filter term" in capsys.readouterr().err
    # unknown suite -> exit 2
    assert main(["bench", "nope"]) == 2
    assert "unknown bench suite" in capsys.readouterr().err
    # a suite name is required outside --list/--regress
    assert main(["bench"]) == 2
    # --record and --regress are exclusive
    assert main(["bench", "shard", "--record", "--regress"]) == 2


def test_cli_bench_record_then_regress(tmp_path, capsys):
    assert main(["bench", "shard", "--record",
                 "--record-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "recorded snapshot" in out
    assert main(["bench", "shard", "--regress",
                 "--record-dir", str(tmp_path)]) == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_bench_smoke_filter_is_green(capsys):
    """The CI smoke job's exact invocation, from the repo checkout."""
    assert main(["bench", "--regress", "--filter", "smoke",
                 "--record-dir", str(REPO_BENCH)]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "portability" in out


@pytest.mark.slow
def test_full_matrix_regresses_green():
    """Every declared suite (paper tables included) reproduces its
    committed baseline and sanity bands — the nightly CI job."""
    report = run_regression(directory=REPO_BENCH)
    assert report.passed, "\n" + report.render()
    compared = sum(r.n_compared for r in report.results)
    assert compared >= 40       # 24 + 12 + shard + fusion + pp
