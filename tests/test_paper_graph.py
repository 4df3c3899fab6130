"""Tests: the paper harness prices the recorded step graph.

Every modelled push outside the engines — Tables 2-3, Fig. 1, the
first-iteration and threads suites, ``repro roofline`` and the model
scripts — replays the paper's step graph through the graph executor
(:func:`repro.bench.harness.replay_paper_graph`).  The pinned figures
below were produced by the earlier direct-launch harness; the graph
replay must reproduce them (steady NSPS to round-off, the rest
exactly), fault-free and under the ``transient`` fault plan.  The
structural tests keep "one way to run a step" and "one steady-state
NSPS routine" from regressing.
"""

import ast
from pathlib import Path

import pytest

from repro.bench.calibration import cost_model_for, device_by_name
from repro.bench.harness import model_push_nsps, replay_paper_graph
from repro.bench.scenarios import BenchmarkCase
from repro.fields.dipole import MDipoleWave
from repro.fp import Precision
from repro.oneapi.queue import Queue, RuntimeConfig
from repro.particles import Layout
from repro.resilience import (FaultPlan, FaultRule, fault_injection,
                              named_plan)

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: (layout, scenario, faulted) -> (nsps, first_launch_nsps,
#: first_launch_seconds, bound) of DPC++ NUMA, float, n=4096, 6 steps;
#: "faulted" runs under named_plan("transient") with seed 11.
PINNED = {
    ("SoA", "precalculated", False): (
        4.082233594811481, 36836.11348359481, 0.15088072082880435,
        "compute"),
    ("SoA", "analytical", False): (
        4.387760669136969, 36742.66901066914, 0.15049797226770079,
        "compute"),
    ("AoS", "precalculated", False): (
        4.108631134033203, 36859.577381134026, 0.15097682895312498,
        "compute"),
    ("AoS", "analytical", False): (
        4.459987269507514, 36766.1787372695, 0.1505942681078559,
        "compute"),
    ("SoA", "precalculated", True): (
        66.78928544199722, 36836.11348359481, 0.15088072082880435,
        "compute"),
    ("SoA", "analytical", True): (
        67.09481251632269, 36742.66901066914, 0.15049797226770079,
        "compute"),
    ("AoS", "precalculated", True): (
        66.81568298121891, 36859.577381134026, 0.15097682895312498,
        "compute"),
    ("AoS", "analytical", True): (
        67.16703911669323, 36766.1787372695, 0.1505942681078559,
        "compute"),
}


def cpu_queue():
    device = device_by_name("cpu")
    return Queue(device, RuntimeConfig(runtime="dpcpp"),
                 cost_model_for(device))


class TestPinnedHarnessNumbers:
    @pytest.mark.parametrize("layout, scenario, faulted", sorted(PINNED))
    def test_model_push_nsps_is_pinned(self, layout, scenario, faulted):
        case = BenchmarkCase(scenario, Layout(layout), Precision.SINGLE,
                             "DPC++ NUMA")
        if faulted:
            with fault_injection(named_plan("transient"), seed=11):
                result = model_push_nsps(case, n=4096, steps=6)
        else:
            result = model_push_nsps(case, n=4096, steps=6)
        nsps, first_nsps, first_seconds, bound = \
            PINNED[(layout, scenario, faulted)]
        assert result.nsps == pytest.approx(nsps, rel=1e-15, abs=0.0)
        assert result.first_launch_nsps == first_nsps
        assert result.first_launch_seconds == first_seconds
        assert result.bound == bound


class TestReplayPaperGraph:
    def test_one_timed_push_per_step(self):
        queue = cpu_queue()
        graph, records = replay_paper_graph(
            queue, 4096, Layout.SOA, Precision.SINGLE, "precalculated",
            steps=4)
        assert graph.staged == 1 and len(graph) == 2
        assert graph.nodes[0].untimed
        push = graph.nodes[1].spec
        assert [r.kernel_name for r in records] == [push.name] * 4
        assert len(queue.records) == 4

    def test_zero_steps_only_builds_the_graph(self):
        queue = cpu_queue()
        graph, records = replay_paper_graph(
            queue, 4096, Layout.AOS, Precision.DOUBLE, "analytical",
            steps=0)
        assert records == [] and queue.records == []
        # the analytical push carries the m-dipole cost, no field traffic
        push = graph.nodes[graph.staged].spec
        assert not any(s.name.startswith("fields-") for s in push.streams)
        assert push.flops_per_item > MDipoleWave.flops_per_evaluation

    def test_streams_are_virtual_allocations_of_the_queue(self):
        queue = cpu_queue()
        graph, _ = replay_paper_graph(queue, 10_000_000, Layout.SOA,
                                      Precision.SINGLE, "precalculated",
                                      steps=0)
        push = graph.nodes[graph.staged].spec
        assert all(s.allocation is not None for s in push.streams)
        assert len(queue.memory) > 0

    def test_graph_build_alloc_failure_is_retried(self):
        queue = cpu_queue()
        plan = FaultPlan(name="a", rules=(
            FaultRule("alloc-failure", at_ops=(0, 1)),))
        with fault_injection(plan, seed=0):
            _, records = replay_paper_graph(
                queue, 512, Layout.SOA, Precision.SINGLE, "precalculated",
                steps=3)
        assert len(records) == 3
        backoffs = [e for e in queue.timeline.events
                    if e.name == "backoff:alloc"]
        assert len(backoffs) == 2

    def test_launch_retries_fold_into_the_step_record(self):
        queue = cpu_queue()
        plan = FaultPlan(name="fail-once", rules=(
            FaultRule("launch-failure", at_ops=(0,)),))
        with fault_injection(plan, seed=0):
            _, records = replay_paper_graph(
                queue, 512, Layout.SOA, Precision.SINGLE, "precalculated",
                steps=3)
        backoffs = [e.duration for e in queue.timeline.events
                    if e.name.startswith("backoff:boris")]
        assert len(backoffs) == 1
        assert records[0].timing.recovery_seconds == backoffs[0]


def _trees():
    """``(relative path, parsed module)`` of every file of ``src/repro``."""
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text())


def _callers(name):
    """Files of ``src/repro`` (relative paths) that call ``name``, as a
    bare function or as a method."""
    files = set()
    for rel, tree in _trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = getattr(func, "attr", getattr(func, "id", None))
            if called == name:
                files.add(rel)
    return files


def _definitions(name):
    """Files of ``src/repro`` that define a function, method or class
    named ``name``."""
    return {rel for rel, tree in _trees() for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) and node.name == name}


class TestOneWayToRunAStep:
    def test_only_the_step_graph_builds_the_push_spec(self):
        assert _callers("build_push_spec") == {"oneapi/runtime.py"}

    def test_only_the_executor_and_queue_launch_kernels(self):
        # equality, not a subset, so a scan that finds nothing fails
        assert _callers("parallel_for") == {"oneapi/graph.py",
                                            "oneapi/queue.py"}


class TestOneNspsRoutine:
    def test_nsps_from_steps_is_the_one_average(self):
        assert _definitions("nsps_from_steps") == {"bench/metrics.py"}

    def test_no_class_defines_an_nsps_method(self):
        assert _definitions("nsps") == set()

    def test_deleted_routines_stay_gone(self):
        for name in ("nsps_from_records", "LaunchSample"):
            assert not any(name in path.read_text()
                           for path in SRC.rglob("*.py")), name
