"""Tests for the roofline analysis utility."""

import pytest

from repro.bench.calibration import iris_xe_max, p630, xeon_8260l_node
from repro.errors import KernelError
from repro.fields import MDipoleWave
from repro.fp import Precision
from repro.oneapi import (KernelSpec, MemoryStream, StreamKind,
                          UsmMemoryManager, analyze_kernel)
from repro.oneapi.runtime import build_push_spec
from repro.particles import Layout


def push_spec(scenario, field_flops=0.0):
    return build_push_spec(1_000_000, Layout.SOA, Precision.SINGLE,
                           scenario, UsmMemoryManager(),
                           field_flops=field_flops)


class TestAnalysis:
    def test_precalculated_is_memory_bound_everywhere(self):
        # The paper's recurring explanation, as a roofline statement.
        spec = push_spec("precalculated")
        for device in (xeon_8260l_node(), p630(), iris_xe_max()):
            point = analyze_kernel(spec, device)
            assert point.memory_bound, device.name

    def test_arithmetic_intensity_value(self):
        # 222 flops over 82 effective bytes ~ 2.7... with RW doubling:
        # intensity = flops / effective bytes moved.
        spec = push_spec("precalculated")
        point = analyze_kernel(spec, xeon_8260l_node())
        assert point.arithmetic_intensity == pytest.approx(
            spec.flops_per_item / 82.0, rel=0.05)

    def test_analytical_crosses_the_ridge_on_cpu(self):
        # Adding ~250 field flops pushes the kernel right of the CPU
        # ridge — matching the compute-bound analytical float cells.
        spec = push_spec("analytical",
                         field_flops=MDipoleWave.flops_per_evaluation)
        point = analyze_kernel(spec, xeon_8260l_node())
        assert not point.memory_bound

    def test_prediction_matches_paper_scale(self):
        # The bare roofline (no NUMA/scheduling) already lands on the
        # paper's 0.50 ns for the best CPU configuration.
        spec = push_spec("precalculated")
        point = analyze_kernel(spec, xeon_8260l_node())
        assert point.predicted_nsps == pytest.approx(0.50, rel=0.05)

    def test_double_precision_halves_compute_roof(self):
        spec = push_spec("analytical", field_flops=250)
        single = analyze_kernel(spec, xeon_8260l_node(), Precision.SINGLE)
        double = analyze_kernel(spec, xeon_8260l_node(), Precision.DOUBLE)
        assert double.compute_ceiling_flops == pytest.approx(
            single.compute_ceiling_flops / 2.0)

    def test_ridge_ordering_across_devices(self):
        # Iris Xe Max has the most flops per byte of bandwidth, so the
        # widest memory-bound region.
        spec = push_spec("precalculated")
        ridges = {d.name: analyze_kernel(spec, d).ridge_intensity
                  for d in (xeon_8260l_node(), p630(), iris_xe_max())}
        assert ridges["Intel Iris Xe Max"] > ridges["Intel P630"]

    def test_requires_memory_streams(self):
        spec = KernelSpec(name="pure-flops", streams=(), flops_per_item=10)
        with pytest.raises(KernelError):
            analyze_kernel(spec, xeon_8260l_node())

    def test_write_allocate_lowers_intensity(self):
        stream = MemoryStream(name="out", kind=StreamKind.WRITE,
                              bytes_per_item=8)
        spec = KernelSpec(name="writer", streams=(stream,),
                          flops_per_item=80)
        with_rfo = analyze_kernel(spec, xeon_8260l_node())
        import dataclasses
        no_rfo_device = dataclasses.replace(xeon_8260l_node(),
                                            write_allocate=False)
        without_rfo = analyze_kernel(spec, no_rfo_device)
        assert with_rfo.arithmetic_intensity == pytest.approx(
            without_rfo.arithmetic_intensity / 2.0)


class TestCliRoofline:
    def test_command_prints_table(self, capsys):
        from repro.cli import main
        assert main(["roofline"]) == 0
        out = capsys.readouterr().out
        assert "ridge" in out
        assert "memory" in out
        rows = [line.split() for line in out.splitlines()
                if line.split()[:1] in (["cpu"], ["p630"],
                                        ["iris-xe-max"])]
        # The six rows, pinned: the graph's one launch group is
        # classified as its push spec alone.
        assert rows == [
            ["cpu", "precalculated", "1.76", "5.62", "memory", "0.50"],
            ["cpu", "analytical", "6.79", "5.62", "compute", "0.43"],
            ["p630", "precalculated", "1.76", "6.31", "memory", "2.34"],
            ["p630", "analytical", "6.79", "6.31", "compute", "1.78"],
            ["iris-xe-max", "precalculated", "1.76", "21.12", "memory",
             "1.37"],
            ["iris-xe-max", "analytical", "6.79", "21.12", "memory",
             "0.97"],
        ]
