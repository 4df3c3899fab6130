"""Tests: the modelled experiments reproduce the paper's *claims*.

These tests run the harness at the paper's particle count (virtual
allocations, so this is cheap in memory) and assert the qualitative
findings of Section 5 — orderings and approximate ratios — rather than
exact NSPS values.
"""

import pytest

from repro.bench import (fig1_series, first_iteration_ratio, model_push_nsps,
                         thread_sweep, PAPER_TABLE2, PAPER_TABLE3)
from repro.bench.scenarios import BenchmarkCase
from repro.errors import ConfigurationError
from repro.fp import Precision
from repro.particles import Layout

N = 4_000_000     # large enough to leave every cache, cheaper than 1e7


def nsps(parallelization, layout=Layout.SOA, precision=Precision.SINGLE,
         scenario="precalculated", **kwargs):
    case = BenchmarkCase(scenario, layout, precision, parallelization)
    return model_push_nsps(case, n=N, **kwargs).nsps


class TestTable2Claims:
    def test_numa_policy_is_a_significant_gain(self):
        # Finding 1: NUMA-friendly policy gives a significant gain.
        plain = nsps("DPC++")
        numa = nsps("DPC++ NUMA")
        assert plain / numa > 1.2

    def test_dpcpp_numa_close_to_openmp(self):
        # Finding 2: optimized DPC++ only slightly inferior (~10%).
        openmp = nsps("OpenMP")
        numa = nsps("DPC++ NUMA")
        assert 1.0 < numa / openmp < 1.3

    def test_layout_has_small_effect_on_cpu(self):
        # Finding 3: AoS vs SoA almost no effect on CPU.
        aos = nsps("OpenMP", layout=Layout.AOS)
        soa = nsps("OpenMP", layout=Layout.SOA)
        assert 0.7 < aos / soa < 1.4

    def test_double_about_twice_single_precalculated(self):
        # Finding 4: double ~2x single in the precalculated problem.
        single = nsps("OpenMP", precision=Precision.SINGLE)
        double = nsps("OpenMP", precision=Precision.DOUBLE)
        assert 1.7 < double / single < 2.3

    def test_analytical_double_faster_than_precalculated_double(self):
        # Finding 5: with double precision the analytical scenario is
        # a little faster.
        precalc = nsps("OpenMP", precision=Precision.DOUBLE,
                       scenario="precalculated")
        analytical = nsps("OpenMP", precision=Precision.DOUBLE,
                          scenario="analytical")
        assert analytical < precalc

    def test_all_cells_within_factor_two_of_paper(self):
        for (layout_name, parallelization), row in PAPER_TABLE2.items():
            layout = Layout.AOS if layout_name == "AoS" else Layout.SOA
            for (scenario, precision_name), paper_value in row.items():
                precision = (Precision.SINGLE if precision_name == "float"
                             else Precision.DOUBLE)
                model = nsps(parallelization, layout, precision, scenario)
                assert 0.5 < model / paper_value < 2.0, \
                    f"{layout_name}/{parallelization}/{scenario}/" \
                    f"{precision_name}: model {model:.2f} vs paper " \
                    f"{paper_value:.2f}"


class TestTable3Claims:
    def test_layout_matters_on_gpus(self):
        # "on Intel GPUs the run time may differ by more than half".
        for device in ("p630", "iris-xe-max"):
            aos = nsps(device, layout=Layout.AOS)
            soa = nsps(device, layout=Layout.SOA)
            assert aos / soa > 1.4

    def test_p630_slower_than_cpu_by_3_to_6(self):
        # "the code on P630 works slower only by a factor of 3.5-4.5".
        cpu = nsps("DPC++ NUMA", layout=Layout.SOA)
        gpu = nsps("p630", layout=Layout.SOA)
        assert 3.0 < gpu / cpu < 6.5

    def test_iris_slower_than_cpu_by_under_3(self):
        # "the code on Iris Xe Max is slower by a factor of 1.7-2.6".
        cpu = nsps("DPC++ NUMA", layout=Layout.SOA)
        gpu = nsps("iris-xe-max", layout=Layout.SOA)
        assert 1.5 < gpu / cpu < 3.5

    def test_iris_faster_than_p630(self):
        assert nsps("iris-xe-max") < nsps("p630")

    def test_all_cells_within_factor_two_of_paper(self):
        for layout_name, row in PAPER_TABLE3.items():
            layout = Layout.AOS if layout_name == "AoS" else Layout.SOA
            for (scenario, device), paper_value in row.items():
                parallelization = ("DPC++ NUMA" if device == "cpu"
                                   else device)
                model = nsps(parallelization, layout, Precision.SINGLE,
                             scenario)
                assert 0.5 < model / paper_value < 2.0, \
                    f"{layout_name}/{device}/{scenario}: model " \
                    f"{model:.2f} vs paper {paper_value:.2f}"


class TestFig1Claims:
    @pytest.fixture(scope="class")
    def series(self):
        return fig1_series(core_counts=(1, 2, 4, 8, 16, 24, 32, 48), n=N)

    def test_openmp_near_linear_at_low_counts(self, series):
        points = dict(series["OpenMP/SoA"])
        assert points[2] == pytest.approx(2.0, rel=0.15)
        assert points[4] == pytest.approx(4.0, rel=0.15)

    def test_dpcpp_superlinear_at_low_counts(self, series):
        # "For DPC++ NUMA implementations, super-linear acceleration is
        # observed at the beginning."
        points = dict(series["DPC++ NUMA/SoA"])
        assert points[2] > 2.0
        assert points[4] > 4.0

    def test_saturation_within_first_socket(self, series):
        # Speedup flattens once the socket's bandwidth is saturated.
        points = dict(series["OpenMP/SoA"])
        assert points[24] < 24 * 0.75

    def test_second_socket_resumes_scaling(self, series):
        points = dict(series["OpenMP/SoA"])
        assert points[48] > 1.5 * points[24]

    def test_efficiency_near_paper_63_percent(self, series):
        # "approaching to 63% of strong scaling efficiency ... 48 cores".
        points = dict(series["DPC++ NUMA/SoA"])
        efficiency = points[48] / 48.0
        assert 0.5 < efficiency < 0.85


class TestInTextEffects:
    def test_first_iteration_about_fifty_percent_slower(self):
        ratio = first_iteration_ratio(n=N)["DPC++ NUMA"]
        assert 1.25 < ratio < 1.8

    def test_hyperthreading_helps(self):
        sweep = thread_sweep(n=N)
        assert sweep[48][2] < sweep[48][1]

    def test_model_requires_warmup_steps(self):
        case = BenchmarkCase("precalculated", Layout.SOA, Precision.SINGLE,
                             "OpenMP")
        with pytest.raises(ConfigurationError):
            model_push_nsps(case, n=N, steps=2)

    def test_gpu_case_routes_to_gpu_device(self):
        case = BenchmarkCase("precalculated", Layout.SOA, Precision.SINGLE,
                             "p630")
        result = model_push_nsps(case, n=N)
        assert result.bound == "memory"
        assert result.nsps > nsps("DPC++ NUMA")
