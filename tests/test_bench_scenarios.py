"""Tests for the benchmark scenario definitions and metrics."""

import math

import numpy as np
import pytest

from repro.bench import (measure_real_nsps, nsps_from_steps,
                         paper_time_step, paper_wave, runtime_config_for,
                         BenchmarkCase, PAPER_PARTICLES,
                         PAPER_STEPS_PER_ITERATION, PAPER_ITERATIONS)
from repro.bench.scenarios import paper_ensemble
from repro.errors import ConfigurationError
from repro.fields import MDipoleWave
from repro.fp import Precision
from repro.particles import Layout


class TestPaperConstants:
    def test_experiment_sizes(self):
        # Section 5.2: 1e7 particles, 1e3 steps per iteration, 10
        # iterations.
        assert PAPER_PARTICLES == 10_000_000
        assert PAPER_STEPS_PER_ITERATION == 1_000
        assert PAPER_ITERATIONS == 10

    def test_wave_is_paper_configuration(self):
        wave = paper_wave()
        assert isinstance(wave, MDipoleWave)
        assert wave.omega == pytest.approx(2.1e15)

    def test_time_step_fraction(self):
        dt = paper_time_step(0.01)
        period = 2.0 * math.pi / 2.1e15
        assert dt == pytest.approx(period / 100.0)
        with pytest.raises(ConfigurationError):
            paper_time_step(0.0)

    def test_paper_ensemble_scaled(self):
        ensemble = paper_ensemble(128, Layout.AOS, Precision.SINGLE)
        assert ensemble.size == 128
        assert ensemble.layout is Layout.AOS
        assert ensemble.precision is Precision.SINGLE


class TestBenchmarkCase:
    def test_label(self):
        case = BenchmarkCase("analytical", Layout.SOA, Precision.SINGLE,
                             "OpenMP")
        assert "SoA" in case.label and "Analytical" in case.label

    def test_rejects_unknown_scenario(self):
        with pytest.raises(ConfigurationError):
            BenchmarkCase("poisson", Layout.SOA, Precision.SINGLE,
                          "OpenMP")


class TestRuntimeConfigFor:
    def test_openmp(self):
        config = runtime_config_for("OpenMP")
        assert config.runtime == "openmp"

    def test_dpcpp_plain(self):
        config = runtime_config_for("DPC++")
        assert config.runtime == "dpcpp"
        assert config.cpu_places == ""

    def test_dpcpp_numa(self):
        config = runtime_config_for("DPC++ NUMA")
        assert config.cpu_places == "numa_domains"

    def test_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            runtime_config_for("CUDA")

    def test_core_restriction_passed_through(self):
        config = runtime_config_for("OpenMP", units=4, threads_per_unit=1)
        assert config.units == 4
        assert config.threads_per_unit == 1


class TestMetrics:
    def test_nsps_from_steps_skips_warmup(self):
        steady, _ = nsps_from_steps([100e-6, 50e-6, 1e-6, 3e-6], 1000,
                                    warmup=2)
        assert steady == pytest.approx(2.0)

    def test_nsps_from_steps_short_run_averages_every_step(self):
        # No more steps than the warm-up window: every step counts.
        assert nsps_from_steps([10e-6, 5e-6], 1000, warmup=2)[0] == \
            pytest.approx(7.5)
        assert nsps_from_steps([10e-6, 5e-6], 1000, warmup=3)[0] == \
            pytest.approx(7.5)

    def test_nsps_from_steps_first_step_figure(self):
        _, first = nsps_from_steps([100e-6, 50e-6, 1e-6], 1000, warmup=2)
        assert first == pytest.approx(100.0)
        steady, first = nsps_from_steps([4e-6, 2e-6], 2000, warmup=0)
        assert (steady, first) == (pytest.approx(1.5), pytest.approx(2.0))

    def test_nsps_from_steps_requires_steps(self):
        with pytest.raises(ConfigurationError):
            nsps_from_steps([], 1000, warmup=0)

    @pytest.mark.parametrize("n_items, warmup", [(0, 0), (-5, 2), (10, -1)])
    def test_nsps_from_steps_rejects_bad_arguments(self, n_items, warmup):
        with pytest.raises(ConfigurationError):
            nsps_from_steps([1.0], n_items, warmup)

    def test_measure_real_nsps_runs(self):
        ensemble = paper_ensemble(2000, Layout.SOA, Precision.DOUBLE)
        result = measure_real_nsps(ensemble, "analytical", paper_wave(),
                                   paper_time_step(), steps=2,
                                   warmup_steps=1)
        assert result.nsps > 0.0
        assert result.n_particles == 2000
        assert result.steps == 2

    def test_measure_real_nsps_moves_particles(self):
        ensemble = paper_ensemble(500, Layout.AOS, Precision.DOUBLE)
        before = ensemble.positions().copy()
        measure_real_nsps(ensemble, "precalculated", paper_wave(),
                          paper_time_step(), steps=2, warmup_steps=1)
        assert not np.allclose(ensemble.positions(), before)

    def test_measure_validates_inputs(self):
        ensemble = paper_ensemble(10)
        with pytest.raises(ConfigurationError):
            measure_real_nsps(ensemble, "magic", paper_wave(), 1e-17)
        with pytest.raises(ConfigurationError):
            measure_real_nsps(ensemble, "analytical", paper_wave(), 1e-17,
                              steps=0)
