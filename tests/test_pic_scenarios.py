"""Tests for the validated PIC scenarios (repro.pic.scenarios)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.fp import Precision
from repro.particles import Layout
from repro.pic import (EnergyHistory, SCENARIOS, build_scenario,
                       get_scenario, pic_state_digest, scenario_names)

NAMES = ("laser-slab", "magnetic-mirror", "relativistic-beam")


class TestRegistry:
    def test_three_scenarios_registered(self):
        assert tuple(scenario_names()) == NAMES

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError):
            get_scenario("tokamak")
        with pytest.raises(ConfigurationError):
            build_scenario("tokamak")

    def test_registry_entries_carry_tolerances(self):
        for name in NAMES:
            scenario = SCENARIOS[name]
            assert scenario.name == name
            assert scenario.energy_tolerance > 0.0
            assert scenario.default_particles > 0


class TestDeterminism:
    @pytest.mark.parametrize("name", NAMES)
    def test_same_seed_same_bits(self, name):
        digests = set()
        for _ in range(2):
            simulation = build_scenario(name, n_particles=48, seed=21)
            simulation.run(2)
            digests.add(pic_state_digest(simulation))
        assert len(digests) == 1

    def test_different_seed_different_state(self):
        digests = set()
        for seed in (1, 2):
            simulation = build_scenario("laser-slab", n_particles=48,
                                        seed=seed)
            digests.add(pic_state_digest(simulation))
        assert len(digests) == 2

    def test_layouts_build_identical_physics(self):
        digests = set()
        for layout in (Layout.AOS, Layout.SOA):
            simulation = build_scenario("magnetic-mirror", n_particles=48,
                                        seed=3, layout=layout)
            simulation.run(2)
            digests.add(pic_state_digest(simulation))
        assert len(digests) == 1


class TestConservation:
    @pytest.mark.parametrize("name", NAMES)
    def test_energy_drift_within_declared_tolerance(self, name):
        scenario = get_scenario(name)
        simulation = scenario.build(n_particles=256, seed=0)
        history = EnergyHistory()
        simulation.run(scenario.default_steps, energy_history=history)
        drift = history.relative_drift()
        assert np.isfinite(drift)
        assert drift <= scenario.energy_tolerance, \
            f"{name}: energy drift {drift:.3e} exceeds " \
            f"{scenario.energy_tolerance:.1e}"

    @pytest.mark.parametrize("name", NAMES)
    def test_divergence_b_free_over_a_long_run(self, name):
        # The Yee update conserves the discrete div B exactly; over a
        # long run it may drift only by accumulated round-off.
        simulation = build_scenario(name, n_particles=64, seed=0)
        solver = simulation.solver
        b_scale = max(np.abs(simulation.grid.fields[c]).max()
                      for c in ("bx", "by", "bz")) or 1.0
        dx = min(simulation.grid.spacing)
        before = np.abs(solver.divergence_b()).max()
        simulation.run(24)
        after = np.abs(solver.divergence_b()).max()
        budget = 1e-10 * b_scale / dx
        assert after - before <= budget, \
            f"{name}: div B grew {after - before:.3e} (budget {budget:.3e})"

    def test_single_precision_scenarios_still_build(self):
        simulation = build_scenario("laser-slab", n_particles=32,
                                    precision=Precision.SINGLE)
        simulation.run(1)
        assert simulation.step_count == 1


class TestPicDifferentialSweep:
    def test_one_scenario_sweep_is_bit_exact(self):
        from repro.validation import run_pic_differential
        report = run_pic_differential(n=32, steps=2,
                                      scenarios=("relativistic-beam",))
        assert report.all_passed
        labels = {r.fusion for r in report.results}
        assert labels == {"reference", "unfused", "fused"}
        # 3 depositions x (2 per-layout groups + 1 cross-layout check)
        assert len(report.digest_checks) == 9
        assert all(c.passed for c in report.digest_checks)
        engine_cells = [r for r in report.results
                        if r.fusion != "reference"]
        assert all(r.commands_checked > 0 for r in engine_cells)

    def test_deposition_axis_defaults_to_every_scheme(self):
        from repro.pic.simulation import DEPOSITIONS
        from repro.validation import run_pic_differential
        report = run_pic_differential(n=16, steps=1,
                                      scenarios=("laser-slab",),
                                      layouts=(Layout.SOA,))
        assert report.all_passed
        assert [r.engine for r in report.results] == [
            f"pic[laser-slab]/{scheme}" for scheme in DEPOSITIONS
            for _ in range(3)]
        # Each scheme is its own bit-exact group: the schemes deposit
        # different currents, so the groups must not be merged.
        assert len(report.digest_checks) == len(DEPOSITIONS)
        assert len({r.digest for r in report.results}) == len(DEPOSITIONS)

    def test_deposition_axis_can_be_narrowed(self):
        from repro.validation import run_pic_differential
        report = run_pic_differential(n=16, steps=1,
                                      scenarios=("magnetic-mirror",),
                                      layouts=(Layout.AOS,),
                                      depositions=("none",))
        assert report.all_passed
        assert {r.engine for r in report.results} == {
            "pic[magnetic-mirror]/none"}

    def test_unknown_deposition_is_rejected(self):
        from repro.errors import ReproError
        from repro.validation import run_pic_differential
        with pytest.raises(ReproError, match="deposition"):
            run_pic_differential(n=16, steps=1, scenarios=("laser-slab",),
                                 depositions=("ngp",))

    def test_render_names_every_mode(self):
        from repro.validation import run_pic_differential
        text = run_pic_differential(
            n=16, steps=1, scenarios=("magnetic-mirror",),
            layouts=(Layout.SOA,)).render()
        for token in ("pic[magnetic-mirror]", "unfused", "fused",
                      "bit-exact group"):
            assert token in text
