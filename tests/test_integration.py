"""Cross-module integration tests.

These exercise whole pipelines: pusher + dipole field against the RK4
reference, scenario equivalence through the simulated runtime, the
escape-study physics, and example-level smoke runs.
"""

import math

import numpy as np
import pytest

import repro
from repro.bench import paper_time_step, paper_wave
from repro.core import integrate_trajectory_rk4
from repro.constants import ELECTRON_MASS, ELEMENTARY_CHARGE
from repro.fields import MDipoleWave
from repro.fp import Precision
from repro.particles import Layout
from repro.particles.initializers import paper_benchmark_ensemble


class TestDipoleTrajectories:
    def test_boris_matches_rk4_in_dipole_wave(self):
        """A particle in the paper's actual benchmark field must track
        the high-order reference over a fraction of a cycle."""
        wave = MDipoleWave()
        period = 2.0 * math.pi / wave.omega
        start = np.array([0.2 * wave.wavelength, 0.1 * wave.wavelength,
                          -0.15 * wave.wavelength])
        steps = 400
        dt = period / 4000.0

        _, rk4_pos, _ = integrate_trajectory_rk4(
            start, np.zeros(3), ELECTRON_MASS, -ELEMENTARY_CHARGE,
            wave, dt, steps)

        ensemble = repro.ParticleEnsemble.from_arrays([start],
                                                      [np.zeros(3)])
        repro.setup_leapfrog(ensemble, wave, dt)
        repro.advance(ensemble, wave, dt, steps)
        error = np.linalg.norm(ensemble.positions()[0] - rk4_pos[-1])
        travelled = np.linalg.norm(rk4_pos[-1] - start)
        assert error < 0.01 * max(travelled, 1e-6 * wave.wavelength)

    def test_electrons_gain_relativistic_energy(self):
        # At 0.1 PW the focal fields are strongly relativistic: after a
        # cycle electrons must reach gamma >> 1 (the paper's regime).
        wave = paper_wave()
        ensemble = paper_benchmark_ensemble(500, seed=11)
        dt = paper_time_step(0.005)
        repro.setup_leapfrog(ensemble, wave, dt)
        repro.advance(ensemble, wave, dt, 200)
        assert ensemble.component("gamma").max() > 10.0

    def test_particles_escape_focal_region(self):
        # The physics the benchmark studies: rapid escape at 0.1 PW.
        wave = paper_wave()
        ensemble = paper_benchmark_ensemble(500, seed=12)
        dt = paper_time_step(0.005)
        repro.setup_leapfrog(ensemble, wave, dt)
        repro.advance(ensemble, wave, dt, 600)     # 3 cycles
        radii = np.linalg.norm(ensemble.positions(), axis=1)
        remaining = float((radii < wave.wavelength).mean())
        assert remaining < 0.5


class TestScenarioConsistencyAcrossLayouts:
    @pytest.mark.parametrize("precision", [Precision.SINGLE,
                                           Precision.DOUBLE],
                             ids=["float", "double"])
    def test_all_four_configurations_agree(self, precision):
        """AoS/SoA x precalculated/analytical must produce the same
        trajectories (at that precision)."""
        wave = paper_wave()
        dt = paper_time_step()
        results = []
        from repro.core.kernels import (boris_push_analytical,
                                        boris_push_precalculated)
        from repro.fields import PrecalculatedField
        for layout in (Layout.AOS, Layout.SOA):
            for scenario in ("precalculated", "analytical"):
                ensemble = paper_benchmark_ensemble(
                    64, layout=layout, precision=precision, seed=13)
                time = 0.0
                precalc = PrecalculatedField(64, precision, layout)
                for _ in range(3):
                    if scenario == "precalculated":
                        precalc.refresh(wave, ensemble, time)
                        boris_push_precalculated(ensemble, precalc, dt)
                    else:
                        boris_push_analytical(ensemble, wave, time, dt)
                    time += dt
                results.append(ensemble.positions())
        reference = results[0]
        for other in results[1:]:
            np.testing.assert_allclose(other, reference, rtol=2e-5)


class TestPublicApi:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_quickstart_docstring_flow(self):
        # The flow shown in the package docstring must run as written.
        wave = repro.MDipoleWave()
        electrons = repro.paper_benchmark_ensemble(1000)
        dt = 2.0 * math.pi / wave.omega / 100.0
        repro.setup_leapfrog(electrons, wave, dt)
        repro.advance(electrons, wave, dt, steps=10)
        assert electrons.component("gamma").max() > 1.0
