"""Tests for charge and current deposition."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.constants import ELECTRON_MASS, ELEMENTARY_CHARGE, SPEED_OF_LIGHT
from repro.errors import SimulationError
from repro.fields import YeeGrid
from repro.particles import ParticleEnsemble
from repro.pic import (ACCUMULATION_DTYPE, charge_weight, deposit_charge,
                       deposit_current_direct, deposit_current_esirkepov,
                       invalidate_charge_weight)


def grid8():
    return YeeGrid((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (8, 8, 8))


def electrons_at(positions, momenta=None):
    pos = np.asarray(positions, dtype=np.float64)
    mom = np.zeros_like(pos) if momenta is None else np.asarray(momenta)
    return ParticleEnsemble.from_arrays(pos, mom)


def discrete_divergence(grid):
    div = np.zeros(grid.dims)
    for axis, name in enumerate(("jx", "jy", "jz")):
        j = grid.currents[name]
        div += (j - np.roll(j, 1, axis=axis)) / grid.spacing[axis]
    return div


class TestChargeDeposition:
    def test_total_charge_conserved(self, rng):
        grid = grid8()
        ensemble = electrons_at(rng.uniform(0, 8, (50, 3)))
        rho = deposit_charge(grid, ensemble)
        total = rho.sum() * grid.cell_volume
        assert total == pytest.approx(-50 * ELEMENTARY_CHARGE, rel=1e-12)

    def test_particle_on_node_deposits_to_single_node(self):
        grid = grid8()
        ensemble = electrons_at([[3.0, 4.0, 5.0]])
        rho = deposit_charge(grid, ensemble)
        assert rho[3, 4, 5] == pytest.approx(-ELEMENTARY_CHARGE, rel=1e-12)
        assert np.count_nonzero(rho) == 1

    def test_midpoint_splits_eight_ways(self):
        grid = grid8()
        ensemble = electrons_at([[3.5, 4.5, 5.5]])
        rho = deposit_charge(grid, ensemble)
        nonzero = rho[np.nonzero(rho)]
        assert nonzero.size == 8
        np.testing.assert_allclose(nonzero, -ELEMENTARY_CHARGE / 8.0)

    def test_periodic_wrap(self):
        grid = grid8()
        ensemble = electrons_at([[7.5, 0.0, 0.0]])
        rho = deposit_charge(grid, ensemble)
        assert rho[7, 0, 0] == pytest.approx(-ELEMENTARY_CHARGE / 2.0)
        assert rho[0, 0, 0] == pytest.approx(-ELEMENTARY_CHARGE / 2.0)

    def test_weights_scale_charge(self):
        grid = grid8()
        ensemble = electrons_at([[2.0, 2.0, 2.0]])
        ensemble.component("weight")[:] = 5.0
        rho = deposit_charge(grid, ensemble)
        assert rho[2, 2, 2] == pytest.approx(-5.0 * ELEMENTARY_CHARGE)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_position(self, bad):
        ensemble = electrons_at([[2.0, 2.0, 2.0], [3.0, bad, 3.0]])
        with pytest.raises(SimulationError, match="finite"):
            deposit_charge(grid8(), ensemble)
        with pytest.raises(SimulationError, match="finite"):
            deposit_charge(grid8(), electrons_at([[2.0, 2.0, 2.0]]),
                           positions=np.array([[bad, 5.0, 5.0]]))

    def test_positions_override(self):
        grid = grid8()
        ensemble = electrons_at([[2.0, 2.0, 2.0]])
        rho = deposit_charge(grid, ensemble,
                             positions=np.array([[5.0, 5.0, 5.0]]))
        assert rho[5, 5, 5] != 0.0
        assert rho[2, 2, 2] == 0.0


class TestDirectCurrent:
    def test_total_current_matches_qv(self):
        grid = grid8()
        p = 0.1 * ELECTRON_MASS * SPEED_OF_LIGHT
        ensemble = electrons_at([[3.2, 4.7, 5.1]], [[p, 0.0, 0.0]])
        deposit_current_direct(grid, ensemble)
        v = ensemble.velocities()[0, 0]
        total_jx = grid.currents["jx"].sum() * grid.cell_volume
        assert total_jx == pytest.approx(-ELEMENTARY_CHARGE * v, rel=1e-12)
        assert grid.currents["jy"].sum() == pytest.approx(0.0, abs=1e-20)

    def test_accumulates_without_clearing(self):
        grid = grid8()
        p = 0.1 * ELECTRON_MASS * SPEED_OF_LIGHT
        ensemble = electrons_at([[3.0, 3.0, 3.0]], [[p, 0.0, 0.0]])
        deposit_current_direct(grid, ensemble)
        once = grid.currents["jx"].sum()
        deposit_current_direct(grid, ensemble)
        assert grid.currents["jx"].sum() == pytest.approx(2.0 * once)

    def test_rejects_non_finite_position(self):
        grid = grid8()
        ensemble = electrons_at([[3.0, 3.0, 3.0], [np.nan, 3.0, 3.0]])
        with pytest.raises(SimulationError, match="finite"):
            deposit_current_direct(grid, ensemble)
        assert not any(grid.currents[n].any() for n in grid.currents)


class TestEsirkepovContinuity:
    def _continuity_residual(self, old, new, rng_seed=0):
        grid = grid8()
        ensemble = electrons_at(old)
        rho0 = deposit_charge(grid, ensemble, positions=np.asarray(old))
        ensemble.set_positions(np.asarray(new))
        rho1 = deposit_charge(grid, ensemble, positions=np.asarray(new))
        grid.clear_currents()
        deposit_current_esirkepov(grid, ensemble, np.asarray(old), dt=1.0)
        residual = (rho1 - rho0) + discrete_divergence(grid)
        scale = max(np.abs(rho1 - rho0).max(), np.abs(rho0).max(), 1e-30)
        return np.abs(residual).max() / scale

    def test_continuity_random_cloud(self, rng):
        old = rng.uniform(0.0, 8.0, (100, 3))
        new = old + rng.uniform(-0.9, 0.9, (100, 3))
        assert self._continuity_residual(old, new) < 1e-12

    def test_continuity_through_periodic_boundary(self):
        old = np.array([[7.9, 4.0, 4.0], [0.05, 2.0, 2.0]])
        new = np.array([[8.5, 4.3, 4.0], [-0.6, 2.0, 2.4]])
        assert self._continuity_residual(old, new) < 1e-12

    def test_stationary_particle_deposits_nothing(self):
        grid = grid8()
        ensemble = electrons_at([[3.3, 4.4, 5.5]])
        deposit_current_esirkepov(grid, ensemble,
                                  ensemble.positions(), dt=1.0)
        for name in ("jx", "jy", "jz"):
            assert np.all(grid.currents[name] == 0.0)

    def test_rejects_supercell_motion(self):
        grid = grid8()
        ensemble = electrons_at([[3.0, 3.0, 3.0]])
        old = np.array([[1.5, 3.0, 3.0]])
        with pytest.raises(SimulationError):
            deposit_current_esirkepov(grid, ensemble, old, dt=1.0)

    def test_rejects_bad_dt_and_shape(self):
        grid = grid8()
        ensemble = electrons_at([[3.0, 3.0, 3.0]])
        with pytest.raises(SimulationError):
            deposit_current_esirkepov(grid, ensemble,
                                      ensemble.positions(), dt=0.0)
        with pytest.raises(SimulationError):
            deposit_current_esirkepov(grid, ensemble, np.zeros((2, 3)),
                                      dt=1.0)

    @pytest.mark.parametrize("dt", [float("nan"), float("inf")])
    def test_rejects_non_finite_dt(self, dt):
        grid = grid8()
        ensemble = electrons_at([[3.0, 3.0, 3.0]])
        with pytest.raises(SimulationError, match="finite"):
            deposit_current_esirkepov(grid, ensemble,
                                      ensemble.positions() - 0.1, dt=dt)
        assert not any(grid.currents[n].any() for n in grid.currents)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_old_position(self, bad):
        grid = grid8()
        ensemble = electrons_at([[3.0, 3.0, 3.0], [5.0, 5.0, 5.0]])
        old = ensemble.positions() - 0.1
        old[1, 2] = bad
        with pytest.raises(SimulationError, match="finite"):
            deposit_current_esirkepov(grid, ensemble, old, dt=1.0)
        assert not any(grid.currents[n].any() for n in grid.currents)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_new_position(self, bad):
        grid = grid8()
        ensemble = electrons_at([[3.0, 3.0, 3.0], [bad, 5.0, 5.0]])
        old = np.array([[2.9, 3.0, 3.0], [5.0, 5.0, 5.0]])
        with pytest.raises(SimulationError, match="finite"):
            deposit_current_esirkepov(grid, ensemble, old, dt=1.0)

    def test_axis_motion_deposits_on_that_axis_only(self):
        grid = grid8()
        old = np.array([[3.2, 4.0, 5.0]])
        ensemble = electrons_at(old)
        new = old + [[0.4, 0.0, 0.0]]
        ensemble.set_positions(new)
        deposit_current_esirkepov(grid, ensemble, old, dt=1.0)
        assert np.abs(grid.currents["jx"]).max() > 0.0
        assert np.abs(grid.currents["jy"]).max() == pytest.approx(0.0,
                                                                  abs=1e-25)
        assert np.abs(grid.currents["jz"]).max() == pytest.approx(0.0,
                                                                  abs=1e-25)

    def test_mean_current_matches_charge_flux(self):
        # Total J dV = q * displacement / dt for a single particle.
        grid = grid8()
        old = np.array([[3.1, 4.2, 5.3]])
        displacement = np.array([0.3, -0.2, 0.45])
        ensemble = electrons_at(old)
        ensemble.set_positions(old + displacement)
        dt = 2.0
        deposit_current_esirkepov(grid, ensemble, old, dt=dt)
        q = -ELEMENTARY_CHARGE
        for axis, name in enumerate(("jx", "jy", "jz")):
            total = grid.currents[name].sum() * grid.cell_volume
            assert total == pytest.approx(q * displacement[axis] / dt,
                                          rel=1e-12)

    def test_continuity_with_tsc_shape(self, rng):
        from repro.fields.interpolation import Shape
        grid = grid8()
        old = rng.uniform(0.0, 8.0, (60, 3))
        new = old + rng.uniform(-0.9, 0.9, (60, 3))
        ensemble = electrons_at(old)
        rho0 = deposit_charge(grid, ensemble, positions=old,
                              shape=Shape.TSC)
        ensemble.set_positions(new)
        rho1 = deposit_charge(grid, ensemble, positions=new,
                              shape=Shape.TSC)
        grid.clear_currents()
        deposit_current_esirkepov(grid, ensemble, old, dt=1.0,
                                  shape=Shape.TSC)
        residual = (rho1 - rho0) + discrete_divergence(grid)
        scale = np.abs(rho1 - rho0).max()
        assert np.abs(residual).max() / scale < 1e-12

    def test_tsc_spreads_wider_than_cic(self):
        from repro.fields.interpolation import Shape
        grid_cic, grid_tsc = grid8(), grid8()
        # Off the cell midpoint: TSC touches 3 nodes per axis there.
        ensemble = electrons_at([[3.3, 4.3, 5.3]])
        rho_cic = deposit_charge(grid_cic, ensemble, shape=Shape.CIC)
        rho_tsc = deposit_charge(grid_tsc, ensemble, shape=Shape.TSC)
        assert np.count_nonzero(rho_tsc) > np.count_nonzero(rho_cic)
        assert rho_tsc.sum() == pytest.approx(rho_cic.sum())

    def test_ngp_esirkepov_rejected(self):
        from repro.fields.interpolation import Shape
        grid = grid8()
        ensemble = electrons_at([[3.0, 3.0, 3.0]])
        with pytest.raises(SimulationError):
            deposit_current_esirkepov(grid, ensemble,
                                      ensemble.positions(), dt=1.0,
                                      shape=Shape.NGP)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.tuples(
        st.floats(min_value=0.2, max_value=7.8, allow_nan=False),
        st.floats(min_value=0.2, max_value=7.8, allow_nan=False),
        st.floats(min_value=0.2, max_value=7.8, allow_nan=False),
        st.floats(min_value=-0.95, max_value=0.95, allow_nan=False),
        st.floats(min_value=-0.95, max_value=0.95, allow_nan=False),
        st.floats(min_value=-0.95, max_value=0.95, allow_nan=False)),
        min_size=1, max_size=10))
    def test_continuity_property(self, moves):
        old = np.array([m[:3] for m in moves])
        new = old + np.array([m[3:] for m in moves])
        assert self._continuity_residual(old, new) < 1e-10


def _momenta_for_velocity(velocities):
    v = np.asarray(velocities, dtype=np.float64)
    speed = np.linalg.norm(v, axis=1, keepdims=True)
    gamma = 1.0 / np.sqrt(1.0 - (speed / SPEED_OF_LIGHT) ** 2)
    return ELECTRON_MASS * gamma * v


class TestDirectSchemeViolatesContinuity:
    """The paper-baseline direct deposit is *not* charge-conserving —
    the property the Esirkepov scheme exists to restore."""

    def _residuals(self, old, displacement, dt=1.0):
        old = np.asarray(old, dtype=np.float64)
        new = old + np.asarray(displacement)
        residuals = {}
        for scheme in ("esirkepov", "direct"):
            grid = grid8()
            ensemble = electrons_at(new,
                                    _momenta_for_velocity(
                                        np.asarray(displacement) / dt))
            rho0 = deposit_charge(grid, ensemble, positions=old)
            rho1 = deposit_charge(grid, ensemble, positions=new)
            grid.clear_currents()
            if scheme == "esirkepov":
                deposit_current_esirkepov(grid, ensemble, old, dt=dt)
            else:
                deposit_current_direct(grid, ensemble)
            residual = (rho1 - rho0) / dt + discrete_divergence(grid)
            residuals[scheme] = (np.abs(residual).max()
                                 / np.abs(rho0).max())
        return residuals

    def test_direct_violates_esirkepov_conserves(self, rng):
        old = rng.uniform(0.3, 7.7, (40, 3))
        displacement = rng.uniform(-0.45, 0.45, (40, 3))
        residuals = self._residuals(old, displacement)
        assert residuals["esirkepov"] < 1e-12
        assert residuals["direct"] > 1e-3

    def test_single_particle_gap_is_order_unity(self):
        residuals = self._residuals([[3.2, 4.1, 5.4]],
                                    [[0.4, -0.3, 0.2]])
        assert residuals["esirkepov"] < 1e-12
        assert residuals["direct"] > 1e-2


class TestChargeWeightCache:
    """PR 10 bugfix: the float64 ``q * w`` upcast happens once per
    ensemble, not once per deposition call."""

    def test_cached_and_read_only(self):
        ensemble = electrons_at([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        qw = charge_weight(ensemble)
        assert charge_weight(ensemble) is qw
        assert qw.dtype == ACCUMULATION_DTYPE
        assert not qw.flags.writeable
        np.testing.assert_allclose(qw, -ELEMENTARY_CHARGE)

    def test_no_per_call_upcast(self, monkeypatch):
        # Pin the bug class: repeated depositions must not re-run the
        # O(N) type-table gather + weight upcast behind charge_weight.
        ensemble = electrons_at([[2.0, 2.0, 2.0], [5.0, 5.0, 5.0]])
        calls = {"n": 0}
        original = ensemble.charges

        def counting():
            calls["n"] += 1
            return original()

        monkeypatch.setattr(ensemble, "charges", counting)
        invalidate_charge_weight(ensemble)
        grid = grid8()
        old = ensemble.positions()
        for _ in range(4):
            deposit_charge(grid, ensemble)
            deposit_current_direct(grid, ensemble)
            deposit_current_esirkepov(grid, ensemble, old, dt=1.0)
        assert calls["n"] == 1

    def test_invalidate_refreshes_after_weight_mutation(self):
        ensemble = electrons_at([[2.0, 2.0, 2.0]])
        before = charge_weight(ensemble).copy()
        ensemble.component("weight")[:] = 3.0
        invalidate_charge_weight(ensemble)
        np.testing.assert_allclose(charge_weight(ensemble), 3.0 * before)

    def test_global_invalidate(self):
        ensemble = electrons_at([[2.0, 2.0, 2.0]])
        stale = charge_weight(ensemble)
        invalidate_charge_weight()
        assert charge_weight(ensemble) is not stale

    def test_float32_weights_upcast_to_float64(self):
        from repro.fp import Precision
        from repro.particles import Layout
        pos = np.array([[1.5, 2.5, 3.5]])
        ensemble = ParticleEnsemble.from_arrays(
            pos, np.zeros((1, 3)), precision=Precision.SINGLE)
        assert ensemble.component("weight").dtype == np.float32
        assert charge_weight(ensemble).dtype == ACCUMULATION_DTYPE


class TestAccumulationContract:
    """Deposition accumulates in float64, whatever the storage
    precision — and refuses any other target."""

    def test_charge_density_is_float64(self):
        from repro.fp import Precision
        pos = np.array([[1.5, 2.5, 3.5]])
        ensemble = ParticleEnsemble.from_arrays(
            pos, np.zeros((1, 3)), precision=Precision.SINGLE)
        assert deposit_charge(grid8(), ensemble).dtype == \
            ACCUMULATION_DTYPE

    def test_float32_current_target_rejected(self):
        grid = grid8()
        grid.currents["jx"] = grid.currents["jx"].astype(np.float32)
        p = 0.1 * ELECTRON_MASS * SPEED_OF_LIGHT
        ensemble = electrons_at([[3.0, 3.0, 3.0]], [[p, 0.0, 0.0]])
        with pytest.raises(SimulationError, match="float64"):
            deposit_current_direct(grid, ensemble)
        with pytest.raises(SimulationError, match="float64"):
            deposit_current_esirkepov(
                grid, ensemble, ensemble.positions() - 0.1, dt=1.0)

    def test_single_precision_ensemble_grid_bits_match_double(self):
        # Positions/weights exactly representable in float32: the
        # float64 accumulation then makes the grid currents
        # bit-identical across storage precisions.
        from repro.fp import Precision
        pos = np.array([[3.25, 4.5, 5.75], [1.5, 2.25, 6.0]])
        vel = np.array([[0.25, 0.0, -0.5], [0.0, 0.125, 0.25]])
        outcomes = {}
        for precision in (Precision.SINGLE, Precision.DOUBLE):
            grid = grid8()
            ensemble = ParticleEnsemble.from_arrays(
                pos, _momenta_for_velocity(vel).astype(np.float32),
                precision=precision)
            old = ensemble.positions() - np.float32(0.25)
            deposit_current_esirkepov(grid, ensemble, old, dt=1.0)
            outcomes[precision] = {n: grid.currents[n].copy()
                                   for n in ("jx", "jy", "jz")}
        for name in ("jx", "jy", "jz"):
            np.testing.assert_array_equal(
                outcomes[Precision.SINGLE][name],
                outcomes[Precision.DOUBLE][name])
