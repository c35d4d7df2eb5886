"""Hydrodynamic field assembly and the residual diagnostics, checked on
closed-form slices where every identity should hold to mesh accuracy."""

import numpy as np
import pytest
from scipy.integrate import quad

from recoillab.core import Grid1D, PhysicalParams, ScalarField
from recoillab.analytic import FreeBrownianSolution, FreeRecoilSolution
from recoillab.fieldcalc import (
    HydroFields,
    SignConvention,
    floor_density,
    girsanov_residual,
    hj_residual,
    hydro_from_arrays,
    hydro_from_rho_S,
    momentum_residual,
    omega_from_drift,
    osmotic_velocity,
    pressure_from_density,
    pressure_potential,
    recoil_potential,
    time_derivative,
    volume_momentum_rate,
)

from helpers import exact_slice

P1 = PhysicalParams(D=1.0, alpha=1.0)
RECOIL = FreeRecoilSolution(P1)


def uniform_slice(grid, value=0.1):
    zeros = np.zeros(grid.n)
    return hydro_from_arrays(0.0, grid, rho=np.full(grid.n, value),
                             S=zeros, v=zeros, u=zeros, Q=zeros)


class TestOsmoticVelocity:
    def test_standard_gaussian(self):
        # rho ~ exp(-x^2): u = -2Dx, quadratic log so the mesh is exact
        g = Grid1D(-8.0, 8.0, 401)
        u = osmotic_velocity(ScalarField(g, np.exp(-g.x**2)), D=1.0)
        idx = np.searchsorted(g.x, 1.0)
        assert u.values[idx] == pytest.approx(-2.0, abs=1e-10)

    def test_uniform_density_has_no_osmotic_flow(self):
        g = Grid1D(-4.0, 4.0, 101)
        u = osmotic_velocity(ScalarField(g, np.full(g.n, 0.125)), D=1.0)
        assert np.max(np.abs(u.values)) < 1e-14

    def test_spread_recoil_cloud(self):
        g = Grid1D(-12.0, 12.0, 2401)
        u = osmotic_velocity(ScalarField(g, RECOIL.rho(g.x, 1.0)), D=1.0)
        idx = np.searchsorted(g.x, 1.0)
        assert u.values[idx] == pytest.approx(-0.4, abs=1e-10)


class TestFloorDensity:
    def test_raises_only_values_below_the_fixed_floor(self):
        g = Grid1D(-1.0, 1.0, 11)
        vals = np.full(g.n, 2.0)
        vals[:3] = (0.0, 5e-324, 1e-300)
        floored = floor_density(ScalarField(g, vals))
        np.testing.assert_array_equal(floored.values[:3], [2e-300, 2e-300, 2e-300])
        np.testing.assert_array_equal(floored.values[3:], vals[3:])

    def test_rejects_empty_density(self):
        g = Grid1D(-1.0, 1.0, 11)
        with pytest.raises(ValueError, match="identically zero"):
            floor_density(ScalarField(g, np.zeros(g.n)))


class TestPressurePotential:
    def test_gaussian_well_depth(self):
        g = Grid1D(-8.0, 8.0, 401)
        Q, _ = pressure_potential(ScalarField(g, np.exp(-g.x**2)), D=1.0)
        mid = np.searchsorted(g.x, 0.0)
        assert Q.values[mid] == pytest.approx(-2.0, abs=1e-9)

    def test_uniform_density_is_pressureless(self):
        g = Grid1D(-4.0, 4.0, 101)
        Q, P = pressure_potential(ScalarField(g, np.full(g.n, 0.125)), D=1.0)
        assert np.max(np.abs(Q.values)) < 1e-13
        assert np.max(np.abs(P.values)) < 1e-13

    def test_free_brownian_depth(self):
        # Q(0) = -D/(2 tau); tau = 1 when t = 0.75 for alpha = 1
        g = Grid1D(-16.0, 16.0, 1601)
        sol = FreeBrownianSolution(P1)
        Q, _ = pressure_potential(ScalarField(g, sol.rho(g.x, 0.75)), D=1.0)
        mid = np.searchsorted(g.x, 0.0)
        assert Q.values[mid] == pytest.approx(-0.5, abs=1e-10)

    def test_pressure_reconstruction_matches_closed_form(self):
        g = Grid1D(-12.0, 12.0, 2401)
        h = exact_slice(RECOIL, g, 0.0)
        P_mesh = pressure_from_density(h.rho, h.Q)
        assert np.max(np.abs(P_mesh.values - RECOIL.P(g.x, 0.0))) < 1e-4


class TestOmegaFromDrift:
    def test_linear_drift_recovers_harmonic_potential(self):
        g = Grid1D(-6.0, 6.0, 301)
        gamma = 2.0
        b = ScalarField(g, -gamma * g.x)
        zeros = ScalarField(g, np.zeros(g.n))
        omega = omega_from_drift(b, zeros, D=1.0)
        np.testing.assert_allclose(omega.values, 0.5 * gamma**2 * g.x**2 - gamma,
                                   rtol=0, atol=1e-9)

    def test_zero_drift_gives_zero(self):
        g = Grid1D(-6.0, 6.0, 301)
        zeros = ScalarField(g, np.zeros(g.n))
        omega = omega_from_drift(zeros, zeros, D=1.0)
        assert np.max(np.abs(omega.values)) == 0.0

    def test_rejects_drift_that_is_not_a_gradient_of_phi(self):
        g = Grid1D(-6.0, 6.0, 301)
        b = ScalarField(g, -2.0 * g.x)
        zeros = ScalarField(g, np.zeros(g.n))
        with pytest.raises(ValueError, match="drift and potential disagree"):
            omega_from_drift(b, zeros, D=1.0, phi=zeros)

    def test_recoil_drift_generates_twice_the_pressure_potential(self):
        # free recoil has Omega = 0, so the drift identity gives Omega_r = 2Q
        g = Grid1D(-12.0, 12.0, 2401)
        t = 0.5
        h = exact_slice(RECOIL, g, t)
        dphi_dt = ScalarField(g, RECOIL.time_derivatives(g.x, t)["dphi_dt"])
        omega = omega_from_drift(h.b, dphi_dt, D=1.0)
        assert np.max(np.abs(omega.values - 2.0 * h.Q.values)) < 1e-8


class TestResiduals:
    def test_trivial_slice_has_zero_residuals(self):
        g = Grid1D(-4.0, 4.0, 101)
        h = uniform_slice(g)
        zeros = ScalarField(g, np.zeros(g.n))
        for sign in SignConvention:
            assert np.max(np.abs(hj_residual(h, zeros, sign).values)) < 1e-13
            assert np.max(np.abs(momentum_residual(h, zeros, sign).values)) < 1e-13
        omega_r = recoil_potential(h.Q, h.Omega)
        assert np.max(np.abs(girsanov_residual(h, zeros, omega_r, 1.0).values)) < 1e-13

    def test_recoil_solution_satisfies_its_convention_exactly(self):
        g = Grid1D(-12.0, 12.0, 2401)
        t = 0.5
        h = exact_slice(RECOIL, g, t)
        deriv = RECOIL.time_derivatives(g.x, t)
        res = hj_residual(h, ScalarField(g, deriv["dS_dt"]), SignConvention.RECOIL)
        assert np.max(np.abs(res.values)) < 1e-8
        mres = momentum_residual(h, ScalarField(g, deriv["dv_dt"]), SignConvention.RECOIL)
        assert np.max(np.abs(mres.values)) < 1e-8

    def test_brownian_solution_satisfies_the_standard_convention(self):
        g = Grid1D(-16.0, 16.0, 1601)
        sol = FreeBrownianSolution(P1)
        t = 0.75
        h = exact_slice(sol, g, t)
        deriv = sol.time_derivatives(g.x, t)
        res = hj_residual(h, ScalarField(g, deriv["dS_dt"]), SignConvention.STANDARD)
        assert np.max(np.abs(res.values)) < 1e-8
        mres = momentum_residual(h, ScalarField(g, deriv["dv_dt"]), SignConvention.STANDARD)
        assert np.max(np.abs(mres.values)) < 1e-8

    def test_convention_gap_is_twice_q_minus_omega(self):
        g = Grid1D(-12.0, 12.0, 1201)
        h = exact_slice(RECOIL, g, 0.8)
        dS_dt = ScalarField(g, RECOIL.time_derivatives(g.x, 0.8)["dS_dt"])
        gap = (hj_residual(h, dS_dt, SignConvention.STANDARD).values
               - hj_residual(h, dS_dt, SignConvention.RECOIL).values)
        np.testing.assert_allclose(gap, 2.0 * (h.Q.values - h.Omega.values),
                                   rtol=0, atol=1e-12)

    def test_girsanov_identity_on_the_recoil_solution(self):
        g = Grid1D(-12.0, 12.0, 2401)
        t = 0.5
        h = exact_slice(RECOIL, g, t)
        dphi_dt = ScalarField(g, RECOIL.time_derivatives(g.x, t)["dphi_dt"])
        omega_r = recoil_potential(h.Q, h.Omega)
        res = girsanov_residual(h, dphi_dt, omega_r, D=1.0)
        assert np.max(np.abs(res.values)) < 1e-8


class TestVolumeMomentumRate:
    def test_symmetric_interval_balances(self):
        g = Grid1D(-12.0, 12.0, 2401)
        h = exact_slice(RECOIL, g, 0.0)
        assert volume_momentum_rate(h, (-2.0, 2.0)) == pytest.approx(0.0, abs=1e-12)

    def test_right_half_interval_against_quadrature(self):
        # -integral of rho dQ/dx over [0, 2] at t = 0
        frozen = -1.1077121817414206
        live, err = quad(lambda x: -RECOIL.rho(x, 0.0) * 4.0 * x, 0.0, 2.0,
                         epsabs=1e-13, epsrel=1e-13)
        assert err < 1e-12
        assert live == pytest.approx(frozen, abs=1e-12)
        g = Grid1D(-12.0, 12.0, 2401)
        h = exact_slice(RECOIL, g, 0.0)
        assert volume_momentum_rate(h, (0.0, 2.0)) == pytest.approx(frozen, abs=1e-4)


class TestSliceAssembly:
    def test_hydro_from_rho_s_builds_consistent_drift(self):
        g = Grid1D(-12.0, 12.0, 2401)
        t = 0.5
        rho = ScalarField(g, RECOIL.rho(g.x, t))
        S = ScalarField(g, RECOIL.S(g.x, t))
        h = hydro_from_rho_S(t, rho, S, D=1.0)
        np.testing.assert_array_equal(h.b.values, h.v.values + h.u.values)
        assert np.max(np.abs(h.Omega.values)) == 0.0

    def test_slice_rejects_mixed_grids(self):
        g1 = Grid1D(-4.0, 4.0, 101)
        g2 = Grid1D(-4.0, 4.0, 102)
        good = uniform_slice(g1)
        bad_S = ScalarField(g2, np.zeros(g2.n))
        with pytest.raises(ValueError, match="share one grid"):
            HydroFields(t=0.0, rho=good.rho, S=bad_S, v=good.v, u=good.u,
                        b=good.b, Q=good.Q, Omega=good.Omega)

    def test_slice_rejects_negative_density(self):
        g = Grid1D(-4.0, 4.0, 101)
        good = uniform_slice(g)
        bad_rho = ScalarField(g, np.full(g.n, -0.1))
        with pytest.raises(ValueError, match="density"):
            HydroFields(t=0.0, rho=bad_rho, S=good.S, v=good.v, u=good.u,
                        b=good.b, Q=good.Q, Omega=good.Omega)


class TestSliceBookkeeping:
    def test_time_derivative_needs_positive_spacing(self):
        g = Grid1D(-4.0, 4.0, 101)
        f = ScalarField(g, np.zeros(g.n))
        with pytest.raises(ValueError):
            time_derivative(f, f, 0.0)
