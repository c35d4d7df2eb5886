"""Closed-form solutions: printed values, identities, and the independent
ODE oracle for the breathing harmonic width."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from recoillab.core import Grid1D, PhysicalParams, ScalarField, integrate
from recoillab.analytic import (
    FreeBrownianSolution,
    FreeRecoilSolution,
    HarmonicRecoilSolution,
    OrnsteinUhlenbeckSolution,
    ou_variance,
    smoluchowski_omega,
)

P1 = PhysicalParams(D=1.0, alpha=1.0)


class TestFreeBrownian:
    def test_current_velocity_vanishes_at_origin(self):
        assert FreeBrownianSolution(P1).v(0.0, 0.3) == 0.0

    def test_velocities_cancel_into_zero_drift(self):
        sol = FreeBrownianSolution(P1)
        x = np.linspace(-3.0, 3.0, 13)
        np.testing.assert_allclose(sol.v(x, 0.75), x / 2.0, atol=1e-15)
        np.testing.assert_allclose(sol.u(x, 0.75), -x / 2.0, atol=1e-15)
        np.testing.assert_allclose(sol.b(x, 0.75), 0.0, atol=0.0)

    def test_msd_values(self):
        assert FreeBrownianSolution(P1).msd(0.0) == pytest.approx(0.5, abs=1e-14)

    def test_kinetic_energy_decay(self):
        sol = FreeBrownianSolution(P1)
        assert sol.kinetic(0.0) == pytest.approx(1.0, abs=1e-14)
        assert sol.kinetic(1e6) < 1e-6

    def test_kinetic_times_tau_is_constant(self):
        sol = FreeBrownianSolution(P1)
        t = np.array([0.0, 0.5, 2.0, 10.0])
        np.testing.assert_allclose(sol.kinetic(t) * (t + P1.t0),
                                   P1.D / 4.0, rtol=1e-14)

    def test_pressure_is_proportional_to_density(self):
        sol = FreeBrownianSolution(P1)
        assert sol.P(0.0, 0.0) == pytest.approx(-2.0 / np.sqrt(np.pi), rel=1e-14)

    def test_hamilton_jacobi_identity_holds_exactly(self):
        # dS/dt + v^2/2 + Q = 0 for the free expansion
        sol = FreeBrownianSolution(P1)
        x = np.linspace(-5.0, 5.0, 41)
        for t in (0.0, 0.4, 3.0):
            res = (sol.time_derivatives(x, t)["dS_dt"]
                   + 0.5 * sol.v(x, t) ** 2 + sol.Q(x, t))
            assert np.max(np.abs(res)) < 1e-12

    def test_normalization_every_time(self):
        g = Grid1D(-32.0, 32.0, 3201)
        sol = FreeBrownianSolution(P1)
        for t in (0.0, 1.0, 5.0):
            assert integrate(ScalarField(g, sol.rho(g.x, t))) == pytest.approx(1.0, abs=1e-10)

    def test_asymptotic_velocity_ratio_is_half(self):
        sol = FreeBrownianSolution(P1)
        t = 1e4
        assert sol.v(1.0, t) * t / 1.0 == pytest.approx(0.5, abs=1e-4)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            FreeBrownianSolution(P1).rho(0.0, -0.1)


FAMILIES = {
    "free_brownian": FreeBrownianSolution(PhysicalParams(D=1.3, alpha=0.8)),
    "free_recoil": FreeRecoilSolution(PhysicalParams(D=0.7, alpha=1.2)),
    "harmonic_recoil": HarmonicRecoilSolution(PhysicalParams(D=1.0, alpha=1.0, gamma=1.3)),
    "smoluchowski_ou": OrnsteinUhlenbeckSolution(PhysicalParams(D=1.5, alpha=2.0, gamma=3.0)),
}


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_every_family_is_one_consistent_centred_gaussian(kind):
    sol = FAMILIES[kind]
    D, gamma = sol.params.D, sol.params.gamma
    x = np.linspace(-5.0, 5.0, 41)
    for t in (0.0, 0.3, 1.7, 4.0):
        f = sol.fields(x, t)
        assert sorted(f) == ["Q", "S", "b", "rho", "u", "v"]
        rho, v, u, b = f["rho"], f["v"], f["u"], f["b"]
        # continuity rho dln(rho)/dt + d(v rho)/dx = 0, all closed-form: v is
        # linear in x and d(ln rho)/dx = u/D, so d(v rho)/dx = rho (v(1, t) + v u/D)
        drho_dt = rho * sol.time_derivatives(x, t)["dlnrho_dt"]
        div_j = rho * (sol.v(1.0, t) + v * u / D)
        assert np.max(np.abs(drho_dt + div_j)) < 1e-13
        np.testing.assert_array_equal(b, v + u)
        np.testing.assert_array_equal(sol.b(x, t), b)
        if kind == "free_brownian":
            assert np.all(b == 0.0)
        if kind == "smoluchowski_ou":
            np.testing.assert_allclose(b, -gamma * x, rtol=1e-15, atol=0.0)


class TestFreeRecoil:
    sol = FreeRecoilSolution(P1)

    def test_initial_density_peak(self):
        assert self.sol.rho(0.0, 0.0) == pytest.approx(np.pi**-0.5, rel=1e-14)

    def test_initial_drift_is_osmotic(self):
        x = np.linspace(-4.0, 4.0, 17)
        np.testing.assert_allclose(self.sol.b(x, 0.0), -2.0 * x, atol=1e-15)
        np.testing.assert_allclose(self.sol.u(x, 0.0), -2.0 * x, atol=1e-15)
        np.testing.assert_allclose(self.sol.v(x, 0.0), 0.0, atol=0.0)

    def test_pressure_potential_values_at_t0(self):
        assert self.sol.Q(1.0, 0.0) == pytest.approx(0.0, abs=1e-14)
        assert self.sol.Q(0.0, 0.0) == pytest.approx(-2.0, abs=1e-14)

    def test_msd_quadratic_growth(self):
        assert self.sol.msd(0.0) == pytest.approx(0.5, abs=1e-14)
        assert self.sol.msd(1.0) == pytest.approx(2.5, abs=1e-14)
        assert self.sol.msd(10.0) == pytest.approx(200.5, abs=1e-12)

    def test_late_time_log_slope_is_two(self):
        t = np.array([10.0, 100.0])
        slope = np.diff(np.log(self.sol.msd(t))) / np.diff(np.log(t))
        assert slope[0] == pytest.approx(2.0, abs=0.01)

    def test_kinetic_energy_curve(self):
        assert self.sol.kinetic(0.0) == 0.0
        assert self.sol.kinetic(1.0) == pytest.approx(0.8, abs=1e-14)
        assert self.sol.total_energy == 1.0

    def test_normalization_every_time(self):
        g = Grid1D(-40.0, 40.0, 4001)
        for t in (0.0, 1.0, 2.0):
            assert integrate(ScalarField(g, self.sol.rho(g.x, t))) == pytest.approx(1.0, abs=1e-10)

    def test_continuity_equation_with_exact_derivatives(self):
        # d(rho)/dt + d(v rho)/dx = 0 pointwise, all derivatives closed-form
        x = np.linspace(-8.0, 8.0, 101)
        for t in (0.0, 0.5, 2.0):
            den = 1.0 + 4.0 * t**2
            rho = self.sol.rho(x, t)
            drho_dt = rho * self.sol.time_derivatives(x, t)["dlnrho_dt"]
            div_j = rho * (4.0 * t / den + self.sol.v(x, t) * (-2.0 * x / den))
            assert np.max(np.abs(drho_dt + div_j)) < 1e-13

    def test_asymptotic_velocity_ratio_is_one(self):
        t = 1e3
        assert self.sol.v(2.0, t) * t / 2.0 == pytest.approx(1.0, abs=1e-6)

    def test_drift_potential_generates_drift(self):
        # b = 2D d(phi)/dx with phi = ln(rho)/2 + S/(2D)
        x = np.linspace(-4.0, 4.0, 9)
        t, eps = 0.7, 1e-6
        dphi_dx = (self.sol.phi(x + eps, t) - self.sol.phi(x - eps, t)) / (2 * eps)
        np.testing.assert_allclose(2.0 * P1.D * dphi_dx, self.sol.b(x, t),
                                   rtol=0, atol=1e-7)


class TestHarmonicRecoil:
    def test_initial_variance(self):
        sol = HarmonicRecoilSolution(PhysicalParams(D=1.0, alpha=1.3, gamma=0.7))
        assert sol.msd(0.0) == pytest.approx(1.3**2 / 2.0, rel=1e-14)

    def test_matched_width_is_stationary(self):
        sol = HarmonicRecoilSolution(PhysicalParams(D=1.0, alpha=1.0, gamma=2.0))
        assert sol.matched
        t = np.linspace(0.0, 10.0, 101)
        np.testing.assert_allclose(sol.msd(t), 0.5, rtol=1e-14)

    def test_breathing_peak_at_quarter_period(self):
        sol = HarmonicRecoilSolution(PhysicalParams(D=1.0, alpha=1.0, gamma=1.0))
        assert not sol.matched
        assert sol.msd(np.pi / 2.0) == pytest.approx(2.0, abs=1e-14)

    def test_width_is_periodic_with_period_pi_over_gamma(self):
        sol = HarmonicRecoilSolution(PhysicalParams(D=1.0, alpha=1.0, gamma=1.0))
        assert sol.period == pytest.approx(np.pi, rel=1e-14)
        t = np.linspace(0.0, 3.0, 31)
        np.testing.assert_allclose(sol.msd(t + sol.period), sol.msd(t), rtol=1e-12)

    def test_width_matches_independent_ode_oracle(self):
        # sigma'' = D^2/sigma^3 - gamma^2 sigma evolves the Gaussian width;
        # integrated independently with a high-order scheme
        sol = HarmonicRecoilSolution(PhysicalParams(D=1.0, alpha=1.0, gamma=1.0))

        def width_ode(t, y):
            s, sdot = y
            return [sdot, 1.0 / s**3 - s]

        ode = solve_ivp(width_ode, (0.0, 2.0 * np.pi), [np.sqrt(0.5), 0.0],
                        method="DOP853", rtol=1e-12, atol=1e-12,
                        dense_output=True)
        t = np.linspace(0.0, 2.0 * np.pi, 41)
        np.testing.assert_allclose(ode.sol(t)[0] ** 2, sol.msd(t),
                                   rtol=0, atol=1e-9)

    def test_bounded_by_the_two_extreme_widths(self):
        sol = HarmonicRecoilSolution(PhysicalParams(D=1.0, alpha=1.0, gamma=1.0))
        t = np.linspace(0.0, 20.0, 2001)
        msd = sol.msd(t)
        assert np.all(msd <= 2.0 + 1e-12)
        assert np.all(msd >= 0.5 - 1e-12)

    def test_needs_confinement(self):
        with pytest.raises(ValueError):
            HarmonicRecoilSolution(PhysicalParams(D=1.0, alpha=1.0, gamma=0.0))


class TestOuVariance:
    def test_starts_at_cloud_variance(self):
        p = PhysicalParams(D=1.0, alpha=2.0, gamma=1.0)
        assert ou_variance(p, 0.0) == pytest.approx(2.0, rel=1e-14)

    def test_relaxes_to_stationary_value(self):
        p = PhysicalParams(D=1.5, alpha=2.0, gamma=3.0)
        assert ou_variance(p, 50.0) == pytest.approx(0.5, rel=1e-12)

    def test_needs_confinement(self):
        with pytest.raises(ValueError):
            ou_variance(PhysicalParams(D=1.0, alpha=1.0, gamma=0.0), 1.0)


class TestSmoluchowskiOmega:
    def test_linear_restoring_force_gives_harmonic_potential(self):
        p = PhysicalParams(D=1.3, gamma=2.0, alpha=1.0)
        g = Grid1D(-5.0, 5.0, 201)
        omega = smoluchowski_omega(ScalarField(g, -p.gamma * g.x), p)
        expected = 0.5 * p.gamma**2 * g.x**2 - p.D * p.gamma
        np.testing.assert_allclose(omega.values, expected, rtol=0, atol=1e-10)

    def test_zero_force_gives_zero(self):
        g = Grid1D(-5.0, 5.0, 201)
        omega = smoluchowski_omega(ScalarField(g, np.zeros(g.n)), P1)
        assert np.max(np.abs(omega.values)) == 0.0

    def test_constant_force_gives_constant(self):
        g = Grid1D(-5.0, 5.0, 201)
        omega = smoluchowski_omega(ScalarField(g, np.full(g.n, 3.0)), P1)
        np.testing.assert_allclose(omega.values, 9.0 / 2.0, rtol=0, atol=1e-12)
