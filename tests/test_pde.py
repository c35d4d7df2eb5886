"""Grid solvers: Chang-Cooper/Crank-Nicolson transport, the Cayley wave
scheme, and the Madelung decomposition that links the two."""

import dataclasses
import decimal
import logging
import math
import os
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.sparse import diags
from scipy.sparse.linalg import splu

from recoillab import pde
from recoillab.core import (
    ComplexField,
    Grid1D,
    PhysicalParams,
    ScalarField,
    integrate,
    trapezoid,
)
from recoillab.analytic import (
    FreeBrownianSolution,
    FreeRecoilSolution,
    HarmonicRecoilSolution,
    OrnsteinUhlenbeckSolution,
)
from recoillab.sde import (AnalyticRecoilDrift, SmoluchowskiDrift, TabulatedDrift,
                           ZeroDrift, ou_drift)
from recoillab.pde import (
    FokkerPlanckProblem,
    MadelungError,
    SchrodingerProblem,
    SolverError,
    WaveSolution,
    build_recoil_problem,
    madelung_decompose,
    solve_fokker_planck,
    solve_schrodinger,
    tabulate_drift,
)

from helpers import interp_lookup, normalized_density, wave_density

P1 = PhysicalParams(D=1.0, alpha=1.0)
RECOIL = FreeRecoilSolution(P1)


def initial_density(grid):
    return ScalarField(grid, RECOIL.rho(grid.x, 0.0))


class TestFokkerPlanck:
    def test_heat_kernel_spreading(self):
        # zero drift turns the cloud into the free Brownian solution
        g = Grid1D(-12.0, 12.0, 2001)
        problem = FokkerPlanckProblem(grid=g, rho0=initial_density(g),
                                      drift=ZeroDrift(), D=1.0, dt=1e-3,
                                      t_end=1.0, snapshot_stride=1000)
        sol = solve_fokker_planck(problem)
        exact = FreeBrownianSolution(P1).rho(g.x, 1.0)
        assert np.max(np.abs(sol.rho_at(1.0).values - exact)) < 1e-4
        assert sol.mass_drift_max < 1e-12
        assert sol.min_density > -1e-12

    def test_solution_records_the_whole_run_mass_change_and_positivity_bound(self):
        g = Grid1D(-8.0, 8.0, 321)
        drift = ou_drift(PhysicalParams(gamma=1.5))
        problem = FokkerPlanckProblem(grid=g, rho0=initial_density(g), drift=drift,
                                      D=1.0, dt=1e-2, t_end=1.0, snapshot_stride=50)
        sol = solve_fokker_planck(problem)
        assert sol.mass_change == (float(sol.rhos[-1].values.sum() * g.dx)
                                   - float(problem.rho0.values.sum() * g.dx))
        assert abs(sol.mass_change) <= 100 * sol.mass_drift_max
        diag = pde._fp_operator(drift(g.faces, 0.0), 1.0, g.dx, g.n)[1]
        assert sol.positivity_bound == 0.5 * problem.dt * float(np.max(-diag)) > 0

    @pytest.mark.parametrize("D", [1.0, 0.1])
    def test_step_log_states_the_positivity_bound(self, caplog, D):
        # dt = 0.05 on dx = 0.1 under b = 12 sin(3x) undershoots; at D = 0.1
        # the step is within dx^2/(2D), so only the drift breaks positivity
        g = Grid1D(-5.0, 5.0, 101)
        caplog.set_level(logging.INFO, logger="recoillab.pde")
        problem = FokkerPlanckProblem(
            grid=g, rho0=initial_density(g), D=D, dt=0.05, t_end=1.0,
            drift=SmoluchowskiDrift(lambda x: 12.0 * np.sin(3.0 * x)))
        with pytest.raises(SolverError, match="undershoot"):
            solve_fokker_planck(problem)
        # logged before the first step
        assert "positivity bound" in caplog.text
        assert "exceeded" in caplog.text

    def test_step_log_respected_for_a_small_step(self, caplog):
        g = Grid1D(-5.0, 5.0, 101)
        caplog.set_level(logging.INFO, logger="recoillab.pde")
        sol = solve_fokker_planck(FokkerPlanckProblem(
            grid=g, rho0=initial_density(g), D=1.0, dt=1e-3, t_end=1.0, drift=ZeroDrift()))
        assert "respected" in caplog.text
        assert sol.positivity_bound <= 1.0

    def test_ou_relaxes_to_boltzmann_profile(self, ou_fp, ou_params):
        g = ou_fp.grid
        stationary = np.exp(-0.5 * g.x**2) / np.sqrt(2.0 * np.pi)
        final = ou_fp.rho_at(10.0)
        l1 = integrate(ScalarField(g, np.abs(final.values - stationary)))
        assert l1 < 1e-5
        var = integrate(ScalarField(g, g.x**2 * final.values))
        assert var == pytest.approx(ou_params.D / ou_params.gamma, abs=1e-4)

    def test_time_dependent_drift_tracks_the_spreading_cloud(self):
        g = Grid1D(-16.0, 16.0, 1601)
        problem = FokkerPlanckProblem(grid=g, rho0=initial_density(g),
                                      drift=AnalyticRecoilDrift(P1), D=1.0,
                                      dt=1e-3, t_end=0.5, snapshot_stride=500)
        sol = solve_fokker_planck(problem)
        diff = np.abs(sol.rho_at(0.5).values - RECOIL.rho(g.x, 0.5))
        assert integrate(ScalarField(g, diff)) < 1e-3

    def test_problem_validation(self):
        g = Grid1D(-12.0, 12.0, 201)
        rho0 = initial_density(g)
        with pytest.raises(ValueError, match="normalized"):
            FokkerPlanckProblem(grid=g, rho0=ScalarField(g, 2.0 * rho0.values),
                                drift=ZeroDrift(), D=1.0, dt=1e-3, t_end=1.0)
        with pytest.raises(ValueError, match=">= 0"):
            FokkerPlanckProblem(grid=g, rho0=ScalarField(g, -rho0.values),
                                drift=ZeroDrift(), D=1.0, dt=1e-3, t_end=1.0)
        with pytest.raises(ValueError, match="D must be > 0"):
            FokkerPlanckProblem(grid=g, rho0=rho0, drift=ZeroDrift(), D=0.0,
                                dt=1e-3, t_end=1.0)
        with pytest.raises(ValueError, match="snapshot_stride"):
            FokkerPlanckProblem(grid=g, rho0=rho0, drift=ZeroDrift(), D=1.0,
                                dt=1e-3, t_end=1.0, snapshot_stride=0)

    def test_horizon_must_be_step_multiple(self):
        g = Grid1D(-12.0, 12.0, 201)
        problem = FokkerPlanckProblem(grid=g, rho0=initial_density(g),
                                      drift=ZeroDrift(), D=1.0, dt=0.3, t_end=1.0)
        with pytest.raises(ValueError, match="multiple"):
            solve_fokker_planck(problem)

    def test_rho_at_rejects_unstored_times(self, ou_fp):
        with pytest.raises(KeyError):
            ou_fp.rho_at(3.14)


class TestWaveSolver:
    def test_spreading_cloud_density(self, recoil_wave, free_recoil):
        g = recoil_wave.grid
        rho = wave_density(recoil_wave, 1.0)
        assert np.max(np.abs(rho - free_recoil.rho(g.x, 1.0))) < 1e-5
        assert recoil_wave.norm_drift_max < 1e-12

    def test_matched_width_is_numerically_stationary(self):
        # ground-state start: the density must not drift above the scheme's
        # spatial truncation error over three periods. The grid's O(dx^2)
        # breathing peaks half a period (pi/(2 gamma)) after each revival
        # and returns at t_end = 3 pi/gamma, so every stored slice is read.
        params = PhysicalParams(D=1.0, alpha=1.0, gamma=2.0)
        sol = HarmonicRecoilSolution(params)
        assert sol.matched
        g = Grid1D(-12.0, 12.0, 96001)
        rho0 = ScalarField(g, sol.rho(g.x, 0.0))
        problem = build_recoil_problem(rho0, ScalarField(g, sol.omega(g.x)),
                                       D=1.0, dt=1e-3, t_end=4.712,
                                       snapshot_stride=157)
        wave = solve_schrodinger(problem)
        assert len(wave.psis) == 32
        drift = max(np.max(np.abs(np.abs(psi.values) ** 2 - rho0.values))
                    for psi in wave.psis)
        assert drift < 1e-8

    def test_one_step_unitarity_on_a_flat_state(self):
        # constant psi0 exercises the Cayley step at full amplitude on the
        # boundary; edge_tol > 1 disables the escape guard
        g = Grid1D(-10.0, 10.0, 801)
        psi0 = ComplexField(g, np.full(g.n, 1.0 / np.sqrt(20.0), dtype=complex))
        problem = SchrodingerProblem(grid=g, psi0=psi0, Omega=None, D=1.0,
                                     dt=1e-3, t_end=1e-3, edge_tol=1.5)
        wave = solve_schrodinger(problem)
        assert wave.norm_drift_max < 1e-12
        before = np.sum(np.abs(wave.psis[0].values) ** 2) * g.dx
        after = np.sum(np.abs(wave.psis[-1].values) ** 2) * g.dx
        assert after == pytest.approx(before, abs=1e-13)

    def test_constant_potential_shift_is_a_gauge_choice(self):
        g = Grid1D(-16.0, 16.0, 1601)
        rho0 = initial_density(g)
        kwargs = dict(D=1.0, dt=1e-3, t_end=0.2, snapshot_stride=200)
        free = solve_schrodinger(build_recoil_problem(rho0, None, **kwargs))
        shifted = solve_schrodinger(build_recoil_problem(
            rho0, ScalarField(g, np.full(g.n, 0.7)), **kwargs))
        gap = np.abs(wave_density(free, 0.2) - wave_density(shifted, 0.2))
        assert np.max(gap) < 1e-6

    def test_escaping_wave_aborts(self):
        g = Grid1D(-6.0, 6.0, 601)
        problem = build_recoil_problem(initial_density(g), None, D=1.0,
                                       dt=1e-3, t_end=1.0)
        with pytest.raises(SolverError, match="widen the domain"):
            solve_schrodinger(problem)

    def test_edge_guard_falls_back_to_the_exact_test(self, monkeypatch):
        # the LAPACK march certifies its edge guard from the mean density.
        # Here the edge density stays below edge_tol times the peak, and on
        # most steps above half of edge_tol times the mean: those steps must
        # run the exact test, pass it, and store the waves of the default guard
        sol = HarmonicRecoilSolution(PhysicalParams(D=1.0, alpha=1.0, gamma=2.0))
        g = Grid1D(-6.0, 6.0, 601)
        rho0 = sol.rho(g.x, 0.0)
        rho0 = ScalarField(g, rho0 / trapezoid(rho0, dx=g.dx))
        kwargs = dict(D=1.0, dt=1e-3, t_end=0.2, snapshot_stride=1)
        omega = ScalarField(g, sol.omega(g.x))
        default = solve_schrodinger(build_recoil_problem(rho0, omega, **kwargs))
        edge_tol = 1e-16
        certified = {False: set(), True: set()}  # by the mean, with 1 % to spare
        for t, psi in zip(default.times[1:], default.psis[1:]):
            rho = np.abs(psi.values) ** 2
            edge = max(rho[0], rho[-1])
            assert edge <= edge_tol * np.max(rho)
            ratio = edge / (0.5 * edge_tol * np.mean(rho))
            if abs(ratio - 1.0) > 0.01:
                certified[bool(ratio < 1.0)].add(round(float(t), 9))
        assert len(certified[False]) > 100 and certified[True]

        exact_tests = []
        check_edge = pde._check_edge

        def counted(prob, tol, t):
            exact_tests.append(round(t, 9))
            check_edge(prob, tol, t)

        monkeypatch.setattr(pde, "_check_edge", counted)
        assert solve_schrodinger(build_recoil_problem(rho0, omega, **kwargs)).march == "LAPACK"
        assert exact_tests == []
        wave = solve_schrodinger(build_recoil_problem(rho0, omega, edge_tol=edge_tol, **kwargs))
        assert certified[False] <= set(exact_tests)
        assert not certified[True] & set(exact_tests)
        for got, want in zip(wave.psis, default.psis, strict=True):
            np.testing.assert_array_equal(got.values, want.values)

    def test_problem_validation(self):
        g = Grid1D(-12.0, 12.0, 201)
        other = Grid1D(-12.0, 12.0, 202)
        rho0 = initial_density(g)
        psi0 = ComplexField(g, np.sqrt(rho0.values).astype(complex))
        with pytest.raises(ValueError, match="normalized"):
            SchrodingerProblem(grid=g, psi0=ComplexField(g, 2.0 * psi0.values),
                               Omega=None, D=1.0, dt=1e-3, t_end=1.0)
        with pytest.raises(ValueError, match="problem grid"):
            SchrodingerProblem(grid=g, psi0=psi0,
                               Omega=ScalarField(other, np.zeros(other.n)),
                               D=1.0, dt=1e-3, t_end=1.0)
        with pytest.raises(ValueError, match="drift_stride"):
            SchrodingerProblem(grid=g, psi0=psi0, Omega=None, D=1.0, dt=1e-3,
                               t_end=1.0, drift_stride=0)
        # a NaN edge_tol would make the escape guard compare False forever
        for edge_tol in (math.nan, math.inf, 0.0, -1e-10):
            with pytest.raises(ValueError, match="edge_tol"):
                SchrodingerProblem(grid=g, psi0=psi0, Omega=None, D=1.0, dt=1e-3,
                                   t_end=1.0, edge_tol=edge_tol)

    def test_psi_at_rejects_unstored_times(self, recoil_wave):
        with pytest.raises(KeyError):
            recoil_wave.psi_at(0.33)


class TestFaceDrift:
    """A time-dependent fp march reads a drift table at ``Grid1D.faces``
    through ``TabulatedDrift.at``, which finds the faces' cells once per
    solve: equal to np.interp on the blended row bit for bit at every step."""

    grid = Grid1D(-12.0, 12.0, 241)

    def problem(self, table_nodes):
        # rows every 0.05 up to 5e-10 short of t_end: the last step reads
        # the table past its last row, within the span's time tolerance; on
        # 481 nodes 138 of the 240 faces are table nodes bit for bit
        g, t_end = self.grid, 0.4
        tg = Grid1D(-12.0, 12.0, table_nodes)
        times = np.linspace(0.0, t_end - 5e-10, 9)
        values = np.array([RECOIL.b(tg.x, t) for t in times])
        values[:, tg.n // 2] = -0.0
        values[3:5, ::7] = -0.0  # -0.0 in both rows blends to -0.0
        drift = TabulatedDrift(times, tg, values)
        return FokkerPlanckProblem(grid=g, rho0=initial_density(g), drift=drift, D=1.0,
                                   dt=1e-2, t_end=t_end, snapshot_stride=10)

    @pytest.mark.parametrize("table_nodes", [481, 173])
    def test_matches_the_table_lookup_at_every_step(self, table_nodes, monkeypatch):
        problem = self.problem(table_nodes)
        at, seen = TabulatedDrift.at, []

        def checked(drift, x):
            lookup = at(drift, x)

            def check(t):
                got = lookup(t)
                assert got.tobytes() == interp_lookup(drift, x, t).tobytes()
                seen.append(t)
                return got
            return check

        monkeypatch.setattr(TabulatedDrift, "at", checked)
        solve_fokker_planck(problem)
        assert len(seen) == 41 and seen[-1] > problem.drift.times[-1]


class TestTimeDependentFpOrder:
    """The time-dependent LU fp march is second order against the closed
    form: on [-40, 40] from 801 nodes and dt 4e-3 to t = 1, with dx and dt
    halved twice, the max-norm error of rho falls fourfold per halving
    (measured 4.00). The table samples the closed-form drift on the march's
    nodes every tenth step, so its lookups interpolate in x and in t. The
    wave's own drift table, tabulated every tenth step of a wave march on the
    same grid and dt, is the consistency triangle's grid leg (measured 4.02
    and 4.00)."""

    @pytest.mark.parametrize("source", ["analytic", "tabulated", "wave"])
    def test_error_falls_fourfold_per_halving(self, source):
        errors = []
        for level in range(3):
            g = Grid1D(-40.0, 40.0, 800 * 2**level + 1)
            dt = 4e-3 / 2**level
            n_steps = round(1.0 / dt)
            drift = AnalyticRecoilDrift(P1)
            if source == "tabulated":
                times = dt * np.arange(0, n_steps + 1, 10)
                drift = TabulatedDrift(times, g, np.array([drift(g.x, t) for t in times]))
            elif source == "wave":
                drift = solve_schrodinger(build_recoil_problem(
                    initial_density(g), None, D=1.0, dt=dt, t_end=1.0,
                    snapshot_stride=n_steps, drift_stride=10)).drift_table
            sol = solve_fokker_planck(FokkerPlanckProblem(
                grid=g, rho0=initial_density(g), drift=drift, D=1.0, dt=dt, t_end=1.0,
                snapshot_stride=n_steps))
            assert sol.march == "LAPACK"
            errors.append(np.max(np.abs(sol.rhos[-1].values - RECOIL.rho(g.x, 1.0))))
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.6 <= coarse / fine <= 4.4


HARMONIC = HarmonicRecoilSolution(PhysicalParams(D=1.0, alpha=1.5, gamma=2.0))
OU = OrnsteinUhlenbeckSolution(PhysicalParams(D=1.0, alpha=2.0, gamma=1.0))


class TestMarchOrder:
    """Every other march is second order against its closed form too: with
    dx and dt halved twice from the start grid, the max-norm error of rho at
    t_end falls fourfold per halving (measured 4.00-4.02). A folded march
    runs on a symmetric domain of odd n, its full march on [-12, 13]."""

    @pytest.mark.parametrize("sol, x_min, x_max, n, dt, t_end, march, even_half", [
        (HARMONIC, -12.0, 12.0, 401, 4e-3, 1.0, "LAPACK", True),
        (HARMONIC, -12.0, 13.0, 501, 4e-3, 1.0, "LAPACK", False),
        (RECOIL, -40.0, 40.0, 801, 4e-3, 1.0, "sine basis", False),
        (OU, -12.0, 12.0, 241, 4e-2, 2.0, "symmetric", True),
        (OU, -12.0, 13.0, 251, 4e-2, 2.0, "symmetric", False),
    ], ids=["wave_folded", "wave_full", "sine_wave", "fp_folded", "fp_full"])
    def test_error_falls_fourfold_per_halving(self, sol, x_min, x_max, n, dt, t_end, march,
                                              even_half):
        errors = []
        for level in range(3):
            g = Grid1D(x_min, x_max, (n - 1) * 2**level + 1)
            step = dt / 2**level
            stride = round(t_end / step)
            rho0 = normalized_density(g, sol.rho(g.x, 0.0))
            if sol is OU:
                got = solve_fokker_planck(FokkerPlanckProblem(
                    grid=g, rho0=rho0, drift=ou_drift(sol.params), D=1.0, dt=step,
                    t_end=t_end, snapshot_stride=stride))
                rho = got.rhos[-1].values
            else:
                omega = None if sol is RECOIL else ScalarField(g, sol.omega(g.x))
                got = solve_schrodinger(build_recoil_problem(rho0, omega, D=1.0, dt=step,
                                                             t_end=t_end, snapshot_stride=stride))
                rho = np.abs(got.psis[-1].values) ** 2
            assert (got.march, got.even_half) == (march, even_half)
            errors.append(np.max(np.abs(rho - sol.rho(g.x, t_end))))
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.6 <= coarse / fine <= 4.4


def splu_fokker_planck(p):
    """Reference Crank-Nicolson march: SuperLU on a sparse copy of
    I - dt/2 A, refactored every step when the drift depends on time."""
    dx, n = p.grid.dx, p.grid.n
    x_half = p.grid.x[:-1] + 0.5 * dx
    kappa = 0.5 * p.dt

    def operator(t):
        return pde._fp_operator(p.drift(x_half, t), p.D, dx, n)

    def factorize(tri):
        lower, diag, upper = tri
        return splu(diags([-kappa * lower, 1.0 - kappa * diag, -kappa * upper],
                          [-1, 0, 1], format="csc"))

    tri = operator(0.0)
    lu = factorize(tri)
    rho = p.rho0.values.copy()
    out = [rho]
    for k in range(int(round(p.t_end / p.dt))):
        lower, diag, upper = tri
        rhs = rho + kappa * (diags([lower, diag, upper], [-1, 0, 1]) @ rho)
        if p.drift.time_dependent:
            tri = operator((k + 1) * p.dt)
            lu = factorize(tri)
        rho = lu.solve(rhs)
        out.append(rho)
    return out


def splu_schrodinger(p):
    """Reference Cayley march: SuperLU solve of (I + i dt/2 H) psi' =
    (I - i dt/2 H) psi with an explicit product by H."""
    dx, n = p.grid.dx, p.grid.n
    omega = np.zeros(n) if p.Omega is None else p.Omega.values
    H = diags([np.full(n - 1, -p.D / dx**2), 2.0 * p.D / dx**2 + omega / (2.0 * p.D),
               np.full(n - 1, -p.D / dx**2)], [-1, 0, 1], format="csc")
    kappa = 0.5j * p.dt
    lu = splu((diags(np.ones(n)) + kappa * H).tocsc())
    psi = p.psi0.values.copy()
    out = [psi]
    for _ in range(int(round(p.t_end / p.dt))):
        psi = lu.solve(psi - kappa * (H @ psi))
        out.append(psi)
    return out


def refuse_lapack(*args, **kwargs):
    raise AssertionError("a march called a LAPACK routine it has no use for")


def max_rel_diff(got, want):
    assert len(got) == len(want)
    return max(np.max(np.abs(a - b)) / np.max(np.abs(b)) for a, b in zip(got, want))


class TestTridiagonalSolvesMatchSuperLU:
    grid = Grid1D(-16.0, 16.0, 401)

    @pytest.mark.parametrize("drift", [ou_drift(PhysicalParams(gamma=1.5)), ZeroDrift(),
                                       AnalyticRecoilDrift(P1)],
                             ids=["static", "zero_drift", "time_dependent"])
    def test_fokker_planck(self, drift, monkeypatch):
        # a static drift takes the symmetric LDL^T march, which needs no LU
        if not drift.time_dependent:
            monkeypatch.setattr(pde, "dgtsv", refuse_lapack)
        problem = FokkerPlanckProblem(grid=self.grid, rho0=initial_density(self.grid),
                                      drift=drift, D=1.0, dt=2e-3, t_end=0.4)
        sol = solve_fokker_planck(problem)
        got = [r.values for r in sol.rhos]
        assert max_rel_diff(got, splu_fokker_planck(problem)) <= 1e-12
        assert sol.mass_drift_max <= 1e-12
        assert sol.march == ("LAPACK" if drift.time_dependent else "symmetric")

    def test_a_scaling_beyond_double_range_takes_the_lapack_march(self, monkeypatch):
        # b = -12 x on [-16, 16]: the symmetrizing s ~ exp(-3 x^2) would span
        # e^768, past the largest double (e^709.8), so the march stays on LU
        monkeypatch.setattr(pde, "dpttrf", refuse_lapack)
        monkeypatch.setattr(pde, "dpttrs", refuse_lapack)
        problem = FokkerPlanckProblem(grid=self.grid, rho0=initial_density(self.grid),
                                      drift=ou_drift(PhysicalParams(gamma=12.0)), D=1.0,
                                      dt=5e-4, t_end=0.1)
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            sol = solve_fokker_planck(problem)
        assert sol.march == "LAPACK"
        got = [r.values for r in sol.rhos]
        assert max_rel_diff(got, splu_fokker_planck(problem)) <= 1e-12
        assert sol.mass_drift_max <= 1e-12

    # gamma = 0 with Omega None takes the sine-basis march; Omega = 0 as a
    # field takes the LAPACK march on the same problem
    @pytest.mark.parametrize("gamma, omega_field", [(0.0, False), (1.0, True), (0.0, True)],
                             ids=["0.0", "1.0", "0.0-zero-field"])
    def test_cayley_wave(self, gamma, omega_field, monkeypatch):
        g = self.grid
        sol = HarmonicRecoilSolution(PhysicalParams(gamma=1.0))
        omega = ScalarField(g, gamma * sol.omega(g.x)) if omega_field else None
        problem = build_recoil_problem(initial_density(g), omega, D=1.0,
                                       dt=1e-3, t_end=0.3)
        if omega is None:
            monkeypatch.setattr(pde, "ztbtrs", refuse_lapack)
        wave = solve_schrodinger(problem)
        assert wave.march == ("sine basis" if omega is None else "LAPACK")
        got = [f.values for f in wave.psis]
        assert max_rel_diff(got, splu_schrodinger(problem)) <= 1e-12
        assert wave.norm_drift_max <= 1e-12


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 40), seed=st.integers(0, 2**32 - 1),
       dominance=st.sampled_from([0.0, 0.5, 3.0]), zeros=st.booleans())
def test_one_dgtsv_call_equals_dgttrf_and_dgttrs(n, seed, dominance, zeros):
    # the LU march's single call keeps the factor-and-solve pair's
    # elimination and pivot rule, so its densities are the pair's bit for
    # bit; a weak diagonal makes rows swap, zeros skip eliminations
    rng = np.random.default_rng(seed)
    lower, upper, rhs = rng.normal(size=n - 1), rng.normal(size=n - 1), rng.normal(size=n)
    diag = rng.normal(size=n) + dominance * np.sign(rng.normal(size=n))
    if zeros:
        lower[::3] = 0.0
    *lu, info = pde._flapack.dgttrf(lower, diag, upper)
    assume(info == 0)
    want, info = pde._flapack.dgttrs(*lu, rhs)
    *_, got, info = pde.dgtsv(lower, diag, upper, rhs)
    assert info == 0 and got.tobytes() == want.tobytes()


def mirrored(rng, c, complex_values=False):
    """A random vector on 2c + 1 nodes, even about the centre node bit for bit."""
    half = rng.normal(size=c + 1) + (1j * rng.normal(size=c + 1) if complex_values else 0.0)
    return np.concatenate((half[:0:-1], half))


@st.composite
def even_wave_problems(draw):
    """A wave problem on a mirrored grid of odd n with an even start and an
    even potential."""
    c = draw(st.integers(4, 80))
    half = draw(st.floats(0.5, 50.0))
    grid = Grid1D(-half, half, 2 * c + 1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    psi = mirrored(rng, c, complex_values=True)
    psi /= np.sqrt(trapezoid(np.abs(psi) ** 2, dx=grid.dx))
    omega = ScalarField(grid, draw(st.floats(0.0, 1e8)) * mirrored(rng, c))
    dt = draw(st.floats(1e-5, 1.0))
    return SchrodingerProblem(grid=grid, psi0=ComplexField(grid, psi), Omega=omega,
                              D=draw(st.floats(0.1, 10.0)), dt=dt,
                              t_end=draw(st.integers(1, 20)) * dt, edge_tol=1.5)


@st.composite
def even_fp_problems(draw):
    """A static Fokker-Planck problem on a mirrored grid of odd n with an even
    start under an OU or zero drift, its step within the positivity bound.
    The OU scaling spans at most e^200, inside the symmetric march's range."""
    c = draw(st.integers(4, 80))
    half = draw(st.floats(0.5, 10.0))
    grid = Grid1D(-half, half, 2 * c + 1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rho = np.abs(mirrored(rng, c)) + 0.1
    rho /= trapezoid(rho, dx=grid.dx)
    gamma = draw(st.floats(0.0, 4.0))
    drift = ou_drift(PhysicalParams(gamma=gamma)) if gamma > 0 else ZeroDrift()
    D = draw(st.floats(0.5, 10.0))
    dt = draw(st.floats(0.01, 1.0)) / (D / grid.dx**2 + gamma * half / grid.dx)
    return FokkerPlanckProblem(grid=grid, rho0=ScalarField(grid, rho), drift=drift, D=D,
                               dt=dt, t_end=draw(st.integers(1, 20)) * dt)


def one_ulp_off(values):
    """A copy of values with the real part of node 2 one ulp up."""
    out = np.array(values)
    out.real[2] = np.nextafter(out.real[2], np.inf)
    return out


class TestEvenHalf:
    """A mirror-symmetric march folds onto nodes c..n-1 and must store what
    the full march stores, to its rounding, as exactly even waves."""

    @settings(max_examples=60, deadline=None)
    @given(problem=even_wave_problems())
    def test_the_folded_wave_march_matches_the_full_march(self, problem):
        wave = solve_schrodinger(problem)
        assert (wave.march, wave.even_half) == ("LAPACK", True)
        got = [f.values for f in wave.psis]
        for psi in got:
            np.testing.assert_array_equal(psi, psi[::-1])
        # against the full march, not SuperLU: on stiff draws SuperLU's own
        # rounding sits up to 2e-12 from both marches alike
        with mock.patch.object(pde, "mirror_centre", return_value=None):
            full = solve_schrodinger(problem)
        assert not full.even_half
        assert max_rel_diff(got, [f.values for f in full.psis]) <= 1e-12
        assert wave.norm_drift_max <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(problem=even_fp_problems())
    def test_the_folded_fokker_planck_march_matches_superlu(self, problem):
        sol = solve_fokker_planck(problem)
        assert (sol.march, sol.even_half) == ("symmetric", True)
        got = [r.values for r in sol.rhos]
        for rho in got:
            np.testing.assert_array_equal(rho, rho[::-1])
        assert max_rel_diff(got, splu_fokker_planck(problem)) <= 1e-12
        assert sol.mass_drift_max <= 1e-12

    @pytest.mark.parametrize("name", ["Omega", "psi0"])
    def test_one_node_one_ulp_off_marches_the_full_wave(self, name):
        g = Grid1D(-8.0, 8.0, 161)
        problem = build_recoil_problem(initial_density(g), ScalarField(g, 0.5 * g.x**2),
                                       D=1.0, dt=1e-3, t_end=0.01, snapshot_stride=5)
        assert solve_schrodinger(problem).even_half
        off = dataclasses.replace(problem, **{name: dataclasses.replace(
            getattr(problem, name), values=one_ulp_off(getattr(problem, name).values))})
        wave = solve_schrodinger(off)
        assert not wave.even_half
        assert max_rel_diff([f.values for f in wave.psis], splu_schrodinger(off)[::5]) <= 1e-12

    def test_the_free_march_keeps_every_sine_mode(self):
        # an even free start still marches the full sine basis
        g = Grid1D(-8.0, 8.0, 161)
        problem = build_recoil_problem(initial_density(g), None, D=1.0, dt=1e-3, t_end=0.01)
        wave = solve_schrodinger(problem)
        assert (wave.march, wave.even_half) == ("sine basis", False)

    def test_one_node_one_ulp_off_marches_the_full_density(self):
        g = Grid1D(-8.0, 8.0, 161)
        problem = FokkerPlanckProblem(grid=g, rho0=initial_density(g),
                                      drift=ou_drift(PhysicalParams(gamma=1.5)), D=1.0,
                                      dt=1e-2, t_end=0.1)
        assert solve_fokker_planck(problem).even_half
        off = dataclasses.replace(problem, rho0=ScalarField(g, one_ulp_off(problem.rho0.values)))
        sol = solve_fokker_planck(off)
        assert (sol.march, sol.even_half) == ("symmetric", False)
        assert max_rel_diff([r.values for r in sol.rhos], splu_fokker_planck(off)) <= 1e-12


@st.composite
def potential_problems(draw):
    """A wave problem in a random real potential: deep wells and high
    barriers of either sign, node to node, on a random grid and step."""
    n = draw(st.integers(8, 160))
    grid = Grid1D(-draw(st.floats(0.5, 50.0)), 0.0, n)
    scale = draw(st.floats(0.0, 1e8))
    omega = scale * draw(hnp.arrays(float, n, elements=st.floats(-1.0, 1.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    psi /= np.sqrt(trapezoid(np.abs(psi) ** 2, dx=grid.dx))
    dt = draw(st.floats(1e-5, 1.0))
    return SchrodingerProblem(grid=grid, psi0=ComplexField(grid, psi),
                              Omega=ScalarField(grid, omega), D=draw(st.floats(0.1, 10.0)),
                              dt=dt, t_end=dt, edge_tol=1.5)


class TestWaveFactor:
    """The pivot-free L D U factor of I + i dt/2 H behind the march with a
    potential, on the full grid and on the even half."""

    @settings(max_examples=100, deadline=None)
    @given(problem=st.one_of(potential_problems(), even_wave_problems()))
    def test_pivots_stay_off_zero_and_one_step_is_the_cayley_step(self, problem):
        g, D = problem.grid, problem.D
        H = (np.diag(2.0 * D / g.dx**2 + problem.Omega.values / (2.0 * D))
             - D / g.dx**2 * (np.eye(g.n, k=1) + np.eye(g.n, k=-1)))
        kappa = 0.5j * problem.dt
        M = np.eye(g.n) + kappa * H
        c = pde.mirror_centre(g, problem.Omega.values, problem.psi0.values)
        if c is not None:
            # the even half: row c reads psi_(c-1) = psi_(c+1), so its first
            # row carries the doubled coupling
            half = M[c:, c:].copy()
            half[0, 1] += M[c, c - 1]
            M = half
        pivots = pde._pivots(np.diag(M, -1), np.diag(M), np.diag(M, 1))
        assert np.all(pivots.real >= 1.0)
        # the Cayley step as 2 (I + i dt/2 H)^-1 psi - psi: the product H psi
        # of a stiff H would put the reference itself up to 3e-12 off
        psi = problem.psi0.values
        want = 2.0 * np.linalg.solve(np.eye(g.n) + kappa * H, psi) - psi
        _, even_half, advance, _, _, wave_at = pde._lapack_march(problem)
        assert even_half == (c is not None)
        advance()
        got = wave_at(1)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_a_step_matrix_that_is_not_finite_raises(self, monkeypatch):
        # a finite Omega of 1e308 at one node: Omega/(2D) overflows at D = 0.25
        monkeypatch.setattr(pde, "ztbtrs", refuse_lapack)
        g = Grid1D(-8.0, 8.0, 161)
        values = 0.5 * g.x**2
        values[80] = 1e308
        problem = build_recoil_problem(initial_density(g), ScalarField(g, values), D=0.25,
                                       dt=1e-3, t_end=0.01)
        with pytest.raises(SolverError, match="not finite"), np.errstate(all="raise"):
            solve_schrodinger(problem)

    def test_blas_threads_do_not_change_the_march(self):
        # ztbtrs sweeps through BLAS ztbsv; one and two BLAS threads give the
        # same bytes
        src = os.path.dirname(os.path.dirname(os.path.abspath(pde.__file__)))
        code = (
            "import hashlib, numpy as np\n"
            "from recoillab import pde\n"
            "from recoillab.core import Grid1D, ScalarField\n"
            "g = Grid1D(-8.0, 8.0, 2001)\n"
            "rho0 = ScalarField(g, np.exp(-g.x**2) / np.sqrt(np.pi))\n"
            "p = pde.build_recoil_problem(rho0, ScalarField(g, 2.0 * g.x**2), D=1.0,"
            " dt=1e-3, t_end=0.2, snapshot_stride=50)\n"
            "w = pde.solve_schrodinger(p)\n"
            "assert w.march == 'LAPACK'\n"
            "print(hashlib.sha256(b''.join(f.values.tobytes() for f in w.psis)).hexdigest())\n")
        digests = set()
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads)
            digests.add(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                       capture_output=True, text=True).stdout)
        assert len(digests) == 1


def zero_field(problem):
    """The same problem with Omega = 0 as a field, which takes the LAPACK march."""
    return dataclasses.replace(problem, Omega=ScalarField(problem.grid, np.zeros(problem.grid.n)))


def solve_free(problem, monkeypatch):
    """Solves an Omega-None problem with ztbtrs refused, so only the sine march can run."""
    assert problem.Omega is None
    with monkeypatch.context() as m:
        m.setattr(pde, "ztbtrs", refuse_lapack)
        return solve_schrodinger(problem)


def escape_messages(problem, monkeypatch):
    """The escape errors of the sine and the LAPACK march on one problem."""
    messages = []
    for solve in (lambda: solve_free(problem, monkeypatch),
                  lambda: solve_schrodinger(zero_field(problem))):
        with pytest.raises(SolverError, match="widen the domain") as err:
            solve()
        messages.append(str(err.value))
    return messages


def exact_phase_march(problem, step):
    """psi after `step` free Cayley steps, from the sine coefficients of psi0
    turned by exp(-2i step arctan lambda_k) in one go, the angles and their
    sines in long double: the march without the rounding of `step` products."""
    n, dx = problem.grid.n, problem.grid.dx
    k = np.arange(1, n + 1, dtype=np.longdouble)
    pi = np.longdouble("3.14159265358979323846264338327950288")
    lam = np.longdouble(problem.dt * problem.D) / np.longdouble(dx) ** 2 \
        * 2 * np.sin(pi * k / (2 * (n + 1))) ** 2
    angle = -2 * step * np.arctan(lam)
    c = pde._dst1(problem.psi0.values)
    re, im = c.real.astype(np.longdouble), c.imag.astype(np.longdouble)
    cos, sin = np.cos(angle), np.sin(angle)
    turned = (re * cos - im * sin).astype(float) + 1j * (re * sin + im * cos).astype(float)
    return 2.0 / (n + 1) * pde._dst1(turned)


def moving_packet(half_width):
    """The recoil cloud with momentum, psi0 = sqrt(rho0) e^{10 i x}: its peak
    runs to x = 20 by t = 1, far off the node where |psi0| peaks."""
    g = Grid1D(-half_width, half_width, int(round(40 * half_width)) + 1)
    psi0 = ComplexField(g, np.sqrt(RECOIL.rho(g.x, 0.0)) * np.exp(10j * g.x))
    return SchrodingerProblem(grid=g, psi0=psi0, Omega=None, D=1.0, dt=1e-3,
                              t_end=1.0, snapshot_stride=100)


class TestFreeSineMarch:
    """Omega None takes the sine-basis march: it must store the LAPACK march's
    waves and drift tables, keep its ledger and abort where it aborts."""

    # 300 steps, and the bundled 10 000, where the LAPACK march's own rounding
    # has grown to 1.15e-12 of the exact-phase march (the sine march: 4e-16)
    @pytest.mark.parametrize("dt, t_end, stride, pair_tol", [(1e-3, 0.3, 50, 1e-12),
                                                           (1e-4, 1.0, 1000, 2e-12)],
                             ids=["300_steps", "10000_steps"])
    def test_matches_the_lapack_march(self, monkeypatch, dt, t_end, stride, pair_tol):
        g = Grid1D(-16.0, 16.0, 401)
        problem = build_recoil_problem(initial_density(g), None, D=1.0, dt=dt,
                                       t_end=t_end, snapshot_stride=stride,
                                       drift_stride=stride)
        free = solve_free(problem, monkeypatch)
        lapack = solve_schrodinger(zero_field(problem))
        assert (free.march, lapack.march) == ("sine basis", "LAPACK")
        got, want = [f.values for f in free.psis], [f.values for f in lapack.psis]
        assert max_rel_diff(got, want) <= pair_tol
        exact = [exact_phase_march(problem, m) for m in np.rint(free.times / dt).astype(int)]
        assert max_rel_diff(got, exact) <= 1e-13
        assert free.norm_drift_max <= 1e-12 and lapack.norm_drift_max <= 1e-12
        # drift rows sit on the stored steps. Compare them where rho > 1e-6
        # of peak: below 1e-12 both are zeroed, and at that mask edge the
        # phase is rounding. The tails amplify the rounding of psi, which
        # puts the LAPACK march's rows up to 1.2e-9 off the exact ones
        np.testing.assert_array_equal(free.drift_table.times, lapack.drift_table.times)
        for psi, a, b in zip(exact, free.drift_table.values, lapack.drift_table.values):
            rho = np.abs(psi) ** 2
            dense = rho > 1e-6 * np.max(rho)
            b_exact = pde._drift_slice(psi, g, 1.0)[dense]
            scale = np.max(np.abs(b_exact))
            assert np.max(np.abs(a[dense] - b_exact)) <= 1e-11 * scale
            assert np.max(np.abs(a[dense] - b[dense])) <= 1e-8 * scale

    # the chirp e^{i x^2/2} spreads the cloud faster; a march that turned
    # the coefficients backwards would first focus it and abort later. No
    # step before the last is stored, so the guard reads the marched
    # coefficients, not ones retaken for a stored wave
    @pytest.mark.parametrize("chirp, t_abort", [(0.0, 0.462), (0.5, 0.152)],
                             ids=["real", "chirped"])
    def test_escape_aborts_at_the_same_step(self, monkeypatch, chirp, t_abort):
        g = Grid1D(-6.0, 6.0, 601)
        psi0 = np.sqrt(initial_density(g).values) * np.exp(1j * chirp * g.x**2)
        problem = SchrodingerProblem(grid=g, psi0=ComplexField(g, psi0), Omega=None,
                                     D=1.0, dt=1e-3, t_end=1.0, snapshot_stride=1000)
        free, lapack = escape_messages(problem, monkeypatch)
        assert free == lapack
        assert f"t={t_abort} " in free

    def test_a_packet_leaving_its_start_node_runs_to_the_end(self, monkeypatch):
        # the density at the start peak falls below the edge density / edge_tol,
        # so a guard that took it for the peak would abort; the exact guard runs
        problem = moving_packet(45.0)
        free = solve_free(problem, monkeypatch)
        lapack = solve_schrodinger(zero_field(problem))
        assert free.times[-1] == pytest.approx(1.0)
        assert max_rel_diff([f.values for f in free.psis],
                            [f.values for f in lapack.psis]) <= 1e-12
        rho = np.abs(free.psis[-1].values) ** 2
        start = int(np.argmax(np.abs(problem.psi0.values)))
        assert max(rho[0], rho[-1]) > problem.edge_tol * rho[start]
        assert max(rho[0], rho[-1]) <= problem.edge_tol * np.max(rho)

    def test_a_moving_packet_aborts_with_the_lapack_march(self, monkeypatch):
        free, lapack = escape_messages(moving_packet(25.0), monkeypatch)
        assert free == lapack


def bernoulli_reference(w):
    """w/(e^w - 1) in 60-digit decimal arithmetic, rounded once to a double."""
    if w == 0.0:
        return 1.0
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        x = decimal.Decimal(w)  # exact
        if abs(w) < 1e-20:  # the next term, w^2/12, is below the last digit
            return float(1 - x / 2)
        return float(x / (x.exp() - 1))


def peclet(limit):
    """Face Peclet numbers w = b dx / D: exact zeros, subnormals, and
    everything up to |w| = limit."""
    return st.one_of(st.sampled_from([0.0, 5e-324, -5e-324, -2.2e-308]),
                     st.floats(-limit, limit))


class TestLedgers:
    grid = Grid1D(-12.0, 12.0, 241)

    # dt up to the positivity limit of the explicit half step,
    # dt/2 (2D/dx^2 + |b|/dx) <= 1; beyond it an undershoot is reported
    @settings(max_examples=25, deadline=None)
    @given(amp=st.floats(-20.0, 20.0), k=st.floats(0.0, 3.0),
           dt=st.sampled_from([1e-4, 1e-3, 4e-3]))
    def test_fokker_planck_conserves_mass(self, amp, k, dt):
        drift = SmoluchowskiDrift(lambda x: amp * np.sin(k * x))
        problem = FokkerPlanckProblem(grid=self.grid, rho0=initial_density(self.grid),
                                      drift=drift, D=1.0, dt=dt, t_end=20 * dt)
        sol = solve_fokker_planck(problem)
        assert sol.mass_drift_max <= 1e-12
        assert sol.min_density >= -1e-12

    @settings(max_examples=25, deadline=None)
    @given(gamma=st.floats(0.0, 4.0), shift=st.floats(-50.0, 50.0),
           dt=st.sampled_from([1e-4, 1e-3, 1e-2]))
    def test_wave_conserves_norm(self, gamma, shift, dt):
        g = self.grid
        omega = ScalarField(g, 0.5 * gamma**2 * g.x**2 + shift)
        problem = build_recoil_problem(initial_density(g), omega, D=1.0,
                                       dt=dt, t_end=20 * dt, edge_tol=1.5)
        wave = solve_schrodinger(problem)
        assert wave.norm_drift_max <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(w=hnp.arrays(float, st.integers(2, 60), elements=peclet(700.0)),
           D=st.floats(1e-2, 1e2), dx=st.floats(1e-3, 1.0))
    # b dx / D rounds to w = -700.0000000000001, just past the end of the
    # expm1 branch of the rates
    @example(w=np.array([-700.0, 0.0]), D=47.588813035657196, dx=1.0)
    def test_chang_cooper_zero_flux_state_is_boltzmann(self, w, D, dx):
        # a static drift on the half nodes, |b dx / D| up to 700 and a
        # rounding past it: the discrete Boltzmann profile
        # rho_i ~ exp(sum_{j<i} b_j dx / D) is the zero-flux state, and every
        # column of A sums to zero
        b = w * D / dx
        n = b.size + 1
        with np.errstate(all="raise"):
            lower, diag, upper = pde._fp_operator(b, D, dx, n)
        # w as the operator computes it; exponents summed exactly outward
        # from the peak, since a running sum would carry the rounding of
        # exponents in the thousands
        w = b * dx / D
        top = int(np.argmax(np.concatenate(([0.0], np.cumsum(w)))))
        rho = np.exp([math.fsum(w[top:i]) if i >= top else -math.fsum(w[i:top])
                      for i in range(n)])
        residual = pde._tridiag_matvec(lower, diag, upper, rho)
        assert np.max(np.abs(residual)) <= 1e-13 * np.max(np.abs(diag * rho))
        column_sums = diag.copy()
        column_sums[:-1] += lower
        column_sums[1:] += upper
        assert np.all(np.abs(column_sums) <= 1e-13 * np.abs(diag))

    @settings(max_examples=60, deadline=None)
    @given(w=hnp.arrays(float, st.integers(2, 60), elements=peclet(1000.0)),
           D=st.floats(1e-2, 1e2), dx=st.floats(1e-3, 1.0))
    def test_chang_cooper_rates_are_bernoulli_rates(self, w, D, dx):
        # past expm1's overflow at w = 709.8 too: no floating-point exception,
        # and both rates finite and positive (the off-diagonals of an M-matrix)
        b = w * D / dx
        with np.errstate(all="raise"):
            lower, diag, upper = pde._fp_operator(b, D, dx, b.size + 1)
        for rate in (lower, upper):
            assert np.all(np.isfinite(rate)) and np.all(rate > 0.0)
        # B(-w) - B(w) = w, to a few ulps of the larger rate
        w = w[np.abs(w) <= 30.0]
        into, out = pde._bernoulli(-w), pde._bernoulli(w)
        assert np.all(np.abs(into - out - w) <= 4 * np.spacing(np.maximum(into, out)))

    @settings(max_examples=200, deadline=None)
    @given(w=st.one_of(st.floats(-745.0, 745.0), st.floats(695.0, 720.0),
                       st.sampled_from([700.0, 700.0000000000001, 705.0, 709.7, 709.78,
                                        714.97, 745.0, -745.0, 5e-324, -5e-324])))
    def test_bernoulli_matches_a_decimal_reference(self, w):
        # within 2 ulps of w/(e^w - 1) wherever that is a normal double; past
        # w = 714.97, where it is not, B is the smallest normal double
        want = bernoulli_reference(w)
        got = float(pde._bernoulli(np.array([w]))[0])
        if want >= np.finfo(float).tiny:
            assert abs(got - want) <= 2 * np.spacing(want)
        else:
            assert got == np.finfo(float).tiny

    def test_rates_past_the_double_range_take_the_lapack_march(self):
        # face Peclet numbers of 720 and 1000: the rate ratio e^w overflows,
        # which refuses the symmetric march without a floating-point exception
        b = np.array([720.0, -1000.0, 3.0])
        with np.errstate(all="raise"):
            lower, _, upper = pde._fp_operator(b, 1.0, 1.0, b.size + 1)
            assert np.all(lower > 0.0) and np.all(upper > 0.0)
            assert pde._symmetrize(lower, upper) is None

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), gamma=st.floats(0.0, 4.0),
           shift=st.floats(-50.0, 50.0))
    def test_cayley_march_preserves_inner_products(self, seed, gamma, shift):
        # two random states excite every grid mode; the Cayley march must
        # keep both l2 norms and their inner product, not just the ledger.
        # edge_tol > 1 disables the escape guard
        g = self.grid
        rng = np.random.default_rng(seed)
        omega = ScalarField(g, 0.5 * gamma**2 * g.x**2 + shift)
        start, end = [], []
        for _ in range(2):
            psi = rng.normal(size=g.n) + 1j * rng.normal(size=g.n)
            psi /= np.sqrt(trapezoid(np.abs(psi) ** 2, dx=g.dx))
            problem = SchrodingerProblem(grid=g, psi0=ComplexField(g, psi), Omega=omega,
                                         D=1.0, dt=1e-2, t_end=0.1, edge_tol=1.5)
            start.append(psi)
            end.append(solve_schrodinger(problem).psis[-1].values)
        for a0, a1 in zip(start, end):
            norm0 = np.linalg.norm(a0) * np.sqrt(g.dx)
            assert abs(np.linalg.norm(a1) * np.sqrt(g.dx) - norm0) <= 1e-13
        overlap = np.vdot(end[0], end[1]) - np.vdot(start[0], start[1])
        assert abs(overlap) * g.dx <= 1e-13

    def test_nan_drift_fails_the_mass_ledger(self):
        drift = SmoluchowskiDrift(lambda x: np.where(np.abs(x) < 1.0, np.nan, 0.0))
        problem = FokkerPlanckProblem(grid=self.grid, rho0=initial_density(self.grid),
                                      drift=drift, D=1.0, dt=1e-3, t_end=0.01)
        # a NaN rate sends the static march to LU before any log or sqrt of it
        with pytest.raises(SolverError, match="mass ledger"), \
                np.errstate(divide="raise", invalid="raise"):
            solve_fokker_planck(problem)

    @pytest.mark.parametrize("drift", [ZeroDrift(), AnalyticRecoilDrift(P1)],
                             ids=["static", "time_dependent"])
    def test_singular_step_matrix_raises(self, drift, monkeypatch):
        # an operator with A = (2/dt) I makes I - dt/2 A exactly zero
        dt = 1e-2

        def singular(bhalf, D, dx, n):
            return np.zeros(n - 1), np.full(n, 2.0 / dt), np.zeros(n - 1)

        monkeypatch.setattr(pde, "_fp_operator", singular)
        problem = FokkerPlanckProblem(grid=self.grid, rho0=initial_density(self.grid),
                                      drift=drift, D=1.0, dt=dt, t_end=0.1)
        # zero rates send the static march to LU before any log of them
        with pytest.raises(SolverError, match="singular"), \
                np.errstate(divide="raise", invalid="raise"):
            solve_fokker_planck(problem)


    def test_a_step_matrix_that_is_not_positive_definite_raises(self, monkeypatch):
        # positive rates with A_ii = 2/dt: the symmetric march is chosen, and
        # dpttrf meets the zero pivot of I - dt/2 S^-1 A S
        dt = 1e-2

        def indefinite(bhalf, D, dx, n):
            return np.ones(n - 1), np.full(n, 2.0 / dt), np.ones(n - 1)

        monkeypatch.setattr(pde, "_fp_operator", indefinite)
        problem = FokkerPlanckProblem(grid=self.grid, rho0=initial_density(self.grid),
                                      drift=ZeroDrift(), D=1.0, dt=dt, t_end=0.1)
        with pytest.raises(SolverError, match="dpttrf: step matrix is singular"):
            solve_fokker_planck(problem)


class TestMadelung:
    def test_real_wave_has_no_current(self, recoil_wave):
        h = madelung_decompose(recoil_wave, 0.0)
        assert np.max(np.abs(h.v.values)) < 1e-11
        band = h.rho.values >= 1e-6 * np.max(h.rho.values)
        x = h.grid.x[band]
        assert np.max(np.abs(h.b.values[band] + 2.0 * x)) < 1e-11

    def test_velocities_of_the_spreading_cloud(self, recoil_wave, free_recoil):
        h = madelung_decompose(recoil_wave, 1.0)
        x = h.grid.x
        peak = np.max(h.rho.values)
        core = h.rho.values >= 1e-2 * peak
        wide = h.rho.values >= 1e-6 * peak
        v_err = np.abs(h.v.values - free_recoil.v(x, 1.0))
        b_err = np.abs(h.b.values - free_recoil.b(x, 1.0))
        assert np.max(v_err[core]) < 5e-4
        assert np.max(b_err[core]) < 3e-3
        assert np.max(v_err[wide]) < 4e-3
        assert np.max(b_err[wide]) < 2e-2

    def test_drift_decomposition_is_exact_by_construction(self, recoil_wave):
        h = madelung_decompose(recoil_wave, 0.5)
        np.testing.assert_array_equal(h.b.values, h.v.values + h.u.values)

    def test_underresolved_phase_raises(self):
        # phase steps of 0.96 pi per node alias; the decomposition must
        # refuse rather than return a wrong drift
        g = Grid1D(-1.0, 1.0, 101)
        theta = 0.96 * np.pi * np.arange(g.n)
        psi = np.sqrt(0.5) * np.exp(1j * theta)
        wave = WaveSolution(grid=g, times=np.array([0.0]),
                            psis=[ComplexField(g, psi)], D=1.0, Omega=None,
                            drift_table=None, norm_drift_max=0.0)
        with pytest.raises(MadelungError):
            madelung_decompose(wave, 0.0)


class TestDriftExtraction:
    def test_initial_drift_is_osmotic(self):
        g = Grid1D(-16.0, 16.0, 801)
        problem = build_recoil_problem(initial_density(g), None, D=1.0,
                                       dt=1e-3, t_end=0.1, snapshot_stride=50,
                                       drift_stride=50)
        wave = solve_schrodinger(problem)
        probe = np.array([-1.2, 0.5, 2.0])
        np.testing.assert_allclose(wave.drift_table(probe, 0.0), -2.0 * probe,
                                   rtol=0, atol=1e-9)

    def test_tabulate_drift_matches_the_streamed_table(self):
        g = Grid1D(-16.0, 16.0, 801)
        problem = build_recoil_problem(initial_density(g), None, D=1.0,
                                       dt=1e-3, t_end=0.1, snapshot_stride=50,
                                       drift_stride=50)
        wave = solve_schrodinger(problem)
        rebuilt = tabulate_drift(wave)
        np.testing.assert_array_equal(rebuilt.times, wave.drift_table.times)
        np.testing.assert_array_equal(rebuilt.values, wave.drift_table.values)

    def test_the_table_is_built_in_place(self):
        # 401 drift rows of a 2001-node wave and two stored waves. The traced
        # peak stays below one table plus the stored psi plus half a table
        # of slack, which a solve holding the rows and a copy of them at once
        # would exceed on its own
        g = Grid1D(-16.0, 16.0, 2001)
        problem = build_recoil_problem(initial_density(g), None, D=1.0,
                                       dt=1e-3, t_end=0.4, snapshot_stride=400,
                                       drift_stride=1)
        tracemalloc.start()
        try:
            wave = solve_schrodinger(problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        table = wave.drift_table.values
        assert table.shape == (401, g.n)
        assert peak < 1.5 * table.nbytes + sum(f.values.nbytes for f in wave.psis)

    def test_an_underresolved_phase_stops_the_drift_rows(self):
        # the rows take the unwrap and phase check of madelung_decompose
        g = Grid1D(-1.0, 1.0, 101)
        psi = ComplexField(g, np.sqrt(0.5) * np.exp(0.96j * np.pi * np.arange(g.n)))
        wave = WaveSolution(grid=g, times=np.array([0.0, 1.0]), psis=[psi, psi], D=1.0,
                            Omega=None, drift_table=None, norm_drift_max=0.0)
        with pytest.raises(MadelungError, match="refine the grid"):
            tabulate_drift(wave)
        problem = SchrodingerProblem(grid=g, psi0=psi, Omega=None, D=1.0, dt=1e-3,
                                     t_end=1e-3, drift_stride=1)
        with pytest.raises(MadelungError, match="refine the grid"):
            solve_schrodinger(problem)
