"""Acceptance gate: one test per shipped guarantee, each enforcing its
stated tolerance. Run with -v to see the full checklist."""

import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from recoillab.core import Grid1D, PhysicalParams, ScalarField, gradient, integrate
from recoillab.analytic import FreeBrownianSolution, FreeRecoilSolution
from recoillab.artifacts import compare_runs
from recoillab.diagnostics import energy_report, msd_from_ensemble
from recoillab.fieldcalc import (
    SignConvention,
    drift_potential,
    girsanov_residual,
    hj_residual,
    momentum_residual,
    time_derivative,
)
from recoillab.pde import madelung_decompose
from recoillab.sde import kde_density

from helpers import exact_slice, snapshot_at, wave_density, wave_msd

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SMOKE_SPEC = os.path.join(REPO_ROOT, "specs", "smoke_free_recoil.cfg")


def refined_peaks(times, values):
    """Local maxima with parabolic sub-sample refinement."""
    peaks = []
    for i in range(1, len(values) - 1):
        if values[i] >= values[i - 1] and values[i] > values[i + 1]:
            y0, y1, y2 = values[i - 1], values[i], values[i + 1]
            shift = 0.5 * (y0 - y2) / (y0 - 2.0 * y1 + y2)
            dt = times[i] - times[i - 1]
            peaks.append((times[i] + shift * dt,
                          y1 - 0.25 * (y0 - y2) * shift))
    return peaks


def test_criterion_1_free_recoil_enhanced_diffusion_msd(
        recoil_wave, recoil_ensemble, free_recoil):
    # wave route: <x^2>(t) = 0.5 + 2 t^2 at t in {0.5, 1, 2}, rel err <= 1e-3
    series = wave_msd(recoil_wave)
    for t in (0.5, 1.0, 2.0):
        idx = int(np.argmin(np.abs(series.times - t)))
        assert series.times[idx] == pytest.approx(t, abs=1e-12)
        exact = free_recoil.msd(t)
        assert abs(series.values[idx] - exact) / exact < 1e-3

    # particle route (tabulated Madelung drift): within 3 jackknife SEs
    ens = msd_from_ensemble(recoil_ensemble)
    for t in (0.5, 1.0, 2.0):
        idx = int(np.argmin(np.abs(ens.times - t)))
        exact = free_recoil.msd(t)
        assert abs(ens.values[idx] - exact) < 3.0 * ens.stderr[idx]


def test_criterion_2_kinetic_energy_growth_and_asymptote(wide_wave):
    # kinetic(1) = 0.8 +- 1e-3, monotone growth, kinetic(20) within 0.5%
    # of the total energy 1.0
    report = energy_report(
        [madelung_decompose(wide_wave, float(t)) for t in wide_wave.times])
    k_at = dict(zip(report.times, report.kinetic))
    assert abs(k_at[1.0] - 0.8) < 1e-3
    assert np.all(np.diff(report.kinetic) > 0)
    assert abs(k_at[20.0] - 1.0) < 0.005


def test_criterion_3_total_energy_conservation(recoil_wave, breathing_wave):
    # free recoil: integral (v^2/2 - Q) rho dx stays at 1.0 on every slice
    free = energy_report(
        [madelung_decompose(recoil_wave, float(t)) for t in recoil_wave.times])
    assert np.max(np.abs(free.total - 1.0)) <= 1e-3

    # harmonic recoil: the Omega-including total is constant over [0, 3 pi]
    confined = energy_report(
        [madelung_decompose(breathing_wave, float(t)) for t in breathing_wave.times])
    assert np.max(confined.total) - np.min(confined.total) <= 1e-3


def test_criterion_4_non_dispersive_confined_widths(matched_wave, breathing_wave):
    # matched width (gamma = 2, alpha = 1): flat to better than 1e-5
    matched = wave_msd(matched_wave)
    assert np.max(matched.values) / np.min(matched.values) < 1.0 + 1e-5

    # breathing width (gamma = 1): period pi +- 1%, peak 2.0 +- 1e-3,
    # cross-checked against an independently integrated width equation
    def width_ode(t, y):
        return [y[1], 1.0 / y[0] ** 3 - y[0]]

    oracle = solve_ivp(width_ode, (0.0, 3.0 * np.pi + 0.2), [np.sqrt(0.5), 0.0],
                       method="DOP853", rtol=1e-12, atol=1e-12, dense_output=True)
    t_dense = np.linspace(0.0, 3.0 * np.pi, 20001)
    oracle_peaks = refined_peaks(t_dense, oracle.sol(t_dense)[0] ** 2)
    assert len(oracle_peaks) == 3
    assert oracle_peaks[0][1] == pytest.approx(2.0, abs=1e-6)
    oracle_period = (oracle_peaks[2][0] - oracle_peaks[0][0]) / 2.0
    assert oracle_period == pytest.approx(np.pi, rel=1e-6)

    series = wave_msd(breathing_wave)
    peaks = refined_peaks(series.times, series.values)
    assert len(peaks) == 3
    for _, value in peaks:
        assert abs(value - 2.0) < 1e-3
    period = (peaks[2][0] - peaks[0][0]) / 2.0
    assert abs(period - np.pi) / np.pi < 0.01


def test_criterion_5_brownian_controls(zero_drift_snapshots, ou_fp, ou_params):
    # zero-drift ensemble (1e6 particles): fitted msd slope = 2D +- 1%
    series = msd_from_ensemble(zero_drift_snapshots)
    slope = np.polyfit(series.times, series.values, 1)[0]
    assert abs(slope - 2.0) / 2.0 < 0.01

    # confined transport solve: stationary variance D/gamma +- 1e-4
    g = ou_fp.grid
    final = ou_fp.rho_at(10.0)
    var = integrate(ScalarField(g, g.x**2 * final.values))
    assert abs(var - ou_params.D / ou_params.gamma) < 1e-4


def test_criterion_6_residual_suite():
    p = PhysicalParams(D=1.0, alpha=1.0)
    recoil = FreeRecoilSolution(p)
    brownian = FreeBrownianSolution(p)

    # exact route: closed-form fields and closed-form time derivatives
    g = Grid1D(-12.0, 12.0, 2401)
    t = 0.5
    h = exact_slice(recoil, g, t)
    deriv = recoil.time_derivatives(g.x, t)
    hj = hj_residual(h, ScalarField(g, deriv["dS_dt"]), SignConvention.RECOIL)
    mom = momentum_residual(h, ScalarField(g, deriv["dv_dt"]), SignConvention.RECOIL)
    omega_r = ScalarField(g, 2.0 * h.Q.values)
    gir = girsanov_residual(h, ScalarField(g, deriv["dphi_dt"]), omega_r, p.D)
    den = 1.0 + 4.0 * t**2
    div_j = h.rho.values * (4.0 * t / den + h.v.values * (-2.0 * g.x / den))
    cont = h.rho.values * deriv["dlnrho_dt"] + div_j
    for res in (hj.values, mom.values, gir.values, cont):
        assert np.max(np.abs(res)) <= 1e-8

    gb = Grid1D(-16.0, 16.0, 1601)
    tb = 0.75
    hb = exact_slice(brownian, gb, tb)
    db = brownian.time_derivatives(gb.x, tb)
    hj_b = hj_residual(hb, ScalarField(gb, db["dS_dt"]), SignConvention.STANDARD)
    mom_b = momentum_residual(hb, ScalarField(gb, db["dv_dt"]), SignConvention.STANDARD)
    assert np.max(np.abs(hj_b.values)) <= 1e-8
    assert np.max(np.abs(mom_b.values)) <= 1e-8

    # mesh route: centered-difference slices; refining the space-time mesh
    # by two shrinks every residual by ~4 (second-order scheme)
    def mesh_residuals(n, dt):
        grid = Grid1D(-12.0, 12.0, n)
        prev, mid, nxt = (exact_slice(recoil, grid, tt) for tt in (t - dt, t, t + dt))
        span = nxt.t - prev.t
        dS_dt = time_derivative(prev.S, nxt.S, span)
        dv_dt = time_derivative(prev.v, nxt.v, span)
        dphi_dt = time_derivative(drift_potential(prev, p.D), drift_potential(nxt, p.D), span)
        omega_r = ScalarField(grid, 2.0 * mid.Q.values)
        j = ScalarField(grid, mid.rho.values * mid.v.values)
        cont = time_derivative(prev.rho, nxt.rho, 2.0 * dt).values + gradient(j).values
        return {
            "hj": np.max(np.abs(hj_residual(mid, dS_dt, SignConvention.RECOIL).values)),
            "momentum": np.max(np.abs(momentum_residual(
                mid, dv_dt, SignConvention.RECOIL).values)),
            "girsanov": np.max(np.abs(girsanov_residual(mid, dphi_dt, omega_r, p.D).values)),
            "continuity": np.max(np.abs(cont)),
        }

    coarse = mesh_residuals(1201, 2e-2)
    fine = mesh_residuals(2401, 1e-2)
    for key in coarse:
        ratio = coarse[key] / fine[key]
        assert 3.0 < ratio < 5.5, f"{key}: ratio {ratio}"


def test_criterion_7_consistency_triangle(recoil_wave, recoil_fp, recoil_ensemble):
    g = recoil_wave.grid
    wave_rho = wave_density(recoil_wave, 1.0)
    fp_rho = recoil_fp.rho_at(1.0).values
    kde_rho = kde_density(snapshot_at(recoil_ensemble, 1.0), g).values

    def l1(a, b):
        return integrate(ScalarField(g, np.abs(a - b)))

    assert l1(wave_rho, fp_rho) <= 2e-2
    assert l1(wave_rho, kde_rho) <= 2e-2
    assert l1(fp_rho, kde_rho) <= 2e-2


def test_criterion_8_asymptotic_velocity_ratio():
    p = PhysicalParams(D=1.0, alpha=1.0)
    x = Grid1D(-200.0, 200.0, 2001).x
    t = 50.0

    def fitted_ratio(v):
        slope = float(np.dot(x, v) / np.dot(x, x))
        return slope * t

    recoil = fitted_ratio(FreeRecoilSolution(p).v(x, t))
    brownian = fitted_ratio(FreeBrownianSolution(p).v(x, t))
    assert abs(recoil - 1.0) < 0.01
    assert abs(brownian - 0.5) / 0.5 < 0.01


def test_criterion_9_byte_identical_reproducibility(tmp_path):
    # same committed spec, same seed, different thread-count environment:
    # every artifact hash must agree
    dirs = []
    for threads in ("1", "8"):
        out = tmp_path / f"threads_{threads}"
        env = dict(os.environ, RECOILLAB_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "recoillab.cli", "run", SMOKE_SPEC,
             "--out", str(out)],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        dirs.append(out)
    assert compare_runs(str(dirs[0]), str(dirs[1])) == 0
