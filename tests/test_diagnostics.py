"""Observables: msd extraction, energy budgets, dispersion classification,
and field distances."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from recoillab.artifacts import _json_blocks
from recoillab.core import Grid1D, PhysicalParams, ScalarField
from recoillab.analytic import (
    FreeBrownianSolution,
    FreeRecoilSolution,
    HarmonicRecoilSolution,
)
from recoillab.diagnostics import (
    DispersionRegime,
    MsdSeries,
    classify_dispersion,
    compare_fields,
    energy_report,
    msd_from_ensemble,
    msd_from_fields,
)
from recoillab.sde import EnsembleState, empirical_moments

from helpers import exact_slice

P1 = PhysicalParams(D=1.0, alpha=1.0)
RECOIL = FreeRecoilSolution(P1)


class TestMsdSeries:
    def test_validation(self):
        t = np.array([0.0, 1.0, 2.0])
        v = np.array([0.5, 1.0, 2.0])
        with pytest.raises(ValueError, match="equal length"):
            MsdSeries(t, v[:2])
        with pytest.raises(ValueError, match="strictly increasing"):
            MsdSeries(t[::-1], v)
        with pytest.raises(ValueError, match=">= 0"):
            MsdSeries(t, -v)
        with pytest.raises(ValueError, match="stderr"):
            MsdSeries(t, v, stderr=np.array([0.1]))


class TestMsdFromFields:
    def test_recoil_slices_reproduce_closed_form(self):
        g = Grid1D(-24.0, 24.0, 4801)
        times = [0.0, 1.0]
        rhos = [ScalarField(g, RECOIL.rho(g.x, t)) for t in times]
        series = msd_from_fields(times, rhos)
        np.testing.assert_allclose(series.values, [0.5, 2.5], rtol=0, atol=1e-8)

    def test_point_mass_has_zero_spread(self):
        g = Grid1D(-2.0, 2.0, 401)
        vals = np.zeros(g.n)
        vals[g.n // 2] = 1.0 / g.dx
        series = msd_from_fields([0.0], [ScalarField(g, vals)])
        assert series.values[0] == pytest.approx(0.0, abs=1e-12)

    def test_renormalizes_by_slice_mass(self):
        g = Grid1D(-24.0, 24.0, 4801)
        rho = RECOIL.rho(g.x, 1.0)
        a = msd_from_fields([1.0], [ScalarField(g, rho)])
        b = msd_from_fields([1.0], [ScalarField(g, 0.5 * rho)])
        assert b.values[0] == pytest.approx(a.values[0], rel=1e-14)

    def test_rejects_empty_slice(self):
        g = Grid1D(-2.0, 2.0, 401)
        with pytest.raises(ValueError, match="mass"):
            msd_from_fields([0.0], [ScalarField(g, np.zeros(g.n))])


class TestMsdFromEnsemble:
    def test_matches_raw_second_moments(self):
        rng = np.random.default_rng(12)
        states = [EnsembleState(t=float(t), positions=rng.normal(size=4000))
                  for t in (0.0, 1.0)]
        series = msd_from_ensemble(states)
        for state, value, err in zip(states, series.values, series.stderr):
            m = empirical_moments(state, orders=(2,))[2]
            assert value == m.value
            assert err == m.stderr


class TestEnergyReport:
    def grid(self):
        return Grid1D(-24.0, 24.0, 4801)

    def test_recoil_budget_is_conserved(self):
        g = self.grid()
        slices = [exact_slice(RECOIL, g, t) for t in (0.0, 0.5, 1.0, 2.0)]
        report = energy_report(slices)
        np.testing.assert_allclose(report.total, 1.0, rtol=0, atol=1e-6)
        assert report.kinetic[0] == pytest.approx(0.0, abs=1e-8)
        assert report.osmotic[0] == pytest.approx(1.0, abs=1e-6)
        assert report.kinetic[2] == pytest.approx(0.8, abs=1e-6)
        assert np.max(np.abs(report.potential)) == 0.0

    def test_brownian_kinetic_energy_decays_hyperbolically(self):
        g = self.grid()
        sol = FreeBrownianSolution(P1)
        t = 0.75  # tau = 1
        report = energy_report([exact_slice(sol, g, t)])
        assert report.kinetic[0] == pytest.approx(0.25, abs=1e-8)


class TestClassifyDispersion:
    # every route's series starts at t = 0 with msd(0) = alpha^2/2 > 0; the
    # window is [t_end/10, t_end] and the fit reads the excess msd - msd(0)

    def recoil_series(self):
        t = np.linspace(0.0, 1.0, 11)
        return MsdSeries(t, RECOIL.msd(t))

    def test_recoil_spreading_is_enhanced(self):
        verdict = classify_dispersion(self.recoil_series())
        assert verdict.regime is DispersionRegime.ENHANCED
        assert verdict.exponent == pytest.approx(2.0, abs=1e-9)
        assert verdict.exponent_ci == pytest.approx(0.0, abs=1e-6)
        assert verdict.bound is None
        assert verdict.window == (pytest.approx(0.1), 1.0)

    def test_brownian_spreading_is_normal(self):
        t = np.linspace(0.0, 1.0, 11)
        series = MsdSeries(t, FreeBrownianSolution(P1).msd(t))
        verdict = classify_dispersion(series)
        assert verdict.regime is DispersionRegime.NORMAL
        assert verdict.exponent == pytest.approx(1.0, abs=1e-9)

    def test_matched_width_is_non_dispersive(self):
        sol = HarmonicRecoilSolution(PhysicalParams(D=1.0, alpha=1.0, gamma=2.0))
        t = np.linspace(0.0, 3.0, 40)
        series = MsdSeries(t, sol.msd(t))
        verdict = classify_dispersion(series)
        assert verdict.regime is DispersionRegime.NON_DISPERSIVE
        assert verdict.exponent is None
        assert verdict.bound == pytest.approx(0.5, rel=1e-12)

    def test_breathing_width_is_non_dispersive(self):
        sol = HarmonicRecoilSolution(PhysicalParams(D=1.0, alpha=1.0, gamma=1.0))
        t = np.linspace(0.0, 30.0, 301)
        series = MsdSeries(t, sol.msd(t))
        verdict = classify_dispersion(series, flat_ratio=4.5)
        assert verdict.regime is DispersionRegime.NON_DISPERSIVE
        # sampled peak; the true max of the width oscillation is 2.0
        assert 1.99 < verdict.bound <= 2.0

    def test_time_rescaling_leaves_exponent_alone(self):
        t = np.linspace(0.0, 1.0, 5)
        noisy = RECOIL.msd(t) * (1.0 + 0.01 * np.array([0, 1, -1, 2, -2]))
        a = classify_dispersion(MsdSeries(t, noisy))
        b = classify_dispersion(MsdSeries(3.0 * t, noisy))
        assert b.exponent == pytest.approx(a.exponent, rel=1e-12)
        assert b.exponent_ci == pytest.approx(a.exponent_ci, rel=1e-9)
        assert b.regime is a.regime is DispersionRegime.ENHANCED
        assert b.window == (pytest.approx(0.75), 3.0)

    def test_too_few_samples_in_window(self):
        # the window [0.1, 1] holds only t = 1
        t = np.array([0.0, 0.05, 1.0])
        series = MsdSeries(t, RECOIL.msd(t))
        verdict = classify_dispersion(series)
        assert verdict.regime is DispersionRegime.TOO_SHORT
        assert verdict.exponent is None and verdict.bound is None
        assert verdict.window == (1.0, 1.0)

    def test_two_samples_give_no_confidence_interval(self):
        # two points fit exactly; a half-width of 0 would claim a certainty
        t = np.array([0.0, 0.25, 0.5])
        verdict = classify_dispersion(MsdSeries(t, RECOIL.msd(t)))
        assert verdict.regime is DispersionRegime.ENHANCED
        assert verdict.exponent == pytest.approx(2.0, abs=1e-9)
        assert verdict.exponent_ci is None

    def test_out_of_band_exponent_carries_the_fit(self):
        t = np.linspace(0.0, 100.0, 101)
        series = MsdSeries(t, 0.5 + t**1.5)
        verdict = classify_dispersion(series)
        assert verdict.regime is DispersionRegime.AMBIGUOUS
        assert verdict.exponent == pytest.approx(1.5, abs=1e-9)
        assert verdict.exponent_ci == pytest.approx(0.0, abs=1e-6)

    def test_shrinking_series_is_ambiguous_without_a_fit(self):
        # OU from a wide start: msd falls from 2 towards D/gamma = 0.25,
        # past the flat ratio, so the excess is negative in the window
        t = np.linspace(0.0, 1.0, 11)
        series = MsdSeries(t, 0.25 + 1.75 * np.exp(-8.0 * t))
        verdict = classify_dispersion(series)
        assert verdict.regime is DispersionRegime.AMBIGUOUS
        assert verdict.exponent is None and verdict.exponent_ci is None
        assert verdict.window == (pytest.approx(0.1), 1.0)

    def test_as_dict_keys(self):
        # report.json holds each verdict as dataclasses.asdict, the regime
        # written as its value
        t = np.linspace(0.0, 1.0, 11)
        series = [self.recoil_series(),            # enhanced
                  MsdSeries(t, 0.5 + 2 * t),       # normal
                  MsdSeries(t, 0.5 + 0.0 * t),     # non_dispersive
                  MsdSeries(t, 0.5 + 10 * t**3),   # ambiguous
                  MsdSeries(t[:1], t[:1])]         # too_short
        dicts = [json.loads(b"".join(_json_blocks(asdict(classify_dispersion(s)))))
                 for s in series]
        assert [d["regime"] for d in dicts] == [r.value for r in DispersionRegime]
        for d in dicts:
            assert set(d) == {"regime", "exponent", "exponent_ci", "bound", "window"}


class TestCompareFields:
    def test_identical_fields_have_zero_distance(self):
        g = Grid1D(-12.0, 12.0, 1201)
        f = ScalarField(g, RECOIL.rho(g.x, 1.0))
        c = compare_fields(f, f)
        assert c.l1 == 0.0 and c.l2 == 0.0 and c.linf == 0.0
        assert all(m == 0.0 for m in c.moment_rel_err)

    def test_constant_offset_distances(self):
        g = Grid1D(-2.0, 2.0, 401)
        ref = ScalarField(g, np.zeros(g.n))
        shifted = ScalarField(g, np.full(g.n, 0.1))
        c = compare_fields(shifted, ref)
        assert c.l1 == pytest.approx(0.4, rel=1e-12)
        assert c.l2 == pytest.approx(0.1 * 2.0, rel=1e-12)
        assert c.linf == pytest.approx(0.1, rel=1e-12)

    def test_grid_mismatch_rejected(self):
        a = ScalarField(Grid1D(-1.0, 1.0, 101), np.zeros(101))
        b = ScalarField(Grid1D(-1.0, 1.0, 102), np.zeros(102))
        with pytest.raises(ValueError, match="share a grid"):
            compare_fields(a, b)
