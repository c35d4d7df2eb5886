"""Observables: msd extraction, energy budgets, dispersion classification,
and field distances."""

import numpy as np
import pytest

from recoillab.core import Grid1D, PhysicalParams, ScalarField
from recoillab.analytic import (
    FreeBrownianSolution,
    FreeRecoilSolution,
    HarmonicRecoilSolution,
)
from recoillab.diagnostics import (
    DispersionFitError,
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
            MsdSeries(t, v[:2], source="pde")
        with pytest.raises(ValueError, match="strictly increasing"):
            MsdSeries(t[::-1], v, source="pde")
        with pytest.raises(ValueError, match=">= 0"):
            MsdSeries(t, -v, source="pde")
        with pytest.raises(ValueError, match="source"):
            MsdSeries(t, v, source="magic")
        with pytest.raises(ValueError, match="stderr"):
            MsdSeries(t, v, source="sde", stderr=np.array([0.1]))

    def test_as_dict_round_trip(self):
        s = MsdSeries(np.array([0.0, 1.0]), np.array([0.5, 2.5]), source="analytic")
        d = s.as_dict()
        assert d["times"] == [0.0, 1.0]
        assert d["values"] == [0.5, 2.5]
        assert d["source"] == "analytic"


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
        assert series.source == "sde"


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

    def test_slices_are_sorted_by_time(self):
        g = self.grid()
        slices = [exact_slice(RECOIL, g, t) for t in (2.0, 0.0, 1.0)]
        report = energy_report(slices)
        np.testing.assert_array_equal(report.times, [0.0, 1.0, 2.0])

    def test_brownian_kinetic_energy_decays_hyperbolically(self):
        g = self.grid()
        sol = FreeBrownianSolution(P1)
        t = 0.75  # tau = 1
        report = energy_report([exact_slice(sol, g, t)])
        assert report.kinetic[0] == pytest.approx(0.25, abs=1e-8)

    def test_as_dict_keys(self):
        g = self.grid()
        d = energy_report([exact_slice(RECOIL, g, 0.0)]).as_dict()
        assert set(d) == {"times", "kinetic", "osmotic", "potential", "total"}


class TestClassifyDispersion:
    crossover = 0.5  # alpha^2 / (2 D)

    def recoil_series(self, scale=1.0):
        t = np.linspace(1.0, 100.0, 100)
        return MsdSeries(scale * t, RECOIL.msd(t), source="analytic")

    def test_recoil_spreading_is_enhanced(self):
        verdict = classify_dispersion(self.recoil_series(), self.crossover)
        assert verdict.regime is DispersionRegime.ENHANCED
        assert verdict.exponent == pytest.approx(2.0, abs=0.02)
        assert verdict.bound is None

    def test_brownian_spreading_is_normal(self):
        t = np.linspace(5.0, 500.0, 100)
        sol = FreeBrownianSolution(P1)
        series = MsdSeries(t, sol.msd(t), source="analytic")
        verdict = classify_dispersion(series, self.crossover)
        assert verdict.regime is DispersionRegime.NORMAL
        assert verdict.exponent == pytest.approx(1.0, abs=0.02)

    def test_matched_width_is_non_dispersive(self):
        # bounded series: flat verdict wins even on a sub-decade window
        sol = HarmonicRecoilSolution(PhysicalParams(D=1.0, alpha=1.0, gamma=2.0))
        t = np.linspace(1.0, 3.0, 40)
        series = MsdSeries(t, sol.msd(t), source="analytic")
        verdict = classify_dispersion(series, self.crossover)
        assert verdict.regime is DispersionRegime.NON_DISPERSIVE
        assert verdict.exponent is None
        assert verdict.bound == pytest.approx(0.5, rel=1e-12)

    def test_breathing_width_is_non_dispersive(self):
        sol = HarmonicRecoilSolution(PhysicalParams(D=1.0, alpha=1.0, gamma=1.0))
        t = np.linspace(1.0, 30.0, 300)
        series = MsdSeries(t, sol.msd(t), source="analytic")
        verdict = classify_dispersion(series, self.crossover, flat_ratio=4.5)
        assert verdict.regime is DispersionRegime.NON_DISPERSIVE
        # sampled peak; the true max of the width oscillation is 2.0
        assert 1.99 < verdict.bound <= 2.0

    def test_time_rescaling_leaves_exponent_alone(self):
        a = classify_dispersion(self.recoil_series(), self.crossover)
        b = classify_dispersion(self.recoil_series(scale=3.0), 3.0 * self.crossover)
        assert b.exponent == pytest.approx(a.exponent, rel=1e-12)
        assert b.regime is a.regime

    def test_too_few_samples_past_crossover(self):
        with pytest.raises(DispersionFitError, match="need >= 4"):
            classify_dispersion(self.recoil_series(), crossover=99.0)

    def test_sub_decade_window_refused_for_growing_series(self):
        t = np.linspace(1.0, 5.0, 40)
        series = MsdSeries(t, RECOIL.msd(t), source="analytic")
        with pytest.raises(DispersionFitError, match="decade"):
            classify_dispersion(series, self.crossover)

    def test_out_of_band_exponent_carries_the_fit(self):
        t = np.linspace(1.0, 100.0, 100)
        series = MsdSeries(t, t**1.5, source="analytic")
        with pytest.raises(DispersionFitError, match="neither band") as exc:
            classify_dispersion(series, self.crossover)
        assert exc.value.exponent == pytest.approx(1.5, abs=1e-9)

    def test_crossover_must_be_positive(self):
        with pytest.raises(ValueError, match="crossover"):
            classify_dispersion(self.recoil_series(), crossover=0.0)

    def test_as_dict_keys(self):
        d = classify_dispersion(self.recoil_series(), self.crossover).as_dict()
        assert set(d) == {"regime", "exponent", "exponent_ci", "bound", "window"}
        assert d["regime"] == "enhanced"


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
