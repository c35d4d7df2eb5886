"""Particle sampling, evolution (Euler-Maruyama steps, exact linear jumps),
moments, and the kernel density estimator. Stochastic assertions use frozen
seeds with 3-4 sigma bands so they are deterministic."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import kstest, norm

from recoillab.core import Grid1D, PhysicalParams, ScalarField, gaussian_smooth, integrate
from recoillab.analytic import FreeRecoilSolution, ou_variance
from recoillab.sde import (
    AnalyticRecoilDrift,
    DriftDomainError,
    DriftSource,
    EnsembleState,
    LinearDrift,
    SdeConfig,
    SmoluchowskiDrift,
    TabulatedDrift,
    ZeroDrift,
    _LOOKUP_CHUNK,
    empirical_moments,
    evolve,
    kde_density,
    linear_transition,
    ou_drift,
    sample_initial,
    silverman_bandwidth,
)

from helpers import snapshot_at


class TestSampleInitial:
    def test_gaussian_cloud_moments(self, zero_drift_snapshots):
        # n = 1e6 draws: mean and <x^2> must sit inside 3 sigma of 0 and
        # alpha^2/2 = 0.5
        state = zero_drift_snapshots[0]
        m = empirical_moments(state, orders=(1, 2))
        assert abs(m[1].value) < 3.0 * m[1].stderr
        assert abs(m[2].value - 0.5) < 3.0 * m[2].stderr

    def test_same_seed_reproduces_positions(self):
        a = sample_initial(1.0, 1000, seed=3)
        b = sample_initial(1.0, 1000, seed=3)
        np.testing.assert_array_equal(a.positions, b.positions)
        c = sample_initial(1.0, 1000, seed=4)
        assert np.any(c.positions != a.positions)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            sample_initial(1.0, 0, seed=0)
        with pytest.raises(ValueError):
            sample_initial(-1.0, 10, seed=0)


class TestEvolve:
    params = PhysicalParams(D=1.0, alpha=1.0)

    def test_snapshot_schedule_includes_initial_and_final(self):
        state = sample_initial(1.0, 64, seed=0)
        config = SdeConfig(n_particles=64, dt=0.1, t_end=1.0, seed=0,
                           snapshot_stride=3)
        snaps = evolve(state, ZeroDrift(), self.params, config)
        times = [s.t for s in snaps]
        np.testing.assert_allclose(times, [0.0, 0.3, 0.6, 0.9, 1.0], atol=1e-12)
        assert all(s.n == 64 for s in snaps)

    def test_bitwise_reproducible(self):
        state = sample_initial(1.0, 256, seed=9)
        config = SdeConfig(n_particles=256, dt=0.01, t_end=0.5, seed=9)
        a = evolve(state, ZeroDrift(), self.params, config)
        b = evolve(state, ZeroDrift(), self.params, config)
        np.testing.assert_array_equal(a[-1].positions, b[-1].positions)

    def test_particle_count_mismatch_rejected(self):
        state = sample_initial(1.0, 64, seed=0)
        config = SdeConfig(n_particles=65, dt=0.1, t_end=1.0)
        with pytest.raises(ValueError, match="particles"):
            evolve(state, ZeroDrift(), self.params, config)

    def test_horizon_must_be_step_multiple(self):
        state = sample_initial(1.0, 64, seed=0)
        config = SdeConfig(n_particles=64, dt=0.1, t_end=1.05)
        with pytest.raises(ValueError, match="multiple"):
            evolve(state, ZeroDrift(), self.params, config)

    def test_free_diffusion_spread(self, zero_drift_snapshots):
        # <x^2>(1) = alpha^2/2 + 2Dt = 2.5 within 3 jackknife SEs
        state = snapshot_at(zero_drift_snapshots, 1.0)
        m2 = empirical_moments(state, orders=(2,))[2]
        assert abs(m2.value - 2.5) < 3.0 * m2.stderr

    def test_ou_ensemble_relaxes_to_stationary_variance(self):
        p = PhysicalParams(D=1.0, alpha=2.0, gamma=1.0)
        n = 10_000
        state = sample_initial(p.alpha, n, seed=11)
        config = SdeConfig(n_particles=n, dt=2e-3, t_end=6.0, seed=11,
                           snapshot_stride=3000)
        final = evolve(state, ou_drift(p), p, config)[-1]
        var = empirical_moments(final, orders=(2,))[2].value
        assert ou_variance(p, 6.0) == pytest.approx(1.0, abs=1e-5)
        assert abs(var - 1.0) < 0.06


class TestTabulatedDrift:
    def make(self):
        g = Grid1D(-2.0, 2.0, 21)
        times = np.array([0.0, 1.0])
        values = np.outer(times, g.x)  # b(x, t) = x t
        return TabulatedDrift(times, g, values), g

    def test_bilinear_interpolation_is_exact_on_bilinear_data(self):
        drift, _ = self.make()
        x = np.array([-1.3, 0.05, 1.77])
        np.testing.assert_array_equal(drift(x, 0.5), 0.5 * x)
        np.testing.assert_array_equal(drift(x, 1.0), x)

    def test_spatial_domain_exit_raises(self):
        drift, _ = self.make()
        with pytest.raises(DriftDomainError, match="outside drift domain"):
            drift(np.array([0.0, 2.5]), 0.5)

    def test_time_span_exit_raises(self):
        drift, _ = self.make()
        with pytest.raises(DriftDomainError, match="outside tabulated span"):
            drift(np.array([0.0]), 2.0)

    def test_table_validation(self):
        g = Grid1D(-2.0, 2.0, 21)
        with pytest.raises(ValueError, match="two tabulated times"):
            TabulatedDrift([0.0], g, np.zeros((1, g.n)))
        with pytest.raises(ValueError, match="strictly increasing"):
            TabulatedDrift([0.0, 0.0], g, np.zeros((2, g.n)))
        with pytest.raises(ValueError, match="strictly increasing"):
            TabulatedDrift([0.0, np.nan], g, np.zeros((2, g.n)))
        with pytest.raises(ValueError, match="shape"):
            TabulatedDrift([0.0, 1.0], g, np.zeros((2, g.n + 1)))
        bad = np.zeros((2, g.n))
        bad[1, 3] = np.inf
        with pytest.raises(ValueError, match="finite"):
            TabulatedDrift([0.0, 1.0], g, bad)


def interp_lookup(drift, x, t):
    """Reference bilinear lookup: the time blend of the two rows, then one
    np.interp binary search on the blended row, in the operation order
    TabulatedDrift must keep."""
    times = drift.times
    k = int(np.clip(np.searchsorted(times, t, side="right") - 1, 0, times.size - 2))
    w = min(max((t - times[k]) / (times[k + 1] - times[k]), 0.0), 1.0)
    f = (1.0 - w) * drift.values[k] + w * drift.values[k + 1]
    return np.interp(x, drift.grid.x, f)


@st.composite
def drift_tables(draw):
    """Random uniform grids and finite tables, signed zeros included."""
    x_min = draw(st.floats(-1e3, 1e3))
    width = draw(st.floats(1e-3, 1e3))
    n = draw(st.integers(8, 300))
    n_times = draw(st.integers(2, 5))
    steps = draw(hnp.arrays(float, n_times, elements=st.floats(1e-3, 10.0)))
    times = draw(st.floats(-10.0, 10.0)) + np.cumsum(steps)
    values = draw(hnp.arrays(float, (n_times, n),
                             elements=st.floats(-1e6, 1e6)))
    return TabulatedDrift(times, Grid1D(x_min, x_min + width, n), values)


def probe_points(grid, u):
    """Every node, both ends, the float neighbours of every node inside the
    domain, and a few interior points at fractions u of the span."""
    x = grid.x
    inside = np.concatenate([np.nextafter(x[1:], -np.inf), np.nextafter(x[:-1], np.inf)])
    spread = grid.x_min + np.asarray(u) * (grid.x_max - grid.x_min)
    return np.concatenate([x, [grid.x_min, grid.x_max], inside,
                           np.clip(spread, grid.x_min, grid.x_max)])


class TestTabulatedLookupIsBitExact:
    @settings(max_examples=80, deadline=None)
    @given(drift=drift_tables(), u=st.lists(st.floats(0.0, 1.0), max_size=50),
           frac=st.floats(0.0, 1.0))
    def test_matches_np_interp(self, drift, u, frac):
        x = probe_points(drift.grid, u)
        rng = np.random.default_rng(0)
        x = rng.permutation(x)
        t_inner = drift.times[0] + frac * (drift.times[-1] - drift.times[0])
        for t in (drift.times[0], drift.times[-1], t_inner, *drift.times[1:-1]):
            got = drift(x, t)
            assert got.tobytes() == interp_lookup(drift, x, t).tobytes()

    def test_nodes_keep_signed_zeros(self):
        # np.interp returns f_i itself on a node; slope * 0 + f_i would turn
        # a -0.0 entry into +0.0
        g = Grid1D(0.0, 1.0, 11)
        drift = TabulatedDrift([0.0, 1.0], g, np.stack([np.full(g.n, -0.0), -np.ones(g.n)]))
        x = np.concatenate([g.x, [0.55]])
        for t in (0.0, 1.0):
            got = drift(x, t)
            assert got.tobytes() == interp_lookup(drift, x, t).tobytes()

    def test_spans_several_chunks(self):
        # more points than one lookup pass takes, in shuffled order
        g = Grid1D(-3.0, 5.0, 1001)
        rng = np.random.default_rng(4)
        drift = TabulatedDrift([0.0, 0.5, 2.0], g, rng.normal(size=(3, g.n)))
        x = rng.uniform(g.x_min, g.x_max, 50_000)
        got = drift(x, 0.7)
        assert got.tobytes() == interp_lookup(drift, x, 0.7).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(drift=drift_tables(), side=st.sampled_from(["low", "high", "nan"]))
    def test_points_off_the_table_raise(self, drift, side):
        g = drift.grid
        bad = {"low": np.nextafter(g.x_min, -np.inf),
               "high": np.nextafter(g.x_max, np.inf),
               "nan": np.nan}[side]
        x = np.array([g.x_min, bad, g.x_max])
        with pytest.raises(DriftDomainError, match="1 particle"):
            drift(x, drift.times[0])


class TestLinearDrift:
    """``LinearDrift`` evaluates b = rate * x; ``ou_drift`` is its OU case."""

    params = PhysicalParams(D=0.7, alpha=1.0, gamma=1.3)
    x = np.random.default_rng(6).normal(0.0, 2.0, 5000)

    @pytest.mark.parametrize("rate", [-1.3, -0.2, 0.8])
    def test_call_is_rate_times_x(self, rate):
        assert LinearDrift(rate)(self.x, 0.35).tobytes() == (rate * self.x).tobytes()

    def test_ou_drift_is_linear_in_gamma(self):
        drift = ou_drift(self.params)
        assert isinstance(drift, LinearDrift) and drift.rate == -self.params.gamma
        assert not drift.time_dependent


class SineDrift(DriftSource):
    """A drift that only states __call__, so it marches through the base hook."""

    def __call__(self, x, t):
        return np.sin(x) * (1.0 + t)


def euler_maruyama_reference(state, drift_step, params, config):
    """The one-line update loop evolve() must reproduce bit for bit;
    drift_step(x, t, dt) returns x moved by the drift alone."""
    rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence([config.seed, 1])))
    sqrt_noise = np.sqrt(2.0 * params.D * config.dt)
    n_steps = int(round((config.t_end - state.t) / config.dt))
    x = state.positions.copy()
    out = [x]
    for k in range(n_steps):
        t = state.t + k * config.dt
        x = drift_step(x, t, config.dt) + sqrt_noise * rng.standard_normal(x.size)
        if (k + 1) % config.snapshot_stride == 0 or k == n_steps - 1:
            out.append(x)
    return out


class TestEvolveIsBitExact:
    params = PhysicalParams(D=0.7, alpha=1.0, gamma=1.3)

    def drift(self, kind):
        """The drift and the b(x, t) the reference loop steps with: the
        tabulated drift against np.interp, the others against themselves."""
        if kind == "tabulated":
            g = Grid1D(-30.0, 30.0, 601)
            times = np.linspace(0.0, 0.5, 11)
            drift = TabulatedDrift(times, g, -np.outer(1.0 + times, g.x) + 0.1 * np.sin(g.x))
            return drift, lambda x, t: interp_lookup(drift, x, t)
        drift = {
            "base": SineDrift(),
            "smoluchowski": SmoluchowskiDrift(lambda x: -np.tanh(x)),
            "recoil": AnalyticRecoilDrift(self.params),
        }[kind]
        return drift, drift

    @pytest.mark.parametrize("kind", ["base", "tabulated", "smoluchowski", "recoil"])
    def test_matches_the_update_loop(self, kind):
        drift, b = self.drift(kind)

        def drift_step(x, t, dt):
            return x + b(x, t) * dt
        config = SdeConfig(n_particles=2000, dt=0.01, t_end=0.5, seed=7,
                           snapshot_stride=7)
        state = sample_initial(self.params.alpha, config.n_particles, seed=7)
        got = evolve(state, drift, self.params, config)
        want = euler_maruyama_reference(state, drift_step, self.params, config)
        assert len(got) == len(want)
        for snap, x in zip(got, want):
            assert snap.positions.tobytes() == x.tobytes()

    @pytest.mark.parametrize("drift", [ou_drift(params), ZeroDrift()], ids=["ou", "zero"])
    def test_linear_drift_jumps_between_stored_steps(self, drift):
        config = SdeConfig(n_particles=2000, dt=0.01, t_end=0.5, seed=7,
                           snapshot_stride=7)
        state = sample_initial(self.params.alpha, config.n_particles, seed=7)
        got = evolve(state, drift, self.params, config)
        want = interval_law_reference(state, drift.rate, self.params, config)
        assert [s.t for s in got] == pytest.approx([0.0, *np.arange(0.07, 0.5, 0.07), 0.5])
        assert len(got) == len(want)
        for snap, x in zip(got, want):
            assert snap.positions.tobytes() == x.tobytes()


def interval_law_reference(state, rate, params, config):
    """The interval loop evolve() must reproduce bit for bit for a linear
    drift: one jump x <- e^(m r) x + sqrt(2 D dt V) z per stored interval of
    m steps, with the growth and variance factor V of linear_transition."""
    rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence([config.seed, 1])))
    sqrt_noise = np.sqrt(2.0 * params.D * config.dt)
    n_steps = int(round((config.t_end - state.t) / config.dt))
    stored = sorted({*range(0, n_steps, config.snapshot_stride), n_steps})
    x = state.positions.copy()
    out = [x]
    for first, last in zip(stored, stored[1:]):
        growth, v = linear_transition(rate * config.dt, last - first)
        x = growth * x + (sqrt_noise * math.sqrt(v)) * rng.standard_normal(x.size)
        out.append(x)
    return out


class TestLinearLaw:
    """m steps of dx = rate x dt + sqrt(2D) dW in one exact Gaussian jump."""

    @settings(max_examples=60, deadline=None)
    @given(rate_dt=st.floats(-5.0, 0.03).filter(lambda r: abs(r) >= 1e-12),
           m=st.integers(1, 10**4), split=st.floats(0.0, 1.0))
    @example(rate_dt=1e-12, m=10**4, split=0.5)
    @example(rate_dt=-1e-12, m=10**4, split=0.5)
    def test_matches_exp_and_expm1(self, rate_dt, m, split):
        growth, v = linear_transition(rate_dt, m)
        assert growth == pytest.approx(math.exp(m * rate_dt), rel=1e-14)
        assert v == pytest.approx(math.expm1(2 * m * rate_dt) / (2 * rate_dt), rel=1e-14)
        if abs(rate_dt) == 1e-12:
            # the digits that the direct ratio (e^(2 m r) - 1)/(2 r) cancels
            assert v == pytest.approx(m * (1 + m * rate_dt), rel=1e-12)
        # two jumps in a row are one: the law is a semigroup in m
        k = int(split * m)
        g1, v1 = linear_transition(rate_dt, k)
        g2, v2 = linear_transition(rate_dt, m - k)
        assert growth == pytest.approx(g1 * g2, rel=1e-12)
        assert v == pytest.approx(v1 * g2**2 + v2, rel=1e-12)

    def test_exact_at_the_ends(self):
        assert linear_transition(0.0, 37) == (1.0, 37.0)
        growth, v = linear_transition(-2.0, 37)
        assert growth == pytest.approx(math.exp(-74.0), rel=1e-14) and v == 0.25  # stationary
        assert linear_transition(1.0, 10**4) == (math.inf, math.inf)

    @pytest.mark.parametrize("m", [1, 7, 60])
    def test_jump_has_the_law_of_the_steps(self, m):
        # from a point start x0, 2e5 particles after m steps of dt: the mean
        # e^(-gamma T) x0 and variance (D/gamma)(1 - e^(-2 gamma T)) of the
        # OU process at T = m dt within 4 standard errors, and a KS test
        # against that normal does not reject at the 0.1 % level
        params = PhysicalParams(D=0.7, alpha=1.0, gamma=1.3)
        n, x0, dt = 200_000, 1.5, 0.02
        state = EnsembleState(t=0.0, positions=np.full(n, x0))
        config = SdeConfig(n_particles=n, dt=dt, t_end=m * dt, seed=3, snapshot_stride=m)
        x = evolve(state, ou_drift(params), params, config)[-1].positions
        decay = math.exp(-params.gamma * m * dt)
        mean = decay * x0
        var = params.D / params.gamma * (1.0 - decay**2)
        assert abs(x.mean() - mean) < 4.0 * np.sqrt(var / n)
        assert abs(x.var(ddof=1) - var) < 4.0 * var * np.sqrt(2.0 / (n - 1))
        assert kstest(x, norm(mean, math.sqrt(var)).cdf).pvalue > 1e-3

    def test_coarse_step_has_no_bias(self):
        # one interval of 100 steps of dt = 0.1 = 0.1/gamma from x = 0: the
        # Euler-Maruyama chain would end with variance
        # 2 D dt / (1 - (1 - gamma dt)^2) = 1.053, 17 standard errors high
        params = PhysicalParams(D=1.0, alpha=1.0, gamma=1.0)
        n = 200_000
        state = EnsembleState(t=0.0, positions=np.zeros(n))
        config = SdeConfig(n_particles=n, dt=0.1, t_end=10.0, seed=3, snapshot_stride=100)
        x = evolve(state, ou_drift(params), params, config)[-1].positions
        var = params.D / params.gamma * -math.expm1(-20.0)
        assert abs(x.var(ddof=1) - var) < 4.0 * var * np.sqrt(2.0 / (n - 1))


class TestMoments:
    def test_degenerate_sample(self):
        state = EnsembleState(t=0.0, positions=np.zeros(100))
        m = empirical_moments(state)
        for k in (1, 2, 4):
            assert m[k].value == 0.0
            assert m[k].stderr == 0.0

    def test_gaussian_kurtosis_ratio(self, recoil_ensemble):
        # the spreading cloud stays Gaussian: <x^4>/<x^2>^2 = 3
        state = snapshot_at(recoil_ensemble, 1.0)
        m = empirical_moments(state, orders=(2, 4))
        ratio = m[4].value / m[2].value ** 2
        se = np.hypot(m[4].stderr / m[2].value ** 2,
                      2.0 * m[4].value * m[2].stderr / m[2].value ** 3)
        assert abs(ratio - 3.0) < 4.0 * se

    def test_rejects_unsupported_orders(self):
        state = EnsembleState(t=0.0, positions=np.ones(10))
        with pytest.raises(ValueError, match="subset"):
            empirical_moments(state, orders=(1, 3))

    def test_needs_two_particles(self):
        state = EnsembleState(t=0.0, positions=np.ones(1))
        with pytest.raises(ValueError, match="2 particles"):
            empirical_moments(state)


def one_pass_kde(state, grid):
    """kde_density with its linear binning done in one np.add.at pass per
    node side over the whole ensemble."""
    pos = state.positions
    rel = (pos - grid.x_min) / grid.dx
    idx = np.clip(rel.astype(int), 0, grid.n - 2)
    frac = rel - idx
    counts = np.zeros(grid.n)
    np.add.at(counts, idx, 1.0 - frac)
    np.add.at(counts, idx + 1, frac)
    h = max(silverman_bandwidth(pos), grid.dx)
    return gaussian_smooth(counts / (pos.size * grid.dx), h / grid.dx)


class TestKde:
    def test_binning_spans_several_chunks(self):
        # three chunks and a part of one, with particles on both grid ends
        # and on nodes, in shuffled order
        g = Grid1D(-3.0, 5.0, 801)
        rng = np.random.default_rng(7)
        pos = rng.uniform(g.x_min, g.x_max, 3 * _LOOKUP_CHUNK + 1001)
        pos[rng.choice(pos.size, 300, replace=False)] = rng.choice(g.x, 300)
        pos[[5, _LOOKUP_CHUNK, 2 * _LOOKUP_CHUNK + 3, -1]] = [g.x_min, g.x_max, g.x_min, g.x_max]
        state = EnsembleState(t=0.0, positions=pos)
        got = kde_density(state, g).values
        assert got.tobytes() == one_pass_kde(state, g).tobytes()

    def test_escape_message_is_unchanged(self):
        g = Grid1D(-1.0, 1.0, 101)
        pos = np.zeros(2 * _LOOKUP_CHUNK + 5)
        pos[[3, _LOOKUP_CHUNK + 1]] = [np.nextafter(g.x_min, -np.inf), 1.5]
        with pytest.raises(DriftDomainError, match=re.escape(
                "2 particle(s) fall outside the KDE grid; widen it")):
            kde_density(EnsembleState(t=0.0, positions=pos), g)

    def test_initial_cloud_density(self, zero_drift_snapshots):
        g = Grid1D(-8.0, 8.0, 1601)
        kde = kde_density(zero_drift_snapshots[0], g)
        exact = FreeRecoilSolution(PhysicalParams(D=1.0, alpha=1.0)).rho(g.x, 0.0)
        l1 = integrate(ScalarField(g, np.abs(kde.values - exact)))
        assert l1 < 0.01

    def test_evolved_cloud_density(self, recoil_ensemble, free_recoil):
        g = Grid1D(-40.0, 40.0, 4001)
        kde = kde_density(snapshot_at(recoil_ensemble, 1.0), g)
        l1 = integrate(ScalarField(g, np.abs(kde.values - free_recoil.rho(g.x, 1.0))))
        assert l1 < 0.02

    def test_single_particle_bump(self):
        g = Grid1D(-2.0, 2.0, 401)
        state = EnsembleState(t=0.0, positions=np.array([0.7]))
        kde = kde_density(state, g)
        assert g.x[np.argmax(kde.values)] == pytest.approx(0.7, abs=g.dx)
        assert integrate(kde) == pytest.approx(1.0, abs=1e-3)

    def test_particles_outside_grid_rejected(self):
        g = Grid1D(-1.0, 1.0, 101)
        state = EnsembleState(t=0.0, positions=np.array([0.0, 1.5]))
        with pytest.raises(DriftDomainError, match="outside the KDE grid"):
            kde_density(state, g)

    def test_silverman_shrinks_with_sample_size(self):
        rng = np.random.default_rng(2)
        small = silverman_bandwidth(rng.normal(size=100))
        large = silverman_bandwidth(rng.normal(size=100_000))
        assert large < small


class TestEnsembleState:
    def test_positions_are_read_only(self):
        state = EnsembleState(t=0.0, positions=np.zeros(4))
        with pytest.raises(ValueError):
            state.positions[0] = 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            EnsembleState(t=0.0, positions=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            EnsembleState(t=0.0, positions=np.array([np.nan]))
