"""Particle sampling, evolution (two-point weak Euler steps, exact linear
jumps), moments, and the kernel density estimator. Stochastic assertions
use frozen seeds with 3-4 sigma bands so they are deterministic."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import kstest, norm

from recoillab.core import (Grid1D, PhysicalParams, ScalarField, gaussian_smooth, integrate,
                            steps)
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

from helpers import interp_lookup, snapshot_at


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


def two_point(rng, n, scale):
    """One step's increments: +scale for particle i where bit i % 64 of the
    step's word i // 64 is set, else -scale."""
    words = rng.bit_generator.random_raw(-(-n // 64))
    bits = (words[:, None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
    return np.where(bits.reshape(-1)[:n] == 1, scale, -scale)


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
        x = drift_step(x, t, config.dt) + two_point(rng, x.size, sqrt_noise)
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


# one particle, and ensembles that end just short of, on, and just past the
# edge of a march chunk
ENSEMBLE_SIZES = [1, _LOOKUP_CHUNK - 1, _LOOKUP_CHUNK, 2 * _LOOKUP_CHUNK + 3]


def stream(seed):
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence([seed, 1])))


def stepped_reference(drift, x, t0, dt, steps, rng, scale):
    """The per-step whole-array update a march must reproduce: b = drift(x, t)
    over the whole ensemble, b *= dt, x += b, then the step's two_point
    increments added. Returns the positions after the last step, or the step
    and message of the DriftDomainError a lookup raises."""
    x = x.copy()
    for k in steps:
        try:
            b = drift(x, t0 + k * dt)
        except DriftDomainError as exc:
            return k, str(exc)
        b *= dt
        x += b
        x += two_point(rng, x.size, scale)
    return x


def jump_reference(drift, x, t0, dt, steps, rng, scale):
    """The exact jump of a linear drift over the steps, with one n-draw
    standard_normal over the whole ensemble."""
    growth, v = linear_transition(drift.rate * dt, len(steps))
    x = x * growth
    z = rng.standard_normal(x.size)
    z *= scale * math.sqrt(v)
    x += z
    return x


def assert_march_matches(drift, reference, x, t0, dt, steps, scale, seed=11):
    """drift.march over ``steps`` gives the reference's positions bit for bit
    and leaves the stream where the reference does; where the reference
    stops at step k, the march raises the same message there and runs every
    step before it."""
    want_rng = stream(seed)
    want = reference(drift, x, t0, dt, steps, want_rng, scale)
    if isinstance(want, tuple):
        k, message = want
        for stop in (steps.stop, k + 1):
            with pytest.raises(DriftDomainError) as err:
                drift.march(x.copy(), t0, dt, range(steps.start, stop), stream(seed), scale)
            assert str(err.value) == message
        steps = range(steps.start, k)
        want_rng = stream(seed)
        want = reference(drift, x, t0, dt, steps, want_rng, scale)
    got, rng = x.copy(), stream(seed)
    drift.march(got, t0, dt, steps, rng, scale)
    assert got.tobytes() == want.tobytes()
    assert (rng.bit_generator.random_raw(4) == want_rng.bit_generator.random_raw(4)).all()


@st.composite
def tabulated_marches(draw):
    """A drawn table with -0.0 rows and entries, an ensemble of one of
    ENSEMBLE_SIZES on nodes, at both ends and inside, and a run of steps in
    the table's span, the last one up to the span's time tolerance past it."""
    table = draw(drift_tables())
    values = table.values.copy()
    values[draw(st.lists(st.integers(0, values.shape[0] - 1), max_size=2))] = -0.0
    values[draw(hnp.arrays(bool, values.shape))] = -0.0
    drift = TabulatedDrift(table.times, table.grid, values)
    g = drift.grid
    n = draw(st.sampled_from(ENSEMBLE_SIZES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.uniform(g.x_min, g.x_max, n)
    on_node = rng.random(n) < draw(st.floats(0.0, 1.0))
    x[on_node] = rng.choice(g.x, int(on_node.sum()))
    x[rng.random(n) < 0.02] = g.x_max
    x[rng.random(n) < 0.02] = g.x_min
    x[0] = draw(st.sampled_from([x[0], g.x_max, g.x_min, g.x[g.n // 2]]))
    first, m = draw(st.integers(0, 3)), draw(st.integers(1, 4))
    last = max(first + m - 1, 1)
    t0, span = drift.times[0], drift.times[-1] - drift.times[0]
    # at 1.0 the last step starts on the last row, or up to 5e-10 past it,
    # within the span's time tolerance
    dt = span / last * draw(st.sampled_from([1e-9, 1e-4, 0.5, 1.0]))
    if draw(st.booleans()):
        dt += 0.5e-9 / last
    scale = draw(st.sampled_from([0.0, 1e-6 * g.dx, g.dx]))
    return drift, x, t0, dt, range(first, first + m), scale


class TestFusedMarch:
    """Each march equals the per-step whole-array update bit for bit, stream
    position included: the tabulated march that looks up, moves and draws a
    chunk at a time, and the chunked marches of the other drifts."""

    params = PhysicalParams(D=0.7, alpha=1.0, gamma=1.3)

    @settings(max_examples=60, deadline=None)
    @given(case=tabulated_marches())
    def test_tabulated_march_matches_the_whole_array_update(self, case):
        drift, x, t0, dt, steps, scale = case
        assert_march_matches(drift, stepped_reference, x, t0, dt, steps, scale)

    @pytest.mark.parametrize("n", ENSEMBLE_SIZES)
    @pytest.mark.parametrize("kind", ["tabulated", "recoil", "ou", "zero"])
    def test_ensemble_sizes_at_the_chunk_edges(self, kind, n):
        g = Grid1D(-30.0, 30.0, 601)
        times = np.linspace(0.0, 0.5, 11)
        drift, reference = {
            "tabulated": (TabulatedDrift(times, g, -np.outer(1.0 + times, g.x)),
                          stepped_reference),
            "recoil": (AnalyticRecoilDrift(self.params), stepped_reference),
            "ou": (ou_drift(self.params), jump_reference),
            "zero": (ZeroDrift(), jump_reference),
        }[kind]
        x = sample_initial(self.params.alpha, n, seed=5).positions.copy()
        assert_march_matches(drift, reference, x, 0.0, 0.01, range(3, 9), 0.2)

    def test_nodes_keep_their_values_beside_an_infinite_slope(self):
        # 1e308 - (-1e308) overflows, so slope * 0 on a node would be NaN
        g = Grid1D(0.0, 1.0, 11)
        row = np.where(np.arange(g.n) % 2, 1e308, -1e308)
        drift = TabulatedDrift([0.0, 1.0], g, np.stack([row, -row]))
        x = np.concatenate([g.x, g.x[::-1]])
        with np.errstate(over="ignore", invalid="ignore"):
            assert drift(x, 0.0).tobytes() == np.concatenate([row, row[::-1]]).tobytes()
            assert_march_matches(drift, stepped_reference, x, 0.0, 0.0, range(2), 0.0)

    @pytest.mark.parametrize("out, said", [
        ([_LOOKUP_CHUNK + 5, 2 * _LOOKUP_CHUNK + 1], "2 particle(s)"),
        ([3, _LOOKUP_CHUNK + 5, 2 * _LOOKUP_CHUNK + 1], "3 particle(s)"),
    ], ids=["from the second chunk", "from the first chunk"])
    def test_leaving_the_table_counts_the_whole_ensemble(self, out, said):
        # b = 10 x carries the particles at 0.9 past x_max = 1 in the first
        # step, so the second step's lookup stops the march; the chunks
        # before the first one that fails have moved on by then
        g = Grid1D(-1.0, 1.0, 201)
        drift = TabulatedDrift([0.0, 1.0], g, np.stack([10.0 * g.x] * 2))
        x = np.zeros(2 * _LOOKUP_CHUNK + 3)
        x[out] = 0.9
        assert_march_matches(drift, stepped_reference, x, 0.0, 0.05, range(3), 0.0)
        with pytest.raises(DriftDomainError, match=re.escape(said + " outside drift domain")):
            drift.march(x.copy(), 0.0, 0.05, range(3), stream(1), 0.0)


class Still(DriftSource):
    """b = 0 through the base march, so a step moves x by its increment alone."""

    def __call__(self, x, t):
        return np.zeros_like(x)


class TestTwoPointIncrements:
    """A general-drift step moves particle i by +scale where bit i % 64 of the
    step's word i // 64 is set and by -scale where it is clear, read from the
    stream's raw words as Python ints, and leaves the stream just past them."""

    @pytest.mark.parametrize("n", [1, 63, 64, 65, _LOOKUP_CHUNK + 1])
    @pytest.mark.parametrize("kind", ["base", "tabulated"])
    def test_particle_i_takes_bit_i_of_the_steps_words(self, kind, n):
        drift = Still() if kind == "base" else TabulatedDrift(
            [0.0, 1.0], Grid1D(-1.0, 1.0, 11), np.zeros((2, 11)))
        per_step = -(-n // 64)
        words = [int(w) for w in stream(5).bit_generator.random_raw(2 * per_step + 1)]
        rng = stream(5)
        for k in range(2):
            x = np.zeros(n)
            drift.march(x, 0.0, 0.25, range(k, k + 1), rng, 0.5)
            step = words[k * per_step:(k + 1) * per_step]
            assert x.tolist() == [0.5 if (step[i // 64] >> (i % 64)) & 1 else -0.5
                                  for i in range(n)]
        assert int(rng.bit_generator.random_raw()) == words[-1]


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


class TestEulerMaruyamaBias:
    """The step bias of both general-drift marches on the free recoil drift
    b = a(t) x. Their <x^2> follows the exact second-moment recursion of the
    Euler chain, m_(k+1) = (1 + a(t_k) dt)^2 m_k + 2 D dt, which reads only
    E z^2 = 1 of the increments, so it holds for the two-point ones as for
    Gaussian ones, and falls short of the closed form by O(dt): weak order
    1. At seed 7 the msd sits -1.7 and -2.3 standard errors from the
    recursion at dt = 0.05 and 0.025, and -14.2 and -8.6 from the closed
    form."""

    params = PhysicalParams(D=1.0, alpha=1.0)
    n, seed, t_end = 200_000, 7, 1.0

    def recursion(self, m0, dt):
        rate = FreeRecoilSolution(self.params).b  # a(t) = b(1, t)
        m = m0
        for k in range(steps(self.t_end, dt)):
            m = (1.0 + rate(1.0, k * dt) * dt) ** 2 * m + 2.0 * self.params.D * dt
        return m

    def drift(self, kind, dt):
        if kind == "analytic":
            return AnalyticRecoilDrift(self.params)
        # a row of the same closed form at every step time; b is linear in x,
        # so the bilinear lookup is exact
        sol, g = FreeRecoilSolution(self.params), Grid1D(-20.0, 20.0, 401)
        times = dt * np.arange(steps(self.t_end, dt) + 1)
        return TabulatedDrift(times, g, np.stack([sol.b(g.x, t) for t in times]))

    @pytest.mark.parametrize("kind", ["analytic", "tabulated"])
    @pytest.mark.parametrize("dt", [0.05, 0.025])
    def test_msd_follows_the_recursion(self, kind, dt):
        state0 = sample_initial(self.params.alpha, self.n, seed=self.seed)
        config = SdeConfig(n_particles=self.n, dt=dt, t_end=self.t_end, seed=self.seed,
                           snapshot_stride=steps(self.t_end, dt))
        final = evolve(state0, self.drift(kind, dt), self.params, config)[-1]
        m = empirical_moments(final, orders=(2,))[2]
        expected = self.recursion(float(np.mean(state0.positions**2)), dt)
        assert abs(m.value - expected) < 4.0 * m.stderr
        # and the test has power: the closed form lies out of reach
        exact = FreeRecoilSolution(self.params).msd(self.t_end)
        assert exact - m.value > 4.0 * m.stderr

    def test_bias_halves_with_the_step(self):
        # from the closed form's own start alpha^2/2, so the bias is the
        # step's alone
        exact = FreeRecoilSolution(self.params).msd(self.t_end)
        m0 = self.params.alpha**2 / 2.0
        ratio = (self.recursion(m0, 0.05) - exact) / (self.recursion(m0, 0.025) - exact)
        assert 1.8 <= ratio <= 2.2


class Cubic(DriftSource):
    """b = -x^3, a drift that is not linear in x, through the base march."""

    time_dependent = False

    def __call__(self, x, t):
        b = x * x
        b *= -x
        return b


class TestWeakOrder:
    """The two-point weak Euler step is weak order 1 on b = -x^3, D = 1, from
    the Gaussian start of alpha = 1: at t = 4 the msd is the stationary
    2 Gamma(3/4)/Gamma(1/4) = 0.67598 (a master-equation solve puts t = 4
    within 4e-9 of it), and the step's bias is O(dt). Over seeds 1-20 at 4e5
    particles the bias read 0.0236-0.0280 at dt = 0.1 (19-22 stderr), and
    bias(0.05)/bias(0.1) read 0.306-0.509 (mean 0.417, sd 0.051; order 1
    with a dt^2 term); the band below is that mean +- 4 sd. Gaussian
    increments read a bias of 0.0106-0.0126 at dt = 0.1 (seeds 1-6): the
    two-point constant is about 2.2 times theirs on this drift."""

    params = PhysicalParams(D=1.0, alpha=1.0)
    n, seed, t_end = 400_000, 1, 4.0

    def drift(self, kind):
        if kind == "base":
            return Cubic()
        # two equal rows on a fine grid: the bilinear lookup is within 1e-6
        # of -x^3 where the particles go
        g = Grid1D(-5.0, 5.0, 10001)
        return TabulatedDrift([0.0, self.t_end], g, np.stack([-g.x**3] * 2))

    @pytest.mark.parametrize("kind", ["base", "tabulated"])
    def test_msd_bias_is_first_order_in_the_step(self, kind):
        exact = 2.0 * math.gamma(0.75) / math.gamma(0.25)
        state0 = sample_initial(self.params.alpha, self.n, seed=self.seed)
        bias, stderr = {}, {}
        for dt in (0.1, 0.05):
            config = SdeConfig(n_particles=self.n, dt=dt, t_end=self.t_end, seed=self.seed,
                               snapshot_stride=steps(self.t_end, dt))
            final = evolve(state0, self.drift(kind), self.params, config)[-1]
            m = empirical_moments(final, orders=(2,))[2]
            bias[dt], stderr[dt] = m.value - exact, m.stderr
        # the test has power: the coarse step's bias is far out of the noise
        assert bias[0.1] > 4.0 * stderr[0.1]
        assert 0.21 <= bias[0.05] / bias[0.1] <= 0.62


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

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(2, 10**5), seed=st.integers(0, 2**32 - 1),
           ties=st.sampled_from([0, 1, 2, 5, 50]))
    def test_silverman_takes_numpys_percentiles_bit_for_bit(self, n, seed, ties):
        # ties > 0 draws from that many values, signed zeros among them
        rng = np.random.default_rng(seed)
        pos = rng.normal(size=n) if ties == 0 else rng.choice(
            np.concatenate(([0.0, -0.0], rng.normal(size=ties))), size=n)
        std = float(np.std(pos, ddof=1))
        q75, q25 = np.percentile(pos, [75.0, 25.0])
        iqr = float(q75 - q25)
        want = 0.9 * (min(std, iqr / 1.34) if iqr > 0 else std) * n ** (-0.2)
        assert np.float64(silverman_bandwidth(pos)).tobytes() == np.float64(want).tobytes()

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
