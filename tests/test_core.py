"""Meshes, containers, and the finite-difference/quadrature operators."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from recoillab.core import (
    MAX_STEPS,
    ComplexField,
    Grid1D,
    PhysicalParams,
    ScalarField,
    gradient,
    integrate,
    integrate_interval,
    mirror_centre,
    steps,
    stored_index,
    stored_steps,
    stride_for,
)


class TestPhysicalParams:
    def test_t0_is_derived_from_alpha(self):
        assert PhysicalParams(D=1.0, alpha=1.0).t0 == 0.25
        assert PhysicalParams(D=0.5, alpha=2.0).t0 == 2.0

    @pytest.mark.parametrize("bad", [
        dict(D=0.0), dict(D=-1.0), dict(alpha=np.inf), dict(gamma=np.nan),
        dict(alpha=0.0), dict(gamma=-0.1), dict(D=np.nan),
    ])
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(ValueError):
            PhysicalParams(**bad)

    def test_immutable(self):
        p = PhysicalParams()
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.D = 2.0


class TestGrid1D:
    def test_spacing_and_nodes(self):
        g = Grid1D(-2.0, 2.0, 101)
        assert g.dx == pytest.approx(0.04, abs=0.0)
        assert g.x[0] == -2.0 and g.x[-1] == 2.0
        assert np.all(np.diff(g.x) > 0)

    def test_nodes_are_read_only(self):
        g = Grid1D(0.0, 1.0, 11)
        with pytest.raises(ValueError):
            g.x[0] = 5.0

    @pytest.mark.parametrize("args", [(0.0, 1.0, 7), (1.0, 1.0, 11),
                                      (2.0, 1.0, 11), (np.inf, 1.0, 11)])
    def test_invalid_grids_rejected(self, args):
        with pytest.raises(ValueError):
            Grid1D(*args)

    @settings(max_examples=200, deadline=None)
    @given(half=st.floats(1e-6, 1e6), n=st.integers(8, 20001))
    def test_a_symmetric_domain_has_mirrored_nodes(self, half, n):
        g = Grid1D(-half, half, n)
        np.testing.assert_array_equal(g.x, -g.x[::-1])
        if n % 2:
            assert g.x[n // 2] == 0.0
        assert np.all(np.diff(g.x) > 0)
        linspace = np.linspace(-half, half, n)
        assert np.max(np.abs(g.x - linspace)) <= 4 * np.spacing(half)
        np.testing.assert_array_equal(g.faces, -g.faces[::-1])

    @settings(max_examples=200, deadline=None)
    @given(lo=st.floats(-1e6, 1e6), width=st.floats(1e-3, 1e6), n=st.integers(8, 20001))
    def test_an_asymmetric_domain_keeps_linspace(self, lo, width, n):
        hi = lo + width
        assume(lo != -hi)
        g = Grid1D(lo, hi, n)
        np.testing.assert_array_equal(g.x, np.linspace(lo, hi, n))

    def test_faces_are_the_node_midpoints(self):
        for g in (Grid1D(-3.0, 3.0, 11), Grid1D(-1.0, 2.5, 9)):
            np.testing.assert_array_equal(g.faces, 0.5 * (g.x[:-1] + g.x[1:]))
            assert g.faces.size == g.n - 1
            with pytest.raises(ValueError):
                g.faces[0] = 0.0

    def test_mirror_centre_needs_odd_n_a_symmetric_domain_and_even_arrays(self):
        g = Grid1D(-3.0, 3.0, 11)
        even = g.x**2
        assert mirror_centre(g, even, np.cos(g.x)) == 5
        assert mirror_centre(g) == 5
        assert mirror_centre(g, even, g.x) is None  # x is odd
        off = even.copy()
        off[2] = np.nextafter(off[2], np.inf)  # one node one ulp off
        assert mirror_centre(g, off) is None
        assert mirror_centre(Grid1D(-3.0, 3.0, 10), Grid1D(-3.0, 3.0, 10).x ** 2) is None
        assert mirror_centre(Grid1D(-3.0, 3.5, 11), np.zeros(11)) is None

    # finite bounds whose span overflows to inf, or whose step underflows to 0
    @pytest.mark.parametrize("args", [(-1e308, 1e308, 9), (0.0, 5e-324, 9)],
                             ids=["span overflows", "step underflows"])
    def test_spacing_must_be_finite_and_positive(self, args):
        with pytest.raises(ValueError, match="grid spacing dx"):
            Grid1D(*args)


class TestFields:
    def test_shape_must_match_grid(self):
        g = Grid1D(0.0, 1.0, 11)
        with pytest.raises(ValueError):
            ScalarField(g, np.zeros(10))
        with pytest.raises(ValueError):
            ComplexField(g, np.zeros(12, dtype=complex))

    def test_values_must_be_finite(self):
        g = Grid1D(0.0, 1.0, 11)
        bad = np.zeros(11)
        bad[3] = np.inf
        with pytest.raises(ValueError):
            ScalarField(g, bad)

    def test_values_are_read_only_copies(self):
        g = Grid1D(0.0, 1.0, 11)
        src = np.ones(11)
        f = ScalarField(g, src)
        src[0] = 7.0
        assert f.values[0] == 1.0
        with pytest.raises(ValueError):
            f.values[0] = 2.0


class TestGradient:
    def test_constant_gives_zero(self):
        # boundary stencil leaves roundoff for non-representable constants
        g = Grid1D(-1.0, 1.0, 33)
        out = gradient(ScalarField(g, np.full(g.n, 4.2)))
        assert np.max(np.abs(out.values)) < 1e-14

    def test_linear_is_exact_everywhere(self):
        g = Grid1D(-3.0, 5.0, 41)
        out = gradient(ScalarField(g, 2.5 * g.x - 1.0))
        np.testing.assert_allclose(out.values, 2.5, rtol=0, atol=1e-13)

    def test_quadratic_is_exact(self):
        g = Grid1D(-2.0, 2.0, 101)
        out = gradient(ScalarField(g, g.x**2))
        np.testing.assert_allclose(out.values, 2.0 * g.x, rtol=0, atol=1e-12)


class TestIntegrate:
    def test_unit_constant_on_unit_interval(self):
        g = Grid1D(0.0, 1.0, 51)
        assert integrate(ScalarField(g, np.ones(g.n))) == pytest.approx(1.0, abs=1e-14)

    def test_gaussian_cloud_normalization(self):
        g = Grid1D(-8.0, 8.0, 801)
        rho = np.exp(-g.x**2) / np.sqrt(np.pi)
        assert integrate(ScalarField(g, rho)) == pytest.approx(1.0, abs=1e-10)

    def test_odd_function_vanishes(self):
        g = Grid1D(-1.0, 1.0, 101)
        assert integrate(ScalarField(g, g.x)) == pytest.approx(0.0, abs=1e-15)


class TestOperatorProperties:
    def test_gradient_and_laplacian_are_linear(self):
        rng = np.random.default_rng(7)
        g = Grid1D(-1.0, 1.0, 64)
        f1 = ScalarField(g, rng.normal(size=g.n))
        f2 = ScalarField(g, rng.normal(size=g.n))
        a, b = 1.7, -0.4
        combo = ScalarField(g, a * f1.values + b * f2.values)
        lhs = gradient(combo).values
        rhs = a * gradient(f1).values + b * gradient(f2).values
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-10)

    def test_fundamental_theorem_on_smooth_field(self):
        g = Grid1D(-6.0, 6.0, 601)
        f = ScalarField(g, np.tanh(g.x))
        lhs = integrate(gradient(f))
        assert lhs == pytest.approx(np.tanh(6.0) - np.tanh(-6.0), abs=1e-6)


class TestIntegrateInterval:
    def test_linear_with_off_node_endpoints(self):
        g = Grid1D(0.0, 1.0, 11)
        f = ScalarField(g, g.x)
        # interval endpoints fall between nodes; exact for linear integrands
        val = integrate_interval(f, 0.23, 0.77)
        assert val == pytest.approx((0.77**2 - 0.23**2) / 2.0, abs=1e-14)

    def test_rejects_bad_intervals(self):
        g = Grid1D(0.0, 1.0, 11)
        f = ScalarField(g, g.x)
        with pytest.raises(ValueError):
            integrate_interval(f, 0.8, 0.2)
        with pytest.raises(ValueError):
            integrate_interval(f, -0.5, 0.5)


class TestMarchSchedule:
    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 2000), stride=st.integers(1, 2500))
    def test_stored_steps_follow_the_march_rule(self, n, stride):
        # the rule each march applied after step k of n: store step k + 1 when
        # (k + 1) % stride == 0 or k == n - 1; step 0 is always stored
        expected = [0] + [k + 1 for k in range(n) if (k + 1) % stride == 0 or k == n - 1]
        assert stored_steps(n, stride).tolist() == expected

    def test_stride_rounds_to_at_least_one_step(self):
        assert stride_for(0.25, 1e-3) == 250
        assert stride_for(100 * 1e-4, 1e-3) == 10
        assert stride_for(1e-6, 1e-3) == 1

    def test_stored_index_finds_only_stored_times(self):
        times = 0.1 * stored_steps(7, 2)  # 0, 0.2, 0.4, 0.6, 0.7000000000000001
        assert stored_index(times, 0.7) == 4
        assert stored_index(times, 0.0) == 0
        with pytest.raises(KeyError, match="no stored slice"):
            stored_index(times, 0.3)

    def test_step_count_has_an_inclusive_ceiling(self):
        assert steps(float(MAX_STEPS), 1.0) == MAX_STEPS
        for t_end in (MAX_STEPS + 1.0, 1e300):
            with pytest.raises(ValueError, match="MAX_STEPS"):
                steps(t_end, 1.0)
