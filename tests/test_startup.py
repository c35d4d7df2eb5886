"""Start-up path: the numpy quadrature and Gaussian smoothing of
recoillab.core are bit-equal to scipy.integrate and scipy.ndimage, importing
the runner loads no scipy module, and the particle KDE loads no
scipy.ndimage."""

import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.integrate
import scipy.ndimage
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import recoillab
from recoillab.core import cumulative_trapezoid, gaussian_smooth, trapezoid

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
arrays = hnp.arrays(np.float64, st.integers(1, 50), elements=finite)
steps = st.floats(1e-6, 1e3)


def bits(a):
    return np.asarray(a, dtype=np.float64).tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # huge inputs overflow to inf
class TestQuadratureMatchesScipy:
    @settings(max_examples=200, deadline=None)
    @given(arrays, steps)
    def test_trapezoid_with_step(self, y, dx):
        assert bits(trapezoid(y, dx=dx)) == bits(scipy.integrate.trapezoid(y, dx=dx))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 50).flatmap(lambda n: st.tuples(
        hnp.arrays(np.float64, n, elements=finite),
        hnp.arrays(np.float64, n, elements=st.floats(-1e6, 1e6)))))
    def test_trapezoid_with_nodes(self, case):
        y, x = case
        assert bits(trapezoid(y, x)) == bits(scipy.integrate.trapezoid(y, x))

    @settings(max_examples=200, deadline=None)
    @given(arrays, steps)
    def test_cumulative_trapezoid(self, y, dx):
        ours = cumulative_trapezoid(y, dx=dx)
        theirs = scipy.integrate.cumulative_trapezoid(y, dx=dx, initial=0.0)
        assert ours.shape == theirs.shape == y.shape
        assert bits(ours) == bits(theirs)


@st.composite
def smoothing_cases(draw):
    """A grid column (zero, smooth or spiky) and a kernel width in cells from
    one to well past n/8, where the 8-sigma kernel is wider than the grid."""
    n = draw(st.integers(1, 200))
    kind = draw(st.sampled_from(["zero", "random", "spikes"]))
    if kind == "zero":
        y = np.zeros(n)
    elif kind == "random":
        y = draw(hnp.arrays(np.float64, n, elements=st.floats(-1e6, 1e6)))
    else:
        y = np.zeros(n)
        for i in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=5)):
            y[i] = draw(st.floats(1e-300, 1e300))
    sigma = draw(st.floats(1.0, max(2.0, n / 2)))
    return y, sigma


class TestSmoothingMatchesScipy:
    @settings(max_examples=200, deadline=None)
    @given(smoothing_cases())
    def test_gaussian_smooth(self, case):
        y, sigma = case
        theirs = scipy.ndimage.gaussian_filter1d(y, sigma, mode="constant",
                                                 truncate=8.0)
        assert bits(gaussian_smooth(y, sigma)) == bits(theirs)


def modules_after(statement):
    """Names of the scipy modules loaded by a fresh interpreter after it runs
    the statement."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(recoillab.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = (f"{statement}\nimport sys\n"
            "print(' '.join(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return set(out.split())


class TestImports:
    def test_runner_loads_no_scipy(self):
        assert modules_after("import recoillab.cli") == set()

    def test_grid_solvers_load_no_ndimage(self):
        loaded = modules_after("import recoillab.pde")
        assert "scipy.linalg" in loaded  # the LAPACK solves
        assert "scipy.ndimage" not in loaded

    def test_kde_loads_no_ndimage(self):
        loaded = modules_after(
            "import numpy as np\n"
            "from recoillab.core import Grid1D\n"
            "from recoillab.sde import EnsembleState, kde_density\n"
            "kde_density(EnsembleState(0.0, np.linspace(-1.0, 1.0, 200)),"
            " Grid1D(-2.0, 2.0, 81))")
        assert "scipy.ndimage" not in loaded
