"""Start-up path: the numpy quadrature and Gaussian smoothing of
recoillab.core are bit-equal to scipy.integrate and scipy.ndimage, importing
the runner loads no scipy module, the particle KDE loads no scipy.ndimage,
and the grid solvers load scipy's compiled LAPACK module without running
scipy/__init__ or the scipy.linalg package, which a whole run never loads
either, nor scipy.fft; nor do they load numpy.random.
Importing the runner builds no table of the CSV text kernel, and a whole
run loads neither fractions nor decimal to build it."""

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


def modules_after(statement, packages=("scipy",)):
    """Names of the modules of the packages loaded by a fresh interpreter
    after it runs the statement (which must not raise)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(recoillab.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = (f"{statement}\nimport sys\n"
            f"print(' '.join(m for m in sys.modules if m.split('.')[0] in {packages!r}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return set(out.splitlines()[-1].split())


SMOKE = os.path.join(os.path.dirname(__file__), os.pardir, "specs",
                     "smoke_free_recoil.cfg")

SAME_ROUTINES = """
import sys
import scipy.linalg.lapack
from recoillab import pde
assert sys.modules["scipy.linalg._flapack"] is pde._flapack
for name in ("dgttrf", "dgttrs", "dpttrf", "dpttrs", "zgttrf", "zgttrs"):
    assert getattr(pde, name) is getattr(scipy.linalg.lapack, name), name
"""

# the path finder misses the extension once, as under a custom import finder,
# so the grid solvers fall back to the ordinary import of the package
PATH_FINDER_MISSES_IT = """
import sys
from importlib.machinery import PathFinder
real, missed = PathFinder.find_spec.__func__, []
def find_spec(cls, name, path=None, target=None):
    if name == "scipy.linalg._flapack" and not missed:
        missed.append(name)
        return None
    return real(cls, name, path, target)
PathFinder.find_spec = classmethod(find_spec)
import recoillab.pde
assert missed and "scipy.linalg" in sys.modules
"""

# loading the extension directly raises once, so the grid solvers fall back
# to the ordinary import of the package
DIRECT_LOAD_RAISES = """
import sys
from importlib.machinery import ExtensionFileLoader
real, raised = ExtensionFileLoader.exec_module, []
def exec_module(self, module):
    if module.__name__ == "scipy.linalg._flapack" and not raised:
        raised.append(module.__name__)
        raise ImportError("direct load refused")
    return real(self, module)
ExtensionFileLoader.exec_module = exec_module
import recoillab.pde
assert raised and "scipy.linalg" in sys.modules
"""

# a diagonally dominant tridiagonal system with the solution 1, 2, ..., 6
TRIDIAGONAL_SOLVES = """
import numpy as np
import scipy.sparse
from scipy.linalg import solve_banded
from scipy.sparse.linalg import splu
n = 6
lower, diag, upper = np.full(n - 1, -1.0), np.full(n, 4.0), np.full(n - 1, -2.0)
x = np.arange(1.0, n + 1)
a = scipy.sparse.diags([lower, diag, upper], [-1, 0, 1], format="csc")
b = a @ x
bands = np.array([np.r_[0.0, upper], diag, np.r_[lower, 0.0]])
assert np.allclose(solve_banded((1, 1), bands, b), x)
assert np.allclose(splu(a).solve(b), x)
"""


class TestImports:
    def test_runner_loads_no_scipy(self):
        assert modules_after("import recoillab.cli") == set()

    def test_grid_solvers_load_no_ndimage(self):
        loaded = modules_after("import recoillab.pde")
        assert "scipy.linalg._flapack" in loaded  # the LAPACK solves
        assert "scipy" not in loaded  # nor scipy/__init__
        assert "scipy.linalg" not in loaded
        assert "scipy.ndimage" not in loaded

    def test_grid_solvers_load_no_numpy_random(self):
        # numpy 1.24 loads numpy.random with numpy itself, so only the
        # difference from a bare import holds for every supported numpy
        def random_after(statement):
            return {m for m in modules_after(statement, packages=("numpy",))
                    if m == "numpy.random" or m.startswith("numpy.random.")}
        assert random_after("import recoillab.pde") == random_after("import numpy")

    def test_lapack_routines_are_scipys_however_loaded(self):
        modules_after("import recoillab.pde" + SAME_ROUTINES + TRIDIAGONAL_SOLVES)
        modules_after("import scipy.linalg" + SAME_ROUTINES)
        modules_after(PATH_FINDER_MISSES_IT + SAME_ROUTINES)
        modules_after(DIRECT_LOAD_RAISES + SAME_ROUTINES)

    def test_a_full_run_loads_no_scipy_linalg(self, tmp_path):
        loaded = modules_after(
            "from recoillab.cli import main\n"
            f"assert main(['run', {SMOKE!r}, '--out', {str(tmp_path)!r}]) == 0")
        assert "scipy.linalg._flapack" in loaded
        assert "scipy.linalg" not in loaded
        assert "scipy.fft" not in loaded  # the free wave march uses numpy.fft

    def test_runner_builds_no_text_tables(self):
        modules_after("import recoillab.cli\n"
                      "from recoillab import artifacts\n"
                      "assert artifacts._kernel_tables.cache_info().currsize == 0")

    def test_a_full_run_loads_no_exact_arithmetic_modules(self, tmp_path):
        # the powers of ten come from int true division, which rounds correctly
        loaded = modules_after(
            "from recoillab.cli import main\n"
            "from recoillab import artifacts\n"
            f"assert main(['run', {SMOKE!r}, '--out', {str(tmp_path)!r}]) == 0\n"
            "assert artifacts._kernel_tables.cache_info().currsize == 1",
            packages=("fractions", "decimal", "_decimal", "_pydecimal"))
        assert loaded == set()

    def test_kde_loads_no_ndimage(self):
        loaded = modules_after(
            "import numpy as np\n"
            "from recoillab.core import Grid1D\n"
            "from recoillab.sde import EnsembleState, kde_density\n"
            "kde_density(EnsembleState(0.0, np.linspace(-1.0, 1.0, 200)),"
            " Grid1D(-2.0, 2.0, 81))")
        assert "scipy.ndimage" not in loaded
