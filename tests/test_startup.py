"""Start-up path: the numpy quadrature of recoillab.core is bit-equal to
scipy.integrate, and importing the runner loads no scipy module."""

import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import recoillab
from recoillab.core import cumulative_trapezoid, trapezoid

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
