"""recoillab: cross-validated 1D lab for overdamped Brownian dynamics and its
back-reacting (recoil) variant.

Four routes to the same physics: closed-form solutions, a particle-ensemble
SDE integrator, a Fokker-Planck solver, and a linearizing wave equation.
Every scenario is checked by comparing routes against each other at declared
tolerances.
"""

import os as _os

# must happen before numpy loads its BLAS; results never depend on the
# thread count, this is purely a resource cap
_threads = _os.environ.get("RECOILLAB_THREADS", "")
if _threads.isdigit() and int(_threads) > 0:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

from .core import (
    ComplexField,
    Grid1D,
    PhysicalParams,
    ScalarField,
    gradient,
    integrate,
    integrate_interval,
)
from .analytic import (
    FreeBrownianSolution,
    FreeRecoilSolution,
    HarmonicRecoilSolution,
    ou_variance,
    smoluchowski_omega,
)
from .fieldcalc import HydroFields, SignConvention

__version__ = "0.1.0"

__all__ = [
    "ComplexField",
    "FreeBrownianSolution",
    "FreeRecoilSolution",
    "Grid1D",
    "HarmonicRecoilSolution",
    "HydroFields",
    "PhysicalParams",
    "ScalarField",
    "SignConvention",
    "__version__",
    "gradient",
    "integrate",
    "integrate_interval",
    "ou_variance",
    "smoluchowski_omega",
]
