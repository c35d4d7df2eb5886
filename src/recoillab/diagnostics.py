"""Observables and verdicts: mean-square displacement, energy budgets,
dispersion-regime classification, and field comparison metrics.

The energy budget of a hydrodynamic slice is

    kinetic   = integral( v^2/2 * rho )
    osmotic   = -integral( Q * rho )
    potential = integral( Omega * rho )

and their sum is conserved by back-reacting (recoil) dynamics with a static
Omega. Ordinary diffusion does not conserve it; callers assert conservation
only for recoil runs.
"""

import enum
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import ScalarField, integrate
from .fieldcalc import HydroFields
from .sde import EnsembleState, empirical_moments


class DispersionRegime(str, enum.Enum):
    ENHANCED = "enhanced"
    NORMAL = "normal"
    NON_DISPERSIVE = "non_dispersive"


class DispersionFitError(ValueError):
    """Series unusable (too short) or the fitted exponent fits no regime."""

    def __init__(self, message, exponent=None):
        super().__init__(message)
        self.exponent = exponent


@dataclass(frozen=True)
class MsdSeries:
    """<x^2>(t) samples from one route; times strictly increasing, msd >= 0."""

    times: np.ndarray
    values: np.ndarray
    source: str
    stderr: Optional[np.ndarray] = None

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or t.shape != v.shape or t.size < 1:
            raise ValueError("times and values must be 1D arrays of equal length")
        if np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise ValueError("series must be finite")
        if np.any(v < 0):
            raise ValueError("msd must be >= 0")
        if self.source not in ("analytic", "sde", "pde"):
            raise ValueError(f"unknown source tag {self.source!r}")
        se = self.stderr
        if se is not None:
            se = np.asarray(se, dtype=float)
            if se.shape != t.shape or np.any(se < 0):
                raise ValueError("stderr must match times and be >= 0")
            se = se.copy()
            se.setflags(write=False)
        for name, arr in (("times", t), ("values", v)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "stderr", se)

    def as_dict(self) -> dict:
        out = {"source": self.source, "times": self.times.tolist(), "values": self.values.tolist()}
        if self.stderr is not None:
            out["stderr"] = self.stderr.tolist()
        return out


def msd_from_fields(times, rhos: Iterable[ScalarField], source: str = "pde") -> MsdSeries:
    """Second moment <x^2> of each density slice. Slices are renormalized by
    their own mass to keep quadrature honest. rhos is read once, in order,
    so a generator may build each slice as it is needed."""
    values = []
    for rho in rhos:
        mass = integrate(rho)
        if mass <= 0:
            raise ValueError("density slice has non-positive mass")
        x = rho.grid.x
        values.append(integrate(ScalarField(rho.grid, x**2 * rho.values)) / mass)
    return MsdSeries(np.asarray(times, dtype=float), np.asarray(values), source=source)


def msd_from_ensemble(states: Sequence[EnsembleState]) -> MsdSeries:
    """Second moment of each ensemble snapshot with jackknife standard errors."""
    times, values, errs = [], [], []
    for s in states:
        m = empirical_moments(s, orders=(2,))[2]
        times.append(s.t)
        values.append(m.value)
        errs.append(m.stderr)
    return MsdSeries(np.asarray(times), np.asarray(values), source="sde",
                     stderr=np.asarray(errs))


@dataclass(frozen=True)
class EnergyReport:
    """Energy budget along stored slices; total = kinetic + osmotic + potential."""

    times: np.ndarray
    kinetic: np.ndarray
    osmotic: np.ndarray
    potential: np.ndarray

    @property
    def total(self) -> np.ndarray:
        return self.kinetic + self.osmotic + self.potential

    def as_dict(self) -> dict:
        return {
            "times": self.times.tolist(),
            "kinetic": self.kinetic.tolist(),
            "osmotic": self.osmotic.tolist(),
            "potential": self.potential.tolist(),
            "total": self.total.tolist(),
        }


def energy_report(slices: Iterable[HydroFields]) -> EnergyReport:
    """The energy budget of each slice, in time order. slices is read once,
    so a generator may build each slice as it is needed."""
    times, kin, osm, pot = [], [], [], []
    for h in slices:
        rho = h.rho.values
        times.append(h.t)
        kin.append(integrate(ScalarField(h.grid, 0.5 * h.v.values**2 * rho)))
        osm.append(-integrate(ScalarField(h.grid, h.Q.values * rho)))
        pot.append(integrate(ScalarField(h.grid, h.Omega.values * rho)))
    order = np.argsort(times)
    return EnergyReport(
        times=np.asarray(times)[order],
        kinetic=np.asarray(kin)[order],
        osmotic=np.asarray(osm)[order],
        potential=np.asarray(pot)[order],
    )


@dataclass(frozen=True)
class DispersionVerdict:
    """Outcome of classify_dispersion. ``exponent`` is reported only for the
    unbounded regimes; bounded series carry the max observed msd instead."""

    regime: DispersionRegime
    exponent: Optional[float] = None
    exponent_ci: Optional[float] = None
    bound: Optional[float] = None
    window: tuple = field(default=())

    def as_dict(self) -> dict:
        return {
            "regime": self.regime.value,
            "exponent": self.exponent,
            "exponent_ci": self.exponent_ci,
            "bound": self.bound,
            "window": list(self.window),
        }


def classify_dispersion(series: MsdSeries, crossover: float,
                        flat_ratio: float = 1.5) -> DispersionVerdict:
    """Classify spreading from the msd tail past the crossover time.

    Boundedness is checked first: if max/min over the window stays below
    ``flat_ratio`` the verdict is NON_DISPERSIVE and no slope is fitted.
    Otherwise the log-log slope over the window decides ENHANCED (ballistic,
    slope in [1.7, 2.3]) vs NORMAL (diffusive, in [0.7, 1.3]); a slope in
    neither band raises DispersionFitError carrying the fit. The window must
    span at least one decade in t past the crossover. Invariant under
    rescaling t -> c*t (the crossover rescales with it).
    """
    if crossover <= 0:
        raise ValueError("crossover must be > 0")
    mask = series.times >= crossover
    t = series.times[mask]
    v = series.values[mask]
    if t.size < 4:
        raise DispersionFitError(
            f"only {t.size} samples past the crossover t={crossover}; need >= 4")
    window = (float(t[0]), float(t[-1]))

    vmax, vmin = float(np.max(v)), float(np.min(v))
    if vmin > 0 and vmax / vmin < flat_ratio:
        return DispersionVerdict(regime=DispersionRegime.NON_DISPERSIVE,
                                 bound=vmax, window=window)

    if t[-1] < 10.0 * t[0]:
        raise DispersionFitError(
            f"window [{t[0]:.3g}, {t[-1]:.3g}] spans less than a decade past the crossover")
    if np.any(v <= 0):
        raise DispersionFitError("msd must be positive for a log-log fit")
    logt, logv = np.log(t), np.log(v)
    A = np.vstack([logt, np.ones_like(logt)]).T
    coef, res_sum, *_ = np.linalg.lstsq(A, logv, rcond=None)
    slope = float(coef[0])
    dof = max(t.size - 2, 1)
    resid = float(res_sum[0]) if len(res_sum) else float(np.sum((logv - A @ coef) ** 2))
    denom = float(np.sum((logt - logt.mean()) ** 2))
    ci = 1.96 * np.sqrt(resid / dof / denom) if denom > 0 else np.inf

    enhanced, normal = (1.7, 2.3), (0.7, 1.3)
    if enhanced[0] <= slope <= enhanced[1]:
        regime = DispersionRegime.ENHANCED
    elif normal[0] <= slope <= normal[1]:
        regime = DispersionRegime.NORMAL
    else:
        raise DispersionFitError(
            f"fitted exponent {slope:.3f} fits neither band "
            f"enhanced={enhanced} nor normal={normal}", exponent=slope)
    return DispersionVerdict(regime=regime, exponent=slope, exponent_ci=float(ci),
                             window=window)


@dataclass(frozen=True)
class FieldComparison:
    l1: float
    l2: float
    linf: float
    moment_rel_err: tuple  # orders 0, 1, 2 against the reference

    def as_dict(self) -> dict:
        return {"l1": self.l1, "l2": self.l2, "linf": self.linf,
                "moment_rel_err": list(self.moment_rel_err)}


def compare_fields(a: ScalarField, ref: ScalarField) -> FieldComparison:
    """Distances between a field and a reference on the same grid: integral
    L1/L2 norms, pointwise Linf, and relative errors of moments 0..2
    (absolute where the reference moment is ~0)."""
    if a.grid != ref.grid:
        raise ValueError("fields must share a grid")
    diff = a.values - ref.values
    g = a.grid
    l1 = integrate(ScalarField(g, np.abs(diff)))
    l2 = float(np.sqrt(integrate(ScalarField(g, diff**2))))
    linf = float(np.max(np.abs(diff)))
    moments = []
    for k in range(3):
        ma = integrate(ScalarField(g, g.x**k * a.values))
        mr = integrate(ScalarField(g, g.x**k * ref.values))
        err = abs(ma - mr)
        if abs(mr) > 1e-12:
            err /= abs(mr)
        moments.append(float(err))
    return FieldComparison(l1=float(l1), l2=l2, linf=linf, moment_rel_err=tuple(moments))
