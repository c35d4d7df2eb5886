"""Observables and verdicts: mean-square displacement, energy budgets,
dispersion-regime classification, and field comparison metrics.

The dispersion regime of a route is read from its msd over the window
[t_end/10, t_end]: bounded (max/min below a ratio), or else the log-log
slope of the excess msd(t) - msd(0), which is 2 D^2 t^2 / alpha^2 for free
recoil and 2 D t for Brownian motion from t = 0 on. Every series gets a
verdict; ``ambiguous`` and ``too_short`` are regimes, not errors.

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
    AMBIGUOUS = "ambiguous"    # growing, but with no exponent in either band
    TOO_SHORT = "too_short"    # fewer than two samples in the window


@dataclass(frozen=True)
class MsdSeries:
    """<x^2>(t) samples from one route; times strictly increasing, msd >= 0."""

    times: np.ndarray
    values: np.ndarray
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


def msd_from_fields(times, rhos: Iterable[ScalarField]) -> MsdSeries:
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
    return MsdSeries(np.asarray(times, dtype=float), np.asarray(values))


def msd_from_ensemble(states: Sequence[EnsembleState]) -> MsdSeries:
    """Second moment of each ensemble snapshot with jackknife standard errors."""
    times, values, errs = [], [], []
    for s in states:
        m = empirical_moments(s, orders=(2,))[2]
        times.append(s.t)
        values.append(m.value)
        errs.append(m.stderr)
    return MsdSeries(np.asarray(times), np.asarray(values), stderr=np.asarray(errs))


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
    """Outcome of classify_dispersion. ``exponent`` is the fitted slope of a
    growing series (``exponent_ci`` its 95 % half-width, given from three
    samples on); bounded series carry the max observed msd instead."""

    regime: DispersionRegime
    exponent: Optional[float] = None
    exponent_ci: Optional[float] = None
    bound: Optional[float] = None
    window: tuple = field(default=())


def classify_dispersion(series: MsdSeries, flat_ratio: float = 1.5) -> DispersionVerdict:
    """Classify spreading over the window [t_end/10, t_end] of the series.

    Boundedness is checked first: if max/min over the window stays below
    ``flat_ratio`` the verdict is NON_DISPERSIVE and no slope is fitted.
    Otherwise the log-log slope of the excess msd(t) - msd(t_0) over the
    window decides ENHANCED (ballistic, slope in [1.7, 2.3]) or NORMAL
    (diffusive, in [0.7, 1.3]); t_0 is the first sample, t = 0 in every
    route. A slope in neither band, or an excess that is not positive
    across the window, is AMBIGUOUS; fewer than two samples in the window
    is TOO_SHORT. Invariant under rescaling t -> c*t.
    """
    mask = series.times >= series.times[-1] / 10.0
    t = series.times[mask]
    v = series.values[mask]
    window = (float(t[0]), float(t[-1])) if t.size else ()
    if t.size < 2:
        return DispersionVerdict(regime=DispersionRegime.TOO_SHORT, window=window)

    vmax, vmin = float(np.max(v)), float(np.min(v))
    if vmin > 0 and vmax / vmin < flat_ratio:
        return DispersionVerdict(regime=DispersionRegime.NON_DISPERSIVE,
                                 bound=vmax, window=window)

    excess = v - series.values[0]
    if np.any(excess <= 0):
        return DispersionVerdict(regime=DispersionRegime.AMBIGUOUS, window=window)
    # least squares by hand: a first call into numpy's LAPACK (polyfit,
    # lstsq) would add about 1.4 MB to the run's peak resident memory
    logt, logv = np.log(t), np.log(excess)
    dlogt, dlogv = logt - np.mean(logt), logv - np.mean(logv)
    sxx = float(np.sum(dlogt**2))
    slope = float(np.sum(dlogt * dlogv)) / sxx
    ci = None
    if t.size > 2:  # two points fit exactly and carry no error estimate
        resid = dlogv - slope * dlogt
        ci = float(1.96 * np.sqrt(np.sum(resid**2) / (t.size - 2) / sxx))
    if 1.7 <= slope <= 2.3:
        regime = DispersionRegime.ENHANCED
    elif 0.7 <= slope <= 1.3:
        regime = DispersionRegime.NORMAL
    else:
        regime = DispersionRegime.AMBIGUOUS
    return DispersionVerdict(regime=regime, exponent=slope, exponent_ci=ci, window=window)


@dataclass(frozen=True)
class FieldComparison:
    l1: float
    l2: float
    linf: float
    moment_rel_err: tuple  # orders 0, 1, 2 against the reference


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
