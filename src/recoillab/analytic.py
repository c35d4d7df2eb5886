"""Closed-form reference solutions for the built-in scenarios.

Four families, all starting from the normalized Gaussian cloud
rho0(x) = (pi alpha^2)^(-dim/2) exp(-x^2/alpha^2):

* ``FreeBrownianSolution`` -- overdamped diffusion with zero drift; the
  density is the heat kernel shifted by the reference time t0 = alpha^2/(4D).
* ``FreeRecoilSolution`` -- free dynamics with medium back-reaction; the
  cloud spreads ballistically, <x^2> = alpha^2/2 + 2 D^2 t^2/alpha^2.
* ``HarmonicRecoilSolution`` -- back-reacting dynamics in a harmonic
  confinement of rate gamma; the width breathes periodically and is
  stationary exactly when alpha^2 = 2D/gamma.
* ``OrnsteinUhlenbeckSolution`` -- overdamped diffusion under the linear
  restoring drift b = -gamma x; the variance relaxes to D/gamma.

Everything here is exact: no meshes, no finite differences. These formulas
are the oracles that every solver route is measured against.
"""

from dataclasses import dataclass

import numpy as np

from .core import PhysicalParams, ScalarField, gradient


def _free_fields(sol, x, t) -> dict:
    """Every field method of a free solution evaluated at (x, t)."""
    return {k: getattr(sol, k)(x, t) for k in ("rho", "v", "u", "b", "S", "Q", "P")}


@dataclass(frozen=True)
class FreeBrownianSolution:
    """Zero-drift diffusion of a Gaussian cloud in ``dim`` dimensions (1 or 3).

    For dim = 3 the density factorizes over the axes, so scalar ``x`` below is
    the radial distance and the printed fields are radially symmetric
    profiles. ``axis_marginal_rho`` gives the one-axis marginal that lives on
    a 1D mesh.
    """

    params: PhysicalParams
    dim: int = 1

    def __post_init__(self):
        if self.dim not in (1, 3):
            raise ValueError(f"dim must be 1 or 3, got {self.dim}")

    def _tau(self, t):
        if np.any(np.asarray(t) < 0):
            raise ValueError("t must be >= 0")
        return t + self.params.t0

    def rho(self, x, t):
        D = self.params.D
        tau = self._tau(t)
        return (4.0 * np.pi * D * tau) ** (-0.5 * self.dim) * np.exp(-(x**2) / (4.0 * D * tau))

    def axis_marginal_rho(self, x, t):
        """One-axis marginal of the dim-dimensional density (a normalized 1D
        Gaussian of variance 2 D (t + t0))."""
        D = self.params.D
        tau = self._tau(t)
        return (4.0 * np.pi * D * tau) ** -0.5 * np.exp(-(x**2) / (4.0 * D * tau))

    def v(self, x, t):
        return x / (2.0 * self._tau(t))

    def u(self, x, t):
        return -x / (2.0 * self._tau(t))

    def b(self, x, t):
        # current + osmotic velocity cancel: the process has zero drift
        return np.zeros_like(np.asarray(x, dtype=float))

    def S(self, x, t):
        D = self.params.D
        tau = self._tau(t)
        return x**2 / (4.0 * tau) + 0.5 * self.dim * D * np.log(4.0 * np.pi * D * tau)

    def Q(self, x, t):
        D = self.params.D
        tau = self._tau(t)
        return x**2 / (8.0 * tau**2) - self.dim * D / (2.0 * tau)

    def P(self, x, t):
        D = self.params.D
        tau = self._tau(t)
        return -(D / (2.0 * tau)) * self.rho(x, t)

    def fields(self, x, t) -> dict:
        """All hydrodynamic fields at (x, t) as plain arrays."""
        return _free_fields(self, x, t)

    def msd(self, t):
        """<|x|^2>(t) = 2 dim D (t + t0)."""
        return 2.0 * self.dim * self.params.D * self._tau(t)

    def kinetic(self, t):
        """Kinetic energy of the current velocity, dim*D/(4(t+t0));
        equals dim*D^2/alpha^2 at t = 0 and decays to zero."""
        return self.dim * self.params.D / (4.0 * self._tau(t))

    def time_derivatives(self, x, t) -> dict:
        """Exact time derivatives used by the residual operators."""
        D = self.params.D
        tau = self._tau(t)
        return {
            "dS_dt": -(x**2) / (4.0 * tau**2) + 0.5 * self.dim * D / tau,
            "dv_dt": -x / (2.0 * tau**2),
            "dlnrho_dt": -0.5 * self.dim / tau + x**2 / (4.0 * D * tau**2),
        }


@dataclass(frozen=True)
class FreeRecoilSolution:
    """Free (no external potential) dynamics with medium back-reaction, 1D.

    den(t) = alpha^4 + 4 D^2 t^2 below. Total energy D^2/alpha^2 is conserved;
    the spreading is ballistic at late times.
    """

    params: PhysicalParams

    def _den(self, t):
        if np.any(np.asarray(t) < 0):
            raise ValueError("t must be >= 0")
        p = self.params
        return p.alpha**4 + 4.0 * p.D**2 * t**2

    def rho(self, x, t):
        a = self.params.alpha
        den = self._den(t)
        return a / np.sqrt(np.pi * den) * np.exp(-(x**2) * a**2 / den)

    def S(self, x, t):
        p = self.params
        den = self._den(t)
        return 2.0 * p.D**2 * x**2 * t / den - p.D * np.arctan(2.0 * p.D * t / p.alpha**2)

    def v(self, x, t):
        D = self.params.D
        return 4.0 * D**2 * t * x / self._den(t)

    def u(self, x, t):
        p = self.params
        return -2.0 * p.D * p.alpha**2 * x / self._den(t)

    def b(self, x, t):
        p = self.params
        return 2.0 * p.D * (2.0 * p.D * t - p.alpha**2) * x / self._den(t)

    def Q(self, x, t):
        p = self.params
        den = self._den(t)
        c = 2.0 * p.D**2 * p.alpha**2 / den
        return c * (p.alpha**2 * x**2 / den - 1.0)

    def P(self, x, t):
        p = self.params
        den = self._den(t)
        return -(2.0 * p.D**2 * p.alpha**2 / den) * self.rho(x, t)

    def phi(self, x, t):
        """Drift potential with b = 2 D grad(phi): phi = ln(rho)/2 + S/(2D)."""
        return 0.5 * np.log(self.rho(x, t)) + self.S(x, t) / (2.0 * self.params.D)

    def fields(self, x, t) -> dict:
        return _free_fields(self, x, t)

    def msd(self, t):
        """<x^2>(t) = alpha^2/2 + 2 D^2 t^2 / alpha^2."""
        p = self.params
        return p.alpha**2 / 2.0 + 2.0 * p.D**2 * t**2 / p.alpha**2

    def kinetic(self, t):
        p = self.params
        return 4.0 * p.D**4 * t**2 / (p.alpha**2 * self._den(t))

    @property
    def total_energy(self) -> float:
        """Conserved total (kinetic + osmotic) energy D^2/alpha^2."""
        p = self.params
        return p.D**2 / p.alpha**2

    def time_derivatives(self, x, t) -> dict:
        p = self.params
        D, a = p.D, p.alpha
        den = self._den(t)
        dden = 8.0 * D**2 * t
        dS_dt = (
            2.0 * D**2 * x**2 * (den - t * dden) / den**2
            - 2.0 * D**2 * a**2 / den
        )
        dv_dt = 4.0 * D**2 * x * (den - t * dden) / den**2
        dlnrho_dt = -0.5 * dden / den + x**2 * a**2 * dden / den**2
        return {
            "dS_dt": dS_dt,
            "dv_dt": dv_dt,
            "dlnrho_dt": dlnrho_dt,
            "dphi_dt": 0.5 * dlnrho_dt + dS_dt / (2.0 * D),
        }


@dataclass(frozen=True)
class HarmonicRecoilSolution:
    """Back-reacting dynamics in harmonic confinement of rate gamma > 0.

    The density stays a centered Gaussian whose variance breathes:

        sigma^2(t) = sigma0^2 cos^2(gamma t) + (D/gamma)^2/sigma0^2 sin^2(gamma t)

    with sigma0^2 = alpha^2/2. The width is constant exactly when
    alpha^2 = 2D/gamma (matched cloud); gamma = 0 is not a member of this
    family (use FreeRecoilSolution).
    """

    params: PhysicalParams

    def __post_init__(self):
        if self.params.gamma <= 0:
            raise ValueError("harmonic recoil needs gamma > 0; use FreeRecoilSolution for gamma = 0")

    @property
    def sigma0_sq(self) -> float:
        return self.params.alpha**2 / 2.0

    @property
    def matched(self) -> bool:
        """True when the initial width equals the stationary width 2D/gamma."""
        p = self.params
        return bool(np.isclose(p.alpha**2, 2.0 * p.D / p.gamma, rtol=1e-12, atol=0.0))

    @property
    def period(self) -> float:
        """Period of the width oscillation, pi/gamma."""
        return np.pi / self.params.gamma

    def msd(self, t):
        p = self.params
        s0 = self.sigma0_sq
        c, s = np.cos(p.gamma * t), np.sin(p.gamma * t)
        return s0 * c**2 + (p.D / p.gamma) ** 2 / s0 * s**2

    def rho(self, x, t):
        var = self.msd(t)
        return np.exp(-(x**2) / (2.0 * var)) / np.sqrt(2.0 * np.pi * var)

    def fields(self, x, t) -> dict:
        p = self.params
        var = self.msd(t)
        s0 = self.sigma0_sq
        dvar = p.gamma * np.sin(2 * p.gamma * t) * ((p.D / p.gamma) ** 2 / s0 - s0)
        return _gaussian_cols(x, var, dvar, p.D)

    def omega(self, x):
        """Auxiliary potential of the scenario: gamma^2 x^2 / 2 - D gamma."""
        p = self.params
        return 0.5 * p.gamma**2 * x**2 - p.D * p.gamma


def ou_variance(params: PhysicalParams, t):
    """Variance of the overdamped Ornstein-Uhlenbeck process b = -gamma x
    started from the alpha-cloud: D/gamma + (alpha^2/2 - D/gamma) exp(-2 gamma t)."""
    p = params
    if p.gamma <= 0:
        raise ValueError("ou_variance needs gamma > 0")
    stat = p.D / p.gamma
    return stat + (p.alpha**2 / 2.0 - stat) * np.exp(-2.0 * p.gamma * t)


@dataclass(frozen=True)
class OrnsteinUhlenbeckSolution:
    """Overdamped diffusion under b = -gamma x started from the alpha-cloud;
    the density stays a centered Gaussian of variance ``ou_variance``."""

    params: PhysicalParams

    def msd(self, t):
        return ou_variance(self.params, t)

    def fields(self, x, t) -> dict:
        p = self.params
        var = ou_variance(p, t)
        dvar = -2.0 * p.gamma * var + 2.0 * p.D
        return _gaussian_cols(x, var, dvar, p.D)


def _gaussian_cols(x, var, dvar_dt, D):
    """Closed-form hydro fields of a centered Gaussian with width history
    var(t): v = (dvar/2var) x, u = -D x / var, S the quadratic v-potential."""
    rho = np.exp(-(x**2) / (2.0 * var)) / np.sqrt(2.0 * np.pi * var)
    S = dvar_dt / (4.0 * var) * x**2
    v = dvar_dt / (2.0 * var) * x
    u = -D * x / var
    Q = D**2 * x**2 / (2.0 * var**2) - D**2 / var
    return {"rho": rho, "S": S, "v": v, "u": u, "b": v + u, "Q": Q}


def smoluchowski_omega(force: ScalarField, params: PhysicalParams) -> ScalarField:
    """Auxiliary potential of an overdamped force field F:

        Omega = F^2/(2 m^2 beta^2) + (D/(m beta)) dF/dx

    For F = -m*beta*gamma*x this gives gamma^2 x^2/2 - D*gamma.
    """
    p = params
    dF = gradient(force)
    values = force.values**2 / (2.0 * p.m**2 * p.beta**2) + (p.D / (p.m * p.beta)) * dF.values
    return ScalarField(force.grid, values)
