"""Closed-form reference solutions for the built-in scenarios.

Four families start from the Gaussian cloud rho0 ~ exp(-x^2/alpha^2) and
stay centred Gaussians, so a variance history var(t) = <x^2>(t) fixes each.
``CentredGaussian`` derives every field from var and its first two time
derivatives; a family states only those (the free ones also the gauge of S):

* ``FreeBrownianSolution`` -- zero drift; var = 2 D (t + t0), t0 = alpha^2/(4D).
* ``FreeRecoilSolution`` -- free dynamics with medium back-reaction; ballistic
  spreading, var = alpha^2/2 + 2 D^2 t^2/alpha^2.
* ``HarmonicRecoilSolution`` -- back-reaction in a harmonic confinement of
  rate gamma; the width breathes, and is frozen when alpha^2 = 2D/gamma.
* ``OrnsteinUhlenbeckSolution`` -- overdamped diffusion under b = -gamma x;
  the variance relaxes to D/gamma.

Everything here is exact: no meshes, no finite differences. These formulas
are the oracles that every solver route is measured against.
"""

from dataclasses import dataclass

import numpy as np

from .core import PhysicalParams, ScalarField, gradient


def _nonneg(t):
    if np.any(np.asarray(t) < 0):
        raise ValueError("t must be >= 0")
    return t


@dataclass(frozen=True)
class CentredGaussian:
    """Hydrodynamic fields of a centred Gaussian density with variance
    var(t) = msd(t):

        rho = exp(-x^2/(2 var)) / sqrt(2 pi var)
        v = dvar/(2 var) x,  u = D d(ln rho)/dx = -D x/var,  b = v + u
        S = dvar/(4 var) x^2 + gauge(t)  (so v = dS/dx)
        Q = D^2 x^2/(2 var^2) - D^2/var,  P = -(D^2/var) rho

    A subclass defines ``msd``, ``dvar``, ``ddvar`` and may override ``_gauge``.
    """

    params: PhysicalParams

    def _gauge(self, t):
        """The x-independent part of S and its rate: (S(0, t), dS(0, t)/dt)."""
        return 0.0, 0.0

    def rho(self, x, t):
        var = self.msd(t)
        return np.exp(-(x**2) / (2.0 * var)) / np.sqrt(2.0 * np.pi * var)

    def S(self, x, t):
        return self.dvar(t) / (4.0 * self.msd(t)) * x**2 + self._gauge(t)[0]

    def v(self, x, t):
        # in this order of operations b = v + u is exactly 0 when dvar = 2D
        return self.dvar(t) * x / (2.0 * self.msd(t))

    def u(self, x, t):
        return -self.params.D * x / self.msd(t)

    def b(self, x, t):
        return self.v(x, t) + self.u(x, t)

    def Q(self, x, t):
        D, var = self.params.D, self.msd(t)
        return D**2 * x**2 / (2.0 * var**2) - D**2 / var

    def P(self, x, t):
        return -(self.params.D**2 / self.msd(t)) * self.rho(x, t)

    def phi(self, x, t):
        """Drift potential with b = 2 D grad(phi): phi = ln(rho)/2 + S/(2D)."""
        return 0.5 * np.log(self.rho(x, t)) + self.S(x, t) / (2.0 * self.params.D)

    def kinetic(self, t):
        """Kinetic energy of the current velocity, <v^2>/2 = dvar^2/(8 var)."""
        return self.dvar(t) ** 2 / (8.0 * self.msd(t))

    def fields(self, x, t) -> dict:
        """The six hydrodynamic columns rho, S, v, u, b, Q at (x, t)."""
        v, u = self.v(x, t), self.u(x, t)
        return {"rho": self.rho(x, t), "S": self.S(x, t), "v": v, "u": u,
                "b": v + u, "Q": self.Q(x, t)}

    def time_derivatives(self, x, t) -> dict:
        """Exact time derivatives used by the residual operators."""
        var, dvar = self.msd(t), self.dvar(t)
        dv_dt = (self.ddvar(t) - dvar**2 / var) / (2.0 * var) * x
        dS_dt = 0.5 * x * dv_dt + self._gauge(t)[1]
        dlnrho_dt = dvar / (2.0 * var) * (x**2 / var - 1.0)
        return {"dS_dt": dS_dt, "dv_dt": dv_dt, "dlnrho_dt": dlnrho_dt,
                "dphi_dt": 0.5 * dlnrho_dt + dS_dt / (2.0 * self.params.D)}


@dataclass(frozen=True)
class FreeBrownianSolution(CentredGaussian):
    """Zero-drift diffusion of the Gaussian cloud: the heat kernel shifted by
    the reference time t0, with the gauge S(0, t) = D/2 ln(2 pi var)."""

    fields = CentredGaussian.fields  # in the class body, where bench/tracing.py wraps it

    def msd(self, t):
        """<x^2>(t) = 2 D (t + t0)."""
        return 2.0 * self.params.D * (_nonneg(t) + self.params.t0)

    def dvar(self, t):
        return 2.0 * self.params.D

    def ddvar(self, t):
        return 0.0

    def _gauge(self, t):
        D, var = self.params.D, self.msd(t)
        return 0.5 * D * np.log(2.0 * np.pi * var), D**2 / var


@dataclass(frozen=True)
class FreeRecoilSolution(CentredGaussian):
    """Free (no external potential) dynamics with medium back-reaction: the
    total energy D^2/alpha^2 is conserved and the spreading is ballistic at
    late times. The gauge is S(0, t) = -D arctan(2 D t/alpha^2)."""

    fields = CentredGaussian.fields  # see FreeBrownianSolution

    def msd(self, t):
        """<x^2>(t) = alpha^2/2 + 2 D^2 t^2 / alpha^2."""
        p = self.params
        return p.alpha**2 / 2.0 + 2.0 * p.D**2 * _nonneg(t) ** 2 / p.alpha**2

    def dvar(self, t):
        return 4.0 * self.params.D**2 * t / self.params.alpha**2

    def ddvar(self, t):
        return 4.0 * self.params.D**2 / self.params.alpha**2

    def _gauge(self, t):
        p = self.params
        return -p.D * np.arctan(2.0 * p.D * t / p.alpha**2), -p.D**2 / self.msd(t)

    @property
    def total_energy(self) -> float:
        """Conserved total (kinetic + osmotic) energy D^2/alpha^2."""
        return self.params.D**2 / self.params.alpha**2


@dataclass(frozen=True)
class HarmonicRecoilSolution(CentredGaussian):
    """Back-reacting dynamics in harmonic confinement of rate gamma > 0.

    The variance breathes:

        sigma^2(t) = sigma0^2 cos^2(gamma t) + (D/gamma)^2/sigma0^2 sin^2(gamma t)

    with sigma0^2 = alpha^2/2. The width is constant exactly when
    alpha^2 = 2D/gamma (matched cloud); gamma = 0 is not a member of this
    family (use FreeRecoilSolution).
    """

    fields = CentredGaussian.fields  # see FreeBrownianSolution

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

    def _swing(self) -> float:
        """(D/gamma)^2/sigma0^2 - sigma0^2, the range of the variance."""
        return (self.params.D / self.params.gamma) ** 2 / self.sigma0_sq - self.sigma0_sq

    def msd(self, t):
        p, s0 = self.params, self.sigma0_sq
        c, s = np.cos(p.gamma * t), np.sin(p.gamma * t)
        return s0 * c**2 + (p.D / p.gamma) ** 2 / s0 * s**2

    def dvar(self, t):
        g = self.params.gamma
        return g * np.sin(2 * g * t) * self._swing()

    def ddvar(self, t):
        g = self.params.gamma
        return 2.0 * g**2 * np.cos(2 * g * t) * self._swing()

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
class OrnsteinUhlenbeckSolution(CentredGaussian):
    """Overdamped diffusion under b = -gamma x started from the alpha-cloud;
    the variance is ``ou_variance``, with dvar = 2D - 2 gamma var."""

    def msd(self, t):
        return ou_variance(self.params, t)

    def dvar(self, t):
        p = self.params
        return -2.0 * p.gamma * self.msd(t) + 2.0 * p.D

    def ddvar(self, t):
        return -2.0 * self.params.gamma * self.dvar(t)


def smoluchowski_omega(drift: ScalarField, params: PhysicalParams) -> ScalarField:
    """Auxiliary potential of an overdamped drift field b:

        Omega = b^2/2 + D db/dx

    For b = -gamma x this gives gamma^2 x^2/2 - D*gamma.
    """
    db = gradient(drift)
    return ScalarField(drift.grid, drift.values**2 / 2.0 + params.D * db.values)
