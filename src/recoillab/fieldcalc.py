"""Hydrodynamic field algebra: osmotic velocity, pressure potential, and the
residual operators that certify a set of fields against the governing laws.

Two sign conventions run through everything here. ``STANDARD`` is ordinary
overdamped diffusion, whose Hamilton-Jacobi form reads

    dS/dt + |grad S|^2/2 + Q = Omega,

``RECOIL`` is the back-reacting variant with the pressure term flipped:

    dS/dt + |grad S|^2/2 - Q = -Omega.

The momentum laws are the gradients of these. Residual operators take the
slice and its time derivative from the caller and return the pointwise defect
as a ScalarField; exact inputs give zero to roundoff, meshed inputs give
O(dt^2 + dx^2).
"""

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (Grid1D, ScalarField, cumulative_trapezoid, gradient,
                   integrate_interval)


class SignConvention(str, enum.Enum):
    STANDARD = "standard"
    RECOIL = "recoil"


@dataclass(frozen=True)
class HydroFields:
    """One time slice of the hydrodynamic description of a diffusion.

    rho   probability density
    S     velocity potential, v = grad S
    v     current velocity
    u     osmotic velocity, D grad(ln rho)
    b     forward drift, v + u
    Q     osmotic pressure potential, u^2/2 + D div u
    Omega auxiliary potential of the dynamics (zeros when free)
    """

    t: float
    rho: ScalarField
    S: ScalarField
    v: ScalarField
    u: ScalarField
    b: ScalarField
    Q: ScalarField
    Omega: ScalarField

    def __post_init__(self):
        grids = {f.grid for f in (self.rho, self.S, self.v, self.u, self.b,
                                  self.Q, self.Omega)}
        if len(grids) != 1:
            raise ValueError("all fields of a slice must share one grid")
        if np.any(self.rho.values < -1e-12):
            raise ValueError("density must be >= 0 (tolerance -1e-12)")

    @property
    def grid(self) -> Grid1D:
        return self.rho.grid


# The hydro fields of a density are its rounding where rho < SPARSE_FRAC of
# its peak: the files blank them there and the wave's drift rows are 0
SPARSE_FRAC = 1e-12


def sparse(rho: np.ndarray) -> np.ndarray:
    """The nodes where rho < SPARSE_FRAC * max(rho)."""
    return rho < SPARSE_FRAC * float(np.max(rho))


def floor_density(rho: ScalarField) -> ScalarField:
    """Clamp rho from below at 1e-300 * max(rho).

    The floor only removes exact zeros and denormals; it exists so that
    log/division never produce inf, not to hide resolution problems.
    """
    peak = float(np.max(rho.values))
    if peak <= 0:
        raise ValueError("density is identically zero")
    return ScalarField(rho.grid, np.maximum(rho.values, 1e-300 * peak))


def osmotic_velocity(rho: ScalarField, D: float) -> ScalarField:
    """u = D grad(ln rho), with the density floored before the log."""
    safe = floor_density(rho)
    return ScalarField(rho.grid, D * gradient(ScalarField(rho.grid, np.log(safe.values))).values)


def pressure_potential(rho: ScalarField, D: float):
    """Osmotic pressure potential Q = u^2/2 + D div(u) and the pressure P,

        grad P = rho grad Q,   P(x_min) = 0.

    Returns (Q, P).
    """
    Q = osmotic_pressure(osmotic_velocity(rho, D), D)
    return Q, pressure_from_density(rho, Q)


def osmotic_pressure(u: ScalarField, D: float) -> ScalarField:
    """Q = u^2/2 + D div(u) from the osmotic velocity u."""
    return ScalarField(u.grid, 0.5 * u.values**2 + D * gradient(u).values)


def pressure_from_density(rho: ScalarField, Q: ScalarField) -> ScalarField:
    """Integrate grad P = rho grad Q from the left boundary (P(x_min) = 0)."""
    integrand = rho.values * gradient(Q).values
    P = cumulative_trapezoid(integrand, dx=rho.grid.dx)
    return ScalarField(rho.grid, P)


def omega_from_drift(b: ScalarField, dphi_dt: ScalarField, D: float,
                     phi: Optional[ScalarField] = None) -> ScalarField:
    """Auxiliary potential from the drift of a diffusion, b = 2D grad(phi):

        Omega = 2D [ dphi/dt + (b^2/(2D) + div b)/2 ]

    If ``phi`` is supplied, 2D grad(phi) is checked against b to 1e-6 of
    max(|b|, 1) (the drift must be the gradient field of phi).
    """
    if phi is not None:
        defect = 2.0 * D * gradient(phi).values - b.values
        scale = max(float(np.max(np.abs(b.values))), 1.0)
        if np.max(np.abs(defect)) > 1e-6 * scale:
            raise ValueError("b is not 2D grad(phi) within tolerance; drift and potential disagree")
    div_b = gradient(b).values
    values = 2.0 * D * (dphi_dt.values + 0.5 * (b.values**2 / (2.0 * D) + div_b))
    return ScalarField(b.grid, values)


def recoil_potential(Q: ScalarField, Omega: ScalarField) -> ScalarField:
    """Effective potential seen by the reversed dynamics: Omega_r = 2Q - Omega."""
    return ScalarField(Q.grid, 2.0 * Q.values - Omega.values)


def time_derivative(before: ScalarField, after: ScalarField, dt_total: float) -> ScalarField:
    """Centered difference (after - before)/dt_total between two slices that
    straddle the evaluation time."""
    if dt_total <= 0:
        raise ValueError("dt_total must be > 0")
    if before.grid != after.grid:
        raise ValueError("slices must share a grid")
    return ScalarField(before.grid, (after.values - before.values) / dt_total)


def hj_residual(h: HydroFields, dS_dt: ScalarField, sign: SignConvention) -> ScalarField:
    """Hamilton-Jacobi defect of one slice.

    STANDARD: dS/dt + v^2/2 + Q - Omega
    RECOIL:   dS/dt + v^2/2 - Q + Omega
    """
    common = dS_dt.values + 0.5 * h.v.values**2
    if SignConvention(sign) is SignConvention.STANDARD:
        res = common + h.Q.values - h.Omega.values
    else:
        res = common - h.Q.values + h.Omega.values
    return ScalarField(h.grid, res)


def momentum_residual(h: HydroFields, dv_dt: ScalarField, sign: SignConvention) -> ScalarField:
    """Defect of the momentum law.

    STANDARD: dv/dt + v grad v - grad(Omega - Q)
    RECOIL:   dv/dt + v grad v - grad(Q - Omega)
    """
    adv = dv_dt.values + h.v.values * gradient(h.v).values
    gQ = gradient(h.Q).values
    gO = gradient(h.Omega).values
    if SignConvention(sign) is SignConvention.STANDARD:
        res = adv - (gO - gQ)
    else:
        res = adv - (gQ - gO)
    return ScalarField(h.grid, res)


def girsanov_residual(h: HydroFields, dphi_dt: ScalarField, Omega_r: ScalarField, D: float) -> ScalarField:
    """Defect of the drift-potential identity

        Omega_r = 2D [ dphi/dt + (b^2/(2D) + div b)/2 ]

    for the recoil drift b = v + u with phi = ln(rho)/2 + S/(2D).
    """
    rhs = omega_from_drift(h.b, dphi_dt, D)
    return ScalarField(h.grid, Omega_r.values - rhs.values)


def drift_potential(h: HydroFields, D: float) -> ScalarField:
    """phi = ln(rho)/2 + S/(2D), so b = 2D grad(phi); the density is floored
    before the log."""
    safe = floor_density(h.rho)
    return ScalarField(h.grid, 0.5 * np.log(safe.values) + h.S.values / (2.0 * D))


def volume_momentum_rate(h: HydroFields, interval) -> float:
    """Momentum input rate over a fixed interval: integral of
    rho * grad(Omega - Q) over [a, b]."""
    a, b = interval
    integrand = h.rho.values * (gradient(h.Omega).values - gradient(h.Q).values)
    return integrate_interval(ScalarField(h.grid, integrand), a, b)


def hydro_from_rho_S(t: float, rho: ScalarField, S: ScalarField, D: float,
                     Omega: Optional[ScalarField] = None) -> HydroFields:
    """Assemble a full slice from (rho, S) with every derived field computed
    on the mesh. Omega defaults to zeros (free dynamics)."""
    u = osmotic_velocity(rho, D)
    return hydro_from_arrays(
        t, rho.grid, rho=rho.values, S=S.values, v=gradient(S).values,
        u=u.values, Q=osmotic_pressure(u, D).values,
        Omega=None if Omega is None else Omega.values)


def hydro_from_arrays(t: float, grid: Grid1D, *, rho, S, v, u, Q,
                      Omega=None) -> HydroFields:
    """Assemble a slice from exact (closed-form) arrays, with b = v + u."""
    v_f = ScalarField(grid, v)
    u_f = ScalarField(grid, u)
    return HydroFields(t=t, rho=ScalarField(grid, rho), S=ScalarField(grid, S),
                       v=v_f, u=u_f, b=ScalarField(grid, v_f.values + u_f.values),
                       Q=ScalarField(grid, Q),
                       Omega=ScalarField(grid, np.zeros(grid.n) if Omega is None else Omega))
