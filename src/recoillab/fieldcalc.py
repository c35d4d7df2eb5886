"""Hydrodynamic field algebra: osmotic velocity, pressure potential, and the
residual operators that certify a set of fields against the governing laws.

Two sign conventions run through everything here. ``STANDARD`` is ordinary
overdamped diffusion, whose Hamilton-Jacobi form reads

    dS/dt + |grad S|^2/2 + Q = Omega,

``RECOIL`` is the back-reacting variant with the pressure term flipped:

    dS/dt + |grad S|^2/2 - Q = -Omega.

The momentum laws are the gradients of these. Residual operators return the
pointwise defect as a ScalarField; exact inputs give zero to roundoff, meshed
inputs give O(dt^2 + dx^2).
"""

import enum
from dataclasses import dataclass
from typing import Optional, Sequence

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
    P     pressure, integrated from grad P = rho grad Q with P(x_min) = 0
    j     probability current, rho v
    phi   drift potential, ln(rho)/2 + S/(2D), so b = 2D grad phi
    """

    t: float
    rho: ScalarField
    S: ScalarField
    v: ScalarField
    u: ScalarField
    b: ScalarField
    Q: ScalarField
    Omega: ScalarField
    P: ScalarField
    j: ScalarField
    phi: ScalarField

    def __post_init__(self):
        grids = {f.grid for f in (self.rho, self.S, self.v, self.u, self.b,
                                  self.Q, self.Omega, self.P, self.j, self.phi)}
        if len(grids) != 1:
            raise ValueError("all fields of a slice must share one grid")
        if np.any(self.rho.values < -1e-12):
            raise ValueError("density must be >= 0 (tolerance -1e-12)")

    @property
    def grid(self) -> Grid1D:
        return self.rho.grid


def floor_density(rho: ScalarField, rel_floor: float = 1e-300):
    """Clamp rho from below at rel_floor * max(rho).

    Returns the floored field and the fraction of nodes that were raised.
    The default floor only removes exact zeros and denormals; it exists so
    that log/division never produce inf, not to hide resolution problems.
    """
    peak = float(np.max(rho.values))
    if peak <= 0:
        raise ValueError("density is identically zero")
    floor = rel_floor * peak
    clipped = np.maximum(rho.values, floor)
    fraction = float(np.mean(rho.values < floor))
    return ScalarField(rho.grid, clipped), fraction


def osmotic_velocity(rho: ScalarField, D: float, rel_floor: float = 1e-300) -> ScalarField:
    """u = D grad(ln rho), with the density floored before the log."""
    safe, _ = floor_density(rho, rel_floor)
    return ScalarField(rho.grid, D * gradient(ScalarField(rho.grid, np.log(safe.values))).values)


def pressure_potential(rho: ScalarField, D: float, rel_floor: float = 1e-300):
    """Osmotic pressure potential Q = u^2/2 + D div(u) and the pressure P,

        grad P = rho grad Q,   P(x_min) = 0.

    Returns (Q, P).
    """
    u = osmotic_velocity(rho, D, rel_floor)
    Q = ScalarField(rho.grid, 0.5 * u.values**2 + D * gradient(u).values)
    return Q, pressure_from_density(rho, Q)


def pressure_from_density(rho: ScalarField, Q: ScalarField) -> ScalarField:
    """Integrate grad P = rho grad Q from the left boundary (P(x_min) = 0)."""
    integrand = rho.values * gradient(Q).values
    P = cumulative_trapezoid(integrand, dx=rho.grid.dx)
    return ScalarField(rho.grid, P)


def omega_from_drift(b: ScalarField, dphi_dt: ScalarField, D: float,
                     phi: Optional[ScalarField] = None, gradient_tol: float = 1e-6) -> ScalarField:
    """Auxiliary potential from the drift of a diffusion, b = 2D grad(phi):

        Omega = 2D [ dphi/dt + (b^2/(2D) + div b)/2 ]

    If ``phi`` is supplied, 2D grad(phi) is checked against b (the drift must
    be the gradient field of phi).
    """
    if phi is not None:
        defect = 2.0 * D * gradient(phi).values - b.values
        scale = max(float(np.max(np.abs(b.values))), 1.0)
        if np.max(np.abs(defect)) > gradient_tol * scale:
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


def hj_residual_from_slices(slices: Sequence[HydroFields], sign: SignConvention) -> ScalarField:
    """hj_residual at the middle of three consecutive slices, with dS/dt taken
    as the centered difference of the outer two."""
    prev, mid, nxt = _three(slices)
    return hj_residual(mid, time_derivative(prev.S, nxt.S, nxt.t - prev.t), sign)


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


def momentum_residual_from_slices(slices: Sequence[HydroFields], sign: SignConvention) -> ScalarField:
    prev, mid, nxt = _three(slices)
    return momentum_residual(mid, time_derivative(prev.v, nxt.v, nxt.t - prev.t), sign)


def girsanov_residual(h: HydroFields, dphi_dt: ScalarField, Omega_r: ScalarField, D: float) -> ScalarField:
    """Defect of the drift-potential identity

        Omega_r = 2D [ dphi/dt + (b^2/(2D) + div b)/2 ]

    for the recoil drift b = v + u with phi = ln(rho)/2 + S/(2D).
    """
    rhs = omega_from_drift(h.b, dphi_dt, D)
    return ScalarField(h.grid, Omega_r.values - rhs.values)


def girsanov_residual_from_slices(slices: Sequence[HydroFields], Omega_r: ScalarField, D: float) -> ScalarField:
    prev, mid, nxt = _three(slices)
    return girsanov_residual(mid, time_derivative(prev.phi, nxt.phi, nxt.t - prev.t), Omega_r, D)


def volume_momentum_rate(h: HydroFields, interval) -> float:
    """Momentum input rate over a fixed interval: integral of
    rho * grad(Omega - Q) over [a, b]."""
    a, b = interval
    integrand = h.rho.values * (gradient(h.Omega).values - gradient(h.Q).values)
    return integrate_interval(ScalarField(h.grid, integrand), a, b)


def comoving_interval_mass_check(h: HydroFields, rho_next: ScalarField, dt: float, interval) -> float:
    """Advect interval endpoints with the current velocity and report the
    mass defect |M(t+dt, advected) - M(t, fixed)|; O(dt^2) for consistent
    fields. ``rho_next`` is the density at t + dt."""
    if dt <= 0:
        raise ValueError("dt must be > 0")
    a, b = interval
    g = h.grid
    va = float(np.interp(a, g.x, h.v.values))
    vb = float(np.interp(b, g.x, h.v.values))
    mass_now = integrate_interval(h.rho, a, b)
    mass_next = integrate_interval(rho_next, a + va * dt, b + vb * dt)
    return abs(mass_next - mass_now)


def hydro_from_rho_S(t: float, rho: ScalarField, S: ScalarField, D: float,
                     Omega: Optional[ScalarField] = None, rel_floor: float = 1e-300) -> HydroFields:
    """Assemble a full slice from (rho, S) with every derived field computed
    on the mesh. Omega defaults to zeros (free dynamics)."""
    grid = rho.grid
    if Omega is None:
        Omega = ScalarField(grid, np.zeros(grid.n))
    v = gradient(S)
    u = osmotic_velocity(rho, D, rel_floor)
    b = ScalarField(grid, v.values + u.values)
    Q, P = pressure_potential(rho, D, rel_floor)
    safe, _ = floor_density(rho, rel_floor)
    phi = ScalarField(grid, 0.5 * np.log(safe.values) + S.values / (2.0 * D))
    j = ScalarField(grid, rho.values * v.values)
    return HydroFields(t=t, rho=rho, S=S, v=v, u=u, b=b, Q=Q, Omega=Omega, P=P, j=j, phi=phi)


def hydro_from_arrays(t: float, grid: Grid1D, D: float, *, rho, S, v, u, Q,
                      Omega=None, P=None, b=None, check: bool = True) -> HydroFields:
    """Assemble a slice from exact (closed-form) arrays.

    v + u is used for b unless given; P is integrated from grad P = rho grad Q
    unless given; phi and j are always derived. With ``check`` the b = v + u
    consistency is asserted.
    """
    rho_f = ScalarField(grid, rho)
    S_f = ScalarField(grid, S)
    v_f = ScalarField(grid, v)
    u_f = ScalarField(grid, u)
    Q_f = ScalarField(grid, Q)
    b_arr = v_f.values + u_f.values if b is None else np.asarray(b, dtype=float)
    if check and b is not None:
        scale = max(float(np.max(np.abs(b_arr))), 1.0)
        if np.max(np.abs(b_arr - v_f.values - u_f.values)) > 1e-9 * scale:
            raise ValueError("b != v + u in supplied fields")
    b_f = ScalarField(grid, b_arr)
    Omega_f = ScalarField(grid, np.zeros(grid.n) if Omega is None else Omega)
    P_f = pressure_from_density(rho_f, Q_f) if P is None else ScalarField(grid, P)
    safe, _ = floor_density(rho_f)
    phi_f = ScalarField(grid, 0.5 * np.log(safe.values) + S_f.values / (2.0 * D))
    j_f = ScalarField(grid, rho_f.values * v_f.values)
    return HydroFields(t=t, rho=rho_f, S=S_f, v=v_f, u=u_f, b=b_f, Q=Q_f,
                       Omega=Omega_f, P=P_f, j=j_f, phi=phi_f)


def _three(slices: Sequence[HydroFields]):
    if len(slices) != 3:
        raise ValueError("need exactly three consecutive slices")
    prev, mid, nxt = slices
    if not (prev.t < mid.t < nxt.t):
        raise ValueError("slices must be time-ordered")
    return prev, mid, nxt
