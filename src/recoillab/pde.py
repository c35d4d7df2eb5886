"""Grid solvers: Fokker-Planck in flux form and the linearizing wave equation.

Both march with Crank-Nicolson. The Fokker-Planck operator uses Chang-Cooper
flux rates, which keep the density positive without clipping and reproduce
the exact nodal Boltzmann profile for linear drift. The wave solver is the
Cayley form (I + i dt/2 H) psi' = (I - i dt/2 H) psi, unitary in the discrete
l2 norm, so the norm ledger holds to solver roundoff.

The Fokker-Planck implicit side, and the wave's when it has a potential, is
tridiagonal. A static Fokker-Planck drift is symmetrized once: Chang-Cooper
rates obey detailed balance, so a diagonal S makes S^-1 A S symmetric, and
I - dt/2 S^-1 A S is factored as LDL^T with dpttrf. Each step is then one
dpttrs solve through the Cayley identity
rho' = 2 S (I - dt/2 S^-1 A S)^-1 S^-1 rho - rho, with no product by A.
A time-dependent drift, or a static one whose S cannot be represented, goes
through LAPACK's banded LU instead: dgttrf factors I - dt/2 A (partial
pivoting, O(n)) on every step, and dgttrs solves. The wave march with a
potential factors I + i dt/2 H once with zgttrf and takes each step with a
single zgttrs solve through the same identity
psi' = 2 (I + i dt/2 H)^-1 psi - psi. A singular step matrix raises
SolverError. The six routines come from scipy's compiled module
scipy.linalg._flapack, loaded without running scipy's package init.

One loop, ``solve_schrodinger``, marches both waves: it keeps the norm
ledger, the edge guard, the drift rows and the stored waves, and the march
gives only the step, the norm, a cheap edge certificate and psi at a step.
The free wave (Omega None) needs no solve: H is then D times the Dirichlet
second difference, whose eigenvectors are the DST-I sine vectors, so the
Cayley step multiplies sine coefficient k by exp(-2i arctan lambda_k). That
march builds psi, with one numpy.fft FFT, only where the loop reads it.

The bridge between the two descriptions is the Madelung decomposition:
rho = |psi|^2 and S = 2D * theta with the phase theta unwrapped from x = 0
outward and checked for aliasing. ``madelung_decompose`` derives the full
hydrodynamic slice from it, and each drift row the wave tabulates for the
Fokker-Planck and particle routes is that slice's b = v + u column, 0 where
``fieldcalc.sparse`` blanks the written column.
"""

import importlib.machinery
import importlib.util
import logging
import os
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (ComplexField, Grid1D, ScalarField, SolverError, gradient, steps,
                   stored_index, stored_steps, trapezoid)
from .fieldcalc import HydroFields, hydro_from_rho_S, osmotic_velocity, sparse
from .sde import DriftSource, TabulatedDrift

logger = logging.getLogger(__name__)


def _load_flapack():
    """scipy's compiled LAPACK module, loaded from scipy's linalg directory
    without running ``scipy/__init__`` or the scipy.linalg package (which
    cost about 0.3 s and 18 MB).

    It is registered under its own name, so a later ``import scipy.linalg``
    reuses it. Where scipy or the module cannot be found there, or loading
    it directly raises, the ordinary import loads the same module.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    try:
        dirs = importlib.util.find_spec("scipy").submodule_search_locations
        spec = importlib.machinery.PathFinder.find_spec(
            name, [os.path.join(d, "linalg") for d in dirs])
        module = sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    except Exception:
        sys.modules.pop(name, None)
        return importlib.import_module(name)


_flapack = _load_flapack()
dgttrf, dgttrs, dpttrf, dpttrs, zgttrf, zgttrs = (
    _flapack.dgttrf, _flapack.dgttrs, _flapack.dpttrf, _flapack.dpttrs,
    _flapack.zgttrf, _flapack.zgttrs)


class MadelungError(SolverError):
    """The wave phase is too poorly resolved to define velocities."""


# ---------------------------------------------------------------------------
# Fokker-Planck
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FokkerPlanckProblem:
    """d(rho)/dt = -d/dx [ b rho - D d(rho)/dx ] with zero-flux boundaries."""

    grid: Grid1D
    rho0: ScalarField
    drift: DriftSource
    D: float
    dt: float
    t_end: float
    snapshot_stride: int = 1

    def __post_init__(self):
        if self.D <= 0:
            raise ValueError("D must be > 0")
        if self.snapshot_stride < 1:
            raise ValueError("snapshot_stride must be >= 1")
        if np.any(self.rho0.values < 0):
            raise ValueError("rho0 must be >= 0")
        mass = trapezoid(self.rho0.values, dx=self.grid.dx)
        if abs(mass - 1.0) > 1e-8:
            raise ValueError(f"rho0 must be normalized, integral = {mass}")


@dataclass(frozen=True)
class FpSolution:
    grid: Grid1D
    times: np.ndarray
    rhos: list
    mass_drift_max: float
    min_density: float
    mass_change: float  # final minus initial sum(rho) dx
    positivity_bound: float  # dt/2 max|A_ii| at t = 0
    march: str = "LAPACK"  # or "symmetric", the static drift's LDL^T march

    def rho_at(self, t: float) -> ScalarField:
        return self.rhos[stored_index(self.times, t)]


def _bernoulli(w: np.ndarray) -> np.ndarray:
    """B(w) = w/expm1(w), B(0) = 1, to full relative precision. expm1 is
    capped at w = 700, below its overflow at 709.8, so B stays finite and
    positive where it would round to 0."""
    e = np.expm1(np.minimum(w, 700.0))
    return np.divide(w, e, out=np.ones_like(w), where=e != 0.0)


def _fp_operator(bhalf: np.ndarray, D: float, dx: float, n: int):
    """Tridiagonal Chang-Cooper flux-divergence operator A with rho_dot = A rho.

    Across face i+1/2, with w = b dx / D, node i sends mass at the rate
    D/dx^2 B(-w) and node i+1 sends it back at D/dx^2 B(w): the exact
    Chang-Cooper (Scharfetter-Gummel) rates, both positive. Their ratio e^w
    makes the discrete Boltzmann profile rho_{i+1}/rho_i = e^w the zero-flux
    state. Returns (lower, diag, upper): lower[i] = A[i+1, i], upper[i] =
    A[i, i+1]. Zero-flux boundaries; columns of A sum to zero, so
    Sum(rho)*dx is conserved by any consistent time integrator.
    """
    with np.errstate(under="ignore"):  # a subnormal w flushes to 0, where B = 1
        w = bhalf * dx / D
    inflow = D / dx**2 * _bernoulli(-w)
    outflow = D / dx**2 * _bernoulli(w)
    diag = np.zeros(n)
    diag[:-1] -= inflow
    diag[1:] -= outflow
    return inflow, diag, outflow


def _tridiag_matvec(lower, diag, upper, v):
    out = diag * v
    out[1:] += lower * v[:-1]
    out[:-1] += upper * v[1:]
    return out


# the largest ln(max s / min s) of a symmetrized march, well inside the
# double range (e^709.8), so rho / s stays finite where rho is
_MAX_LOG_SCALE = 600.0


def _symmetrize(lower: np.ndarray, upper: np.ndarray):
    """The diagonal scaling s with s_{i+1}/s_i = sqrt(lower_i/upper_i),
    max s = 1, and the off-diagonal sqrt(lower_i upper_i) of the symmetric
    S^-1 A S. None when a rate is not positive (zero or NaN) or s spans
    more than _MAX_LOG_SCALE in its logarithm.

    s is a running product of the ratios, not an exp of their summed logs,
    so each neighbour ratio s_{i+1}/s_i, which is what keeps the columns of
    S (S^-1 A S) S^-1 summing to zero, is off by a few ulps at any span.
    """
    if not (np.all(lower > 0.0) and np.all(upper > 0.0)):  # False on NaN too
        return None
    ratio = np.sqrt(lower / upper)
    log_s = np.cumsum(np.log(ratio))  # less ln s_0 = 0, which the span includes
    if not max(log_s.max(), 0.0) - min(log_s.min(), 0.0) <= _MAX_LOG_SCALE:
        return None
    s = np.cumprod(np.concatenate(([1.0], ratio)))
    return s / s.max(), upper * ratio


def _check_lapack(info: int, routine: str) -> None:
    """Map a nonzero LAPACK ``info`` to SolverError: > 0 is an exactly zero
    pivot (singular step matrix; for dpttrf a nonpositive one), < 0 an
    invalid argument."""
    if info > 0:
        raise SolverError(f"{routine}: step matrix is singular (zero pivot {info})")
    if info < 0:
        raise SolverError(f"{routine}: argument {-info} is invalid")


def solve_fokker_planck(p: FokkerPlanckProblem) -> FpSolution:
    """Crank-Nicolson over the Chang-Cooper operator.

    A static drift takes the symmetric march: with S from ``_symmetrize``,
    dpttrf factors I - dt/2 S^-1 A S once and each step is
    rho' = 2 S (I - dt/2 S^-1 A S)^-1 S^-1 rho - rho, one dpttrs solve and
    three vector operations. The Cayley identity is exact here because both
    sides use the same A. A time-dependent drift, or a static one that
    ``_symmetrize`` refuses, takes the LAPACK march: on every step dgttrf
    factors I - dt/2 A and dgttrs solves against (I + dt/2 A) rho. The
    implicit side uses A(t+dt) and the explicit side A(t), which keeps a
    time-dependent march second order.
    Raises SolverError when the step matrix is singular, when the mass
    ledger moves more than 1e-12 in a step, or when the density undershoots
    below -1e-12.
    """
    grid, dx, n = p.grid, p.grid.dx, p.grid.n
    x_half = grid.x[:-1] + 0.5 * dx
    kappa = 0.5 * p.dt
    n_steps = steps(p.t_end, p.dt)
    stored = stored_steps(n_steps, p.snapshot_stride)

    time_dependent = getattr(p.drift, "time_dependent", True)

    def operator(t):
        return _fp_operator(p.drift(x_half, t), p.D, dx, n)

    tri_now = operator(0.0)
    # Crank-Nicolson keeps rho >= 0 while its explicit half I + dt/2 A has no
    # negative entry, dt/2 max|A_ii| <= 1 (the implicit side is an
    # M-matrix). Chang-Cooper gives |A_ii| <= 2D/dx^2 + max|b|/dx at nodes
    # the drift does not leave through both faces (2 max|b|).
    bound = kappa * float(np.max(-tri_now[1]))
    logger.info("fokker-planck dt=%.3g, positivity bound dt/2 max|A_ii| = %.3g at t=0 (%s)",
                p.dt, bound,
                "respected" if bound <= 1.0 else "exceeded; the density may undershoot")
    symmetric = None if time_dependent else _symmetrize(tri_now[0], tri_now[2])
    if symmetric is not None:
        s, off = symmetric
        *ldl, info = dpttrf(1.0 - kappa * tri_now[1], -kappa * off,
                            overwrite_d=True, overwrite_e=True)
        _check_lapack(info, "dpttrf")
        two_s, inv_s = 2.0 * s, 1.0 / s

        def advance(rho, t_next):
            y, info = dpttrs(*ldl, rho * inv_s, overwrite_b=True)
            _check_lapack(info, "dpttrs")
            y *= two_s
            y -= rho
            return y
    else:
        def advance(rho, t_next):
            nonlocal tri_now
            rhs = rho + kappa * _tridiag_matvec(*tri_now, rho)
            tri_now = lower, diag, upper = operator(t_next)
            *lu, info = dgttrf(-kappa * lower, 1.0 - kappa * diag, -kappa * upper,
                               overwrite_dl=True, overwrite_d=True, overwrite_du=True)
            _check_lapack(info, "dgttrf")
            rho, info = dgttrs(*lu, rhs, overwrite_b=True)
            _check_lapack(info, "dgttrs")
            return rho

    rho = p.rho0.values.copy()
    mass0 = mass = float(rho.sum() * dx)
    mass_drift_max = 0.0
    min_density = float(rho.min())
    rhos = [ScalarField(grid, rho)]
    for k in range(n_steps):
        t_next = (k + 1) * p.dt
        rho = advance(rho, t_next)
        new_mass = float(rho.sum() * dx)
        mass_drift_max = max(mass_drift_max, abs(new_mass - mass))
        # negated comparisons, so a NaN ledger fails too
        if not abs(new_mass - mass) <= 1e-12:
            raise SolverError(f"mass ledger moved {new_mass - mass:.3e} in one step at t={t_next}")
        mass = new_mass
        lo = float(rho.min())
        min_density = min(min_density, lo)
        if not lo >= -1e-12:
            raise SolverError(f"density undershoot {lo:.3e} at t={t_next}")
        if k + 1 == stored[len(rhos)]:  # the next step to store
            rhos.append(ScalarField(grid, rho))
    return FpSolution(grid=grid, times=p.dt * stored, rhos=rhos,
                      mass_drift_max=mass_drift_max, min_density=min_density,
                      mass_change=mass - mass0, positivity_bound=bound,
                      march="LAPACK" if symmetric is None else "symmetric")


# ---------------------------------------------------------------------------
# Linearizing wave equation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SchrodingerProblem:
    """i d(psi)/dt = -D d^2(psi)/dx^2 + (Omega/(2D)) psi, homogeneous Dirichlet.

    Omega must be a static field (or None for free dynamics); time-dependent
    potentials are not supported by this solver. psi0 must be normalized:
    integral |psi0|^2 dx = 1.
    """

    grid: Grid1D
    psi0: ComplexField
    Omega: Optional[ScalarField]
    D: float
    dt: float
    t_end: float
    snapshot_stride: int = 1
    drift_stride: Optional[int] = None
    edge_tol: float = 1e-10

    def __post_init__(self):
        if self.D <= 0:
            raise ValueError("D must be > 0")
        if self.snapshot_stride < 1:
            raise ValueError("snapshot_stride must be >= 1")
        if self.drift_stride is not None and self.drift_stride < 1:
            raise ValueError("drift_stride must be >= 1")
        if not (np.isfinite(self.edge_tol) and self.edge_tol > 0):
            raise ValueError(f"edge_tol must be finite and > 0, got {self.edge_tol!r}")
        norm = trapezoid(np.abs(self.psi0.values) ** 2, dx=self.grid.dx)
        if abs(norm - 1.0) > 1e-8:
            raise ValueError(f"psi0 must be l2-normalized, integral = {norm}")
        if self.Omega is not None and self.Omega.grid != self.grid:
            raise ValueError("Omega must live on the problem grid")


@dataclass(frozen=True)
class WaveSolution:
    grid: Grid1D
    times: np.ndarray
    psis: list
    D: float
    Omega: Optional[ScalarField]
    drift_table: Optional[TabulatedDrift]
    norm_drift_max: float
    march: str = "LAPACK"  # or "sine basis", the free march

    def psi_at(self, t: float) -> ComplexField:
        return self.psis[stored_index(self.times, t)]


def _check_edge(prob: np.ndarray, edge_tol: float, t: float) -> None:
    peak = float(np.max(prob))
    if max(prob[0], prob[-1]) > edge_tol * peak:
        raise SolverError(
            f"wave reached the boundary at t={t} "
            f"(edge density {max(prob[0], prob[-1]) / peak:.2e} of peak); widen the domain"
        )


def solve_schrodinger(p: SchrodingerProblem) -> WaveSolution:
    """Cayley (Crank-Nicolson) march; unitary, so the norm ledger drifts only
    by solver roundoff (<= 1e-12 per step enforced). Aborts when probability
    reaches the Dirichlet boundary (edge density above edge_tol * peak).

    The march is ``_lapack_march`` with a potential and ``_sine_march``
    without one (Omega None). Each gives the four things that differ: take
    a step, the norm, whether its cheap estimate certifies the edge guard,
    and psi at a step. This loop holds the rest: the ledger, the exact
    edge guard where the estimate cannot decide, a drift row
    (``_drift_slice``) every drift_stride steps and a stored wave every
    snapshot_stride steps. It reads psi only at those steps.
    """
    name, advance, norm_of, edge_clear, wave_at = (
        _sine_march(p) if p.Omega is None else _lapack_march(p))
    grid = p.grid
    n_steps = steps(p.t_end, p.dt)
    stored = stored_steps(n_steps, p.snapshot_stride)
    drift_steps = () if p.drift_stride is None else stored_steps(n_steps, p.drift_stride)

    norm = norm_of()
    norm_drift_max = 0.0
    psis = [ComplexField(grid, p.psi0.values)]
    rows = np.empty((len(drift_steps), grid.n))  # the drift table, filled in place
    fed = 0
    if len(rows):
        rows[0] = _drift_slice(p.psi0.values, grid, p.D)
        fed = 1
    for step in range(1, n_steps + 1):
        t = step * p.dt
        advance()
        new_norm = norm_of()
        norm_drift_max = max(norm_drift_max, abs(new_norm - norm))
        # negated comparison, so a NaN ledger fails too
        if not abs(new_norm - norm) <= 1e-12:
            raise SolverError(f"norm ledger moved {new_norm - norm:.3e} in one step at t={t}")
        norm = new_norm
        guarded = not edge_clear(norm)
        feed = fed and step == drift_steps[fed]
        keep = step == stored[len(psis)]
        if not (guarded or feed or keep):
            continue
        psi = wave_at(step)
        if guarded:
            _check_edge(np.abs(psi) ** 2, p.edge_tol, t)
        if feed:
            rows[fed] = _drift_slice(psi, grid, p.D)
            fed += 1
        if keep:
            psis.append(ComplexField(grid, psi))
    table = TabulatedDrift(p.dt * drift_steps, grid, rows) if fed else None
    return WaveSolution(grid=grid, times=p.dt * stored, psis=psis, D=p.D, Omega=p.Omega,
                        drift_table=table, norm_drift_max=norm_drift_max, march=name)


def _lapack_march(p: SchrodingerProblem):
    """The march with a potential, one zgttrs solve a step. The peak density
    is at least the mean norm/(n dx), so edge density at most half of
    edge_tol times the mean certifies the guard (the half covers the
    roundoff between the two)."""
    dx, n = p.grid.dx, p.grid.n
    h_diag = 2.0 * p.D / dx**2 + p.Omega.values / (2.0 * p.D)
    h_off = -p.D / dx**2
    kappa = 0.5j * p.dt
    off = np.full(n - 1, kappa * h_off)
    *lu, info = zgttrf(off, 1.0 + kappa * h_diag, off.copy(),
                       overwrite_dl=True, overwrite_d=True, overwrite_du=True)
    _check_lapack(info, "zgttrf")
    psi = p.psi0.values.copy()
    work = np.empty_like(psi)

    def advance():
        nonlocal psi, work
        np.copyto(work, psi)
        solved, info = zgttrs(*lu, work, overwrite_b=True)
        _check_lapack(info, "zgttrs")
        solved *= 2.0
        solved -= psi
        psi, work = solved, psi

    def norm_of():
        return np.vdot(psi, psi).real * dx

    def edge_clear(norm):
        return max(abs(psi[0]), abs(psi[-1])) ** 2 <= 0.5 * p.edge_tol * norm / (n * dx)

    return "LAPACK", advance, norm_of, edge_clear, lambda step: psi


def _dst1(v: np.ndarray) -> np.ndarray:
    """DST-I, sum_j v_j sin(pi k (j+1)/(n+1)) for k = 1..n, from one FFT of
    length 2(n+1) on the odd extension [0, v, 0, -v reversed]. It is its
    own inverse up to the factor (n+1)/2."""
    n = v.size
    ext = np.zeros(2 * (n + 1), dtype=complex)
    ext[1:n + 1] = v
    ext[n + 2:] = -v[::-1]
    return 0.5j * np.fft.fft(ext)[1:n + 1]


def _sine_march(p: SchrodingerProblem):
    """The free march (Omega None) in the sine basis.

    H = -D d^2/dx^2 with Dirichlet ends has the eigenvectors
    sin(pi k (j+1)/(n+1)), so each step multiplies the DST-I coefficients c
    by exp(-2i arctan lambda_k), lambda_k = (dt D/dx^2)(1 - cos(pi k/(n+1))).

    - The norm comes from Parseval, (2/(n+1)) sum |c_k|^2 dx.
    - The edge estimate reads psi at both edges and at the peak of |psi0|
      from one product of c with their sine rows. Edge density at most half
      of edge_tol times the largest of the three certifies the guard, whose
      peak is at least that large; the half covers the roundoff between the
      two estimates.
    - psi at a step is one FFT. There c is retaken as c0 exp(-i step
      theta_k), so the stored waves carry no step-fold rounding of the
      phase product.
    """
    dx, n = p.grid.dx, p.grid.n
    k = np.arange(1, n + 1)
    lam = (p.dt * p.D / dx**2) * 2.0 * np.sin(0.5 * np.pi * k / (n + 1)) ** 2
    theta = 2.0 * np.arctan(lam)
    phase = np.exp(-1j * theta)
    scale = 2.0 / (n + 1)
    nodes = np.array([0, n - 1, int(np.argmax(np.abs(p.psi0.values)))])
    # sin(pi k (j+1)/(n+1)) with k (j+1) reduced mod 2(n+1) in integers
    probe = (scale * np.sin(np.pi * (np.outer(nodes + 1, k) % (2 * (n + 1))) / (n + 1))
             ).astype(complex)
    c0 = _dst1(p.psi0.values)
    c = c0.copy()

    def advance():
        nonlocal c
        c *= phase

    def norm_of():
        return scale * np.vdot(c, c).real * dx

    def edge_clear(norm):
        left, right, start = (abs(a) ** 2 for a in (probe @ c).tolist())
        edge = max(left, right)
        return edge <= 0.5 * p.edge_tol * max(edge, start)

    def wave_at(step):
        nonlocal c
        c = c0 * np.exp(-1j * (step * theta))
        return scale * _dst1(c)

    return "sine basis", advance, norm_of, edge_clear, wave_at


def _madelung(psi: np.ndarray, grid: Grid1D, D: float):
    """(rho, S) of one wave: rho = |psi|^2 and S = 2D * theta, the phase
    theta unwrapped from the node nearest x = 0 outward, where the density
    (and thus the raw phase) is most trustworthy.

    Under-resolution aliases neighbouring phase differences toward +-pi,
    and jumps at or beyond pi are unrecoverable, so a jump within 5% of the
    limit between nodes where rho exceeds 1e-6 of its peak raises
    MadelungError."""
    rho = np.abs(psi) ** 2
    raw = np.angle(psi)
    i0 = int(np.argmin(np.abs(grid.x)))
    theta = np.empty_like(raw)
    theta[i0:] = np.unwrap(raw[i0:])
    theta[: i0 + 1] = np.unwrap(raw[i0::-1])[::-1]
    dense = rho > 1e-6 * np.max(rho)
    worst = float(np.max(np.abs(np.diff(theta))[dense[1:] & dense[:-1]], initial=0.0))
    if worst >= 0.95 * np.pi:
        raise MadelungError(
            f"phase jump {worst:.3f} rad between adjacent high-density nodes "
            f"(aliasing limit pi = {np.pi:.3f}); refine the grid"
        )
    return ScalarField(grid, rho), ScalarField(grid, 2.0 * D * theta)


def _drift_slice(psi: np.ndarray, grid: Grid1D, D: float) -> np.ndarray:
    """Drift row of one wave: the b = v + u column of its Madelung slice,
    bit for bit, and 0 where ``fieldcalc.sparse`` blanks that column (the
    phase there is march rounding)."""
    rho, S = _madelung(psi, grid, D)
    b = gradient(S).values + osmotic_velocity(rho, D).values
    return np.where(sparse(rho.values), 0.0, b)


def madelung_decompose(w: WaveSolution, t: float) -> HydroFields:
    """Hydrodynamic slice of the wave at a stored time: rho and S from
    ``_madelung``, everything else derived on the mesh."""
    i = stored_index(w.times, t)
    rho, S = _madelung(w.psis[i].values, w.grid, w.D)
    return hydro_from_rho_S(t=float(w.times[i]), rho=rho, S=S, D=w.D, Omega=w.Omega)


def build_recoil_problem(rho0: ScalarField, Omega: Optional[ScalarField], D: float,
                         dt: float, t_end: float, snapshot_stride: int = 1,
                         drift_stride: Optional[int] = None,
                         edge_tol: float = 1e-10) -> SchrodingerProblem:
    """Wave problem for back-reacting dynamics started from density rho0 with
    zero initial velocity potential: psi0 = sqrt(rho0), so the initial drift
    is purely osmotic, b(x, 0) = D grad(ln rho0)."""
    psi0 = ComplexField(rho0.grid, np.sqrt(rho0.values).astype(complex))
    return SchrodingerProblem(grid=rho0.grid, psi0=psi0, Omega=Omega, D=D, dt=dt,
                              t_end=t_end, snapshot_stride=snapshot_stride,
                              drift_stride=drift_stride, edge_tol=edge_tol)


def tabulate_drift(w: WaveSolution) -> TabulatedDrift:
    """Drift table from the stored slices of a wave solution (for solves run
    without drift_stride)."""
    rows = [_drift_slice(f.values, w.grid, w.D) for f in w.psis]
    return TabulatedDrift(w.times, w.grid, np.asarray(rows))
