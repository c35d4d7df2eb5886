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
through LAPACK's banded LU instead: on every step one dgtsv call factors
I - dt/2 A (partial pivoting, O(n)) and solves. A singular Fokker-Planck
step matrix raises SolverError. The wave march with a potential builds H as
(lower, diag, upper), as ``_fp_operator`` builds A, and factors
I + i dt/2 H once as L D U, which needs no pivoting (see
``_lapack_march``); it takes each step through the same identity
psi' = 2 (I + i dt/2 H)^-1 psi - psi: two unit-diagonal ztbtrs sweeps and a
product by 2/d, d the pivots, with no division. The four routines come
from scipy's compiled module scipy.linalg._flapack, loaded without running
scipy's package init.

A mirror-symmetric problem marches its even half. On a mirrored grid of odd
n, an even start stays even under a centrosymmetric operator: the wave's H
of an even Omega, or a static Fokker-Planck A of an odd drift, which the
midpoint faces keep exactly odd. ``_fold_operator`` is the one fold of both:
it keeps nodes c..n-1 of the centre node c = n // 2 and merges row c's two
couplings into one of twice the weight. The folded march's norm and mass
ledgers weigh node c once and every other node twice, and each stored slice
is unfolded to the full grid, exactly even. Any other problem, the free
sine march and every time-dependent Fokker-Planck drift march the full
grid; the solutions' ``even_half`` says which ran.

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

from .core import (ComplexField, Grid1D, ScalarField, SolverError, gradient, mirror_centre,
                   steps, stored_index, stored_steps, trapezoid)
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
dgtsv, dpttrf, dpttrs, ztbtrs = (
    _flapack.dgtsv, _flapack.dpttrf, _flapack.dpttrs, _flapack.ztbtrs)


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
    even_half: bool = False  # whether the march ran on the even half

    def rho_at(self, t: float) -> ScalarField:
        return self.rhos[stored_index(self.times, t)]


# the value of B where w e^-w is below the smallest normal double (w > 714.97)
_B_FLOOR = np.finfo(float).tiny


def _bernoulli(w: np.ndarray) -> np.ndarray:
    """B(w) = w/expm1(w), B(0) = 1, within 2 ulps. Above w = 700, near
    expm1's overflow at 709.8, B = (w e^(-w/2)) e^(-w/2), whose factors stay
    normal doubles. Where B itself falls below the smallest normal double it
    is that double, _B_FLOOR = 2.2e-308, so a rate stays positive."""
    with np.errstate(under="ignore"):
        e = np.expm1(np.minimum(w, 700.0))
        b = np.divide(w, e, out=np.ones_like(w), where=e != 0.0)
        big = w > 700.0
        if big.any():
            half = np.exp(-0.5 * w[big])
            b[big] = np.maximum(w[big] * half * half, _B_FLOOR)
    return b


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
    # a subnormal w flushes to 0, where B = 1; a rate below the smallest
    # normal double stays a positive subnormal
    with np.errstate(under="ignore"):
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
    # a ratio past the double range makes log_s infinite or NaN, and the
    # span test below fails
    with np.errstate(all="ignore"):
        ratio = np.sqrt(lower / upper)
        log_s = np.cumsum(np.log(ratio))  # less ln s_0 = 0, which the span includes
    if not max(log_s.max(), 0.0) - min(log_s.min(), 0.0) <= _MAX_LOG_SCALE:
        return None
    s = np.cumprod(np.concatenate(([1.0], ratio)))
    return s / s.max(), upper * ratio


def _fold_operator(grid: Grid1D, start: np.ndarray, operator: tuple, *inputs):
    """(c, the operator on the even half, nodes c..n-1) when start, the
    tridiagonal operator and inputs are even about the centre node c
    (``mirror_centre``; lower ++ upper is even exactly when the operator is
    centrosymmetric), else (None, operator). Row c of the half reads
    v_(c-1) = v_(c+1), so its two couplings merge into upper[c] + lower[c-1]."""
    lower, diag, upper = operator
    c = mirror_centre(grid, start, diag, np.concatenate((lower, upper)), *inputs)
    if c is None:
        return None, operator
    upper_h = upper[c:].copy()
    upper_h[0] += lower[c - 1]
    return c, (lower[c:], diag[c:], upper_h)


def _unfold(half: np.ndarray) -> np.ndarray:
    """The even full-grid vector whose nodes c..n-1 are half (c = n // 2)."""
    return np.concatenate((half[:0:-1], half))


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
    ``_symmetrize`` refuses, takes the LAPACK march: on every step one dgtsv
    call factors I - dt/2 A and solves it against (I + dt/2 A) rho. The
    implicit side uses A(t+dt) and the explicit side A(t), which keeps a
    time-dependent march second order.
    Raises SolverError when the step matrix is singular, when the mass
    ledger moves more than 1e-12 in a step, or when the density undershoots
    below -1e-12.
    """
    grid, dx, n = p.grid, p.grid.dx, p.grid.n
    kappa = 0.5 * p.dt
    n_steps = steps(p.t_end, p.dt)
    stored = stored_steps(n_steps, p.snapshot_stride)

    time_dependent = getattr(p.drift, "time_dependent", True)

    # the faces' cells in a drift table are found once per solve
    face_drift = p.drift.at(grid.faces)

    def operator(t):
        return _fp_operator(face_drift(t), p.D, dx, n)

    tri_now = operator(0.0)
    # Crank-Nicolson keeps rho >= 0 while its explicit half I + dt/2 A has no
    # negative entry, dt/2 max|A_ii| <= 1 (the implicit side is an
    # M-matrix). Chang-Cooper gives |A_ii| <= 2D/dx^2 + max|b|/dx at nodes
    # the drift does not leave through both faces (2 max|b|).
    bound = kappa * float(np.max(-tri_now[1]))
    logger.info("fokker-planck dt=%.3g, positivity bound dt/2 max|A_ii| = %.3g at t=0 (%s)",
                p.dt, bound,
                "respected" if bound <= 1.0 else "exceeded; the density may undershoot")
    symmetric = centre = None
    if not time_dependent:
        centre, (lower, diag, upper) = _fold_operator(grid, p.rho0.values, tri_now)
        symmetric = _symmetrize(lower, upper)
    if symmetric is not None:
        s, off = symmetric
        *ldl, info = dpttrf(1.0 - kappa * diag, -kappa * off,
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
        centre = None  # the LU march runs on the full grid

        def advance(rho, t_next):
            nonlocal tri_now
            rhs = rho + kappa * _tridiag_matvec(*tri_now, rho)
            tri_now = lower, diag, upper = operator(t_next)
            *_, rho, info = dgtsv(-kappa * lower, 1.0 - kappa * diag, -kappa * upper, rhs,
                                  overwrite_dl=True, overwrite_d=True, overwrite_du=True,
                                  overwrite_b=True)
            _check_lapack(info, "dgtsv")
            return rho

    rho = p.rho0.values[centre:].copy()
    if centre is None:
        def mass_of(r):
            return float(r.sum() * dx)

        def full(r):
            return r
    else:  # the even half: the centre node weighs once, every other twice
        def mass_of(r):
            return float((2.0 * r.sum() - r[0]) * dx)

        full = _unfold
    mass = mass_of(rho)
    mass_drift_max = 0.0
    min_density = float(rho.min())
    rhos = [ScalarField(grid, full(rho))]
    for k in range(n_steps):
        t_next = (k + 1) * p.dt
        rho = advance(rho, t_next)
        new_mass = mass_of(rho)
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
            rhos.append(ScalarField(grid, full(rho)))
    mass_change = float(rhos[-1].values.sum() * dx) - float(p.rho0.values.sum() * dx)
    return FpSolution(grid=grid, times=p.dt * stored, rhos=rhos,
                      mass_drift_max=mass_drift_max, min_density=min_density,
                      mass_change=mass_change, positivity_bound=bound,
                      march="LAPACK" if symmetric is None else "symmetric",
                      even_half=centre is not None)


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
    even_half: bool = False  # whether the march ran on the even half

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
    without one (Omega None). Each gives its name, whether it runs on the
    even half, and the four things that differ: take a step, the norm,
    whether its cheap estimate certifies the edge guard, and psi at a step.
    This loop holds the rest: the ledger, the exact edge guard where the
    estimate cannot decide, a drift row
    (``_drift_slice``) every drift_stride steps and a stored wave every
    snapshot_stride steps. It reads psi only at those steps.
    """
    name, even_half, advance, norm_of, edge_clear, wave_at = (
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
                        drift_table=table, norm_drift_max=norm_drift_max, march=name,
                        even_half=even_half)


def _pivots(lower, diag, upper):
    """The pivots d_0 = m_00, d_i = m_ii - l_(i-1) u_(i-1)/d_(i-1) of a
    tridiagonal matrix's unpivoted LU factor, in Python complex arithmetic."""
    coupling = (lower * upper).tolist()
    d = diag.tolist()
    for i, lu in enumerate(coupling):
        d[i + 1] -= lu / d[i]
    return np.array(d, dtype=complex)


def _lapack_march(p: SchrodingerProblem):
    """The march with a potential: M = I + i dt/2 H factored once, two
    ztbtrs sweeps a step.

    ``_fold_operator`` folds H onto the even half when psi0 and Omega are
    even (Omega too, as H's diagonal can round an asymmetry of Omega away).
    M's off-diagonals are then i k, k = -(dt/2) D/dx^2, except the half's
    first upper one, 2 i k. M factors without pivoting as L diag(d) U, L
    and U unit bidiagonal with l_i = m_(i+1,i)/d_i and u_i = m_(i,i+1)/d_i,
    and the pivots of ``_pivots``. No pivot is zero: Re m_ii = 1 and
    l_(i-1) u_(i-1) = -j k^2, j = 2 on the half's first row and 1
    elsewhere, so by induction
    Re d_i = 1 + j k^2 Re(d_(i-1))/|d_(i-1)|^2 >= 1 for every real Omega. A
    step solves L z = psi, scales z by 2/d and solves U y = z, so
    y - psi = 2 M^-1 psi - psi; both sweeps have a unit diagonal, and the
    march divides nowhere. A pivot that is not finite (Omega/(2D)
    overflowing, say) raises SolverError.

    The peak density is at least the mean norm/(n dx), so edge density at
    most half of edge_tol times the mean certifies the guard (the half
    covers the roundoff between the two)."""
    dx, n = p.grid.dx, p.grid.n
    # H = -D d^2/dx^2 + Omega/(2D), Dirichlet ends, laid out as _fp_operator's A
    off = np.full(n - 1, -p.D / dx**2)
    with np.errstate(over="ignore"):  # an infinite potential gives infinite pivots
        H = off, 2.0 * p.D / dx**2 + p.Omega.values / (2.0 * p.D), off
    centre, (lower, diag, upper) = _fold_operator(p.grid, p.psi0.values, H, p.Omega.values)
    kappa = 0.5j * p.dt
    with np.errstate(invalid="ignore"):  # 0 * inf on an infinite potential's row
        lower, diag, upper = kappa * lower, 1.0 + kappa * diag, kappa * upper
    two_over_d = _pivots(lower, diag, upper)  # the pivots, turned into 2/d below
    if not np.isfinite(two_over_d).all():
        raise SolverError("wave step matrix is not finite; check Omega and the grid")
    # L and U in LAPACK band storage; their unit diagonals are never read
    m = two_over_d.size
    l_band, u_band = (np.zeros((2, m), dtype=complex, order="F") for _ in range(2))
    l_band[1, :-1] = lower / two_over_d[:-1]
    u_band[0, 1:] = upper / two_over_d[:-1]
    np.divide(2.0, two_over_d, out=two_over_d)
    psi = p.psi0.values[centre:].copy()
    work = np.empty_like(psi)

    # ztbtrs reports only a zero diagonal, which diag="U" never reads, and
    # invalid arguments, which these calls do not pass
    def advance():
        nonlocal psi, work
        np.copyto(work, psi)
        z, _ = ztbtrs(l_band, work, uplo="L", diag="U", overwrite_b=True)
        z *= two_over_d
        solved, _ = ztbtrs(u_band, z, uplo="U", diag="U", overwrite_b=True)
        solved -= psi
        psi, work = solved, psi

    if centre is None:
        def norm_of():
            return np.vdot(psi, psi).real * dx

        def wave_at(step):
            return psi
    else:  # the even half: the centre node weighs once, every other twice
        def norm_of():
            return (2.0 * np.vdot(psi, psi).real - abs(psi[0]) ** 2) * dx

        def wave_at(step):
            return _unfold(psi)

    left = 0 if centre is None else -1  # the even half has one edge

    def edge_clear(norm):
        return max(abs(psi[left]), abs(psi[-1])) ** 2 <= 0.5 * p.edge_tol * norm / (n * dx)

    return "LAPACK", centre is not None, advance, norm_of, edge_clear, wave_at


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

    # never folded: the FFT's two halves agree only to rounding, so a folded
    # march would move the stored waves' left half
    return "sine basis", False, advance, norm_of, edge_clear, wave_at


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
