"""Grid solvers: Fokker-Planck in flux form and the linearizing wave equation.

Both march with Crank-Nicolson. The Fokker-Planck operator uses Chang-Cooper
flux rates, which keep the density positive without clipping and reproduce
the exact nodal Boltzmann profile for linear drift. The wave solver is the
Cayley form (I + i dt/2 H) psi' = (I - i dt/2 H) psi, unitary in the discrete
l2 norm, so the norm ledger holds to solver roundoff.

The Fokker-Planck implicit side, and the wave's when it has a potential, is
tridiagonal and goes through LAPACK's banded LU: ?gttrf factors it (partial
pivoting, O(n)) and ?gttrs solves with the factors. The Fokker-Planck march
uses dgttrf/dgttrs, refactoring each step only when the drift depends on
time. The wave march with a potential factors I + i dt/2 H once with zgttrf
and takes each step with a single zgttrs solve through the Cayley identity
psi' = 2 (I + i dt/2 H)^-1 psi - psi, so no explicit product with H is
formed. A singular step matrix raises SolverError. The four routines come
from scipy's compiled module scipy.linalg._flapack, loaded without the
scipy.linalg package.

The free wave (Omega None) needs no solve: H is then D times the Dirichlet
second difference, whose eigenvectors are the DST-I sine vectors, so the
Cayley step multiplies sine coefficient k by exp(-2i arctan lambda_k). That
march turns the coefficients back into psi, with one numpy.fft FFT, only at
the steps it stores or tabulates, and where its edge guard cannot decide
from three sampled nodes.

The bridge between the two descriptions is ``madelung_decompose``: rho = |psi|^2
and S = 2D * theta with the phase theta unwrapped from x = 0 outward, giving
v = grad S and the full hydrodynamic slice.
"""

import importlib.machinery
import importlib.util
import logging
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (ComplexField, Grid1D, ScalarField, SolverError, steps, stored_index,
                   stored_steps, trapezoid)
from .fieldcalc import HydroFields, hydro_from_rho_S
from .sde import DriftSource, TabulatedDrift

logger = logging.getLogger(__name__)


def _load_flapack():
    """scipy's compiled LAPACK module, found in the scipy.linalg directory and
    run without the scipy.linalg package (which costs about 0.3 s and 18 MB).

    It is registered under its own name, so a later ``import scipy.linalg``
    reuses it; where the path finder cannot see it, the ordinary import
    loads the same module.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    dirs = importlib.util.find_spec("scipy.linalg").submodule_search_locations
    spec = importlib.machinery.PathFinder.find_spec(name, dirs)
    if spec is None:
        return importlib.import_module(name)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[name]
        raise
    return module


_flapack = _load_flapack()
dgttrf, dgttrs, zgttrf, zgttrs = (_flapack.dgttrf, _flapack.dgttrs,
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
        if logger.isEnabledFor(logging.INFO):
            # Crank-Nicolson keeps rho >= 0 while its explicit half I + dt/2 A
            # has no negative entry, dt/2 max|A_ii| <= 1 (the implicit side is
            # an M-matrix). Chang-Cooper gives |A_ii| <= 2D/dx^2 + max|b|/dx
            # at nodes the drift does not leave through both faces (2 max|b|).
            dx = self.grid.dx
            b = self.drift(self.grid.x[:-1] + 0.5 * dx, 0.0)
            bound = 0.5 * self.dt * float(np.max(-_fp_operator(b, self.D, dx, self.grid.n)[1]))
            logger.info(
                "fokker-planck dt=%.3g, positivity bound dt/2 max|A_ii| = %.3g at t=0 (%s)",
                self.dt, bound,
                "respected" if bound <= 1.0 else "exceeded; the density may undershoot",
            )


@dataclass(frozen=True)
class FpSolution:
    grid: Grid1D
    times: np.ndarray
    rhos: list
    mass_drift_max: float
    min_density: float

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


def _check_lapack(info: int, routine: str) -> None:
    """Map a nonzero LAPACK ``info`` to SolverError: > 0 is an exactly zero
    pivot (singular step matrix), < 0 an invalid argument."""
    if info > 0:
        raise SolverError(f"{routine}: step matrix is singular (zero pivot {info})")
    if info < 0:
        raise SolverError(f"{routine}: argument {-info} is invalid")


def solve_fokker_planck(p: FokkerPlanckProblem) -> FpSolution:
    """Crank-Nicolson over the Chang-Cooper operator.

    The implicit side I - dt/2 A is tridiagonal: LAPACK dgttrf factors it
    (once for a static drift, in O(n) on every step for a time-dependent one)
    and dgttrs solves each step. For time-dependent drift the implicit side
    uses A(t+dt) and the explicit side A(t), which keeps the march second
    order. Raises SolverError when the step matrix is singular, when the mass
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

    def factorize(tri):
        lower, diag, upper = tri
        *lu, info = dgttrf(-kappa * lower, 1.0 - kappa * diag, -kappa * upper,
                           overwrite_dl=True, overwrite_d=True, overwrite_du=True)
        _check_lapack(info, "dgttrf")
        return lu

    tri_now = operator(0.0)
    lu = factorize(tri_now) if not time_dependent else None

    rho = p.rho0.values.copy()
    mass = float(np.sum(rho) * dx)
    mass_drift_max = 0.0
    min_density = float(np.min(rho))
    rhos = [ScalarField(grid, rho)]
    for k in range(n_steps):
        t_next = (k + 1) * p.dt
        rhs = rho + kappa * _tridiag_matvec(*tri_now, rho)
        if time_dependent:
            tri_now = operator(t_next)
            lu = factorize(tri_now)
        rho, info = dgttrs(*lu, rhs, overwrite_b=True)
        _check_lapack(info, "dgttrs")
        new_mass = float(np.sum(rho) * dx)
        mass_drift_max = max(mass_drift_max, abs(new_mass - mass))
        # negated comparisons, so a NaN ledger fails too
        if not abs(new_mass - mass) <= 1e-12:
            raise SolverError(f"mass ledger moved {new_mass - mass:.3e} in one step at t={t_next}")
        mass = new_mass
        lo = float(np.min(rho))
        min_density = min(min_density, lo)
        if not lo >= -1e-12:
            raise SolverError(f"density undershoot {lo:.3e} at t={t_next}")
        if k + 1 == stored[len(rhos)]:  # the next step to store
            rhos.append(ScalarField(grid, rho))
    return FpSolution(grid=grid, times=p.dt * stored, rhos=rhos,
                      mass_drift_max=mass_drift_max, min_density=min_density)


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


def _check_norm(new_norm: float, norm: float, t: float) -> None:
    # negated comparison, so a NaN ledger fails too
    if not abs(new_norm - norm) <= 1e-12:
        raise SolverError(f"norm ledger moved {new_norm - norm:.3e} in one step at t={t}")


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

    With a potential, I + i dt/2 H is factored once with LAPACK zgttrf; each
    step is one zgttrs solve through the Cayley identity
    (I + i dt/2 H)^-1 (I - i dt/2 H) psi = 2 (I + i dt/2 H)^-1 psi - psi.
    Its norm ledger is one vdot of psi with itself, and its edge guard reads
    the two edge nodes alone unless the mean density cannot certify them.
    Without one (Omega None) the same step is taken in the sine basis; see
    ``_solve_free``.
    """
    if p.Omega is None:
        return _solve_free(p)
    grid, dx, n = p.grid, p.grid.dx, p.grid.n
    h_diag = 2.0 * p.D / dx**2 + p.Omega.values / (2.0 * p.D)
    h_off = -p.D / dx**2
    kappa = 0.5j * p.dt
    off = np.full(n - 1, kappa * h_off)
    *lu, info = zgttrf(off, 1.0 + kappa * h_diag, off.copy(),
                       overwrite_dl=True, overwrite_d=True, overwrite_du=True)
    _check_lapack(info, "zgttrf")

    n_steps = steps(p.t_end, p.dt)
    stored = stored_steps(n_steps, p.snapshot_stride)
    drift_steps = () if p.drift_stride is None else stored_steps(n_steps, p.drift_stride)

    psi = p.psi0.values.copy()
    work = np.empty_like(psi)
    norm = np.vdot(psi, psi).real * dx
    norm_drift_max = 0.0
    psis = [ComplexField(grid, psi)]
    drift_rows = [] if p.drift_stride is None else [_drift_slice(psi, grid, p.D)]
    for k in range(n_steps):
        t_next = (k + 1) * p.dt
        np.copyto(work, psi)
        solved, info = zgttrs(*lu, work, overwrite_b=True)
        _check_lapack(info, "zgttrs")
        solved *= 2.0
        solved -= psi
        psi, work = solved, psi

        new_norm = np.vdot(psi, psi).real * dx
        norm_drift_max = max(norm_drift_max, abs(new_norm - norm))
        _check_norm(new_norm, norm, t_next)
        norm = new_norm
        # the peak density is at least the mean norm/(n dx), so edge density
        # at most half of edge_tol times the mean passes the exact guard (the
        # half covers the roundoff between the two); otherwise it runs
        if not max(abs(psi[0]), abs(psi[-1])) ** 2 <= 0.5 * p.edge_tol * norm / (n * dx):
            _check_edge(np.abs(psi) ** 2, p.edge_tol, t_next)
        if drift_rows and k + 1 == drift_steps[len(drift_rows)]:
            drift_rows.append(_drift_slice(psi, grid, p.D))
        if k + 1 == stored[len(psis)]:  # the next step to store
            psis.append(ComplexField(grid, psi))
    return _wave_solution(p, stored, psis, drift_steps, drift_rows, norm_drift_max, "LAPACK")


def _dst1(v: np.ndarray) -> np.ndarray:
    """DST-I, sum_j v_j sin(pi k (j+1)/(n+1)) for k = 1..n, from one FFT of
    length 2(n+1) on the odd extension [0, v, 0, -v reversed]. It is its
    own inverse up to the factor (n+1)/2."""
    n = v.size
    ext = np.zeros(2 * (n + 1), dtype=complex)
    ext[1:n + 1] = v
    ext[n + 2:] = -v[::-1]
    return 0.5j * np.fft.fft(ext)[1:n + 1]


def _solve_free(p: SchrodingerProblem) -> WaveSolution:
    """The free Cayley march in the sine basis.

    H = -D d^2/dx^2 with Dirichlet ends has the eigenvectors
    sin(pi k (j+1)/(n+1)), so each step multiplies the DST-I coefficients c
    by exp(-2i arctan lambda_k), lambda_k = (dt D/dx^2)(1 - cos(pi k/(n+1))).
    The per-step checks stay those of the LAPACK march:

    - the norm ledger comes from Parseval, (2/(n+1)) sum |c_k|^2 dx;
    - the edge guard reads psi at both edges and at the peak of |psi0| from
      one product of c with their sine rows. Edge density at most half of
      edge_tol times the largest of the three passes the exact guard, whose
      peak is at least that large; the half covers the roundoff between the
      two estimates. Otherwise psi is built and the exact guard runs.

    psi itself is built, by one FFT, only at stored and tabulated steps and
    where the guard falls back. There c is retaken as c0 exp(-i step theta_k),
    so the stored waves carry no step-fold rounding of the phase product.
    """
    grid, dx, n = p.grid, p.grid.dx, p.grid.n
    k = np.arange(1, n + 1)
    lam = (p.dt * p.D / dx**2) * 2.0 * np.sin(0.5 * np.pi * k / (n + 1)) ** 2
    theta = 2.0 * np.arctan(lam)
    phase = np.exp(-1j * theta)
    scale = 2.0 / (n + 1)
    nodes = np.array([0, n - 1, int(np.argmax(np.abs(p.psi0.values)))])
    # sin(pi k (j+1)/(n+1)) with k (j+1) reduced mod 2(n+1) in integers
    probe = (scale * np.sin(np.pi * (np.outer(nodes + 1, k) % (2 * (n + 1))) / (n + 1))
             ).astype(complex)

    n_steps = steps(p.t_end, p.dt)
    stored = stored_steps(n_steps, p.snapshot_stride)
    drift_steps = () if p.drift_stride is None else stored_steps(n_steps, p.drift_stride)

    c0 = _dst1(p.psi0.values)
    c = c0.copy()
    norm = scale * np.vdot(c, c).real * dx
    norm_drift_max = 0.0
    psis = [ComplexField(grid, p.psi0.values.copy())]
    drift_rows = [] if p.drift_stride is None else [_drift_slice(p.psi0.values, grid, p.D)]
    for step in range(1, n_steps + 1):
        t_next = step * p.dt
        c *= phase
        new_norm = scale * np.vdot(c, c).real * dx
        norm_drift_max = max(norm_drift_max, abs(new_norm - norm))
        _check_norm(new_norm, norm, t_next)
        norm = new_norm

        left, right, start = (abs(a) ** 2 for a in (probe @ c).tolist())
        edge = max(left, right)
        guarded = not edge <= 0.5 * p.edge_tol * max(edge, start)
        feed = bool(drift_rows) and step == drift_steps[len(drift_rows)]
        keep = step == stored[len(psis)]
        if not (guarded or feed or keep):
            continue
        c = c0 * np.exp(-1j * (step * theta))
        psi = scale * _dst1(c)
        if guarded:
            _check_edge(np.abs(psi) ** 2, p.edge_tol, t_next)
        if feed:
            drift_rows.append(_drift_slice(psi, grid, p.D))
        if keep:
            psis.append(ComplexField(grid, psi))
    return _wave_solution(p, stored, psis, drift_steps, drift_rows, norm_drift_max,
                          "sine basis")


def _wave_solution(p, stored, psis, drift_steps, drift_rows, norm_drift_max, march):
    table = None
    if p.drift_stride is not None:
        table = TabulatedDrift(p.dt * drift_steps, p.grid, np.asarray(drift_rows))
    return WaveSolution(grid=p.grid, times=p.dt * stored, psis=psis, D=p.D,
                        Omega=p.Omega, drift_table=table, norm_drift_max=norm_drift_max,
                        march=march)


def _unwrap_from_center(theta_raw: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Unwrap the phase starting at the node closest to x = 0 and walking
    outward in both directions, so the anchor is where the density (and thus
    the raw phase) is most trustworthy."""
    i0 = int(np.argmin(np.abs(grid.x)))
    theta = np.empty_like(theta_raw)
    theta[i0:] = np.unwrap(theta_raw[i0:])
    theta[: i0 + 1] = np.unwrap(theta_raw[i0::-1])[::-1]
    return theta


def _check_phase_resolution(theta: np.ndarray, rho: np.ndarray):
    """Under-resolution aliases neighbouring phase differences toward the
    +-pi boundary. Jumps at or beyond pi are unrecoverable, so anything within
    5% of the limit where rho exceeds 1e-6 of its peak is treated as an error."""
    dense = rho > 1e-6 * np.max(rho)
    pair = dense[1:] & dense[:-1]
    if not np.any(pair):
        return
    jumps = np.abs(np.diff(theta))[pair]
    worst = float(np.max(jumps))
    if worst >= 0.95 * np.pi:
        raise MadelungError(
            f"phase jump {worst:.3f} rad between adjacent high-density nodes "
            f"(aliasing limit pi = {np.pi:.3f}); refine the grid"
        )


def _drift_slice(psi: np.ndarray, grid: Grid1D, D: float) -> np.ndarray:
    """Forward drift b = v + u of one wave slice, zeroed where rho < 1e-12
    of peak (the phase there is numerical noise; the region carries a mass
    fraction below 1e-12, invisible at the tested tolerances)."""
    rho = np.abs(psi) ** 2
    floor = 1e-12 * float(np.max(rho))
    theta = _unwrap_from_center(np.angle(psi), grid)
    S = ScalarField(grid, 2.0 * D * theta)
    v = np.gradient(S.values, grid.dx, edge_order=2)
    u = D * np.gradient(np.log(np.maximum(rho, floor)), grid.dx, edge_order=2)
    return np.where(rho >= floor, v + u, 0.0)


def madelung_decompose(w: WaveSolution, t: float) -> HydroFields:
    """Hydrodynamic slice of the wave at a stored time: rho = |psi|^2,
    S = 2D * theta (phase unwrapped from the center), everything else derived
    on the mesh. Raises MadelungError when the phase is under-resolved."""
    i = stored_index(w.times, t)
    psi = w.psis[i].values
    rho = np.abs(psi) ** 2
    theta = _unwrap_from_center(np.angle(psi), w.grid)
    _check_phase_resolution(theta, rho)
    return hydro_from_rho_S(
        t=float(w.times[i]),
        rho=ScalarField(w.grid, rho),
        S=ScalarField(w.grid, 2.0 * w.D * theta),
        D=w.D,
        Omega=w.Omega,
    )


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
