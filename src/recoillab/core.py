"""Meshes, field containers, the march schedule and the calculus every solver shares.

All numerics in this package live on a uniform one-dimensional grid. The
containers here are deliberately dumb: they hold validated arrays and expose
the grid, nothing else. The derivative and quadrature operators are
second-order accurate and exact on polynomials of degree <= 2.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np


class SolverError(RuntimeError):
    """A route failed on a valid spec (`recoillab run` exits 3 on this alone)."""


@dataclass(frozen=True)
class PhysicalParams:
    """Physical constants of a diffusing ensemble.

    A force F would enter a run only as the drift b = F/(m beta), and every
    scenario states its b or its Omega itself, so the mass m and the
    friction rate beta are not parameters.

    Parameters
    ----------
    D : float
        Diffusion coefficient, > 0.
    gamma : float
        Confinement rate of the harmonic scenarios, >= 0 (0 = free).
    alpha : float
        Initial Gaussian cloud width: rho0 ~ exp(-x^2/alpha^2), > 0.

    The reference time ``t0`` is derived from ``alpha`` via
    ``alpha**2 = 4*D*t0`` and cannot be set independently; ``alpha`` is the
    single source of truth for the initial width.
    """

    D: float = 1.0
    gamma: float = 0.0
    alpha: float = 1.0

    def __post_init__(self):
        for name in ("D", "alpha"):
            value = getattr(self, name)
            if not np.isfinite(value) or value <= 0:
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        if not np.isfinite(self.gamma) or self.gamma < 0:
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma!r}")

    @property
    def t0(self) -> float:
        """Reference time alpha**2 / (4 D) of the initial cloud."""
        return self.alpha**2 / (4.0 * self.D)


# The most steps one march may take, 10**4 times the longest bundled march.
# A longer march would run for days, and storing its steps can exhaust memory.
MAX_STEPS = 10**8
MAX_NODES = 10**6  # every stored slice holds n values; 10**9 would take gigabytes each
MAX_PARTICLES = 10**7  # every stored snapshot copies the ensemble, 80 MB each at the ceiling


def steps(t_end: float, dt: float, t0: float = 0.0) -> int:
    """Number of dt steps from t0 to t_end; ValueError unless t_end - t0 is a
    positive integer multiple of dt (to 1e-9 of t_end) of at most MAX_STEPS."""
    ratio = (t_end - t0) / dt if dt > 0 else np.nan
    if ratio > MAX_STEPS:
        raise ValueError(f"t_end - t0 = {t_end - t0:g} takes {ratio:.3g} steps of "
                         f"dt = {dt:g}, over the ceiling MAX_STEPS = {MAX_STEPS}")
    n = int(round(ratio)) if np.isfinite(ratio) else 0
    if n < 1 or abs(t0 + n * dt - t_end) > 1e-9 * t_end:
        raise ValueError(f"t_end - t0 = {t_end - t0:g} is not a positive "
                         f"integer multiple of dt = {dt:g}")
    return n


def stride_for(interval: float, dt: float) -> int:
    """Whole steps of dt nearest to interval, at least one."""
    return max(1, int(round(interval / dt)))


def stored_steps(n_steps: int, stride: int) -> np.ndarray:
    """Steps k of an n_steps march that are stored: k % stride == 0 or k == n_steps."""
    return np.append(np.arange(0, n_steps, stride), n_steps)


def stored_index(times: np.ndarray, t: float) -> int:
    """Index of the stored time t (to 1e-9 of max(1, |t|)); KeyError if none."""
    idx = int(np.argmin(np.abs(times - t)))
    if abs(times[idx] - t) > 1e-9 * max(1.0, abs(t)):
        raise KeyError(f"no stored slice at t={t}; stored: {times}")
    return idx


@dataclass(frozen=True)
class Grid1D:
    """Uniform 1D mesh with n nodes spanning [x_min, x_max] inclusive.

    On a symmetric domain (x_min == -x_max) the nodes are exactly mirrored,
    x[n-1-i] == -x[i], with a centre node of 0.0 when n is odd: the left half
    is np.linspace's and the right half its negated mirror, each node within
    a few ulps of x_max of linspace. Any other domain takes np.linspace bit
    for bit. The Fokker-Planck faces are the node midpoints, so on a
    symmetric domain they are exactly odd too.
    """

    x_min: float
    x_max: float
    n: int

    def __post_init__(self):
        if not (np.isfinite(self.x_min) and np.isfinite(self.x_max)):
            raise ValueError("grid bounds must be finite")
        if self.x_max <= self.x_min:
            raise ValueError(f"x_max must exceed x_min, got [{self.x_min}, {self.x_max}]")
        if self.n < 8:
            raise ValueError(f"grid needs at least 8 nodes, got {self.n}")
        if self.n > MAX_NODES:
            raise ValueError(f"grid n = {self.n} is over the ceiling MAX_NODES = {MAX_NODES}")
        # finite bounds can still overflow their span, or underflow its step
        if not (np.isfinite(self.dx) and self.dx > 0):
            raise ValueError(f"grid spacing dx = {self.dx!r} must be finite and > 0")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n - 1)

    @cached_property
    def x(self) -> np.ndarray:
        nodes = np.linspace(self.x_min, self.x_max, self.n)
        if self.x_min == -self.x_max:
            half = self.n // 2
            nodes[self.n - half:] = -nodes[half - 1::-1]
            if self.n % 2:
                nodes[half] = 0.0
        nodes.setflags(write=False)
        return nodes

    @cached_property
    def faces(self) -> np.ndarray:
        """The n - 1 cell faces, the midpoints 0.5 (x_i + x_(i+1))."""
        mid = 0.5 * (self.x[:-1] + self.x[1:])
        mid.setflags(write=False)
        return mid


def mirror_centre(grid: Grid1D, *arrays) -> Optional[int]:
    """The centre node c = n // 2 about which a march may fold onto the
    nodes c..n-1: set when n is odd, the domain is symmetric (so the nodes
    are mirrored) and every array a equals a[::-1] bit for bit; else None."""
    if grid.n % 2 == 0 or grid.x_min != -grid.x_max:
        return None
    if all(np.array_equal(a, a[::-1]) for a in arrays):
        return grid.n // 2
    return None


def _validated_values(grid: Grid1D, values, dtype) -> np.ndarray:
    arr = np.asarray(values, dtype=dtype)
    if arr.shape != (grid.n,):
        raise ValueError(f"values shape {arr.shape} does not match grid with n={grid.n}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("field values must be finite")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ScalarField:
    """Real-valued samples on a Grid1D. Values are validated and read-only."""

    grid: Grid1D
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _validated_values(self.grid, self.values, float))


@dataclass(frozen=True)
class ComplexField:
    """Complex-valued samples on a Grid1D. Values are validated and read-only."""

    grid: Grid1D
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _validated_values(self.grid, self.values, complex))


def gradient(f: ScalarField) -> ScalarField:
    """First derivative: centered second order inside, one-sided second order
    at the two boundary nodes."""
    return ScalarField(f.grid, np.gradient(f.values, f.grid.dx, edge_order=2))


def trapezoid(y, x=None, dx=1.0):
    """Trapezoidal rule over a 1D array, with the terms and the summation of
    scipy's trapezoid, so the result is bit-equal to it."""
    y = np.asarray(y)
    d = dx if x is None else np.diff(np.asarray(x))
    return (d * (y[1:] + y[:-1]) / 2.0).sum()


def cumulative_trapezoid(y, dx=1.0):
    """Running trapezoidal integral with a leading 0.0, bit-equal to scipy's
    cumulative_trapezoid(y, dx=dx, initial=0.0)."""
    y = np.asarray(y)
    return np.concatenate(([0.0], np.cumsum(dx * (y[1:] + y[:-1]) / 2.0)))


def gaussian_smooth(y, sigma):
    """Gaussian smoothing of a 1D array with zero padding and the kernel cut
    at 8 sigma, bit-equal to scipy's
    gaussian_filter1d(y, sigma, mode="constant", truncate=8.0): the same
    normalised weights, the centre term first, then the symmetric pairs
    (y[i-j] + y[i+j]) * w[j] from the outermost j inward."""
    y = np.asarray(y, dtype=float)
    r = int(8.0 * float(sigma) + 0.5)
    w = np.exp(-0.5 / (sigma * sigma) * np.arange(-r, r + 1) ** 2)
    w = (w / w.sum())[r:]  # w[j] weighs the neighbours at distance j
    n = y.size
    padded = np.concatenate((np.zeros(r), y, np.zeros(r)))
    out = y * w[0]
    for j in range(r, 0, -1):
        out += (padded[r - j:r - j + n] + padded[r + j:r + j + n]) * w[j]
    return out


def integrate(f: ScalarField) -> float:
    """Trapezoidal quadrature of f over the whole grid."""
    return float(trapezoid(f.values, dx=f.grid.dx))


def integrate_interval(f: ScalarField, a: float, b: float) -> float:
    """Trapezoidal quadrature of f over [a, b] with linearly interpolated
    partial cells at both ends. Endpoints must lie inside the grid."""
    if b < a:
        raise ValueError(f"empty interval [{a}, {b}]")
    g = f.grid
    if a < g.x_min or b > g.x_max:
        raise ValueError(f"interval [{a}, {b}] exceeds grid [{g.x_min}, {g.x_max}]")
    lo = np.searchsorted(g.x, a, side="right")
    hi = np.searchsorted(g.x, b, side="left")
    xs = np.concatenate(([a], g.x[lo:hi], [b]))
    vals = np.concatenate(
        ([np.interp(a, g.x, f.values)], f.values[lo:hi], [np.interp(b, g.x, f.values)])
    )
    return float(trapezoid(vals, xs))
