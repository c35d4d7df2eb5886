"""Meshes, field containers, and finite-difference calculus shared by every solver.

All numerics in this package live on a uniform one-dimensional grid. The
containers here are deliberately dumb: they hold validated arrays and expose
the grid, nothing else. The derivative and quadrature operators are
second-order accurate and exact on polynomials of degree <= 2.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class PhysicalParams:
    """Physical constants of a diffusing ensemble.

    Parameters
    ----------
    D : float
        Diffusion coefficient, > 0.
    m : float
        Particle mass, > 0.
    beta : float
        Friction rate, > 0.
    gamma : float
        Confinement rate of the harmonic scenarios, >= 0 (0 = free).
    alpha : float
        Initial Gaussian cloud width: rho0 ~ exp(-x^2/alpha^2), > 0.

    The reference time ``t0`` is derived from ``alpha`` via
    ``alpha**2 = 4*D*t0`` and cannot be set independently; ``alpha`` is the
    single source of truth for the initial width.
    """

    D: float = 1.0
    m: float = 1.0
    beta: float = 1.0
    gamma: float = 0.0
    alpha: float = 1.0

    def __post_init__(self):
        for name in ("D", "m", "beta", "alpha"):
            value = getattr(self, name)
            if not np.isfinite(value) or value <= 0:
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        if not np.isfinite(self.gamma) or self.gamma < 0:
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma!r}")

    @property
    def t0(self) -> float:
        """Reference time alpha**2 / (4 D) of the initial cloud."""
        return self.alpha**2 / (4.0 * self.D)


@dataclass(frozen=True)
class Grid1D:
    """Uniform 1D mesh with n nodes spanning [x_min, x_max] inclusive."""

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

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n - 1)

    @cached_property
    def x(self) -> np.ndarray:
        nodes = np.linspace(self.x_min, self.x_max, self.n)
        nodes.setflags(write=False)
        return nodes


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
    if f.grid.n < 3:
        raise ValueError("gradient needs at least 3 nodes")
    return ScalarField(f.grid, np.gradient(f.values, f.grid.dx, edge_order=2))


def laplacian(f: ScalarField) -> ScalarField:
    """Second derivative via the 3-point stencil; 4-point one-sided second-order
    formulas at the boundaries. Exact on polynomials of degree <= 2."""
    v = f.values
    dx2 = f.grid.dx**2
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / dx2
    out[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / dx2
    out[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / dx2
    return ScalarField(f.grid, out)


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
