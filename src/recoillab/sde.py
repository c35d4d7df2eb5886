"""Particle-ensemble integrator for dX = b(X,t) dt + sqrt(2D) dW.

Euler-Maruyama stepping (weak order 1) with a counter-based Philox stream
keyed by the run seed: the noise consumed by particle i at step k is draw
k*n + i of the stream, a pure function of (seed, k, i). The update is a
single-threaded vectorized numpy expression, so trajectories are bitwise
reproducible for a given seed regardless of BLAS/OMP thread settings.
"""

from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import Grid1D, PhysicalParams, ScalarField


# particles per TabulatedDrift lookup pass; keeps the working buffers in cache
_LOOKUP_CHUNK = 8192


class DriftDomainError(RuntimeError):
    """A particle left the domain on which the drift is defined."""


class DriftSource:
    """Base drift b(x, t); subclasses implement __call__ on position arrays.

    ``time_dependent`` lets grid solvers reuse a factorized operator when the
    drift is static.
    """

    time_dependent: bool = True

    def __call__(self, x: np.ndarray, t: float) -> np.ndarray:
        raise NotImplementedError


class ZeroDrift(DriftSource):
    """Free diffusion."""

    time_dependent = False

    def __call__(self, x, t):
        return np.zeros_like(x)


class SmoluchowskiDrift(DriftSource):
    """Overdamped drift b = F(x)/(m beta) of a time-independent force field."""

    time_dependent = False

    def __init__(self, force, params: PhysicalParams):
        self.force = force
        self.params = params

    def __call__(self, x, t):
        return self.force(x) / (self.params.m * self.params.beta)


def ou_drift(params: PhysicalParams) -> SmoluchowskiDrift:
    """Linear restoring force F = -m*beta*gamma*x, i.e. b = -gamma x."""
    if params.gamma <= 0:
        raise ValueError("ou_drift needs gamma > 0")
    return SmoluchowskiDrift(lambda x: -params.m * params.beta * params.gamma * x, params)


class AnalyticRecoilDrift(DriftSource):
    """Closed-form free-recoil drift b = 2D(2Dt - alpha^2) x / (alpha^4 + 4D^2 t^2)."""

    def __init__(self, params: PhysicalParams):
        from .analytic import FreeRecoilSolution

        self.solution = FreeRecoilSolution(params)

    def __call__(self, x, t):
        return self.solution.b(x, t)


class TabulatedDrift(DriftSource):
    """Drift sampled on a space-time mesh, evaluated by bilinear interpolation.

    Positions outside [x_min, x_max] or times outside the tabulated span are
    errors: extrapolating a tabulated drift silently is how ensembles diverge.
    """

    def __init__(self, times, grid: Grid1D, values):
        self.times = np.asarray(times, dtype=float)
        self.grid = grid
        self.values = np.asarray(values, dtype=float)
        if self.times.ndim != 1 or self.times.size < 2:
            raise ValueError("need at least two tabulated times")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("tabulated times must be strictly increasing")
        if self.values.shape != (self.times.size, grid.n):
            raise ValueError(
                f"drift table shape {self.values.shape} != (n_times={self.times.size}, n={grid.n})"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("drift table must be finite")

    def __call__(self, x, t):
        tol = 1e-9 * max(1.0, abs(self.times[-1]))
        if t < self.times[0] - tol or t > self.times[-1] + tol:
            raise DriftDomainError(
                f"t={t} outside tabulated span [{self.times[0]}, {self.times[-1]}]"
            )
        x = np.asarray(x, dtype=float)
        g = self.grid
        # the negated test also rejects NaN positions
        if x.size and not (g.x_min <= x.min() and x.max() <= g.x_max):
            out = int(np.count_nonzero(~((x >= g.x_min) & (x <= g.x_max))))
            raise DriftDomainError(
                f"{out} particle(s) outside drift domain [{g.x_min}, {g.x_max}]; "
                "widen the tabulation domain"
            )
        k = int(np.clip(np.searchsorted(self.times, t, side="right") - 1, 0, self.times.size - 2))
        t0, t1 = self.times[k], self.times[k + 1]
        w = (t - t0) / (t1 - t0)
        w = min(max(w, 0.0), 1.0)

        # Linear interpolation in each of the two rows, in the operation order
        # of np.interp: slope_i * (x - x_i) + f_i, slope_i = df_i / dx_i,
        # returning f_i itself where x == x_i. Both rows share the cell index
        # and the offset. The zero slope at index n-1 pads the table: only
        # x == x_max reaches that index, and it sits on a node.
        rows = self.values[k:k + 2]
        slopes = np.zeros_like(rows)
        np.divide(np.diff(rows, axis=1), np.diff(g.x), out=slopes[:, :-1])
        nodes = g.x
        # (x - x_min)/dx - 1/2 truncated is the cell index or one below it:
        # linspace nodes sit within far less than half a cell of x_min + i dx
        x_lo = g.x_min + 0.5 * g.dx
        inv_dx = 1.0 / g.dx

        flat = x.reshape(-1)
        result = np.empty_like(flat)
        m = min(flat.size, _LOOKUP_CHUNK)
        i = np.empty(m, dtype=np.intp)
        ahead = np.empty(m, dtype=bool)
        off, buf, b0, b1 = (np.empty(m) for _ in range(4))
        for lo in range(0, flat.size, _LOOKUP_CHUNK):
            xc = flat[lo:lo + _LOOKUP_CHUNK]
            c = xc.size
            ic, ac, oc, bc = i[:c], ahead[:c], off[:c], buf[:c]
            np.subtract(xc, x_lo, out=oc)
            np.multiply(oc, inv_dx, out=ic, casting="unsafe")
            np.take(nodes[1:], ic, out=bc, mode="clip")
            np.greater_equal(xc, bc, out=ac)
            ic += ac
            np.take(nodes, ic, out=bc, mode="clip")
            np.subtract(xc, bc, out=oc)
            on_node = np.flatnonzero(oc == 0.0)
            for f, s, bk in zip(rows, slopes, (b0[:c], b1[:c])):
                np.take(s, ic, out=bk, mode="clip")
                bk *= oc
                np.take(f, ic, out=bc, mode="clip")
                bk += bc
                bk[on_node] = f[ic[on_node]]
            b0[:c] *= 1.0 - w
            b1[:c] *= w
            np.add(b0[:c], b1[:c], out=result[lo:lo + c])
        return result.reshape(x.shape)


@dataclass(frozen=True)
class EnsembleState:
    """Positions of every particle at one instant."""

    t: float
    positions: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.positions, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("positions must be a non-empty 1D array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("positions must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "positions", arr)

    @property
    def n(self) -> int:
        return self.positions.size


@dataclass(frozen=True)
class SdeConfig:
    """Run settings for evolve(); snapshot_stride counts steps between stored states."""

    n_particles: int
    dt: float
    t_end: float
    seed: int = 0
    snapshot_stride: int = 1

    def __post_init__(self):
        if self.n_particles < 1:
            raise ValueError("n_particles must be >= 1")
        if self.dt <= 0 or self.t_end <= 0:
            raise ValueError("dt and t_end must be > 0")
        if self.snapshot_stride < 1:
            raise ValueError("snapshot_stride must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def sample_initial(rho0_spec: Union[float, ScalarField], n: int, seed: int) -> EnsembleState:
    """Draw n initial positions.

    A float is the Gaussian-cloud width alpha (std alpha/sqrt(2)); a
    ScalarField is a tabulated density sampled by inverse-CDF with linear
    interpolation between nodes.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.Generator(np.random.Philox(key=seed))
    if isinstance(rho0_spec, ScalarField):
        rho = rho0_spec.values
        if np.any(rho < 0):
            raise ValueError("tabulated density must be >= 0")
        x = rho0_spec.grid.x
        cdf = np.concatenate(([0.0], np.cumsum(0.5 * (rho[1:] + rho[:-1]) * np.diff(x))))
        if cdf[-1] <= 0:
            raise ValueError("tabulated density is not normalizable")
        cdf /= cdf[-1]
        u = rng.random(n)
        positions = np.interp(u, cdf, x)
    else:
        alpha = float(rho0_spec)
        if alpha <= 0:
            raise ValueError("alpha must be > 0")
        positions = rng.normal(0.0, alpha / np.sqrt(2.0), size=n)
    return EnsembleState(t=0.0, positions=positions)


def evolve(state: EnsembleState, drift: DriftSource, params: PhysicalParams,
           config: SdeConfig) -> list:
    """Integrate the ensemble to t_end; returns the stored snapshots,
    beginning with the initial state and always including the final one."""
    if state.n != config.n_particles:
        raise ValueError(f"state holds {state.n} particles, config says {config.n_particles}")
    n_steps = int(round((config.t_end - state.t) / config.dt))
    if n_steps < 1 or abs(state.t + n_steps * config.dt - config.t_end) > 1e-9 * config.t_end:
        raise ValueError("t_end - t must be a positive integer multiple of dt")

    # key word 1 separates the evolution stream from sample_initial's
    # (key=[seed, 0]); sharing the bare seed would correlate the first
    # step's noise with the initial positions
    rng = np.random.Generator(np.random.Philox(key=[config.seed, 1]))
    sqrt_noise = np.sqrt(2.0 * params.D * config.dt)
    x = state.positions.copy()
    step = np.empty_like(x)
    noise = np.empty_like(x)
    snapshots = [state]
    for k in range(n_steps):
        t = state.t + k * config.dt
        # x <- (x + b dt) + sqrt(2 D dt) z, updated in place
        np.multiply(drift(x, t), config.dt, out=step)
        x += step
        rng.standard_normal(out=noise)
        noise *= sqrt_noise
        x += noise
        if (k + 1) % config.snapshot_stride == 0 or k == n_steps - 1:
            snapshots.append(EnsembleState(t=state.t + (k + 1) * config.dt, positions=x))
    return snapshots


@dataclass(frozen=True)
class Moment:
    value: float
    stderr: float


def empirical_moments(state: EnsembleState, orders=(1, 2, 4)) -> dict:
    """Raw moments <x^k> with jackknife standard errors.

    For a mean-type statistic the leave-one-out estimates collapse to the
    closed form SE = std(x^k, ddof=1)/sqrt(n), which is what is computed.
    """
    allowed = {1, 2, 4}
    orders = tuple(orders)
    if not set(orders) <= allowed:
        raise ValueError(f"orders must be a subset of {allowed}, got {orders}")
    if state.n < 2:
        raise ValueError("need at least 2 particles for jackknife errors")
    out = {}
    for k in orders:
        y = state.positions**k
        out[k] = Moment(value=float(np.mean(y)),
                        stderr=float(np.std(y, ddof=1) / np.sqrt(state.n)))
    return out


def silverman_bandwidth(positions: np.ndarray) -> float:
    """0.9 * min(std, IQR/1.34) * n^(-1/5); 0 for degenerate samples."""
    n = positions.size
    std = float(np.std(positions, ddof=1)) if n > 1 else 0.0
    q75, q25 = np.percentile(positions, [75.0, 25.0])
    iqr = float(q75 - q25)
    spread = min(std, iqr / 1.34) if iqr > 0 else std
    return 0.9 * spread * n ** (-0.2)


def kde_density(state: EnsembleState, grid: Grid1D,
                bandwidth: Union[str, float] = "silverman") -> ScalarField:
    """Gaussian kernel density estimate evaluated on the grid.

    Particles are linearly binned onto the nodes and the counts convolved
    with a Gaussian kernel (equivalent to the direct kernel sum up to
    O(dx^2), and O(n + m) instead of O(n*m)). Statistical quality needs
    n >~ 100; fewer particles are accepted but noisy. Degenerate samples
    fall back to a one-grid-cell bandwidth.
    """
    # scipy.ndimage loads only when a KDE runs, not with pde's import of sde
    from scipy.ndimage import gaussian_filter1d

    pos = state.positions
    if np.any(pos < grid.x_min) or np.any(pos > grid.x_max):
        out = int(np.sum((pos < grid.x_min) | (pos > grid.x_max)))
        raise ValueError(f"{out} particle(s) fall outside the KDE grid; widen it")
    if isinstance(bandwidth, str):
        if bandwidth != "silverman":
            raise ValueError(f"unknown bandwidth rule {bandwidth!r}")
        h = silverman_bandwidth(pos)
    else:
        h = float(bandwidth)
        if h <= 0:
            raise ValueError("bandwidth must be > 0")
    if h < grid.dx:
        h = grid.dx  # degenerate or under-resolved sample: one-cell kernel

    # linear binning: each particle splits its weight between the two
    # neighbouring nodes, preserving total mass and the first moment
    rel = (pos - grid.x_min) / grid.dx
    idx = np.clip(rel.astype(int), 0, grid.n - 2)
    frac = rel - idx
    counts = np.zeros(grid.n)
    np.add.at(counts, idx, 1.0 - frac)
    np.add.at(counts, idx + 1, frac)
    density = counts / (pos.size * grid.dx)
    smoothed = gaussian_filter1d(density, sigma=h / grid.dx, mode="constant", truncate=8.0)
    return ScalarField(grid, smoothed)
