"""Particle-ensemble integrator for dX = b(X,t) dt + sqrt(2D) dW.

A general drift takes Euler-Maruyama steps (weak order 1); a drift linear
in x jumps by its exact transition. The noise is one SFC64 stream
seeded by SeedSequence([seed, 1]). The stream is sequential, not
counter-based: a draw is reached only by drawing every one before it.
``evolve`` moves the ensemble from one stored step to the next through its
drift's ``march`` hook, which consumes the stream in one of two orders:

- per step, for a general drift: each step adds b(x, t) dt to the ensemble
  in place, then the scaled noise, so particle i at step k consumes draw
  k*n + i;
- per interval, for a drift linear in x (``LinearDrift``, ``ZeroDrift``):
  the process over the interval's T = m dt is one Gaussian jump
  x <- e^(rate T) x + s sqrt(V) z, s^2 V = 2D (e^(2 rate T) - 1)/(2 rate),
  so particle i in the j-th interval between stored steps consumes draw
  j*n + i. The jump carries no step bias: dt sets only the stored times.

Every update is a single-threaded vectorized numpy expression, so
trajectories are bitwise reproducible for a given seed regardless of
BLAS/OMP thread settings.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import (Grid1D, PhysicalParams, ScalarField, SolverError, gaussian_smooth,
                   steps, stored_steps)


# particles per TabulatedDrift lookup pass and KDE binning pass; keeps the
# working buffers in cache
_LOOKUP_CHUNK = 8192


class DriftDomainError(SolverError):
    """A particle left the domain of the drift or of the density estimate."""


class DriftSource:
    """Base drift b(x, t); subclasses implement __call__ on position arrays.

    ``time_dependent`` lets grid solvers reuse a factorized operator when the
    drift is static.
    """

    time_dependent: bool = True

    def __call__(self, x: np.ndarray, t: float) -> np.ndarray:
        raise NotImplementedError

    def march(self, x: np.ndarray, t0: float, dt: float, steps: range,
              rng: "np.random.Generator", scale: float, noise: np.ndarray) -> None:
        """Euler-Maruyama steps ``steps`` of the ensemble x, in place. Step k
        starts at t0 + k*dt and adds ``scale`` times one standard normal per
        particle, drawn into the buffer ``noise``."""
        for k in steps:
            # x <- (x + b dt) + sqrt(2 D dt) z, updated in place
            b = self(x, t0 + k * dt)
            b *= dt
            x += b
            rng.standard_normal(out=noise)
            noise *= scale
            x += noise


def linear_transition(rate_dt: float, m: int) -> tuple:
    """Growth e^(m r) and variance factor V = expm1(2 m r)/(2 r), r = rate_dt,
    of the exact transition of dx = rate x dt + sqrt(2D) dW over T = m dt:
    x(T) = e^(m r) x(0) + s sqrt(V) z with s = sqrt(2 D dt). Past the float
    range either one is inf."""
    if rate_dt == 0.0:
        return 1.0, float(m)
    with np.errstate(over="ignore"):
        return float(np.exp(m * rate_dt)), float(np.expm1(2 * m * rate_dt) / (2 * rate_dt))


class LinearDrift(DriftSource):
    """Linear drift b = rate * x. Its march jumps over a whole interval by
    the exact transition, with one draw per particle."""

    time_dependent = False

    def __init__(self, rate: float):
        self.rate = float(rate)

    def __call__(self, x, t):
        return self.rate * x

    def march(self, x, t0, dt, steps, rng, scale, noise):
        growth, v = linear_transition(self.rate * dt, len(steps))
        x *= growth
        rng.standard_normal(out=noise)
        noise *= scale * math.sqrt(v)
        x += noise


class ZeroDrift(LinearDrift):
    """Free diffusion: the linear drift of rate 0."""

    def __init__(self):
        super().__init__(0.0)

    def __call__(self, x, t):
        # zeros, not 0 * x, which is -0 at negative x
        return np.zeros_like(x)


class SmoluchowskiDrift(DriftSource):
    """Overdamped drift b(x) of a time-independent field, from a callable."""

    time_dependent = False

    def __init__(self, drift):
        self.drift = drift

    def __call__(self, x, t):
        # a new array: march scales the returned drift in place
        return np.array(self.drift(x), dtype=float)


def ou_drift(params: PhysicalParams) -> LinearDrift:
    """Linear restoring drift b = -gamma x."""
    if params.gamma <= 0:
        raise ValueError("ou_drift needs gamma > 0")
    return LinearDrift(-params.gamma)


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
        if not np.all(np.diff(self.times) > 0):  # also rejects NaN times
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

        # Blend the two time rows once, then interpolate the blended row in
        # the operation order of np.interp: slope_i * (x - x_i) + f_i, with
        # slope_i = df_i / dx_i, returning f_i itself where x == x_i. The
        # zero slope at index n-1 pads the table: only x == x_max reaches
        # that index, and it sits on a node.
        f = (1.0 - w) * self.values[k] + w * self.values[k + 1]
        slope = np.zeros_like(f)
        np.divide(np.diff(f), np.diff(g.x), out=slope[:-1])
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
        off, buf = np.empty(m), np.empty(m)
        for lo in range(0, flat.size, _LOOKUP_CHUNK):
            xc = flat[lo:lo + _LOOKUP_CHUNK]
            c = xc.size
            ic, ac, oc, bc = i[:c], ahead[:c], off[:c], buf[:c]
            rc = result[lo:lo + c]
            np.subtract(xc, x_lo, out=oc)
            np.multiply(oc, inv_dx, out=ic, casting="unsafe")
            np.take(nodes[1:], ic, out=bc, mode="clip")
            np.greater_equal(xc, bc, out=ac)
            ic += ac
            np.take(nodes, ic, out=bc, mode="clip")
            np.subtract(xc, bc, out=oc)
            np.take(slope, ic, out=rc, mode="clip")
            rc *= oc
            np.take(f, ic, out=bc, mode="clip")
            rc += bc
            on_node = np.flatnonzero(oc == 0.0)
            rc[on_node] = bc[on_node]
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
        if self.snapshot_stride < 1:
            raise ValueError("snapshot_stride must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def sample_initial(alpha: float, n: int, seed: int) -> EnsembleState:
    """Draw n initial positions from the Gaussian cloud of width alpha
    (std alpha/sqrt(2))."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    rng = np.random.Generator(np.random.Philox(key=seed))
    positions = rng.normal(0.0, alpha / np.sqrt(2.0), size=n)
    return EnsembleState(t=0.0, positions=positions)


def evolve(state: EnsembleState, drift: DriftSource, params: PhysicalParams,
           config: SdeConfig) -> list:
    """Integrate the ensemble to t_end; returns the stored snapshots from the
    initial to the final state. SolverError once <x^2> is not finite."""
    if state.n != config.n_particles:
        raise ValueError(f"state holds {state.n} particles, config says {config.n_particles}")
    n_steps = steps(config.t_end, config.dt, state.t)
    stored = stored_steps(n_steps, config.snapshot_stride).tolist()

    # SeedSequence hashes [seed, 1] into the SFC64 state; the word 1 marks
    # the evolution stream, apart from sample_initial's bare-seed generator
    rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence([config.seed, 1])))
    sqrt_noise = np.sqrt(2.0 * params.D * config.dt)
    x = state.positions.copy()
    noise = np.empty_like(x)
    snapshots = [state]
    for first, last in zip(stored, stored[1:]):
        drift.march(x, state.t, config.dt, range(first, last), rng, sqrt_noise, noise)
        t = state.t + last * config.dt
        if not np.isfinite(np.dot(x, x)):  # inf or nan once any x or x^2 is
            raise SolverError(f"the ensemble diverged: <x^2> is not finite at t = {t:g}")
        snapshots.append(EnsembleState(t=t, positions=x))
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


def kde_density(state: EnsembleState, grid: Grid1D) -> ScalarField:
    """Gaussian kernel density estimate evaluated on the grid, with
    Silverman's bandwidth.

    Particles are linearly binned onto the nodes and the counts convolved
    with a Gaussian kernel (equivalent to the direct kernel sum up to
    O(dx^2), and O(n + m) instead of O(n*m)). The convolution is
    ``core.gaussian_smooth`` (zero padding, kernel cut at 8 bandwidths),
    plain numpy and bit-equal to scipy.ndimage's gaussian_filter1d, so no
    run imports scipy.ndimage. Statistical quality needs n >~ 100; fewer
    particles are accepted but noisy. Degenerate samples fall back to a
    one-grid-cell bandwidth.
    """
    pos = state.positions
    if np.any(pos < grid.x_min) or np.any(pos > grid.x_max):
        out = int(np.sum((pos < grid.x_min) | (pos > grid.x_max)))
        raise DriftDomainError(f"{out} particle(s) fall outside the KDE grid; widen it")
    # degenerate or under-resolved sample: one-cell kernel
    h = max(silverman_bandwidth(pos), grid.dx)

    # linear binning: each particle splits its weight between the two
    # neighbouring nodes, preserving total mass and the first moment. The
    # shares are added _LOOKUP_CHUNK particles at a time, in particle order,
    # every lower-node share before any upper-node share
    counts = np.zeros(grid.n)
    for upper in (0, 1):
        for lo in range(0, pos.size, _LOOKUP_CHUNK):
            rel = (pos[lo:lo + _LOOKUP_CHUNK] - grid.x_min) / grid.dx
            idx = np.clip(rel.astype(int), 0, grid.n - 2)
            frac = rel - idx
            np.add.at(counts, idx + upper, frac if upper else 1.0 - frac)
    density = counts / (pos.size * grid.dx)
    return ScalarField(grid, gaussian_smooth(density, h / grid.dx))
