"""Particle-ensemble integrator for dX = b(X,t) dt + sqrt(2D) dW.

A general drift takes weak Euler steps with two-point increments (the
simplified weak Euler scheme, Kloeden and Platen 1992, section 14.1):
x <- (x + b dt) + s z with s = sqrt(2 D dt) and z = +1 or -1 with
probability 1/2 each, not a Gaussian z. Its weak order is 1, as
Euler-Maruyama's, and for a drift linear in x its msd bias is the same; on
a drift that is not linear the O(dt) constant differs (about 2.2 times
Euler-Maruyama's for b = -x^3). A drift linear in x jumps by its exact
Gaussian transition. The noise is one SFC64 stream seeded by
SeedSequence([seed, 1]). The stream is sequential, not counter-based: a
draw is reached only by drawing every one before it. ``evolve`` moves the
ensemble from one stored step to the next through its drift's ``march``
hook, which consumes the stream in one of two orders:

- per step, for a general drift: each step draws ceil(n/64) raw 64-bit
  words, read little-endian and unpacked least significant bit first, so
  particle i takes bit i % 64 of the step's word i // 64: +s for a 1 bit,
  -s for a 0 bit. The step adds b(x, t) dt to the ensemble in place, then
  the increment;
- per interval, for a drift linear in x (``LinearDrift``, ``ZeroDrift``):
  the process over the interval's T = m dt is one Gaussian jump
  x <- e^(rate T) x + s sqrt(V) z, s^2 V = 2D (e^(2 rate T) - 1)/(2 rate),
  so particle i in the j-th interval between stored steps consumes normal
  j*n + i. The jump carries no step bias: dt sets only the stored times.

A march takes the ensemble _LOOKUP_CHUNK particles at a time. A chunk reads
its own particles' bits of the step's words, or draws its own normals,
which are one whole-ensemble draw's in the same order, so the orders above
hold. A tabulated drift's step is one pass per chunk, its lookup, drift
update and increment back to back while the chunk is in cache, so a march
keeps only chunk-sized buffers and one step's bits beside the positions.

Every update is a single-threaded vectorized numpy expression, so
trajectories are bitwise reproducible for a given seed regardless of
BLAS/OMP thread settings.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import (Grid1D, PhysicalParams, ScalarField, SolverError, gaussian_smooth,
                   steps, stored_steps)


# particles per pass of the march and the KDE binning; keeps the working
# buffers in cache
_LOOKUP_CHUNK = 8192


def _chunks(n: int) -> list:
    """The (lo, hi) bounds of the passes over n particles, in particle order."""
    return [(lo, min(lo + _LOOKUP_CHUNK, n)) for lo in range(0, n, _LOOKUP_CHUNK)]


def _signs(rng: "np.random.Generator", n: int) -> np.ndarray:
    """One step's increment signs for n particles, 1 for + and 0 for -:
    bit i % 64 of word i // 64 of the stream's next ceil(n/64) raw words,
    read little-endian and least significant bit first."""
    words = rng.bit_generator.random_raw(-(-n // 64)).astype("<u8", copy=False)
    return np.unpackbits(words.view(np.uint8), count=n, bitorder="little")


class DriftDomainError(SolverError):
    """A particle left the domain of the drift or of the density estimate."""


class DriftSource:
    """Base drift b(x, t); subclasses implement __call__ on position arrays.

    b is pointwise, so a chunk of the ensemble gets the drift the whole would.
    ``time_dependent`` lets grid solvers reuse a factorized operator when the
    drift is static; ``scheme`` names the particle step ``march`` takes.
    """

    time_dependent: bool = True
    scheme = "weak Euler, two-point"

    def __call__(self, x: np.ndarray, t: float) -> np.ndarray:
        raise NotImplementedError

    def at(self, x: np.ndarray):
        """b at the fixed positions x as a function of t, equal to self(x, t)."""
        return lambda t: self(x, t)

    def march(self, x: np.ndarray, t0: float, dt: float, steps: range,
              rng: "np.random.Generator", scale: float) -> None:
        """Weak Euler steps ``steps`` of the ensemble x, in place: step k
        starts at t0 + k*dt and adds b(x, t) dt, then +scale or -scale by
        particle i's bit of the step's ``_signs``."""
        spans = _chunks(x.size)
        z = np.empty(spans[0][1])
        increment = np.array([-scale, scale])
        for k in steps:
            t = t0 + k * dt
            signs = _signs(rng, x.size)
            for lo, hi in spans:
                # x <- (x + b dt) +- sqrt(2 D dt), updated in place
                xc, zc = x[lo:hi], z[:hi - lo]
                b = self(xc, t)
                b *= dt
                xc += b
                increment.take(signs[lo:hi], out=zc, mode="clip")
                xc += zc


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
    scheme = "exact linear jump"

    def __init__(self, rate: float):
        self.rate = float(rate)

    def __call__(self, x, t):
        return self.rate * x

    def march(self, x, t0, dt, steps, rng, scale):
        growth, v = linear_transition(self.rate * dt, len(steps))
        scale = scale * math.sqrt(v)
        spans = _chunks(x.size)
        z = np.empty(spans[0][1])
        for lo, hi in spans:
            # x <- e^(rate T) x + s sqrt(V) z, z the stream's next normals
            xc, zc = x[lo:hi], z[:hi - lo]
            xc *= growth
            rng.standard_normal(out=zc)
            zc *= scale
            xc += zc


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
        # (x - x_min)/dx - 1/2 truncated is the cell index or one below it:
        # the nodes sit within a few ulps of x_min + i dx, far less than half
        # a cell
        self._x_lo = grid.x_min + 0.5 * grid.dx
        self._inv_dx = 1.0 / grid.dx

    # ``at`` and ``march`` share one lookup, and __call__ is ``at`` read
    # once: ``_row`` blends the time rows, ``_locate`` finds the positions'
    # cells and ``_interpolate`` reads the row there, in np.interp's
    # operation order.

    def _row(self, t: float) -> tuple:
        """The time blend f of the rows around t, its slopes df_i / dx_i (0 at
        n-1, which only x_max reaches, on a node) and whether a value on a
        node needs f_i put back."""
        tol = 1e-9 * max(1.0, abs(self.times[-1]))
        if t < self.times[0] - tol or t > self.times[-1] + tol:
            raise DriftDomainError(
                f"t={t} outside tabulated span [{self.times[0]}, {self.times[-1]}]"
            )
        k = int(np.clip(np.searchsorted(self.times, t, side="right") - 1, 0, self.times.size - 2))
        t0, t1 = self.times[k], self.times[k + 1]
        w = (t - t0) / (t1 - t0)
        w = min(max(w, 0.0), 1.0)
        f = (1.0 - w) * self.values[k] + w * self.values[k + 1]
        slope = np.zeros_like(f)
        np.divide(np.diff(f), np.diff(self.grid.x), out=slope[:-1])
        # on a node slope_i * 0 + f_i is f_i itself, unless f_i is -0.0 or
        # slope_i is not finite
        put_back = bool(np.any((f == 0.0) & np.signbit(f))) or not np.isfinite(slope).all()
        return f, slope, put_back

    def _check_domain(self, x: np.ndarray, rest: np.ndarray) -> None:
        """DriftDomainError unless every x lies on the table, counting those
        off it in ``rest``, x and the positions after it (those before
        passed)."""
        g = self.grid
        # the negated test also rejects NaN positions
        if not (g.x_min <= x.min() and x.max() <= g.x_max):
            out = int(np.count_nonzero(~((rest >= g.x_min) & (rest <= g.x_max))))
            raise DriftDomainError(
                f"{out} particle(s) outside drift domain [{g.x_min}, {g.x_max}]; "
                "widen the tabulation domain"
            )

    def _locate(self, x, i, off, buf, ahead) -> None:
        """Each position's cell i, x_i <= x < x_(i+1) (n-1 for x_max) as
        np.interp finds it, and offset off = x - x_i; buf and ahead are
        scratch."""
        # ndarray.take skips np.take's Python wrapper, about 1 us a call
        nodes = self.grid.x
        np.subtract(x, self._x_lo, out=off)
        np.multiply(off, self._inv_dx, out=i, casting="unsafe")
        nodes[1:].take(i, out=buf, mode="clip")
        np.greater_equal(x, buf, out=ahead)
        i += ahead
        nodes.take(i, out=buf, mode="clip")
        np.subtract(x, buf, out=off)

    @staticmethod
    def _interpolate(row: tuple, i, off, out, buf) -> None:
        """slope_i * off + f_i into out, and f_i itself on a node; buf is
        scratch."""
        f, slope, put_back = row
        slope.take(i, out=out, mode="clip")
        out *= off
        f.take(i, out=buf, mode="clip")
        out += buf
        if put_back:
            on_node = np.flatnonzero(off == 0.0)
            out[on_node] = buf[on_node]

    @staticmethod
    def _buffers(m: int) -> tuple:
        """Cell, offset, spare and mask buffers for m positions."""
        return np.empty(m, dtype=np.intp), np.empty(m), np.empty(m), np.empty(m, dtype=bool)

    def __call__(self, x, t):
        x = np.asarray(x, dtype=float)
        return self.at(x.reshape(-1))(t).reshape(x.shape)

    def at(self, x):
        """``DriftSource.at`` for 1D x, with the cells found once."""
        x = np.asarray(x, dtype=float)
        i, off, buf, ahead = self._buffers(x.size)
        if x.size:
            self._check_domain(x, x)
        self._locate(x, i, off, buf, ahead)

        def lookup(t):
            out = np.empty_like(x)
            self._interpolate(self._row(t), i, off, out, buf)
            return out

        return lookup

    def march(self, x, t0, dt, steps, rng, scale):
        """``DriftSource.march`` bit for bit, a step one pass per chunk and one
        row blend. A particle off the table raises DriftDomainError at the
        step whose lookup it enters, counting every one off it then."""
        spans = _chunks(x.size)
        i, off, z, ahead = self._buffers(spans[0][1])
        b = np.empty_like(z)
        increment = np.array([-scale, scale])
        chunks = [(lo, hi, x[lo:hi], x[lo:], i[:hi - lo], off[:hi - lo], b[:hi - lo],
                   z[:hi - lo], ahead[:hi - lo]) for lo, hi in spans]
        for k in steps:
            row = self._row(t0 + k * dt)
            signs = _signs(rng, x.size)
            for lo, hi, xc, rest, ic, oc, bc, zc, ac in chunks:
                # the chunks before this one have moved on, but every one of
                # them was on the table
                self._check_domain(xc, rest)
                self._locate(xc, ic, oc, zc, ac)
                self._interpolate(row, ic, oc, bc, zc)
                bc *= dt
                xc += bc
                increment.take(signs[lo:hi], out=zc, mode="clip")
                xc += zc


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
    snapshots = [state]
    for first, last in zip(stored, stored[1:]):
        drift.march(x, state.t, config.dt, range(first, last), rng, sqrt_noise)
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


def _quartiles(positions: np.ndarray) -> tuple:
    """The 75th and 25th percentiles of np.percentile's linear rule, bit for
    bit for n >= 2, from one partition of a copy: np.percentile's np.unique
    would load numpy.ma. Percentile q sits at index v = (n-1) q, between the
    order statistics a and b at floor(v) and the index after it, and is
    a + (b-a) t, or b - (b-a)(1-t) where t = v - floor(v) >= 0.5."""
    n = positions.size
    at = [(n - 1) * q for q in (0.75, 0.25)]
    lows = [int(v) for v in at]
    highs = [min(lo + 1, n - 1) for lo in lows]
    # numpy's own kth list, so that equal values (0.0 and -0.0) land alike
    ordered = np.partition(positions, sorted({0, n - 1, *lows, *highs}))
    out = []
    for v, lo, hi in zip(at, lows, highs):
        a, b, t = ordered.item(lo), ordered.item(hi), v - lo
        out.append(a + (b - a) * t if t < 0.5 else b - (b - a) * (1.0 - t))
    return tuple(out)


def silverman_bandwidth(positions: np.ndarray) -> float:
    """0.9 * min(std, IQR/1.34) * n^(-1/5); 0 for degenerate samples."""
    n = positions.size
    std = float(np.std(positions, ddof=1)) if n > 1 else 0.0
    q75, q25 = _quartiles(positions)
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
    # shares are added over the march's chunks, in particle order, every
    # lower-node share before any upper-node share
    counts = np.zeros(grid.n)
    for upper in (0, 1):
        for lo, hi in _chunks(pos.size):
            rel = (pos[lo:hi] - grid.x_min) / grid.dx
            idx = np.clip(rel.astype(int), 0, grid.n - 2)
            frac = rel - idx
            np.add.at(counts, idx + upper, frac if upper else 1.0 - frac)
    density = counts / (pos.size * grid.dx)
    return ScalarField(grid, gaussian_smooth(density, h / grid.dx))
