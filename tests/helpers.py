"""Shared assembly helpers for the test suite."""

import numpy as np

from recoillab.core import Grid1D, ScalarField, integrate
from recoillab.diagnostics import MsdSeries, msd_from_fields
from recoillab.fieldcalc import HydroFields, hydro_from_arrays


def normalized_density(grid: Grid1D, values) -> ScalarField:
    """Renormalize closed-form density samples so the grid quadrature is
    exactly 1 (solver constructors insist on it)."""
    f = ScalarField(grid, values)
    return ScalarField(grid, f.values / integrate(f))


def exact_slice(solution, grid: Grid1D, t: float, Omega=None) -> HydroFields:
    """HydroFields slice built from a closed-form solution's field arrays."""
    f = solution.fields(grid.x, t)
    return hydro_from_arrays(
        t, grid, rho=f["rho"], S=f["S"], v=f["v"], u=f["u"], Q=f["Q"],
        Omega=Omega)


def wave_density(wave, t: float) -> np.ndarray:
    """|psi|^2 of a stored wave slice as a plain array."""
    return np.abs(wave.psi_at(t).values) ** 2


def wave_msd(wave) -> MsdSeries:
    """Second-moment series over every stored wave slice."""
    rhos = [ScalarField(wave.grid, np.abs(p.values) ** 2) for p in wave.psis]
    return msd_from_fields(wave.times, rhos)


def snapshot_at(snapshots, t: float):
    """The ensemble snapshot stored at time t (exact match required)."""
    for s in snapshots:
        if abs(s.t - t) < 1e-9 * max(1.0, abs(t)):
            return s
    raise KeyError(f"no snapshot at t={t}; stored: {[s.t for s in snapshots]}")


def interp_lookup(drift, x, t):
    """Reference bilinear lookup: the time blend of the two rows, then one
    np.interp binary search on the blended row, in the operation order
    TabulatedDrift must keep."""
    times = drift.times
    k = int(np.clip(np.searchsorted(times, t, side="right") - 1, 0, times.size - 2))
    w = min(max((t - times[k]) / (times[k + 1] - times[k]), 0.0), 1.0)
    f = (1.0 - w) * drift.values[k] + w * drift.values[k + 1]
    return np.interp(x, drift.grid.x, f)
