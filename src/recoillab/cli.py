"""Configuration-driven scenario runner.

``recoillab run spec.cfg`` builds the configured scenario, executes every
requested route (closed-form fields, particle ensemble, Fokker-Planck,
wave pair), cross-validates the routes against each other, and writes
plot-ready CSV artifacts plus a machine-readable report and a content-hash
manifest.  ``recoillab list`` prints the built-in scenarios; ``recoillab
compare A B`` diffs two finished run directories by content hash and says
by how much their CSV columns differ. This module decides which files a run
has; ``artifacts`` holds their format.

Exit codes: 0 every tolerance gate passed; 1 at least one gate failed;
2 invalid spec or usage; 3 a route raised ``core.SolverError``; 4 any other
exception, a fault of the program, whose traceback is printed to stderr.
"""

from __future__ import annotations

import argparse
import configparser
import json
import logging
import os
import sys
import traceback
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

import numpy as np

from . import analytic, artifacts, fieldcalc
from .core import (Grid1D, PhysicalParams, ScalarField, SolverError, steps, stored_steps,
                   stride_for, trapezoid)

# pde, sde and diagnostics are imported where they are used: parsing a spec
# needs at most sde, and pde loads scipy's compiled LAPACK module

logger = logging.getLogger(__name__)

ROUTES = ("analytic", "schrodinger", "fp", "sde")


@dataclass(frozen=True)
class Scenario:
    """Everything the runner knows about one scenario kind.

    The callables reach ``analytic`` functions and ``sde`` through module
    attributes when a route runs, so wrappers installed on those modules
    after import (bench/tracing.py) see the calls.
    """

    routes: tuple                  # routes the scenario can serve
    defaults: dict                 # [grid] and [time] defaults
    summary: str = ""              # `recoillab list` line; "" keeps it off the list
    needs_gamma: bool = False      # the dynamics need a confinement gamma > 0
    # (params, t_end) -> largest per-axis variance reached, for the domain check
    peak_var: Optional[Callable] = None
    # params -> closed form with fields(x, t) and msd(t), for the analytic route
    solution: Optional[Callable] = None
    # spec -> Omega ScalarField on spec.grid, or None for free dynamics
    omega: Callable = lambda spec: None
    # (sde module, params) -> closed-form fp/sde drift, used when no wave runs
    drift: Optional[Callable] = None
    energy_gate: bool = False      # the total energy is conserved, so gate it
    tables: bool = False           # the dynamics come from the [tables] files


SCENARIOS = {
    "free_brownian": Scenario(
        routes=("analytic", "fp", "sde"),
        defaults=dict(x_min=-16.0, x_max=16.0, n=2001, dt=1e-3,
                      t_end=1.0, snapshot_stride=100, drift_stride=0),
        summary="b = 0; <x^2> = alpha^2/2 + 2*D*t per axis",
        peak_var=lambda p, t: p.alpha**2 / 2 + 2 * p.D * t,
        solution=analytic.FreeBrownianSolution,
        drift=lambda sde, p: sde.ZeroDrift()),
    "free_recoil": Scenario(
        routes=("analytic", "schrodinger", "fp", "sde"),
        defaults=dict(x_min=-40.0, x_max=40.0, n=4001, dt=1e-4,
                      t_end=1.0, snapshot_stride=1000, drift_stride=100),
        summary=("b = 2D(2Dt - alpha^2) x / (alpha^4 + 4 D^2 t^2); "
                 "<x^2> = alpha^2/2 + 2 D^2 t^2 / alpha^2"),
        peak_var=lambda p, t: p.alpha**2 / 2 + 2 * p.D**2 * t**2 / p.alpha**2,
        solution=analytic.FreeRecoilSolution,
        drift=lambda sde, p: sde.AnalyticRecoilDrift(p),
        energy_gate=True),
    # fp/sde take their drift from the wave route in the same run
    "harmonic_recoil": Scenario(
        routes=("analytic", "schrodinger", "fp", "sde"),
        defaults=dict(x_min=-12.0, x_max=12.0, n=8001, dt=1e-3,
                      t_end=4.712, snapshot_stride=250, drift_stride=10),
        summary=("Omega = gamma^2 x^2 / 2 - D gamma; width oscillates "
                 "with period pi/gamma, frozen when alpha^2 = 2D/gamma"),
        needs_gamma=True,
        peak_var=lambda p, t: max(p.alpha**2 / 2,
                                  (p.D / p.gamma) ** 2 / (p.alpha**2 / 2)),
        solution=analytic.HarmonicRecoilSolution,
        omega=lambda spec: ScalarField(spec.grid, analytic.HarmonicRecoilSolution(
            spec.params).omega(spec.grid.x)),
        energy_gate=True),
    "smoluchowski_ou": Scenario(
        routes=("analytic", "fp", "sde"),
        defaults=dict(x_min=-12.0, x_max=12.0, n=2401, dt=1e-3,
                      t_end=10.0, snapshot_stride=1000, drift_stride=0),
        summary="b = -gamma x; variance relaxes to D/gamma",
        needs_gamma=True,
        peak_var=lambda p, t: max(p.alpha**2 / 2, p.D / p.gamma),
        solution=analytic.OrnsteinUhlenbeckSolution,
        omega=lambda spec: analytic.smoluchowski_omega(ScalarField(
            spec.grid, -spec.params.m * spec.params.beta * spec.params.gamma
            * spec.grid.x), spec.params),
        drift=lambda sde, p: sde.ou_drift(p)),
    "custom": Scenario(
        routes=("schrodinger", "fp", "sde"),
        defaults=dict(x_min=-10.0, x_max=10.0, n=1001, dt=1e-3,
                      t_end=1.0, snapshot_stride=100, drift_stride=0),
        omega=lambda spec: spec.omega_table,
        tables=True),
}

_TOLERANCE_DEFAULTS = dict(linf_rho=1e-4, l1_rho=2e-2, msd_rel=1e-3,
                           msd_nsigma=3.0, energy_drift=1e-3)

_SPARSE_FRAC = 1e-12  # hydro columns are blanked where rho < frac * peak


class SpecError(ValueError):
    """Unusable scenario specification; maps to exit code 2."""


@dataclass(frozen=True)
class ScenarioSpec:
    """Fully resolved run configuration."""

    name: str
    kind: str
    routes: tuple
    params: PhysicalParams
    grid: Grid1D
    dt: float                 # wave / field-solver step
    fp_dt: float
    t_end: float
    snapshot_stride: int
    drift_stride: int
    sde_n: int
    sde_dt: float
    sde_stride: int
    seed: int
    out_dir: str
    fmt: str                  # csv | binary
    tolerances: dict
    drift_table: object = None                  # TabulatedDrift from [tables] drift_file
    omega_table: Optional[ScalarField] = None   # from [tables] omega_file


def _get(cfg, section, key, cast, default):
    if cfg.has_option(section, key):
        raw = cfg.get(section, key, raw=True)
        try:  # a stray % in the value is a configparser interpolation error
            return cast(cfg.get(section, key))
        except (ValueError, configparser.Error) as exc:
            raise SpecError(f"[{section}] {key} = {raw!r}: {exc}") from exc
    if default is None:
        raise SpecError(f"missing required option [{section}] {key}")
    return default


def _finite_nonneg(value, key):
    """value itself unless it is NaN, infinite or negative (SpecError)."""
    if not 0 <= value < np.inf:
        raise SpecError(f"{key} = {value!r} must be finite and >= 0")
    return value


def _check_steps(t_end, dt, key):
    """core.steps as a spec check: dt must divide t_end (both > 0) into at
    most core.MAX_STEPS steps."""
    try:
        steps(t_end, dt)
    except ValueError as exc:
        raise SpecError(f"{key} = {dt!r} must divide t_end = {t_end!r} into a "
                        f"positive whole number of steps ({exc})") from exc


def load_spec(path: str, *, out_dir=None, seed=None, fmt=None) -> ScenarioSpec:
    """Parse and validate a spec file; CLI flags override file values."""
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        read = cfg.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise SpecError(f"cannot parse spec file {path!r}: {exc}") from exc
    if not read:
        raise SpecError(f"cannot read spec file {path!r}")
    if not cfg.has_section("scenario"):
        raise SpecError("spec needs a [scenario] section")

    kind = _get(cfg, "scenario", "kind", str, None).strip()
    if kind not in SCENARIOS:
        raise SpecError(f"unknown scenario kind {kind!r}; "
                        f"choose from {tuple(SCENARIOS)}")
    scenario = SCENARIOS[kind]
    name = _get(cfg, "scenario", "name", str, kind).strip()

    routes_raw = _get(cfg, "scenario", "routes", str, None)
    routes = tuple(r.strip() for r in routes_raw.split(",") if r.strip())
    if not routes:
        raise SpecError("at least one route is required")
    bad = [r for r in routes if r not in ROUTES]
    if bad:
        raise SpecError(f"unknown routes {bad}; choose from {ROUTES}")
    routes = tuple(r for r in ROUTES if r in routes)  # canonical order
    for r in routes:
        if r not in scenario.routes:
            raise SpecError(f"route {r!r} is not available for scenario {kind!r}"
                            + (" (the wave linearization evolves the recoil "
                               "dynamics, not this scenario)"
                               if r == "schrodinger" else ""))

    try:
        params = PhysicalParams(
            D=_get(cfg, "params", "D", float, 1.0),
            m=_get(cfg, "params", "m", float, 1.0),
            beta=_get(cfg, "params", "beta", float, 1.0),
            alpha=_get(cfg, "params", "alpha", float, 1.0),
            gamma=_get(cfg, "params", "gamma", float, 0.0),
        )
    except ValueError as exc:
        raise SpecError(f"bad [params]: {exc}") from exc
    if _get(cfg, "params", "dim", int, 1) != 1:
        raise SpecError("dim must be 1: every route runs on a 1D grid")
    if scenario.needs_gamma and params.gamma <= 0:
        raise SpecError(f"scenario {kind!r} needs gamma > 0")

    d = scenario.defaults
    x_min = _get(cfg, "grid", "x_min", float, d["x_min"])
    x_max = _get(cfg, "grid", "x_max", float, d["x_max"])
    n = _get(cfg, "grid", "n", int, d["n"])
    try:
        grid = Grid1D(x_min, x_max, n)
    except ValueError as exc:
        raise SpecError(f"bad [grid]: {exc}") from exc
    min_half_sigmas = _finite_nonneg(_get(cfg, "grid", "min_half_sigmas", float, 8.0),
                                     "[grid] min_half_sigmas")

    dt = _get(cfg, "time", "dt", float, d["dt"])
    t_end = _get(cfg, "time", "t_end", float, d["t_end"])
    snapshot_stride = _get(cfg, "time", "snapshot_stride", int, d["snapshot_stride"])
    drift_stride = _get(cfg, "time", "drift_stride", int, d["drift_stride"])
    fp_dt = _get(cfg, "time", "fp_dt", float, max(dt, 1e-3))
    if snapshot_stride < 1:
        raise SpecError("snapshot_stride must be >= 1")
    # also without the wave route: the analytic route samples the wave's steps
    _check_steps(t_end, dt, "[time] dt")
    if "fp" in routes:
        _check_steps(t_end, fp_dt, "[time] fp_dt")

    if scenario.peak_var is not None:
        try:
            sigma = float(np.sqrt(scenario.peak_var(params, t_end)))
        except ArithmeticError as exc:  # float ** overflows on huge [params]
            raise SpecError(f"bad [params]: the expected spread overflows ({exc})") from exc
        half = min(-grid.x_min, grid.x_max)
        if half < min_half_sigmas * sigma:
            raise SpecError(
                f"domain half-width {half:g} is below {min_half_sigmas:g} x "
                f"the expected peak standard deviation {sigma:.3g}; widen "
                f"[grid] or lower min_half_sigmas")

    sde_n = _get(cfg, "sde", "n_particles", int, 100000)
    sde_dt = _get(cfg, "sde", "dt", float, 1e-3)
    sde_stride = 1
    if "sde" in routes:
        _check_steps(t_end, sde_dt, "[sde] dt")
        sde_stride = _get(cfg, "sde", "snapshot_stride", int, stride_for(0.25, sde_dt))
        if sde_n < 2 or sde_stride < 1:
            raise SpecError("[sde] n_particles must be >= 2 (the msd's jackknife "
                            "errors need two) and snapshot_stride >= 1")

    tolerances = dict(_TOLERANCE_DEFAULTS)
    if cfg.has_section("tolerances"):
        for key in cfg.options("tolerances"):
            if key not in tolerances:
                raise SpecError(f"unknown tolerance {key!r}; "
                                f"known: {sorted(tolerances)}")
            tolerances[key] = _finite_nonneg(_get(cfg, "tolerances", key, float, None),
                                             f"[tolerances] {key}")

    out = out_dir or _get(cfg, "output", "dir", str, os.path.join("runs", name))
    fmt_val = (fmt or _get(cfg, "output", "format", str, "csv")).strip()
    if fmt_val not in ("csv", "binary"):
        raise SpecError("output format must be csv or binary")
    seed_val = seed if seed is not None else _get(cfg, "scenario", "seed", int, 0)
    # one int64 word: sample_initial keys Philox with it, and evolve seeds
    # its SFC64 noise with SeedSequence([seed, 1])
    if not 0 <= seed_val < 2**63:
        raise SpecError(f"seed = {seed_val} must be in [0, 2**63)")

    # tables are read here, so a malformed one exits 2 before any route runs;
    # their paths are relative to the spec file
    drift_table = omega_table = None
    if scenario.tables:
        base = os.path.dirname(os.path.abspath(path))
        drift_file = _get(cfg, "tables", "drift_file", str, "").strip()
        omega_file = _get(cfg, "tables", "omega_file", str, "").strip()
        if "schrodinger" in routes and not omega_file:
            raise SpecError(f"scenario {kind!r} route 'schrodinger' needs "
                            "[tables] omega_file")
        if drift_file and ("fp" in routes or "sde" in routes):
            drift_table = _load_drift_table(os.path.join(base, drift_file))
        if omega_file and "schrodinger" in routes:
            omega_table = _load_omega_table(os.path.join(base, omega_file), grid)
    # fp/sde take the drift_file if given, else the wave's drift table if the
    # wave route runs, else the scenario's closed-form drift
    if ("fp" in routes or "sde" in routes) and drift_table is None:
        if "schrodinger" in routes and drift_stride < 1:
            raise SpecError("drift_stride must be >= 1 to tabulate the "
                            "wave drift for fp/sde routes")
        if "schrodinger" not in routes and not scenario.drift:
            raise SpecError(f"scenario {kind!r} routes fp/sde take their drift "
                            "from the wave route; add schrodinger to routes"
                            + (" or give [tables] drift_file"
                               if scenario.tables else ""))

    return ScenarioSpec(
        name=name, kind=kind, routes=routes, params=params, grid=grid,
        dt=dt, fp_dt=fp_dt, t_end=t_end,
        snapshot_stride=snapshot_stride, drift_stride=drift_stride,
        sde_n=sde_n, sde_dt=sde_dt, sde_stride=sde_stride, seed=seed_val,
        out_dir=out, fmt=fmt_val, tolerances=tolerances,
        drift_table=drift_table, omega_table=omega_table,
    )


# ---------------------------------------------------------------------------
# route execution


@dataclass
class RouteData:
    """What one route keeps for the artifacts and gates.

    A route keeps what its slices are derived from (the stored psi, the
    stored fp densities, the closed form, the KDE densities) and no column
    built from it. ``fields`` builds the stored slices from that, one at a
    time, each time it is called; the writer calls it once and drops each
    slice after writing it. Every check that can raise SolverError runs in
    the route, so building a slice raises none.
    """

    fields: Callable              # () -> iterator of (t, {col: array}); last = t_end
    final_rho: np.ndarray         # the density at t_end, which the report compares
    msd: object                   # MsdSeries
    energy: object = None         # EnergyReport or None
    snapshots: list = field(default_factory=list)  # sde EnsembleStates


def _mask_sparse(rho, cols):
    """The fields-file columns of a slice: rho, and the derived hydro columns
    blanked where the density carries no information."""
    thin = rho < _SPARSE_FRAC * float(np.max(rho))
    out = {k: np.where(thin, np.nan, v) for k, v in cols.items()}
    out["rho"] = rho
    return out


def _run_analytic(spec) -> RouteData:
    from .diagnostics import energy_report, msd_from_fields

    p, grid = spec.params, spec.grid
    sol = SCENARIOS[spec.kind].solution(p)
    omega = SCENARIOS[spec.kind].omega(spec)
    # the steps the wave march stores
    times = spec.dt * stored_steps(steps(spec.t_end, spec.dt), spec.snapshot_stride)

    def fields():
        return ((float(t), sol.fields(grid.x, t)) for t in times)

    energy = energy_report(fieldcalc.hydro_from_arrays(
        t, grid, rho=cols["rho"], S=cols["S"], v=cols["v"], u=cols["u"],
        Q=cols["Q"], b=cols["b"], Omega=None if omega is None else omega.values)
        for t, cols in fields())
    rhos = (ScalarField(grid, sol.rho(grid.x, t)) for t in times)
    return RouteData(fields=fields, final_rho=sol.rho(grid.x, times[-1]),
                     msd=msd_from_fields(times, rhos, source="analytic"), energy=energy)


def _initial_density(spec):
    p, x = spec.params, spec.grid.x
    rho0 = np.exp(-(x**2) / p.alpha**2) / (np.sqrt(np.pi) * p.alpha)
    rho0 = rho0 / trapezoid(rho0, x)
    return ScalarField(spec.grid, rho0)


def _run_schrodinger(spec) -> tuple:
    """Returns (RouteData, WaveSolution); the wave also feeds drift tables."""
    from .diagnostics import energy_report, msd_from_fields
    from .pde import build_recoil_problem, madelung_decompose, solve_schrodinger

    p = spec.params
    # the drift table costs a Madelung slice per row; tabulate it only for
    # the fp/sde routes that _resolve_drift feeds from the wave
    feeds_table = ("fp" in spec.routes or "sde" in spec.routes) and spec.drift_table is None
    prob = build_recoil_problem(
        _initial_density(spec), SCENARIOS[spec.kind].omega(spec), D=p.D, dt=spec.dt,
        t_end=spec.t_end, snapshot_stride=spec.snapshot_stride,
        drift_stride=spec.drift_stride if feeds_table else None)
    wave = solve_schrodinger(prob)
    logger.info("wave route: %d slices, norm drift %.2e (%s march)",
                len(wave.times), wave.norm_drift_max, wave.march)

    def hydro():
        return (madelung_decompose(wave, float(t)) for t in wave.times)

    def fields():
        return ((h.t, _mask_sparse(h.rho.values, {
            "S": h.S.values, "v": h.v.values, "u": h.u.values,
            "b": h.b.values, "Q": h.Q.values})) for h in hydro())

    # the energy pass decomposes every stored slice, so an under-resolved
    # phase raises MadelungError here, before any file is written
    energy = energy_report(hydro())
    rhos = (ScalarField(spec.grid, np.abs(psi.values) ** 2) for psi in wave.psis)
    data = RouteData(fields=fields, final_rho=np.abs(wave.psis[-1].values) ** 2,
                     msd=msd_from_fields(wave.times, rhos, source="pde"), energy=energy)
    return data, wave


def _resolve_drift(spec, wave):
    """The fp/sde drift, chosen by the rule load_spec checks."""
    from . import sde

    if spec.drift_table is not None:
        return spec.drift_table
    if wave is not None:
        return wave.drift_table
    return SCENARIOS[spec.kind].drift(sde, spec.params)


def _load_drift_table(path):
    """Drift table CSV: first row `nan, x_0, ..., x_m`; then `t_i, b_i0, ...`."""
    from .sde import TabulatedDrift

    try:
        data = np.loadtxt(path, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise SpecError(f"cannot read drift table {path!r}: {exc}") from exc
    if data.shape[0] < 3 or data.shape[1] < 9:
        raise SpecError("drift table needs >= 2 times and >= 8 grid points")
    xs, ts, values = data[0, 1:], data[1:, 0], data[1:, 1:]
    dxs = np.diff(xs)
    # the negated test also rejects NaN nodes
    if not (np.all(dxs > 0) and np.ptp(dxs) <= 1e-9 * dxs[0]):
        raise SpecError("drift table x row must be uniformly increasing")
    try:
        return TabulatedDrift(ts, Grid1D(float(xs[0]), float(xs[-1]), xs.size), values)
    except ValueError as exc:
        raise SpecError(f"bad drift table: {exc}") from exc


def _load_omega_table(path, grid):
    """Omega table CSV: rows `x, omega`; interpolated onto the run grid."""
    try:
        data = np.loadtxt(path, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise SpecError(f"cannot read omega table {path!r}: {exc}") from exc
    if data.shape[1] != 2:
        raise SpecError("omega table must have two columns: x, omega")
    xs, vals = data[:, 0], data[:, 1]
    if not np.all(np.diff(xs) > 0):
        raise SpecError("omega table x column must be strictly increasing")
    if xs[0] > grid.x_min or xs[-1] < grid.x_max:
        raise SpecError("omega table must cover the run grid")
    try:
        return ScalarField(grid, np.interp(grid.x, xs, vals))
    except ValueError as exc:
        raise SpecError(f"bad omega table: {exc}") from exc


def _run_fp(spec, drift) -> RouteData:
    from .diagnostics import msd_from_fields
    from .pde import FokkerPlanckProblem, solve_fokker_planck

    p, grid = spec.params, spec.grid
    stride = stride_for(spec.snapshot_stride * spec.dt, spec.fp_dt)
    prob = FokkerPlanckProblem(grid=grid, drift=drift, D=p.D,
                               rho0=_initial_density(spec),
                               t_end=spec.t_end, dt=spec.fp_dt,
                               snapshot_stride=stride)
    sol = solve_fokker_planck(prob)
    logger.info("fp route: %d slices, mass drift %.2e",
                len(sol.times), sol.mass_drift_max)

    # the drift's domain check, before any file is written: the march read
    # the drift at every stored time, but only at the cell faces, and the
    # fields file reads it at the nodes, out to both ends of the grid
    drift(grid.x, float(sol.times[-1]))

    def fields():
        for t, rho in zip(sol.times, sol.rhos):
            u = fieldcalc.osmotic_velocity(rho, p.D)
            b = np.asarray(drift(grid.x, float(t)), dtype=float)
            yield float(t), _mask_sparse(rho.values, {
                "v": b - u.values, "u": u.values, "b": b,
                "Q": fieldcalc.osmotic_pressure(u, p.D).values})

    return RouteData(fields=fields, final_rho=sol.rhos[-1].values,
                     msd=msd_from_fields(sol.times, sol.rhos, source="pde"))


def _run_sde(spec, drift) -> RouteData:
    from .diagnostics import msd_from_ensemble
    from .sde import SdeConfig, evolve, kde_density, sample_initial

    p = spec.params
    state0 = sample_initial(p.alpha, spec.sde_n, seed=spec.seed)
    config = SdeConfig(n_particles=spec.sde_n, dt=spec.sde_dt,
                       t_end=spec.t_end, seed=spec.seed,
                       snapshot_stride=spec.sde_stride)
    snaps = evolve(state0, drift, p, config)
    logger.info("sde route: %d particles, %d snapshots", spec.sde_n, len(snaps))

    msd = msd_from_ensemble(snaps)
    kdes = [kde_density(s, spec.grid).values for s in snaps]
    return RouteData(fields=lambda: ((float(s.t), {"rho": kde}) for s, kde in zip(snaps, kdes)),
                     final_rho=kdes[-1], msd=msd, snapshots=snaps)


def _dispersion_entry(spec, msd_series) -> dict:
    from .diagnostics import DispersionFitError, classify_dispersion

    crossover = spec.params.alpha**2 / (2.0 * spec.params.D)
    try:
        v = classify_dispersion(msd_series, crossover)
        return v.as_dict()
    except DispersionFitError as exc:
        if exc.exponent is not None:
            return {"regime": "ambiguous", "exponent": float(exc.exponent)}
        return {"regime": "too_short", "detail": str(exc)}


# ---------------------------------------------------------------------------
# gates and report


def _evaluate_gates(spec, results, comparisons) -> list:
    """Ordered tolerance checks; each entry is a dict with a pass flag. The
    density gates read the final-density comparisons."""
    tol = spec.tolerances
    checks = []
    for c in comparisons:
        a, b = c["a"], c["b"]
        if a != "analytic":
            checks.append((f"l1_rho_{a}_{b}", c["l1"], tol["l1_rho"]))
        elif b == "sde":
            checks.append(("l1_rho_sde", c["l1"], tol["l1_rho"]))
        else:
            checks.append((f"linf_rho_{b}", c["linf"], tol["linf_rho"]))

    if "analytic" in results:
        msd_fn = SCENARIOS[spec.kind].solution(spec.params).msd
        for route in ("schrodinger", "fp"):
            if route in results:
                series = results[route].msd
                exact = float(msd_fn(series.times[-1]))
                rel = abs(series.values[-1] - exact) / abs(exact)
                checks.append((f"msd_rel_{route}", rel, tol["msd_rel"]))
        if "sde" in results:
            series = results["sde"].msd
            exact = float(msd_fn(series.times[-1]))
            nsig = abs(series.values[-1] - exact) / float(series.stderr[-1])
            checks.append(("msd_nsigma_sde", nsig, tol["msd_nsigma"]))

    if SCENARIOS[spec.kind].energy_gate:
        for route in ("analytic", "schrodinger"):
            if route in results:
                tot = results[route].energy.total
                spread = float(np.max(tot) - np.min(tot))
                checks.append((f"energy_drift_{route}", spread, tol["energy_drift"]))

    gates = []
    for name, value, tolerance in checks:
        gates.append({"name": name, "value": float(value),
                      "tolerance": float(tolerance),
                      "passed": bool(value <= tolerance)})
        if not gates[-1]["passed"]:
            logger.warning("gate %s failed: %.3e > %.3e", name, value, tolerance)
    return gates


def _build_report(spec, results) -> dict:
    """The run report: every pair of routes compared once at t_end, in route
    order, and the gates evaluated on those comparisons."""
    from .diagnostics import compare_fields

    final = {r: ScalarField(spec.grid, results[r].final_rho) for r in spec.routes}
    comparisons = []
    for i, a in enumerate(spec.routes):
        for b in spec.routes[i + 1:]:
            entry = {"a": a, "b": b, "t": spec.t_end}
            entry.update(compare_fields(final[b], final[a]).as_dict())
            comparisons.append(entry)
    gates = _evaluate_gates(spec, results, comparisons)

    p = spec.params
    report = {
        "name": spec.name,
        "scenario": spec.kind,
        "routes": list(spec.routes),
        "seed": spec.seed,
        "params": {"D": p.D, "m": p.m, "beta": p.beta, "alpha": p.alpha,
                   "gamma": p.gamma, "t0": p.t0, "dim": 1},
        "grid": asdict(spec.grid),
        "time": {"dt": spec.dt, "fp_dt": spec.fp_dt, "t_end": spec.t_end,
                 "sde_dt": spec.sde_dt},
        "tolerances": dict(spec.tolerances),
        "series": {}, "energy": {}, "dispersion": {},
        "comparisons": comparisons,
        "gates": gates,
        "passed": all(g["passed"] for g in gates),
    }
    for route, data in results.items():
        report["series"][route] = data.msd.as_dict()
        if data.energy is not None:
            report["energy"][route] = data.energy.as_dict()
        report["dispersion"][route] = _dispersion_entry(spec, data.msd)
    return report


# ---------------------------------------------------------------------------
# artifact writing


def _write_artifacts(spec, results, report) -> dict:
    """Name the run's files by route; artifacts.write_run writes them. Each
    fields file is fed by its route's ``fields()``, so every slice's columns
    are built as that slice is written and dropped once it is."""
    x_text = artifacts._format_column(spec.grid.x)
    files = {}
    for route, data in results.items():
        files[f"fields_{route}.csv"] = artifacts._fields_csv(data.fields(), x_text)
        files[f"msd_{route}.csv"] = artifacts._msd_csv(data.msd)
        if data.energy is not None:
            files[f"energy_{route}.csv"] = artifacts._energy_csv(data.energy)
    if "sde" in results:
        if spec.fmt == "binary":
            files["particles_sde.bin"] = artifacts._particles_binary(results["sde"].snapshots)
        else:
            files["particles_sde.csv"] = artifacts._particles_csv(results["sde"].snapshots)
    files["report.json"] = artifacts._json_blocks(report)
    return artifacts.write_run(spec.out_dir, spec.name, spec.seed, files)


# ---------------------------------------------------------------------------
# subcommands


def run_scenario(spec: ScenarioSpec) -> int:
    try:
        os.makedirs(spec.out_dir, exist_ok=True)
    except OSError as exc:
        raise SpecError(f"cannot create output directory {spec.out_dir!r}: {exc}") from exc

    results = {}
    wave = None
    try:
        if "schrodinger" in spec.routes:
            results["schrodinger"], wave = _run_schrodinger(spec)
        drift = None
        if "fp" in spec.routes or "sde" in spec.routes:
            drift = _resolve_drift(spec, wave)
        if "fp" in spec.routes:
            results["fp"] = _run_fp(spec, drift)
        if "sde" in spec.routes:
            results["sde"] = _run_sde(spec, drift)
        if "analytic" in spec.routes:
            results["analytic"] = _run_analytic(spec)
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3

    report = _build_report(spec, results)
    _write_artifacts(spec, results, report)

    gates = report["gates"]
    for g in gates:
        status = "pass" if g["passed"] else "FAIL"
        print(f"{status}  {g['name']}: {g['value']:.3e} (tolerance {g['tolerance']:.3e})")
    n_fail = sum(not g["passed"] for g in gates)
    print(f"{spec.name}: {len(gates) - n_fail}/{len(gates)} gates passed; "
          f"artifacts in {spec.out_dir}")
    return 0 if n_fail == 0 else 1


def list_scenarios(as_json: bool) -> int:
    rows = [{"name": kind, "routes": list(s.routes), "summary": s.summary}
            for kind, s in SCENARIOS.items() if s.summary]
    if as_json:
        print(json.dumps(rows, indent=2))
        return 0
    widths = (16, 30)
    print(f"{'scenario':<{widths[0]}} {'routes':<{widths[1]}} dynamics")
    for r in rows:
        print(f"{r['name']:<{widths[0]}} {','.join(r['routes']):<{widths[1]}} "
              f"{r['summary']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recoillab",
        description="cross-validated scenario runner for overdamped and "
                    "recoil Brownian dynamics")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log solver progress")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario spec file")
    p_run.add_argument("spec", help="path to the .cfg spec")
    p_run.add_argument("--out", help="output directory (overrides spec)")
    p_run.add_argument("--seed", type=int, help="run seed (overrides spec)")
    p_run.add_argument("--format", choices=("csv", "binary"),
                       help="particle snapshot format (overrides spec)")

    p_list = sub.add_parser("list", help="show built-in scenarios")
    p_list.add_argument("--json", action="store_true",
                        help="machine-readable output")

    p_cmp = sub.add_parser("compare", help="diff two run directories by hash and by column")
    p_cmp.add_argument("run_a")
    p_cmp.add_argument("run_b")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        if args.command == "list":
            return list_scenarios(args.json)
        if args.command == "compare":
            return artifacts.compare_runs(args.run_a, args.run_b)
        spec = load_spec(args.spec, out_dir=args.out, seed=args.seed,
                         fmt=args.format)
        return run_scenario(spec)
    except SpecError as exc:
        print(f"invalid spec: {exc}", file=sys.stderr)
        return 2
    except Exception:  # a fault of the program: keep it off the verdict codes 0-3
        traceback.print_exc()
        return 4


if __name__ == "__main__":
    sys.exit(main())
