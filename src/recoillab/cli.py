"""Configuration-driven scenario runner.

``recoillab run spec.cfg`` builds the configured scenario, executes every
requested route (closed-form fields, particle ensemble, Fokker-Planck,
wave pair), cross-validates the routes against each other, and writes
plot-ready CSV artifacts plus a machine-readable report and a content-hash
manifest.  ``recoillab list`` prints the built-in scenarios; ``recoillab
compare A B`` diffs two finished run directories by content hash.

Exit codes: 0 every tolerance gate passed; 1 at least one gate failed;
2 invalid spec or usage; 3 solver failure.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import logging
import os
import struct
import sys
from dataclasses import asdict, dataclass, field
from itertools import repeat
from typing import Callable, Optional

import numpy as np

from . import analytic, fieldcalc
from .core import Grid1D, PhysicalParams, ScalarField, trapezoid

# pde, sde and diagnostics are imported inside the route functions: parsing a
# spec does not need them, and they cost about 0.1 s of start-up

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
        omega=lambda spec: _load_omega_table(spec.omega_file, spec.grid),
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
    strict: bool
    tolerances: dict
    drift_file: str = ""
    omega_file: str = ""


def _get(cfg, section, key, cast, default):
    if cfg.has_option(section, key):
        raw = cfg.get(section, key)
        try:
            return cast(raw)
        except ValueError as exc:
            raise SpecError(f"[{section}] {key} = {raw!r}: {exc}") from exc
    if default is None:
        raise SpecError(f"missing required option [{section}] {key}")
    return default


def load_spec(path: str, *, out_dir=None, seed=None, fmt=None,
              strict=False) -> ScenarioSpec:
    """Parse and validate a spec file; CLI flags override file values."""
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    read = cfg.read(path)
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
    min_half_sigmas = _get(cfg, "grid", "min_half_sigmas", float, 8.0)

    dt = _get(cfg, "time", "dt", float, d["dt"])
    t_end = _get(cfg, "time", "t_end", float, d["t_end"])
    snapshot_stride = _get(cfg, "time", "snapshot_stride", int, d["snapshot_stride"])
    drift_stride = _get(cfg, "time", "drift_stride", int, d["drift_stride"])
    fp_dt = _get(cfg, "time", "fp_dt", float, max(dt, 1e-3))
    if dt <= 0 or fp_dt <= 0 or t_end <= 0:
        raise SpecError("dt, fp_dt and t_end must be > 0")
    if snapshot_stride < 1:
        raise SpecError("snapshot_stride must be >= 1")

    if scenario.peak_var is not None:
        sigma = float(np.sqrt(scenario.peak_var(params, t_end)))
        half = min(-grid.x_min, grid.x_max)
        if half < min_half_sigmas * sigma:
            raise SpecError(
                f"domain half-width {half:g} is below {min_half_sigmas:g} x "
                f"the expected peak standard deviation {sigma:.3g}; widen "
                f"[grid] or lower min_half_sigmas")

    sde_n = _get(cfg, "sde", "n_particles", int, 100000)
    sde_dt = _get(cfg, "sde", "dt", float, 1e-3)
    sde_stride = _get(cfg, "sde", "snapshot_stride", int,
                      max(1, int(round(0.25 / sde_dt))))

    tolerances = dict(_TOLERANCE_DEFAULTS)
    if cfg.has_section("tolerances"):
        for key in cfg.options("tolerances"):
            if key not in tolerances:
                raise SpecError(f"unknown tolerance {key!r}; "
                                f"known: {sorted(tolerances)}")
            tolerances[key] = _get(cfg, "tolerances", key, float, None)

    out = out_dir or _get(cfg, "output", "dir", str, os.path.join("runs", name))
    fmt_val = (fmt or _get(cfg, "output", "format", str, "csv")).strip()
    if fmt_val not in ("csv", "binary"):
        raise SpecError("output format must be csv or binary")
    seed_val = seed if seed is not None else _get(cfg, "scenario", "seed", int, 0)

    # table paths are relative to the spec file
    tables = {"drift_file": "", "omega_file": ""}
    if scenario.tables:
        base = os.path.dirname(os.path.abspath(path))
        for key in tables:
            value = _get(cfg, "tables", key, str, "").strip()
            tables[key] = os.path.join(base, value) if value else ""
        if "schrodinger" in routes and not tables["omega_file"]:
            raise SpecError(f"scenario {kind!r} route 'schrodinger' needs "
                            "[tables] omega_file")
    # fp/sde take the drift_file if given, else the wave's drift table if the
    # wave route runs, else the scenario's closed-form drift
    if ("fp" in routes or "sde" in routes) and not tables["drift_file"]:
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
        out_dir=out, fmt=fmt_val, strict=strict, tolerances=tolerances,
        **tables,
    )


# ---------------------------------------------------------------------------
# route execution


@dataclass
class RouteData:
    """Everything one route contributes to artifacts and gates."""

    slices: list = field(default_factory=list)   # (t, {col: array}) for CSV
    msd: object = None                           # MsdSeries
    energy: object = None                        # EnergyReport or None
    rho_final: object = None                     # ScalarField at t_end
    snapshots: list = field(default_factory=list)  # sde EnsembleStates


def _mask_sparse(rho, cols):
    """Blank derived hydro columns where the density carries no information."""
    thin = rho < _SPARSE_FRAC * float(np.max(rho))
    return {k: np.where(thin, np.nan, v) for k, v in cols.items()}


def _snap_times(spec):
    n_steps = int(round(spec.t_end / spec.dt))
    ks = np.arange(spec.snapshot_stride, n_steps + 1, spec.snapshot_stride)
    times = [0.0] + [k * spec.dt for k in ks]
    if abs(times[-1] - spec.t_end) > 1e-12:
        times.append(spec.t_end)
    return np.asarray(times)


def _run_analytic(spec) -> RouteData:
    from .diagnostics import energy_report, msd_from_fields

    p, grid = spec.params, spec.grid
    sol = SCENARIOS[spec.kind].solution(p)
    omega = SCENARIOS[spec.kind].omega(spec)
    times = _snap_times(spec)
    out = RouteData()
    hydro = []
    for t in times:
        cols = sol.fields(grid.x, t)
        cols.pop("P", None)  # the free solutions' pressure is not a CSV column
        out.slices.append((float(t), cols))
        hydro.append(fieldcalc.hydro_from_arrays(
            float(t), grid, p.D, rho=cols["rho"], S=cols["S"], v=cols["v"],
            u=cols["u"], Q=cols["Q"], b=cols["b"],
            Omega=None if omega is None else omega.values))

    rhos = [ScalarField(grid, c["rho"]) for _, c in out.slices]
    out.msd = msd_from_fields(times, rhos, source="analytic")
    out.energy = energy_report(hydro)
    out.rho_final = rhos[-1]
    return out


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
    feeds_table = ("fp" in spec.routes or "sde" in spec.routes) and not spec.drift_file
    prob = build_recoil_problem(
        _initial_density(spec), SCENARIOS[spec.kind].omega(spec), D=p.D, dt=spec.dt,
        t_end=spec.t_end, snapshot_stride=spec.snapshot_stride,
        drift_stride=spec.drift_stride if feeds_table else None)
    wave = solve_schrodinger(prob)
    logger.info("wave route: %d slices, norm drift %.2e",
                len(wave.times), wave.norm_drift_max)

    out = RouteData()
    hydro = []
    for t in wave.times:
        h = madelung_decompose(wave, float(t))
        hydro.append(h)
        cols = {"S": h.S.values, "v": h.v.values, "u": h.u.values,
                "b": h.b.values, "Q": h.Q.values}
        cols = _mask_sparse(h.rho.values, cols)
        cols["rho"] = h.rho.values
        out.slices.append((float(t), cols))
    rhos = [h.rho for h in hydro]
    out.msd = msd_from_fields(wave.times, rhos, source="pde")
    out.energy = energy_report(hydro)
    out.rho_final = rhos[-1]
    return out, wave


def _resolve_drift(spec, wave):
    """The fp/sde drift, chosen by the rule load_spec checks."""
    from . import sde

    if spec.drift_file:
        return _load_drift_table(spec.drift_file)
    if wave is not None:
        return wave.drift_table
    return SCENARIOS[spec.kind].drift(sde, spec.params)


def _load_drift_table(path):
    """Drift table CSV: first row `nan, x_0, ..., x_m`; then `t_i, b_i0, ...`."""
    from .sde import TabulatedDrift

    try:
        data = np.loadtxt(path, delimiter=",", ndmin=2)
    except OSError as exc:
        raise SpecError(f"cannot read drift table {path!r}: {exc}") from exc
    if data.shape[0] < 3 or data.shape[1] < 9:
        raise SpecError("drift table needs >= 2 times and >= 8 grid points")
    xs, ts, values = data[0, 1:], data[1:, 0], data[1:, 1:]
    dxs = np.diff(xs)
    if np.any(dxs <= 0) or np.ptp(dxs) > 1e-9 * dxs[0]:
        raise SpecError("drift table x row must be uniformly increasing")
    grid = Grid1D(float(xs[0]), float(xs[-1]), xs.size)
    try:
        return TabulatedDrift(ts, grid, values)
    except ValueError as exc:
        raise SpecError(f"bad drift table: {exc}") from exc


def _load_omega_table(path, grid):
    """Omega table CSV: rows `x, omega`; interpolated onto the run grid."""
    try:
        data = np.loadtxt(path, delimiter=",", ndmin=2)
    except OSError as exc:
        raise SpecError(f"cannot read omega table {path!r}: {exc}") from exc
    if data.shape[1] != 2:
        raise SpecError("omega table must have two columns: x, omega")
    xs, vals = data[:, 0], data[:, 1]
    if xs[0] > grid.x_min or xs[-1] < grid.x_max:
        raise SpecError("omega table must cover the run grid")
    return ScalarField(grid, np.interp(grid.x, xs, vals))


def _run_fp(spec, drift) -> RouteData:
    from .diagnostics import msd_from_fields
    from .pde import FokkerPlanckProblem, solve_fokker_planck

    p, grid = spec.params, spec.grid
    stride = max(1, int(round(spec.snapshot_stride * spec.dt / spec.fp_dt)))
    prob = FokkerPlanckProblem(grid=grid, drift=drift, D=p.D,
                               rho0=_initial_density(spec),
                               t_end=spec.t_end, dt=spec.fp_dt,
                               snapshot_stride=stride)
    sol = solve_fokker_planck(prob)
    logger.info("fp route: %d slices, mass drift %.2e",
                len(sol.times), sol.mass_drift_max)

    out = RouteData()
    for t, rho in zip(sol.times, sol.rhos):
        u = fieldcalc.osmotic_velocity(rho, p.D).values
        b = np.asarray(drift(grid.x, float(t)), dtype=float)
        Q, _ = fieldcalc.pressure_potential(rho, p.D)
        cols = _mask_sparse(rho.values, {
            "S": np.full(grid.n, np.nan), "v": b - u, "u": u, "b": b,
            "Q": Q.values})
        cols["rho"] = rho.values
        out.slices.append((float(t), cols))
    out.msd = msd_from_fields(sol.times, sol.rhos, source="pde")
    out.rho_final = sol.rhos[-1]
    return out


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

    out = RouteData(msd=msd_from_ensemble(snaps), snapshots=snaps)
    for s in snaps:
        kde = kde_density(s, spec.grid)
        out.slices.append((float(s.t), {"rho": kde.values}))
    out.rho_final = kde_density(snaps[-1], spec.grid)
    return out


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


def _gate_values(spec, results):
    """(name, value, tolerance) of each gate in order, computed lazily so a
    strict run stops computing at the first failure."""
    from .diagnostics import compare_fields

    tol = spec.tolerances
    analytic = results.get("analytic")
    for route in ("schrodinger", "fp"):
        if analytic and route in results:
            cmp = compare_fields(results[route].rho_final, analytic.rho_final)
            yield f"linf_rho_{route}", cmp.linf, tol["linf_rho"]
    if analytic and "sde" in results:
        cmp = compare_fields(results["sde"].rho_final, analytic.rho_final)
        yield "l1_rho_sde", cmp.l1, tol["l1_rho"]

    numeric = [r for r in ("schrodinger", "fp", "sde") if r in results]
    for i, a in enumerate(numeric):
        for b in numeric[i + 1:]:
            cmp = compare_fields(results[a].rho_final, results[b].rho_final)
            yield f"l1_rho_{a}_{b}", cmp.l1, tol["l1_rho"]

    if analytic:
        msd_fn = SCENARIOS[spec.kind].solution(spec.params).msd
        for route in ("schrodinger", "fp"):
            if route in results:
                series = results[route].msd
                exact = float(msd_fn(series.times[-1]))
                rel = abs(series.values[-1] - exact) / abs(exact)
                yield f"msd_rel_{route}", rel, tol["msd_rel"]
        if "sde" in results:
            series = results["sde"].msd
            exact = float(msd_fn(series.times[-1]))
            nsig = abs(series.values[-1] - exact) / float(series.stderr[-1])
            yield "msd_nsigma_sde", nsig, tol["msd_nsigma"]

    if SCENARIOS[spec.kind].energy_gate:
        for route in ("analytic", "schrodinger"):
            if route in results:
                tot = results[route].energy.total
                spread = float(np.max(tot) - np.min(tot))
                yield f"energy_drift_{route}", spread, tol["energy_drift"]


def _evaluate_gates(spec, results) -> list:
    """Ordered tolerance checks; each entry is a dict with a pass flag."""
    gates = []
    for name, value, tolerance in _gate_values(spec, results):
        gates.append({"name": name, "value": float(value),
                      "tolerance": float(tolerance),
                      "passed": bool(value <= tolerance)})
        if not gates[-1]["passed"]:
            logger.warning("gate %s failed: %.3e > %.3e", name, value, tolerance)
            if spec.strict:
                break
    return gates


def _build_report(spec, results, gates) -> dict:
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
        "comparisons": [],
        "gates": gates,
        "passed": all(g["passed"] for g in gates),
    }
    for route, data in results.items():
        report["series"][route] = data.msd.as_dict()
        if data.energy is not None:
            report["energy"][route] = data.energy.as_dict()
        report["dispersion"][route] = _dispersion_entry(spec, data.msd)

    from .diagnostics import compare_fields

    routes = [r for r in spec.routes if results[r].rho_final is not None]
    for i, a in enumerate(routes):
        for b in routes[i + 1:]:
            cmp = compare_fields(results[b].rho_final, results[a].rho_final)
            entry = {"a": a, "b": b, "t": spec.t_end}
            entry.update(cmp.as_dict())
            report["comparisons"].append(entry)
    return report


# ---------------------------------------------------------------------------
# artifact writing


# Every writer is a generator of bytes blocks, one per time slice or
# particle snapshot, so no artifact is ever held whole in memory. Columns are
# formatted with one %-call each and joined into rows; the text is that of
# formatting every value with "%.17g".


def _format_column(values) -> list:
    """The "%.17g" text of every value of a float column."""
    values = np.asarray(values, dtype=float).tolist()
    return ("%.17g\n" * len(values) % tuple(values)).split("\n")[:-1]


def _csv_block(*columns) -> bytes:
    """Comma-joined rows of equal-length text columns, each row ending in a
    newline."""
    text = "\n".join(map(",".join, zip(*columns, strict=True)))
    return (text + "\n").encode() if text else b""


def _fields_csv(slices, x_text):
    """Blocks of fields_<route>.csv; x_text is the formatted grid column,
    shared by every slice. A column a slice lacks is written as nan."""
    yield b"t,x,rho,S,v,u,b,Q\n"
    nan = ["nan"] * len(x_text)
    for t, cols in slices:
        yield _csv_block(
            repeat("%.17g" % float(t), len(x_text)), x_text,
            *(_format_column(cols[k]) if k in cols else nan
              for k in ("rho", "S", "v", "u", "b", "Q")))


def _msd_csv(series):
    err = series.stderr
    yield b"t,msd,stderr\n"
    yield _csv_block(*map(_format_column, (
        series.times, series.values,
        np.zeros(len(series.times)) if err is None else err)))


def _energy_csv(report):
    yield b"t,kinetic,osmotic,potential,total\n"
    yield _csv_block(*map(_format_column, (
        report.times, report.kinetic, report.osmotic, report.potential,
        report.total)))


def _particles_csv(snapshots):
    yield b"t,particle_index,x\n"
    index = []
    for s in snapshots:
        n = s.positions.size
        if len(index) != n:
            index = list(map(str, range(n)))
        yield _csv_block(repeat("%.17g" % float(s.t), n), index,
                         _format_column(s.positions))


PARTICLE_MAGIC = b"RLABPT01"


def _particles_binary(snapshots):
    """Magic, uint64 snapshot count, then per snapshot: float64 t, uint64 n,
    n little-endian float64 positions."""
    yield PARTICLE_MAGIC + struct.pack("<Q", len(snapshots))
    for s in snapshots:
        yield struct.pack("<dQ", float(s.t), s.positions.size)
        yield np.ascontiguousarray(s.positions, dtype="<f8").tobytes()


def read_particles_binary(path):
    """Inverse of the binary writer; returns a list of (t, positions)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != PARTICLE_MAGIC:
        raise ValueError(f"{path!r} is not a particle snapshot file")
    (count,) = struct.unpack_from("<Q", blob, 8)
    offset = 16
    out = []
    for _ in range(count):
        t, n = struct.unpack_from("<dQ", blob, offset)
        offset += 16
        xs = np.frombuffer(blob, dtype="<f8", count=n, offset=offset).copy()
        offset += 8 * n
        out.append((t, xs))
    return out


def _json_blocks(obj):
    """json.dumps(obj, indent=2, sort_keys=True) plus a newline, in pieces."""
    for chunk in json.JSONEncoder(indent=2, sort_keys=True).iterencode(obj):
        yield chunk.encode()
    yield b"\n"


def _write_blocks(path, blocks) -> dict:
    """Write the blocks to path as they come; their sha256 and byte count."""
    digest, size = hashlib.sha256(), 0
    with open(path, "wb") as fh:
        for block in blocks:
            fh.write(block)
            digest.update(block)
            size += len(block)
    return {"sha256": digest.hexdigest(), "bytes": size}


def _write_artifacts(spec, results, report) -> dict:
    """Write every artifact, then the manifest of their hashes.

    An earlier manifest is removed before the first byte is written and the
    new one is renamed into place last, so a run that dies partway leaves no
    manifest vouching for half-written files.
    """
    os.makedirs(spec.out_dir, exist_ok=True)
    manifest_path = os.path.join(spec.out_dir, "manifest.json")
    try:
        os.remove(manifest_path)
    except FileNotFoundError:
        pass

    x_text = _format_column(spec.grid.x)
    files = {}
    for route, data in results.items():
        if data.slices:
            files[f"fields_{route}.csv"] = _fields_csv(data.slices, x_text)
        files[f"msd_{route}.csv"] = _msd_csv(data.msd)
        if data.energy is not None:
            files[f"energy_{route}.csv"] = _energy_csv(data.energy)
    if "sde" in results:
        if spec.fmt == "binary":
            files["particles_sde.bin"] = _particles_binary(results["sde"].snapshots)
        else:
            files["particles_sde.csv"] = _particles_csv(results["sde"].snapshots)
    files["report.json"] = _json_blocks(report)

    manifest = {"name": spec.name, "seed": spec.seed, "files": {}}
    for name in sorted(files):
        manifest["files"][name] = _write_blocks(
            os.path.join(spec.out_dir, name), files[name])
    _write_blocks(manifest_path + ".tmp", _json_blocks(manifest))
    os.replace(manifest_path + ".tmp", manifest_path)
    return manifest


# ---------------------------------------------------------------------------
# subcommands


def run_scenario(spec: ScenarioSpec) -> int:
    from .pde import SolverError
    from .sde import DriftDomainError

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
    except SpecError:
        raise
    except (SolverError, DriftDomainError, ValueError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3

    gates = _evaluate_gates(spec, results)
    report = _build_report(spec, results, gates)
    _write_artifacts(spec, results, report)

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


def compare_runs(dir_a: str, dir_b: str) -> int:
    manifests = []
    for d in (dir_a, dir_b):
        path = os.path.join(d, "manifest.json")
        try:
            with open(path, "rb") as fh:
                manifests.append(json.load(fh))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"cannot read {path}: {exc}", file=sys.stderr)
            return 2
    fa, fb = manifests[0]["files"], manifests[1]["files"]
    names = sorted(set(fa) | set(fb))
    identical = True
    for name in names:
        if name not in fa:
            status, same = "only in B", False
        elif name not in fb:
            status, same = "only in A", False
        elif fa[name]["sha256"] == fb[name]["sha256"]:
            status, same = "identical", True
        else:
            status, same = "DIFFERS", False
        identical &= same
        print(f"{name:<24} {status}")
    print("runs are byte-identical" if identical else "runs differ")
    return 0 if identical else 1


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
    p_run.add_argument("--strict", action="store_true",
                       help="stop at the first failed tolerance gate")

    p_list = sub.add_parser("list", help="show built-in scenarios")
    p_list.add_argument("--json", action="store_true",
                        help="machine-readable output")

    p_cmp = sub.add_parser("compare", help="diff two run directories by hash")
    p_cmp.add_argument("run_a")
    p_cmp.add_argument("run_b")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    if args.command == "list":
        return list_scenarios(args.json)
    if args.command == "compare":
        return compare_runs(args.run_a, args.run_b)
    try:
        spec = load_spec(args.spec, out_dir=args.out, seed=args.seed,
                         fmt=args.format, strict=args.strict)
        return run_scenario(spec)
    except SpecError as exc:
        print(f"invalid spec: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
