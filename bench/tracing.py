"""Span tracing for the benchmark's traced run.

``Tracer`` wraps recoillab's public entry points from outside the package,
at the names the callers look up: ``cli`` imports ``pde``/``sde``/
``diagnostics``/``fieldcalc`` functions inside its functions, so the module
attributes are wrapped; ``pde`` binds ``hydro_from_rho_S`` at import, so that
binding is wrapped too; drift sources are called as objects, so their class
``__call__`` is wrapped.  Each call records one span (name, start, end,
parent, run id, plus work counts) in memory.  ``restore`` puts every
attribute back.

``layer_metrics`` turns the spans into the per-layer figures declared in
BENCHMARK.json.  ``core`` is not wrapped: every module binds its helpers at
import, and its time is part of whichever layer called it.
"""

import functools
import resource
import statistics
import time
from collections import defaultdict

_MISSING = object()


def rss_mb():
    """Peak resident set of this process so far (ru_maxrss is in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _steps(t_end, t0, dt):
    return int(round((t_end - t0) / dt))


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.rss_after = {}     # route -> peak RSS in MB when it returned
        self._tables = {}       # id(TabulatedDrift) -> (rows, touched row set)
        self._stack = []
        self._saved = []

    def wrap(self, owner, attr, name, count=None):
        """Replace ``owner.attr`` by a traced version recording span ``name``.

        ``count(args, kwargs, result)`` returns work counts to store on the
        span; it runs after the span ends.
        """
        self._saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, self._traced(name, getattr(owner, attr), count))

    def _traced(self, name, fn, count):
        spans, stack, run_id = self.spans, self._stack, self.run_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(spans), "name": name, "run": run_id,
                    "parent": stack[-1] if stack else None}
            spans.append(span)
            stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if count is not None:
                span.update(count(args, kwargs, result))
            return result

        return traced

    def restore(self):
        """Undo every ``wrap``, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- work counts taken at the layer boundaries -------------------------

    def _wave_counts(self, args, kwargs, wave):
        p = _arg(args, kwargs, 0, "p")
        self.rss_after["wave"] = rss_mb()
        rows = 0
        if wave.drift_table is not None:
            rows = int(wave.drift_table.times.size)
            self._tables[id(wave.drift_table)] = (rows, set())
        return {"node_steps": p.grid.n * _steps(p.t_end, 0.0, p.dt),
                "drift_rows": rows}

    def _fp_counts(self, args, kwargs, _sol):
        p = _arg(args, kwargs, 0, "p")
        self.rss_after["fp"] = rss_mb()
        return {"node_steps": p.grid.n * _steps(p.t_end, 0.0, p.dt)}

    def _evolve_counts(self, args, kwargs, _snaps):
        state = _arg(args, kwargs, 0, "state")
        config = _arg(args, kwargs, 3, "config")
        self.rss_after["sde"] = rss_mb()
        return {"particle_steps":
                config.n_particles * _steps(config.t_end, state.t, config.dt)}

    def _drift_counts(self, args, kwargs, _b):
        drift, x = args[0], _arg(args, kwargs, 1, "x")
        table = self._tables.get(id(drift))
        if table is not None:
            # the row pair TabulatedDrift.__call__ interpolates between
            t = _arg(args, kwargs, 2, "t")
            k = int(drift.times.searchsorted(t, side="right")) - 1
            k = min(max(k, 0), drift.times.size - 2)
            table[1].update((k, k + 1))
        return {"points": int(x.size)}

    def _artifact_counts(self, _args, _kwargs, manifest):
        self.rss_after["artifacts"] = rss_mb()
        by_kind = defaultdict(int)
        for name, entry in manifest["files"].items():
            kind = name.split("_")[0] if name.startswith(("fields_", "particles_")) else "other"
            by_kind[f"bytes_{kind}"] += entry["bytes"]
        return dict(by_kind)

    def drift_rows_unused(self):
        return sum(rows - len(touched) for rows, touched in self._tables.values())

    def install(self):
        """Wrap the public entry points of cli, pde, sde, diagnostics,
        fieldcalc and analytic."""
        from recoillab import analytic, cli, diagnostics, fieldcalc, pde, sde

        self.wrap(cli, "load_spec", "cli.load_spec")
        self.wrap(cli, "run_scenario", "cli.run_scenario")
        # artifact writing has no public entry; time the module-level helper
        self.wrap(cli, "_write_artifacts", "cli.artifacts", self._artifact_counts)

        self.wrap(pde, "solve_schrodinger", "pde.wave", self._wave_counts)
        self.wrap(pde, "solve_fokker_planck", "pde.fp", self._fp_counts)
        self.wrap(pde, "madelung_decompose", "pde.madelung")
        for fn in ("build_recoil_problem", "tabulate_drift"):
            self.wrap(pde, fn, f"pde.{fn}")

        self.wrap(sde, "evolve", "sde.evolve", self._evolve_counts)
        self.wrap(sde, "kde_density", "sde.kde")
        for fn in ("sample_initial", "ou_drift"):
            self.wrap(sde, fn, f"sde.{fn}")
        for cls in (sde.ZeroDrift, sde.SmoluchowskiDrift,
                    sde.AnalyticRecoilDrift, sde.TabulatedDrift):
            self.wrap(cls, "__call__", "sde.drift", self._drift_counts)

        for fn in ("msd_from_fields", "msd_from_ensemble", "energy_report",
                   "classify_dispersion", "compare_fields"):
            self.wrap(diagnostics, fn, f"diagnostics.{fn}")

        for fn in ("hydro_from_arrays", "hydro_from_rho_S", "osmotic_velocity",
                   "pressure_potential"):
            self.wrap(fieldcalc, fn, f"fieldcalc.{fn}")
        self.wrap(pde, "hydro_from_rho_S", "fieldcalc.hydro_from_rho_S")

        for fn in ("ou_variance", "smoluchowski_omega"):
            self.wrap(analytic, fn, f"analytic.{fn}")
        for cls in (analytic.FreeBrownianSolution, analytic.FreeRecoilSolution,
                    analytic.HarmonicRecoilSolution):
            for method in ("fields", "msd", "rho", "b"):
                if method in vars(cls):
                    self.wrap(cls, method, f"analytic.{method}")


# ---------------------------------------------------------------------------
# span arithmetic


def self_times(spans):
    """Span id -> its duration minus the part of it its direct children cover."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    out = {}
    for s in spans:
        covered, cursor = 0.0, s["start"]
        for c in sorted(children[s["id"]], key=lambda c: c["start"]):
            lo, hi = max(c["start"], cursor), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def outermost(spans, match):
    """Spans for which ``match`` holds and no ancestor's ``match`` holds, so
    their durations add up without double counting."""
    by_id = {s["id"]: s for s in spans}

    def nested(s):
        p = s["parent"]
        while p is not None:
            if match(by_id[p]):
                return True
            p = by_id[p]["parent"]
        return False

    return [s for s in spans if match(s) and not nested(s)]


def _duration(spans):
    return sum((s["end"] - s["start"] for s in spans), 0.0)


def _per(numerator, base, scale=1.0):
    return numerator * scale / base if base else 0.0


def _percentile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def self_by_name(spans):
    """[(span name, total self seconds)], largest first."""
    selfs = self_times(spans)
    totals = defaultdict(float)
    for s in spans:
        totals[s["name"]] += selfs[s["id"]]
    return sorted(totals.items(), key=lambda kv: -kv[1])


def layer_metrics(spans, rss_after, drift_rows_unused):
    """Per-layer figures from one traced run's spans (all 0 where the run
    does not reach the layer)."""
    selfs = self_times(spans)
    by_id = {s["id"]: s for s in spans}

    def named(name):
        return [s for s in spans if s["name"] == name]

    def layer(prefix):
        return _duration(outermost(spans, lambda s: s["name"].split(".")[0] == prefix))

    def self_sum(name):
        return sum((selfs[s["id"]] for s in named(name)), 0.0)

    def count(name, key):
        return sum(s.get(key, 0) for s in named(name))

    drift = named("sde.drift")
    drift_us = [(s["end"] - s["start"]) * 1e6 for s in drift]
    drift_points = count("sde.drift", "points")

    def drift_under(parent):
        return [s for s in drift
                if s["parent"] is not None and by_id[s["parent"]]["name"] == parent]

    in_evolve, in_fp = drift_under("sde.evolve"), drift_under("pde.fp")
    run = named("cli.run_scenario")
    run_s = _duration(run)
    art_s = _duration(named("cli.artifacts"))
    art_bytes = sum(count("cli.artifacts", k)
                    for k in ("bytes_fields", "bytes_particles", "bytes_other"))
    wave_nodes = count("pde.wave", "node_steps")
    fp_nodes = count("pde.fp", "node_steps")
    particle_steps = count("sde.evolve", "particle_steps")
    return {
        "cli.load_spec.s": _duration(named("cli.load_spec")),
        "cli.run_scenario.self_s": self_sum("cli.run_scenario"),
        "cli.artifacts.s": art_s,
        "cli.artifacts.bytes.fields": count("cli.artifacts", "bytes_fields"),
        "cli.artifacts.bytes.particles": count("cli.artifacts", "bytes_particles"),
        "cli.artifacts.bytes.other": count("cli.artifacts", "bytes_other"),
        "cli.artifacts.mb_per_s": _per(art_bytes / 1e6, art_s),
        "pde.wave.s": _duration(named("pde.wave")),
        "pde.wave.node_steps": wave_nodes,
        "pde.wave.ns_per_node_step": _per(self_sum("pde.wave"), wave_nodes, 1e9),
        "pde.wave.drift_rows": count("pde.wave", "drift_rows"),
        "pde.wave.drift_rows_unused": drift_rows_unused,
        "pde.madelung.s": _duration(named("pde.madelung")),
        "pde.madelung.calls": len(named("pde.madelung")),
        "pde.fp.s": _duration(named("pde.fp")),
        "pde.fp.node_steps": fp_nodes,
        "pde.fp.ns_per_node_step": _per(self_sum("pde.fp"), fp_nodes, 1e9),
        "sde.evolve.s": _duration(named("sde.evolve")),
        "sde.evolve.self_s": self_sum("sde.evolve"),
        "sde.particle_steps": particle_steps,
        "sde.evolve.ns_per_particle_step":
            _per(self_sum("sde.evolve"), particle_steps, 1e9),
        "sde.drift.s": _duration(drift),
        "sde.drift.calls": len(drift),
        "sde.drift.points": drift_points,
        "sde.drift.ns_per_point": _per(_duration(drift), drift_points, 1e9),
        "sde.drift.call_us.p50": _percentile(drift_us, 50),
        "sde.drift.call_us.p99": _percentile(drift_us, 99),
        "sde.drift.in_evolve.s": _duration(in_evolve),
        "sde.drift.in_evolve.calls": len(in_evolve),
        "sde.drift.in_fp.s": _duration(in_fp),
        "sde.drift.in_fp.calls": len(in_fp),
        "sde.kde.s": _duration(named("sde.kde")),
        "diagnostics.s": layer("diagnostics"),
        "fieldcalc.s": layer("fieldcalc"),
        "analytic.s": layer("analytic"),
        "mem.rss_after_wave_mb": rss_after.get("wave", 0.0),
        "mem.rss_after_fp_mb": rss_after.get("fp", 0.0),
        "mem.rss_after_sde_mb": rss_after.get("sde", 0.0),
        "mem.rss_after_artifacts_mb": rss_after.get("artifacts", 0.0),
        "trace.run_s": run_s,
        "trace.coverage": 1.0 - _per(self_sum("cli.run_scenario"), run_s),
        "trace.spans": len(spans),
        "trace.top_self_s": self_by_name(spans)[0][1] if spans else 0.0,
    }
