"""recoillab benchmark: the bundled scenarios run end to end, as
``recoillab run`` runs them, one run at a time, each in a fresh
single-threaded interpreter.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a recoillab checkout; it imports recoillab from
the checkout's ``src`` and writes only under ``.bench_out/`` at its root.

Workloads (one closed-loop client each; ``--seed`` becomes the run seed):

* ``free_recoil``      - bench/specs/free_recoil.cfg, all four routes, CSV
* ``ou_relax``         - bench/specs/smoluchowski_ou.cfg, ``--format binary``
* ``harmonic_matched`` - bench/specs/harmonic_recoil.cfg, wave + analytic

``--trace 0`` makes a few set-up-only launches, then runs the spec again and
again while the next run should end within ``--seconds`` (at least once),
and reports the end-to-end metrics.  ``--trace 1`` makes one untraced and
one traced run of the same seed and reports the per-layer metrics (see
tracing.py).  Every run is checked: exit code 0, every gate passed, every
file matching ``manifest.json``, and the manifest digest equal to that of
the seed's first run.  The last line of standard output is a JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
exit code is 1 when a check failed.  The run records (digests, dispersion
verdicts, gate values, environment) go to ``.bench_out/<workload>/``.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# workload -> (frozen spec under bench/specs, particle output format)
WORKLOADS = {
    "free_recoil": ("free_recoil.cfg", "csv"),
    "ou_relax": ("smoluchowski_ou.cfg", "binary"),
    "harmonic_matched": ("harmonic_recoil.cfg", "csv"),
}

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "artifact_mb": "MB",
    "gate_ratio_max": "ratio",
    "gate_ratio_geomean": "ratio",
    "run_ok_ratio": "ratio",
}

# every gate any workload evaluates; reported per layer as gates.<name>
GATES = (
    "linf_rho_schrodinger", "linf_rho_fp", "l1_rho_sde", "l1_rho_schrodinger_fp",
    "l1_rho_schrodinger_sde", "l1_rho_fp_sde", "msd_rel_schrodinger", "msd_rel_fp",
    "msd_nsigma_sde", "energy_drift_analytic", "energy_drift_schrodinger",
)

# Gate values below a millionth of their tolerance are roundoff; they count
# at that level, so a roundoff change does not read as a worse gate.
ROUNDOFF_RATIO = 1e-6

SETUP_PROBES = 5
RUN_TIMEOUT_S = 150
# every run is single-threaded
THREADS = dict.fromkeys(("RECOILLAB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                         "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"), "1")


def layer_unit(name):
    """Unit of a per-layer metric, from its name."""
    last = name.rsplit(".", 1)[-1]
    if name.startswith("gates."):
        return "value"
    if last in ("s", "self_s", "run_s", "overhead_s", "top_self_s"):
        return "s"
    if last.endswith("_mb"):
        return "MB"
    if last == "mb_per_s":
        return "MB/s"
    if name.startswith("cli.artifacts.bytes."):
        return "B"
    if last.startswith("ns_per_"):
        return "ns"
    if ".call_us." in name:
        return "us"
    if last == "coverage":
        return "ratio"
    return "count"


def spawn(spec, run_dir, seed, fmt, *extra):
    """Run worker.py once in a fresh single-threaded interpreter.

    Returns its result line plus ``exit_code``, ``wall_s`` and ``setup_s``
    (launch to spec parsed, on the clock all processes share)."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **THREADS)
    cmd = [sys.executable, str(BENCH / "worker.py"), str(spec), "--out", str(run_dir),
           "--seed", str(seed), "--format", fmt, *extra]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"exit_code": None, "wall_s": time.monotonic() - start,
                "stderr": f"killed after {RUN_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {}
    result.update(exit_code=proc.returncode, wall_s=time.monotonic() - start,
                  stderr=proc.stderr[-2000:])
    if "spec_parsed" in result:
        result["setup_s"] = result["spec_parsed"] - start
    return result


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_run(rec, run_dir, reference_digest):
    """Check one run's outputs and record its digest, gates, dispersion
    verdicts and artifact bytes on ``rec``; returns the list of failures."""
    failures = []
    if rec["exit_code"] != 0:
        failures.append(f"exit code {rec['exit_code']}: {rec.get('stderr', '')[-300:]}")
    if "recoillab_file" in rec and not Path(rec["recoillab_file"]).is_relative_to(SRC):
        failures.append(f"imported recoillab from {rec['recoillab_file']}, not {SRC}")
    manifest_path = run_dir / "manifest.json"
    if not manifest_path.is_file():
        return failures + ["no manifest.json"]
    rec["digest"] = _sha256(manifest_path)
    manifest = json.loads(manifest_path.read_text())
    for name, entry in manifest["files"].items():
        path = run_dir / name
        if not path.is_file() or path.stat().st_size != entry["bytes"] \
                or _sha256(path) != entry["sha256"]:
            failures.append(f"{name} does not match manifest.json")
    rec["artifact_bytes"] = sum(p.stat().st_size for p in run_dir.iterdir())
    report = json.loads((run_dir / "report.json").read_text())
    rec["gates"] = report["gates"]
    rec["verdicts"] = {route: v["regime"] for route, v in report["dispersion"].items()}
    failures += [f"gate {g['name']} failed" for g in report["gates"] if not g["passed"]]
    if reference_digest is not None and rec["digest"] != reference_digest:
        failures.append("manifest digest differs from the first run of this seed")
    return failures


def gate_ratios(gates):
    """value/tolerance of the gates that do not involve the particle route.

    Those depend only on the spec; the particle gates move with the seed
    (msd_nsigma_sde is a |z| score) and are reported per layer instead."""
    return [max(g["value"] / g["tolerance"], ROUNDOFF_RATIO)
            for g in gates if "sde" not in g["name"].split("_")]


def end_to_end(runs, setups):
    done = [r for r in runs if r.get("run_s") is not None and "gates" in r]
    if not done:
        return dict.fromkeys(END_TO_END, 0.0)
    ratios = gate_ratios(done[0]["gates"])
    return {
        "run_s": statistics.median(r["run_s"] for r in done),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in done),
        "artifact_mb": statistics.median(r["artifact_bytes"] for r in done) / 1e6,
        "gate_ratio_max": max(ratios),
        "gate_ratio_geomean": math.exp(statistics.fmean(math.log(q) for q in ratios)),
        "run_ok_ratio": sum(not r["failures"] for r in runs) / len(runs),
    }


def per_layer(plain, traced):
    metrics = dict(traced.get("layers", {}))
    values = {g["name"]: g["value"] for g in traced.get("gates", [])}
    metrics.update({f"gates.{name}": values.get(name, 0.0) for name in GATES})
    metrics["trace.overhead_s"] = (traced["run_s"] - plain["run_s"]
                                   if traced.get("run_s") and plain.get("run_s") else 0.0)
    return metrics


def environment(runs):
    versions = next((r["versions"] for r in runs if "versions" in r), {})
    return {"versions": versions, "executable": sys.executable,
            "platform": platform.platform(), "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "threads": THREADS,
            "loadavg": os.getloadavg()}


def measure(spec, fmt, seed, seconds, trace, work):
    """Run the workload; returns (run records, setup samples, metrics,
    problems outside the runs)."""
    run_dir = work / "run"

    def one_run(*extra):
        shutil.rmtree(run_dir, ignore_errors=True)
        rec = spawn(spec, run_dir, seed, fmt, *extra)
        reference = runs[0].get("digest") if runs else None
        rec["failures"] = check_run(rec, run_dir, reference)
        runs.append(rec)
        return rec

    runs, problems = [], []
    try:
        if trace:
            plain = one_run()
            traced = one_run("--spans", str(work / f"spans-seed{seed}.json"))
            return runs, [], per_layer(plain, traced), problems
        setups = []
        for _ in range(SETUP_PROBES):
            rec = spawn(spec, run_dir, seed, fmt, "--setup-only")
            if "setup_s" in rec and rec["exit_code"] == 0:
                setups.append(rec["setup_s"])
            else:
                problems.append(f"set-up launch failed: {rec.get('stderr', '')[-300:]}")
        # closed loop: start another run while it should end within the
        # measuring time; always at least one
        start = time.monotonic()
        while not runs or time.monotonic() - start + runs[-1]["wall_s"] <= seconds:
            one_run()
        setups += [r["setup_s"] for r in runs if "setup_s" in r]
        return runs, setups, end_to_end(runs, setups or [0.0]), problems
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def report_text(workload, seed, runs, metrics, units):
    first = runs[0]
    n_failed = sum(bool(r["failures"]) for r in runs)
    lines = [f"{workload} seed {seed}: {len(runs)} run(s), {n_failed} failed",
             f"  manifest sha256 {first.get('digest', '-')}",
             "  dispersion " + " ".join(f"{k}={v}" for k, v in
                                        sorted(first.get("verdicts", {}).items()))]
    for r in runs:
        lines += [f"  FAIL {f}" for f in r["failures"]]
    for r in runs:
        for name, seconds in r.get("self_by_name", [])[:5]:
            lines.append(f"  self time {name:<32} {seconds:10.4f} s")
    lines += [f"  {name:<36} {value if isinstance(value, int) else f'{value:.6g}'} {units[name]}"
              for name, value in metrics.items()]
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "recoillab" / "cli.py").is_file():
        print(f"no recoillab sources under {SRC}; run inside a recoillab checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed must be >= 0 (recoillab run seeds are non-negative)",
              file=sys.stderr)
        return 2

    spec_name, fmt = WORKLOADS[args.workload]
    work = OUT / args.workload
    work.mkdir(parents=True, exist_ok=True)
    runs, setups, metrics, problems = measure(BENCH / "specs" / spec_name, fmt,
                                              args.seed, args.seconds, args.trace, work)
    units = ({name: layer_unit(name) for name in metrics} if args.trace
             else END_TO_END)
    failed = sum(bool(r["failures"]) for r in runs)
    correct = failed == 0 and not problems

    records = [{k: v for k, v in r.items() if k not in ("layers", "stderr")} for r in runs]
    with open(work / f"result-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "correct": correct, "problems": problems, "setup_samples_s": setups,
                   "environment": environment(runs), "runs": records,
                   "metrics": metrics}, fh, indent=1)

    print(report_text(args.workload, args.seed, runs, metrics, units))
    for p in problems:
        print(f"  FAIL {p}")
    print(json.dumps({"correct": correct, "attempted": len(runs), "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
