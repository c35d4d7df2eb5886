"""Tests of the benchmark's own code: span arithmetic, metric names and their
declaration in BENCHMARK.json, and wrapper restoration after a traced run.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run as bench  # noqa: E402
import tracing  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# a small free-recoil run over all four routes, with tolerances loose enough
# for its coarse grid
TINY_SPEC = """\
[scenario]
kind = free_recoil
routes = analytic, schrodinger, fp, sde
[grid]
x_min = -16
x_max = 16
n = 401
[time]
dt = 1e-3
t_end = 0.2
snapshot_stride = 50
drift_stride = 20
[sde]
n_particles = 500
dt = 1e-3
snapshot_stride = 100
[tolerances]
linf_rho = 1
l1_rho = 1
msd_rel = 1
msd_nsigma = 100
energy_drift = 1
"""


@pytest.fixture
def tiny_spec(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_SPEC)
    return path


def span(id, name, parent, start, end, **counts):
    return {"id": id, "name": name, "parent": parent, "start": start, "end": end,
            "run": "r", **counts}


class TestSpanArithmetic:
    def test_self_time_subtracts_direct_children_only(self):
        spans = [span(0, "cli.run_scenario", None, 0.0, 10.0),
                 span(1, "pde.wave", 0, 1.0, 3.0),
                 span(2, "sde.evolve", 0, 5.0, 9.0),
                 span(3, "sde.drift", 2, 6.0, 7.0)]
        assert tracing.self_times(spans) == pytest.approx({0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0})

    def test_overlapping_and_overhanging_children_count_once(self):
        spans = [span(0, "a.x", None, 0.0, 10.0),
                 span(1, "b.x", 0, 2.0, 6.0),
                 span(2, "b.y", 0, 4.0, 8.0),
                 span(3, "b.z", 0, 9.0, 12.0)]
        assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)

    def test_layer_time_counts_nested_spans_of_one_layer_once(self):
        spans = [span(0, "cli.run_scenario", None, 0.0, 10.0),
                 span(1, "fieldcalc.pressure_potential", 0, 1.0, 4.0),
                 span(2, "fieldcalc.osmotic_velocity", 1, 2.0, 3.0),
                 span(3, "fieldcalc.osmotic_velocity", 0, 5.0, 6.0)]
        outer = tracing.outermost(spans, lambda s: s["name"].startswith("fieldcalc."))
        assert [s["id"] for s in outer] == [1, 3]

    def test_layer_metrics_split_drift_by_parent(self):
        spans = [span(0, "cli.run_scenario", None, 0.0, 20.0),
                 span(1, "pde.fp", 0, 1.0, 5.0, node_steps=1000),
                 span(2, "sde.drift", 1, 2.0, 3.0, points=10),
                 span(3, "sde.evolve", 0, 6.0, 16.0, particle_steps=2000),
                 span(4, "sde.drift", 3, 7.0, 11.0, points=100),
                 span(5, "sde.drift", 3, 12.0, 14.0, points=100),
                 span(6, "cli.artifacts", 0, 17.0, 19.0,
                      bytes_fields=3_000_000, bytes_other=1_000_000)]
        m = tracing.layer_metrics(spans, {"sde": 50.0}, drift_rows_unused=3)
        assert m["sde.drift.s"] == pytest.approx(7.0)
        assert m["sde.drift.calls"] == 3 and m["sde.drift.points"] == 210
        assert m["sde.drift.in_evolve.s"] == pytest.approx(6.0)
        assert m["sde.drift.in_fp.calls"] == 1
        assert m["sde.evolve.self_s"] == pytest.approx(4.0)
        assert m["sde.evolve.ns_per_particle_step"] == pytest.approx(4.0 / 2000 * 1e9)
        assert m["pde.fp.ns_per_node_step"] == pytest.approx(3.0 / 1000 * 1e9)
        assert m["cli.artifacts.mb_per_s"] == pytest.approx(2.0)
        assert m["cli.run_scenario.self_s"] == pytest.approx(4.0)
        assert m["trace.coverage"] == pytest.approx(0.8)
        assert m["trace.top_self_s"] == pytest.approx(7.0)  # the three drift spans
        assert m["pde.wave.drift_rows_unused"] == 3
        assert m["mem.rss_after_sde_mb"] == 50.0 and m["mem.rss_after_wave_mb"] == 0.0


def test_gate_ratios_skip_particle_gates_and_floor_roundoff():
    gates = [{"name": "linf_rho_fp", "value": 1e-12, "tolerance": 1e-4},
             {"name": "msd_rel_schrodinger", "value": 5e-4, "tolerance": 1e-3},
             {"name": "msd_nsigma_sde", "value": 2.9, "tolerance": 3.0},
             {"name": "l1_rho_fp_sde", "value": 1e-2, "tolerance": 2e-2}]
    assert bench.gate_ratios(gates) == pytest.approx([bench.ROUNDOFF_RATIO, 0.5])


class TestMetricNames:
    def test_declared_names_and_units_are_well_formed(self):
        metrics = DECLARED["end_to_end"] + DECLARED["per_layer"]
        names = [m["name"] for m in metrics] + [w["name"] for w in DECLARED["workloads"]]
        assert all(NAME.fullmatch(n) for n in names), names
        assert len(set(names)) == len(names)
        assert all(UNIT.fullmatch(m["unit"]) for m in metrics)

    def test_declared_workloads_are_the_commands(self):
        assert [w["name"] for w in DECLARED["workloads"]] == list(bench.WORKLOADS)

    @pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
    def test_printed_metrics_are_the_declared_ones(self, tiny_spec, tmp_path,
                                                   monkeypatch, trace, section):
        monkeypatch.setattr(bench, "SETUP_PROBES", 1)
        runs, _, metrics, problems = bench.measure(tiny_spec, "csv", 3, 0.0, trace,
                                                   tmp_path)
        assert not problems and not any(r["failures"] for r in runs)
        units = bench.END_TO_END if trace == 0 else {n: bench.layer_unit(n) for n in metrics}
        assert {n: units[n] for n in metrics} == \
            {m["name"]: m["unit"] for m in DECLARED[section]}
        assert all(NAME.fullmatch(n) for n in metrics)


def test_wrappers_are_restored_after_a_traced_run(tiny_spec, tmp_path):
    from recoillab import analytic, cli, diagnostics, fieldcalc, pde, sde

    owners = [cli, pde, sde, diagnostics, fieldcalc, analytic,
              sde.ZeroDrift, sde.SmoluchowskiDrift, sde.AnalyticRecoilDrift,
              sde.TabulatedDrift, analytic.FreeBrownianSolution,
              analytic.FreeRecoilSolution, analytic.HarmonicRecoilSolution]
    before = [dict(vars(o)) for o in owners]
    tracer = tracing.Tracer("test")
    tracer.install()
    try:
        assert cli.run_scenario is not before[0]["run_scenario"]
        spec = cli.load_spec(str(tiny_spec), out_dir=str(tmp_path / "run"))
        assert cli.run_scenario(spec) == 0
    finally:
        tracer.restore()
    after = [dict(vars(o)) for o in owners]
    for o, b, a in zip(owners, before, after):
        assert a.keys() == b.keys(), o
        assert all(a[k] is b[k] for k in b), o
    names = {s["name"] for s in tracer.spans}
    assert {"cli.run_scenario", "pde.wave", "pde.fp", "sde.evolve", "sde.drift",
            "cli.artifacts", "analytic.fields"} <= names


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "harmonic_matched",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
