"""Scenario runner: spec parsing, exit codes, artifact layout, hashing,
and the binary particle format."""

import dataclasses
import glob
import hashlib
import json
import os
import shutil

import numpy as np
import pytest

from recoillab import cli, pde
from recoillab.cli import (
    PARTICLE_MAGIC,
    SpecError,
    compare_runs,
    load_spec,
    main,
    read_particles_binary,
)

SPEC_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "specs")
SMOKE = os.path.join(SPEC_DIR, "smoke_free_recoil.cfg")


def run_smoke(out_dir, *extra):
    return main(["run", SMOKE, "--out", str(out_dir), *extra])


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke")
    rc = run_smoke(out)
    return rc, out


@pytest.fixture(scope="module")
def smoke_rerun(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke_again")
    rc = run_smoke(out)
    return rc, out


@pytest.fixture(scope="module")
def binary_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke_binary")
    rc = run_smoke(out, "--format", "binary")
    return rc, out


def write_cfg(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


class TestSpecLoading:
    def test_bundled_specs_parse(self, tmp_path):
        paths = sorted(glob.glob(os.path.join(SPEC_DIR, "*.cfg")))
        assert len(paths) == 5
        for path in paths:
            spec = load_spec(path, out_dir=str(tmp_path))
            assert spec.routes
            assert spec.out_dir == str(tmp_path)

    def test_missing_file(self):
        with pytest.raises(SpecError, match="cannot read"):
            load_spec("no_such_file.cfg", out_dir="x")

    def test_route_canonical_order(self, tmp_path):
        path = write_cfg(tmp_path, "a.cfg", """
[scenario]
kind = free_recoil
routes = sde, analytic
""")
        spec = load_spec(path, out_dir=str(tmp_path))
        assert spec.routes == ("analytic", "sde")

    def test_cli_overrides_beat_file_values(self, tmp_path):
        spec = load_spec(SMOKE, out_dir=str(tmp_path), seed=7, fmt="binary")
        assert spec.seed == 7
        assert spec.fmt == "binary"
        assert spec.out_dir == str(tmp_path)


class TestSpecErrors:
    def rc(self, path):
        return main(["run", path])

    def test_empty_routes(self, tmp_path):
        path = write_cfg(tmp_path, "bad.cfg", """
[scenario]
kind = free_recoil
routes =
""")
        assert self.rc(path) == 2

    def test_unknown_route(self, tmp_path):
        path = write_cfg(tmp_path, "bad.cfg", """
[scenario]
kind = free_recoil
routes = analytic, magic
""")
        assert self.rc(path) == 2

    def test_wave_route_unavailable_for_plain_diffusion(self, tmp_path):
        path = write_cfg(tmp_path, "bad.cfg", """
[scenario]
kind = free_brownian
routes = schrodinger
""")
        assert self.rc(path) == 2

    def test_harmonic_particles_need_the_wave_drift(self, tmp_path):
        path = write_cfg(tmp_path, "bad.cfg", """
[scenario]
kind = harmonic_recoil
routes = analytic, sde

[params]
gamma = 2.0
""")
        assert self.rc(path) == 2

    def test_custom_needs_tables(self, tmp_path):
        path = write_cfg(tmp_path, "bad.cfg", """
[scenario]
kind = custom
routes = fp
""")
        assert self.rc(path) == 2

    def test_domain_too_narrow_for_the_spread(self, tmp_path):
        path = write_cfg(tmp_path, "bad.cfg", """
[scenario]
kind = free_recoil
routes = analytic

[grid]
x_min = -2
x_max = 2
n = 201

[time]
t_end = 0.5
""")
        assert self.rc(path) == 2

    @pytest.mark.parametrize("grid", ["n = 4", "x_max = inf"])
    def test_bad_grid(self, tmp_path, grid):
        path = write_cfg(tmp_path, "bad.cfg", f"""
[scenario]
kind = free_recoil
routes = analytic

[grid]
{grid}
""")
        assert self.rc(path) == 2

    def test_dim_other_than_one(self, tmp_path):
        path = write_cfg(tmp_path, "bad.cfg", """
[scenario]
kind = free_brownian
routes = analytic

[params]
dim = 3
""")
        assert self.rc(path) == 2

    def test_unknown_tolerance_key(self, tmp_path):
        path = write_cfg(tmp_path, "bad.cfg", """
[scenario]
kind = free_recoil
routes = analytic

[tolerances]
bogus = 1.0
""")
        assert self.rc(path) == 2


class TestExitCodes:
    def test_gate_failure_returns_one(self, tmp_path):
        path = write_cfg(tmp_path, "tight.cfg", """
[scenario]
kind = free_brownian
routes = analytic, fp

[grid]
x_min = -8
x_max = 8
n = 401

[time]
dt = 1e-3
fp_dt = 1e-3
t_end = 0.2
snapshot_stride = 200

[tolerances]
linf_rho = 1e-12
""")
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 1

    def test_solver_failure_returns_three(self, tmp_path):
        # domain deliberately too small: the guard is relaxed at parse time,
        # then the wave reaches the boundary and the solver aborts
        path = write_cfg(tmp_path, "escape.cfg", """
[scenario]
kind = free_recoil
routes = schrodinger

[grid]
x_min = -6
x_max = 6
n = 601
min_half_sigmas = 3

[time]
dt = 1e-3
t_end = 1.0
snapshot_stride = 1000
drift_stride = 0
""")
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 3

    def test_madelung_failure_returns_three(self, tmp_path, monkeypatch, capsys):
        def under_resolved(*args, **kwargs):
            raise pde.MadelungError("phase jump 3.1 rad")

        monkeypatch.setattr(pde, "madelung_decompose", under_resolved)
        assert run_smoke(tmp_path / "out") == 3
        err = capsys.readouterr().err
        assert "solver failure: phase jump" in err
        assert "Traceback" not in err

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestScenarioRegistry:
    def test_custom_fp_takes_the_wave_drift(self, tmp_path):
        # a zero Omega is free recoil dynamics; with no drift_file the fp
        # route reads the drift the wave route tabulates
        np.savetxt(tmp_path / "omega.csv", [[-10.0, 0.0], [10.0, 0.0]],
                   delimiter=",")
        path = write_cfg(tmp_path, "custom.cfg", """
[scenario]
kind = custom
routes = schrodinger, fp

[grid]
x_min = -10
x_max = 10
n = 201

[time]
t_end = 0.2
snapshot_stride = 100
drift_stride = 5

[tables]
omega_file = omega.csv
""")
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 0
        assert (out / "fields_fp.csv").is_file()

    def test_one_entry_adds_a_scenario(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setitem(cli.SCENARIOS, "ou_copy", dataclasses.replace(
            cli.SCENARIOS["smoluchowski_ou"], summary="OU under another name"))
        path = write_cfg(tmp_path, "copy.cfg", """
[scenario]
kind = ou_copy
routes = analytic, fp

[params]
gamma = 1.0

[grid]
x_min = -10
x_max = 10
n = 401

[time]
t_end = 1.0
""")
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 0
        assert main(["list"]) == 0
        assert "ou_copy" in capsys.readouterr().out


class TestSmokeArtifacts:
    def test_gates_pass(self, smoke_run):
        rc, _ = smoke_run
        assert rc == 0

    def test_manifest_hashes_match_files(self, smoke_run):
        _, out = smoke_run
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 42
        expected = {
            "fields_schrodinger.csv", "fields_fp.csv", "fields_sde.csv",
            "msd_schrodinger.csv", "msd_fp.csv", "msd_sde.csv",
            "energy_schrodinger.csv", "particles_sde.csv", "report.json",
        }
        assert set(manifest["files"]) == expected
        for name, entry in manifest["files"].items():
            blob = (out / name).read_bytes()
            assert hashlib.sha256(blob).hexdigest() == entry["sha256"]
            assert len(blob) == entry["bytes"]

    def test_report_structure(self, smoke_run):
        _, out = smoke_run
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is True
        assert {g["name"] for g in report["gates"]} == {
            "l1_rho_schrodinger_fp", "l1_rho_schrodinger_sde",
            "l1_rho_fp_sde", "energy_drift_schrodinger",
        }
        for route in ("schrodinger", "fp", "sde"):
            assert "regime" in report["dispersion"][route]
            assert report["series"][route]["times"][0] == 0.0
        assert len(report["comparisons"]) == 3

    def test_hydro_columns_masked_in_the_tails(self, smoke_run):
        # rho is always written; derived columns blank where the density
        # carries no mass (log/phase there is numerical noise)
        _, out = smoke_run
        data = np.genfromtxt(out / "fields_schrodinger.csv", delimiter=",",
                             names=True)
        assert not np.any(np.isnan(data["rho"]))
        assert np.any(np.isnan(data["v"]))
        assert np.all(np.isnan(data["v"]) == np.isnan(data["S"]))

    def test_rerun_is_byte_identical(self, smoke_run, smoke_rerun, capsys):
        (_, a), (rc_b, b) = smoke_run, smoke_rerun
        assert rc_b == 0
        assert compare_runs(str(a), str(b)) == 0
        assert "byte-identical" in capsys.readouterr().out

    def test_seed_override_changes_particles(self, smoke_run, tmp_path):
        _, a = smoke_run
        out = tmp_path / "reseeded"
        assert run_smoke(out, "--seed", "43") == 0
        assert compare_runs(str(a), str(out)) == 1
        man_a = json.loads((a / "manifest.json").read_text())
        man_b = json.loads((out / "manifest.json").read_text())
        same = man_a["files"]["fields_schrodinger.csv"]["sha256"]
        assert man_b["files"]["fields_schrodinger.csv"]["sha256"] == same
        assert (man_b["files"]["particles_sde.csv"]["sha256"]
                != man_a["files"]["particles_sde.csv"]["sha256"])

    def test_compare_runs_needs_manifests(self, smoke_run, tmp_path):
        _, a = smoke_run
        assert compare_runs(str(a), str(tmp_path / "missing")) == 2


class TestCrashMidWrite:
    def test_no_manifest_survives_a_failed_rerun(self, tmp_path, monkeypatch):
        out, first = tmp_path / "run", tmp_path / "first"
        assert run_smoke(out) == 0
        shutil.copytree(out, first)
        names = sorted(json.loads((out / "manifest.json").read_text())["files"])
        second = out / names[1]
        second.unlink()  # so the rerun's own copy marks that it got there

        format_column = cli._format_column

        def failing(values):
            if second.exists():
                raise RuntimeError("formatter failed")
            return format_column(values)

        monkeypatch.setattr(cli, "_format_column", failing)
        with pytest.raises(RuntimeError, match="formatter failed"):
            run_smoke(out)
        assert (out / names[0]).read_bytes() == (first / names[0]).read_bytes()
        assert second.stat().st_size < (first / names[1]).stat().st_size
        assert not (out / "manifest.json").exists()
        assert main(["compare", str(first), str(out)]) == 2


class TestBinaryParticles:
    def test_round_trip(self, binary_run):
        rc, out = binary_run
        assert rc == 0
        blob = (out / "particles_sde.bin").read_bytes()
        assert blob.startswith(PARTICLE_MAGIC)
        snaps = read_particles_binary(out / "particles_sde.bin")
        assert [t for t, _ in snaps] == [0.0, 0.25, 0.5]
        assert all(xs.size == 2000 for _, xs in snaps)

    def test_msd_consistent_with_csv(self, binary_run):
        # the %.17g msd column must reproduce the binary positions exactly
        _, out = binary_run
        snaps = read_particles_binary(out / "particles_sde.bin")
        csv = np.genfromtxt(out / "msd_sde.csv", delimiter=",", names=True)
        for (t, xs), row in zip(snaps, np.atleast_1d(csv)):
            assert row["t"] == t
            assert row["msd"] == np.mean(xs**2)

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(ValueError, match="not a particle snapshot"):
            read_particles_binary(path)


class TestListScenarios:
    def test_table_lists_runnable_scenarios(self, capsys):
        assert main(["list"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5  # header + four scenarios
        names = {line.split()[0] for line in lines[1:]}
        assert names == {"free_brownian", "free_recoil", "harmonic_recoil",
                         "smoluchowski_ou"}

    def test_json_output(self, capsys):
        assert main(["list", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 4
        assert all({"name", "routes", "summary"} <= set(r) for r in rows)
