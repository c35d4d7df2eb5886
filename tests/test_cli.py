"""Scenario runner: spec parsing, exit codes, artifact layout, hashing,
and the binary particle format."""

import dataclasses
import glob
import hashlib
import json
import logging
import os
import shutil
import struct
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

# diagnostics is imported here so that TestMemory does not trace its import
from recoillab import artifacts, cli, diagnostics, pde, sde  # noqa: F401
from recoillab.artifacts import PARTICLE_MAGIC, compare_runs, read_particles_binary
from recoillab.cli import SpecError, load_spec, main
from recoillab.core import steps

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


# nine drift-table nodes on [-10, 10] and one row of drift values
NODES = "-10,-7.5,-5,-2.5,0,2.5,5,7.5,10"
ONES = ",".join(["1"] * 9)


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

    @pytest.mark.parametrize("section, setting", [
        ("time", "dt = 0.3"),
        ("time", "fp_dt = 0.3"),
        ("sde", "dt = 0.3"),
        ("sde", "snapshot_stride = 0"),
        ("sde", "n_particles = 0"),
        ("sde", "n_particles = 1"),           # no jackknife error from one particle
        ("scenario", "name = twice"),         # a second [scenario] section
        ("params", "D"),                      # a line without "="
        ("params", "D = 5%"),                 # a stray interpolation sign
        ("params", "alpha = 1e200"),          # alpha**2 overflows a float
        ("grid", "min_half_sigmas = nan"),
        ("tolerances", "l1_rho = nan"),
        ("tolerances", "msd_rel = -1"),
        ("tolerances", "linf_rho = inf"),
        # marches over core.MAX_STEPS in scenarios whose spread stays
        # bounded, so no other check rejects them first; here the section
        # names the kind and the setting completes the spec
        ("harmonic_recoil", "routes = analytic, schrodinger\n[params]\ngamma = 2\n"
                            "[time]\nt_end = 1e12"),
        ("smoluchowski_ou", "routes = analytic, fp, sde\n[params]\ngamma = 1\n"
                            "[time]\nt_end = 1e300"),
    ])
    def test_bad_step_or_ensemble_setting(self, tmp_path, capsys, section, setting):
        # t_end defaults to 1; the solvers would reject these settings mid-run,
        # as a solver failure (exit 3), and a march over the step ceiling
        # would run out of memory or never end
        if section in cli.SCENARIOS:
            body = f"[scenario]\nkind = {section}\n{setting}\n"
        else:
            body = ("[scenario]\nkind = free_brownian\nroutes = analytic, fp, sde\n"
                    f"[{section}]\n{setting}\n")
        assert self.rc(write_cfg(tmp_path, "bad.cfg", body)) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid spec:")
        assert "Traceback" not in err
        if section in cli.SCENARIOS:
            assert "MAX_STEPS = 100000000" in err

    @pytest.mark.parametrize("body", [
        b"kind = free_brownian\n[scenario]\nroutes = analytic\n",   # key before a header
        b"[scenario]\nkind = free_brownian\nroutes = analytic\nseed = -1\n",
        b"[scenario]\nkind = free_brownian\nroutes = analytic\n# \xff\n",  # not UTF-8
    ])
    def test_broken_spec_file(self, tmp_path, capsys, body):
        path = tmp_path / "bad.cfg"
        path.write_bytes(body)
        assert self.rc(str(path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid spec:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("key, rows", [
        ("drift_file", ["nan," + NODES, "0," + ONES, "1," + ONES[:-1] + "a"]),
        ("drift_file", ["nan,nan," + NODES[4:], "0," + ONES, "1," + ONES]),
        ("drift_file", ["nan," + NODES, "0," + ONES, "nan," + ONES]),
        ("omega_file", ["-10,0", "0,nan", "10,0"]),
        ("omega_file", ["-10,0", "5,1", "0,2", "10,0"]),
    ], ids=["non-numeric cell", "nan node", "nan time", "nan omega",
            "non-increasing x"])
    def test_malformed_table(self, tmp_path, capsys, key, rows):
        # read by load_spec, so a bad table is a bad spec before any route runs
        (tmp_path / "table.csv").write_text("\n".join(rows) + "\n")
        route = "schrodinger" if key == "omega_file" else "fp"
        path = write_cfg(tmp_path, "custom.cfg", f"""
[scenario]
kind = custom
routes = {route}

[time]
t_end = 0.2

[tables]
{key} = table.csv
""")
        with pytest.raises(SpecError, match="table"):
            load_spec(path)
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid spec:")
        assert "Traceback" not in err

    def test_malformed_drift_table_stops_the_wave_route_too(self, tmp_path,
                                                           monkeypatch, capsys):
        def never(*args):
            raise AssertionError("a route ran")

        for route in ("_run_schrodinger", "_resolve_drift", "_run_fp", "_run_sde"):
            monkeypatch.setattr(cli, route, never)
        np.savetxt(tmp_path / "omega.csv", [[-10.0, 0.0], [10.0, 0.0]],
                   delimiter=",")
        (tmp_path / "drift.csv").write_text(
            "\n".join(["nan," + NODES, "0," + ONES, "1," + ONES[:-1] + "a"]) + "\n")
        path = write_cfg(tmp_path, "custom.cfg", """
[scenario]
kind = custom
routes = schrodinger, fp

[time]
t_end = 0.2
drift_stride = 5

[tables]
omega_file = omega.csv
drift_file = drift.csv
""")
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid spec: cannot read drift table")
        assert "Traceback" not in err

    @pytest.mark.parametrize("seed", ["-1", str(2**63)])
    def test_seed_flag_out_of_range(self, tmp_path, capsys, seed):
        assert run_smoke(tmp_path / "out", "--seed", seed) == 2
        assert capsys.readouterr().err.startswith("invalid spec: seed")


# junk for every numeric spec key: non-finite, zero, negative, huge, text
JUNK = ["nan", "-nan", "inf", "-inf", "0", "-1", "-0.5", "1e300", "-1e300",
        "abc", "1,5", "5%", "", "0x10"]
FUZZ_KEYS = [("scenario", "seed")] + [
    (section, key) for section, keys in [
        ("params", ("D", "m", "beta", "alpha", "gamma", "dim")),
        ("grid", ("x_min", "x_max", "n", "min_half_sigmas")),
        ("time", ("dt", "fp_dt", "t_end", "snapshot_stride", "drift_stride")),
        ("sde", ("n_particles", "dt", "snapshot_stride")),
        ("tolerances", tuple(cli._TOLERANCE_DEFAULTS)),
    ] for key in keys]
# ways to break the file itself rather than a value
BREAKAGES = {
    "none": lambda text: text.encode(),
    "duplicate section": lambda text: (text + "[scenario]\nname = again\n").encode(),
    "key before a header": lambda text: ("D = 1\n" + text).encode(),
    "line without =": lambda text: (text + "oops\n").encode(),
    "duplicate key": lambda text: (text + "[extra]\nk = 1\nk = 2\n").encode(),
    "not UTF-8": lambda text: b"# \xff\n" + text.encode(),
}


class TestSpecFuzz:
    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(["free_brownian", "free_recoil", "harmonic_recoil",
                                 "smoluchowski_ou"]),
           junk=st.dictionaries(st.sampled_from(FUZZ_KEYS), st.sampled_from(JUNK),
                                max_size=3),
           breakage=st.sampled_from(sorted(BREAKAGES)))
    def test_junk_spec_parses_or_exits_two(self, kind, junk, breakage):
        sections = {"scenario": {"kind": kind, "routes": ", ".join(cli.SCENARIOS[kind].routes)},
                    "params": {"gamma": "1"} if cli.SCENARIOS[kind].needs_gamma else {}}
        for (section, key), value in junk.items():
            sections.setdefault(section, {})[key] = value
        text = "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in body.items())
                       for name, body in sections.items())
        loaded = []
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            # no route runs: the runner only records the spec it was given
            mp.setattr(cli, "run_scenario", lambda spec: loaded.append(spec) or 0)
            path = os.path.join(tmp, "fuzz.cfg")
            with open(path, "wb") as fh:
                fh.write(BREAKAGES[breakage](text))
            # any exception other than SpecError escapes main and fails here
            rc = main(["run", path])
        assert rc == (0 if loaded else 2)
        for spec in loaded:
            assert 0 <= spec.seed < 2**63
            assert all(0 <= v < np.inf for v in spec.tolerances.values())
            assert steps(spec.t_end, spec.dt) >= 1


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

    @pytest.mark.parametrize("body", [
        # domain deliberately too small: the guard is relaxed at parse time,
        # then the wave reaches the boundary and the solver aborts
        """
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
""",
        # particles leave a narrow grid before the density estimate
        """
[scenario]
kind = free_brownian
routes = sde

[grid]
x_min = -3
x_max = 3
n = 301
min_half_sigmas = 1

[sde]
n_particles = 2000
""",
        # gamma dt = 3 makes the Euler chain grow 2x a step until x^2 overflows,
        # and gamma dt = 100 until the positions themselves do
        """
[scenario]
kind = smoluchowski_ou
routes = sde

[params]
gamma = 3000

[sde]
dt = 1e-3
n_particles = 1000
""",
        """
[scenario]
kind = smoluchowski_ou
routes = sde

[params]
gamma = 100000

[sde]
dt = 1e-3
n_particles = 1000
""",
    ], ids=["wave_escape", "kde_escape", "msd_overflow", "position_overflow"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_solver_failure_returns_three(self, tmp_path, capsys, body):
        path = write_cfg(tmp_path, "diverges.cfg", body)
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "solver failure:" in err
        assert "Traceback" not in err

    def test_madelung_failure_returns_three(self, tmp_path, monkeypatch, capsys):
        def under_resolved(*args, **kwargs):
            raise pde.MadelungError("phase jump 3.1 rad")

        monkeypatch.setattr(pde, "madelung_decompose", under_resolved)
        assert run_smoke(tmp_path / "out") == 3
        err = capsys.readouterr().err
        assert "solver failure: phase jump" in err
        assert "Traceback" not in err

    def test_late_madelung_failure_returns_three_before_any_file(self, tmp_path,
                                                                monkeypatch, capsys):
        # the fields file rebuilds each wave slice when it is written; the
        # route has decomposed every slice before, so a phase that fails only
        # at the last stored slice still stops the run before any file
        decompose, seen = pde.madelung_decompose, []

        def fails_last(w, t):
            seen.append(t)
            if t == w.times[-1]:
                raise pde.MadelungError("phase jump 3.1 rad at the last slice")
            return decompose(w, t)

        monkeypatch.setattr(pde, "madelung_decompose", fails_last)
        out = tmp_path / "out"
        assert run_smoke(out) == 3
        err = capsys.readouterr().err
        assert "solver failure: phase jump" in err
        assert "Traceback" not in err
        assert len(seen) == len(set(seen)) == 6  # t = 0, 0.1, ..., 0.5
        assert not (out / "manifest.json").exists()
        assert glob.glob(str(out / "fields_*.csv")) == []

    def test_fp_drift_domain_is_checked_before_any_file(self, tmp_path, capsys):
        # the table covers every cell face the march reads, but not the two
        # end nodes the fields file reads the drift at
        xs = np.linspace(-9.96, 9.96, 9)
        np.savetxt(tmp_path / "drift.csv", np.vstack(
            [np.r_[np.nan, xs], np.r_[0.0, np.zeros(9)], np.r_[1.0, np.zeros(9)]]),
            delimiter=",")
        path = write_cfg(tmp_path, "faces.cfg", """
[scenario]
kind = custom
routes = fp

[grid]
x_min = -10
x_max = 10
n = 201

[time]
t_end = 0.2

[tables]
drift_file = drift.csv
""")
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "solver failure:" in err and "drift domain" in err
        assert "Traceback" not in err
        assert os.listdir(out) == []

    @pytest.mark.parametrize("error, shown", [
        (KeyError("rho"), "KeyError: 'rho'"),
        (ValueError("a bug"), "ValueError: a bug"),
    ], ids=["KeyError", "ValueError"])
    def test_unexpected_error_returns_four_with_a_traceback(self, tmp_path, monkeypatch,
                                                            capsys, error, shown):
        def broken(spec):
            raise error

        monkeypatch.setattr(cli, "_run_analytic", broken)
        path = write_cfg(tmp_path, "analytic.cfg", """
[scenario]
kind = free_brownian
routes = analytic
""")
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 4
        err = capsys.readouterr().err
        assert "Traceback" in err
        assert shown in err

    def test_uncreatable_out_dir_exits_two_before_any_route(self, tmp_path,
                                                           monkeypatch, capsys):
        def never(*args):
            raise AssertionError("a route ran")

        for route in ("_run_schrodinger", "_resolve_drift", "_run_fp", "_run_sde",
                      "_run_analytic"):
            monkeypatch.setattr(cli, route, never)
        taken = tmp_path / "taken"
        taken.write_text("a regular file")
        assert run_smoke(taken) == 2
        err = capsys.readouterr().err
        assert "invalid spec: cannot create output directory" in err
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

    @pytest.mark.parametrize("manifest", [
        b"[]", b'{"name": 1}', b'{"files": []}', b'{"files": {"a.csv": 1}}',
        b'{"files": {"a.csv": {}}}', b"\xff",
    ])
    def test_compare_rejects_malformed_manifests(self, smoke_run, tmp_path,
                                                 capsys, manifest):
        _, a = smoke_run
        (tmp_path / "manifest.json").write_bytes(manifest)
        assert main(["compare", str(a), str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("cannot read")
        assert "Traceback" not in err


@pytest.fixture(scope="module")
def stepped_run(tmp_path_factory):
    """All four routes on steps whose sum is not t_end in floating point:
    7 * 0.1 = 0.7000000000000001."""
    out = tmp_path_factory.mktemp("stepped")
    path = write_cfg(out, "stepped.cfg", """
[scenario]
kind = free_recoil
routes = analytic, schrodinger, fp, sde
seed = 3

[grid]
x_min = -12
x_max = 12
n = 241

[time]
dt = 0.1
fp_dt = 0.01
t_end = 0.7
snapshot_stride = 2
drift_stride = 1

[sde]
n_particles = 2000
dt = 0.01
snapshot_stride = 20

[tolerances]
linf_rho = 1
l1_rho = 1
msd_rel = 1
msd_nsigma = 1e9
energy_drift = 1
""")
    rc = main(["run", path, "--out", str(out / "run")])
    return rc, out / "run"


class TestSingleSources:
    def test_analytic_samples_the_wave_steps(self, stepped_run):
        rc, out = stepped_run
        assert rc == 0
        t_analytic = np.loadtxt(out / "fields_analytic.csv", delimiter=",",
                                skiprows=1, usecols=0)
        t_wave = np.loadtxt(out / "fields_schrodinger.csv", delimiter=",",
                            skiprows=1, usecols=0)
        np.testing.assert_array_equal(t_analytic, t_wave)
        assert t_wave[-1] == 7 * 0.1

    @pytest.mark.parametrize("run", ["stepped_run", "smoke_run"])
    def test_gates_read_the_comparisons(self, request, run):
        rc, out = request.getfixturevalue(run)
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        cmp = {(c["a"], c["b"]): c for c in report["comparisons"]}
        rho_gates = [g for g in report["gates"] if "_rho_" in g["name"]]
        assert len(rho_gates) == len(cmp)
        for g in rho_gates:
            norm, _, routes = g["name"].split("_", 2)
            pair = tuple(routes.split("_"))
            if len(pair) == 1:
                pair = ("analytic", *pair)
            assert g["value"] == cmp[pair][norm]

    def test_one_kde_per_snapshot(self, tmp_path, monkeypatch):
        calls = []
        kde_density = sde.kde_density

        def counted(state, grid, *args, **kwargs):
            calls.append(state.t)
            return kde_density(state, grid, *args, **kwargs)

        monkeypatch.setattr(sde, "kde_density", counted)
        path = write_cfg(tmp_path, "sde.cfg", """
[scenario]
kind = free_brownian
routes = sde

[sde]
n_particles = 500
dt = 0.01
snapshot_stride = 25
""")
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 0
        assert calls == [0.0, 0.25, 0.5, 0.75, 1.0]

    @pytest.mark.parametrize("kind, march", [("free_recoil", "sine basis"),
                                             ("harmonic_recoil", "LAPACK")])
    def test_wave_log_names_the_march(self, tmp_path, caplog, kind, march):
        path = write_cfg(tmp_path, "wave.cfg", f"""
[scenario]
kind = {kind}
routes = schrodinger

[params]
gamma = {2 if kind == "harmonic_recoil" else 0}

[grid]
x_min = -12
x_max = 12
n = 241

[time]
dt = 0.01
t_end = 0.1
snapshot_stride = 5
""")
        caplog.set_level(logging.INFO, logger="recoillab.cli")
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 0
        assert "norm drift" in caplog.text and f"({march} march)" in caplog.text


class TestCrashMidWrite:
    def test_no_manifest_survives_a_failed_rerun(self, tmp_path, monkeypatch, capsys):
        out, first = tmp_path / "run", tmp_path / "first"
        assert run_smoke(out) == 0
        shutil.copytree(out, first)
        names = sorted(json.loads((out / "manifest.json").read_text())["files"])
        second = out / names[1]
        second.unlink()  # so the rerun's own copy marks that it got there

        format_column = artifacts._format_column

        def failing(values):
            if second.exists():
                raise RuntimeError("formatter failed")
            return format_column(values)

        monkeypatch.setattr(artifacts, "_format_column", failing)
        assert run_smoke(out) == 4
        assert "RuntimeError: formatter failed" in capsys.readouterr().err
        assert (out / names[0]).read_bytes() == (first / names[0]).read_bytes()
        assert second.stat().st_size < (first / names[1]).stat().st_size
        assert not (out / "manifest.json").exists()
        assert main(["compare", str(first), str(out)]) == 2


class TestRerunIntoTheSameDirectory:
    def test_no_file_of_the_earlier_run_stays(self, tmp_path):
        out = tmp_path / "run"
        assert run_smoke(out) == 0
        assert (out / "particles_sde.csv").is_file()
        with open(SMOKE) as fh:
            text = fh.read().replace("routes = schrodinger, fp, sde",
                                     "routes = schrodinger")
        path = write_cfg(tmp_path, "wave_only.cfg", text)
        assert main(["run", path, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["files"]) == {"fields_schrodinger.csv", "msd_schrodinger.csv",
                                          "energy_schrodinger.csv", "report.json"}
        assert set(os.listdir(out)) == set(manifest["files"]) | {"manifest.json"}

    @pytest.mark.parametrize("manifest", [
        b"\xff", b'{"files": {"../outside.csv": {"sha256": ""}, "sub": {"sha256": ""}}}',
    ], ids=["unreadable", "foreign names"])
    def test_only_plain_listed_files_are_removed(self, tmp_path, manifest):
        out = tmp_path / "run"
        (out / "sub").mkdir(parents=True)
        (out / "manifest.json").write_bytes(manifest)
        (out / "unlisted.txt").write_text("kept")
        (tmp_path / "outside.csv").write_text("kept")
        assert run_smoke(out) == 0
        assert (out / "unlisted.txt").is_file() and (out / "sub").is_dir()
        assert (tmp_path / "outside.csv").is_file()


def write_run_dir(path, files):
    """A run directory holding files ({name: text}) and their manifest."""
    path.mkdir(parents=True)
    artifacts.write_run(str(path), "case", 0, {k: [v.encode()] for k, v in files.items()})
    return str(path)


class TestCompareSaysByHowMuch:
    MSD = "t,msd,stderr\n0,1,0\n0.5,2,0.25\n"

    def compare(self, tmp_path, capsys, a, b):
        rc = main(["compare", write_run_dir(tmp_path / "a", a),
                   write_run_dir(tmp_path / "b", b)])
        return rc, capsys.readouterr().out.splitlines()

    def test_one_column_differs(self, tmp_path, capsys):
        rc, lines = self.compare(tmp_path, capsys, {"msd_fp.csv": self.MSD},
                                 {"msd_fp.csv": self.MSD.replace(",2,", ",2.5,")})
        assert rc == 1
        assert lines[0].split() == ["msd_fp.csv", "DIFFERS"]
        assert lines[1:] == [
            "  t              max |a-b| 0.000e+00  relative 0.000e+00",
            "  msd            max |a-b| 5.000e-01  relative 2.000e-01",
            "  stderr         max |a-b| 0.000e+00  relative 0.000e+00",
            "runs differ"]

    def test_nan_in_one_run_only(self, tmp_path, capsys):
        a = "t,x,rho,S\n0,-1,0.5,nan\n0,1,0.5,2\n0,2,-4,inf\n"
        b = "t,x,rho,S\n0,-1,0.5,nan\n0,1,0.5,nan\n0,2,-4,inf\n"
        rc, lines = self.compare(tmp_path, capsys, {"fields_fp.csv": a},
                                 {"fields_fp.csv": b})
        assert rc == 1
        assert lines[1:5] == [
            "  t              max |a-b| 0.000e+00  relative 0.000e+00",
            "  x              max |a-b| 0.000e+00  relative 0.000e+00",
            "  rho            max |a-b| 0.000e+00  relative 0.000e+00",
            "  S              max |a-b| 0.000e+00  relative 0.000e+00"
            "  nan in one run only: 1 row(s)"]

    @pytest.mark.parametrize("b, said", [
        (MSD + "1,3,0.5\n", "  row counts differ: 2 in A, 3 in B"),
        (MSD.replace("stderr", "err"), "  columns differ: t,msd,stderr in A, t,msd,err in B"),
        ("t,msd,stderr\n0,1\n", "  cannot compare the columns: "),
    ], ids=["rows", "header", "malformed"])
    def test_tables_of_another_shape(self, tmp_path, capsys, b, said):
        rc, lines = self.compare(tmp_path, capsys, {"msd_fp.csv": self.MSD},
                                 {"msd_fp.csv": b})
        assert rc == 1
        assert len(lines) == 3 and lines[1].startswith(said)

    def test_only_differing_csv_files_get_column_lines(self, tmp_path, capsys):
        files = {"msd_fp.csv": self.MSD, "report.json": "{}\n"}
        rc, lines = self.compare(tmp_path, capsys, files,
                                 dict(files, **{"report.json": "[]\n"}))
        assert rc == 1
        assert [line.split() for line in lines] == [
            ["msd_fp.csv", "identical"], ["report.json", "DIFFERS"], ["runs", "differ"]]
        rc, lines = self.compare(tmp_path / "same", capsys, files, files)
        assert rc == 0 and lines[-1] == "runs are byte-identical"
        assert not any(line.startswith("  ") for line in lines)

    def test_two_seeds_differ_only_in_the_particle_columns(self, smoke_run, tmp_path,
                                                          capsys):
        _, a = smoke_run
        assert run_smoke(tmp_path / "reseeded", "--seed", "43") == 0
        capsys.readouterr()
        assert compare_runs(str(a), str(tmp_path / "reseeded")) == 1
        moved = [line.split()[0] for line in capsys.readouterr().out.splitlines()
                 if line.startswith("  ") and float(line.split()[3]) > 0]
        assert moved == ["rho", "msd", "stderr", "x"]


class TestMemory:
    def test_routes_keep_psi_not_columns(self, tmp_path):
        # 41 stored slices of a 2001-node wave. The traced peak must stay
        # below the stored psi plus one route's columns of every slice, which
        # a run that kept either route's columns would exceed on its own;
        # the writer's text blocks and a slice or two fit in the rest
        path = write_cfg(tmp_path, "many_slices.cfg", """
[scenario]
kind = harmonic_recoil
routes = analytic, schrodinger

[params]
gamma = 2

[grid]
n = 2001

[time]
dt = 1e-3
t_end = 0.4
snapshot_stride = 10
""")
        n, slices = 2001, 41
        psi_bytes = slices * n * 16
        route_columns = slices * 6 * n * 8
        peaks = []
        for _ in range(2):  # the second run, after the first has warmed every cache
            spec = load_spec(path, out_dir=str(tmp_path / "out"))
            tracemalloc.start()
            try:
                assert cli.run_scenario(spec) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[-1] < psi_bytes + route_columns


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

    one_snapshot = (PARTICLE_MAGIC + struct.pack("<QdQ", 1, 0.5, 2)
                    + struct.pack("<2d", 0.1, -0.2))

    @pytest.mark.parametrize("blob, match", [
        (b"NOTMAGIC" + b"\x00" * 16, "not a particle snapshot"),
        (PARTICLE_MAGIC + b"\x00", "truncated"),
        # the header promises two snapshots and the file holds one
        (PARTICLE_MAGIC + struct.pack("<Q", 2) + one_snapshot[16:], "truncated"),
        (one_snapshot[:-1], "truncated"),
        (PARTICLE_MAGIC + struct.pack("<QdQ", 1, 0.5, 2**64 - 1), "truncated"),
        (one_snapshot + b"\x00", "1 byte"),
    ], ids=["magic", "no_count", "missing_snapshot", "short_positions", "huge_count",
         "trailing"])
    def test_rejects_foreign_files(self, tmp_path, blob, match):
        path = tmp_path / "junk.bin"
        path.write_bytes(blob)
        with pytest.raises(ValueError, match=match) as exc:
            read_particles_binary(path)
        assert "junk.bin" in str(exc.value)


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
