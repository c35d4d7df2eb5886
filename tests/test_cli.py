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
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

# diagnostics is imported here so that TestMemory does not trace its import
from recoillab import artifacts, cli, diagnostics, fieldcalc, pde, sde  # noqa: F401
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

    @pytest.mark.parametrize("kind", ["free_brownian", "free_recoil", "harmonic_recoil",
                                      "smoluchowski_ou"])
    def test_tables_on_a_kind_that_reads_none(self, tmp_path, capsys, kind):
        # only custom reads [tables]; elsewhere it would run on the closed form
        path = write_cfg(tmp_path, "bad.cfg", f"""
[scenario]
kind = {kind}
routes = analytic

[params]
gamma = 1

[tables]
drift_file = no_such.csv
""")
        assert self.rc(path) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid spec:") and "[tables]" in err

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

    def test_custom_cloud_outside_the_grid(self, tmp_path, capsys):
        # the initial cloud sits at x = 0, off this grid: its normalisation
        # would divide 0 by 0, so the domain check stops the spec first
        (tmp_path / "drift.csv").write_text(
            "nan," + ",".join(str(x) for x in range(90, 112, 2)) + "\n"
            + "\n".join(f"{t}," + ",".join(["0"] * 11) for t in (0, 1)) + "\n")
        path = write_cfg(tmp_path, "far.cfg", """
[scenario]
kind = custom
routes = fp

[grid]
x_min = 100
x_max = 108
n = 81

[time]
t_end = 0.2

[tables]
drift_file = drift.csv
""")
        out = tmp_path / "out"
        with pytest.raises(SpecError, match="domain half-width"):
            load_spec(path)
        assert main(["run", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid spec: domain half-width")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["n = 4", "x_max = inf",
                                      "x_min = -1e308\nx_max = 1e308\nn = 9"],
                             ids=["n = 4", "x_max = inf", "span overflows"])
    def test_bad_grid(self, tmp_path, capsys, grid):
        path = write_cfg(tmp_path, "bad.cfg", f"""
[scenario]
kind = free_recoil
routes = analytic

[grid]
{grid}
""")
        assert self.rc(path) == 2
        assert capsys.readouterr().err.startswith("invalid spec: bad [grid]")

    @pytest.mark.parametrize("section, setting, ceiling", [
        ("grid", "n = 10000000000000", "MAX_NODES = 1000000"),
        ("sde", "n_particles = 10000000000000", "MAX_PARTICLES = 10000000"),
    ], ids=["nodes", "particles"])
    def test_a_size_over_its_ceiling(self, tmp_path, capsys, section, setting, ceiling):
        # the spec check stops both before any route allocates that many values
        path = write_cfg(tmp_path, "bad.cfg",
                         "[scenario]\nkind = free_brownian\nroutes = analytic, fp, sde\n"
                         f"[{section}]\n{setting}\n")
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid spec:") and ceiling in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_dim_other_than_one(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "bad.cfg", """
[scenario]
kind = free_brownian
routes = analytic

[params]
dim = 3
""")
        assert self.rc(path) == 2
        assert "unknown keys ['dim'] in [params]" in capsys.readouterr().err

    def test_unknown_tolerance_key(self, tmp_path):
        path = write_cfg(tmp_path, "bad.cfg", """
[scenario]
kind = free_recoil
routes = analytic

[tolerances]
bogus = 1.0
""")
        assert self.rc(path) == 2

    @pytest.mark.parametrize("extra, said", [
        ("[time]\nsnapshot_strde = 7\n", "unknown keys ['snapshot_strde'] in [time]"),
        ("[grid]\nnn = 5\n", "unknown keys ['nn'] in [grid]"),
        ("[paramz]\nD = 2\n", "unknown section [paramz]"),
        ("[Params]\nD = 2\n", "unknown section [Params]"),   # section names keep their case
        ("[sde]\nn_particles = 10\nseed = 3\n", "unknown keys ['seed'] in [sde]"),
        # configparser would copy a [DEFAULT] key into every section
        ("[DEFAULT]\nt_end = 2\n", "[DEFAULT]"),
        # a force enters only as the drift b = F/(m beta), which every kind states
        ("[params]\nm = 2\n", "unknown keys ['m'] in [params]"),
        ("[params]\nbeta = 2\n", "unknown keys ['beta'] in [params]"),
    ], ids=["misspelt time key", "misspelt grid key", "misspelt section",
            "capitalised section", "key of another section", "DEFAULT", "mass", "friction"])
    def test_unknown_section_or_key(self, tmp_path, capsys, extra, said):
        # each of these used to run on the defaults and exit 0
        path = write_cfg(tmp_path, "bad.cfg",
                         "[scenario]\nkind = free_brownian\nroutes = analytic\n" + extra)
        assert self.rc(path) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid spec:") and said in err

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
        # the step of a route that does not run is still written to
        # report.json, where NaN is not JSON
        ("free_brownian", "routes = analytic, fp\n[sde]\ndt = nan"),
        ("free_brownian", "routes = analytic, sde\n[time]\nfp_dt = -5"),
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
        if "t_end" in setting:
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

    @pytest.mark.parametrize("routes, times, nodes, said", [
        ("fp", "0,0.1", NODES, "t=0.2 outside tabulated span [0.0, 0.1]"),
        ("sde", "0,0.1", NODES, "t=0.2 outside tabulated span [0.0, 0.1]"),
        ("fp", "0.05,1", NODES, "t=0.0 outside tabulated span [0.05, 1.0]"),
        ("fp", "0,1", "-9,-7,-5,-3,-1,1,3,5,7", "2 particle(s) outside drift domain"),
        ("sde", "0,1", "-9,-7,-5,-3,-1,1,3,5,7", None),
        ("fp", "0,0.2000000001", NODES, None),
    ], ids=["fp stops early", "sde stops early", "fp starts late", "fp narrow x",
            "sde narrow x", "fp within tolerance"])
    def test_drift_table_that_cannot_serve_the_run(self, tmp_path, capsys, routes, times,
                                                   nodes, said):
        # known when the spec is parsed, so exit 2 before any route runs; the
        # particles may stay inside a narrower table, the fp grid may not
        t0, t1 = times.split(",")
        (tmp_path / "drift.csv").write_text(
            "\n".join(["nan," + nodes, t0 + "," + ONES, t1 + "," + ONES]) + "\n")
        path = write_cfg(tmp_path, "custom.cfg", f"""
[scenario]
kind = custom
routes = {routes}

[time]
t_end = 0.2

[tables]
drift_file = drift.csv
""")
        if said is None:
            assert load_spec(path).drift_table is not None
            return
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid spec: bad drift table:") and said in err
        assert not (tmp_path / "out").exists()

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

    BROWNIAN = "[scenario]\nkind = free_brownian\nroutes = analytic\n"
    CUSTOM = "[scenario]\nkind = custom\nroutes = {}\n[time]\nt_end = 0.2\n[tables]\n"

    @pytest.mark.parametrize("body, table, said", [
        ("[scenario]\nkind = free_brownian\n", None,
         "missing required option [scenario] routes"),
        ("[params]\nD = 1\n", None, "spec needs a [scenario] section"),
        ("[scenario]\nkind = nope\nroutes = analytic\n", None,
         "unknown scenario kind 'nope'"),
        ("[scenario]\nkind = smoluchowski_ou\nroutes = analytic\n", None,
         "scenario 'smoluchowski_ou' needs gamma > 0"),
        (BROWNIAN + "[time]\nsnapshot_stride = 0\n", None, "snapshot_stride must be >= 1"),
        (BROWNIAN + "[output]\nformat = hdf5\n", None, "output format must be csv or binary"),
        ("[scenario]\nkind = custom\nroutes = schrodinger\n", None,
         "route 'schrodinger' needs [tables] omega_file"),
        ("[scenario]\nkind = free_recoil\nroutes = schrodinger, fp\n[time]\ndrift_stride = 0\n",
         None, "drift_stride must be >= 1"),
        (CUSTOM.format("fp") + "drift_file = table.csv\n", "nan,-10,10\n0,1,1\n",
         "drift table needs >= 2 times and >= 8 grid points"),
        (CUSTOM.format("schrodinger") + "omega_file = no_such.csv\n", None,
         "cannot read omega table"),
        (CUSTOM.format("schrodinger") + "omega_file = table.csv\n", "-10,0,0\n10,0,0\n",
         "omega table must have two columns"),
        (CUSTOM.format("schrodinger") + "omega_file = table.csv\n", "-5,0\n5,0\n",
         "omega table must cover the run grid"),
    ], ids=["no routes", "no scenario section", "unknown kind", "OU without gamma",
            "snapshot_stride = 0", "format = hdf5", "wave without omega_file",
            "drift_stride = 0", "one-row drift table", "missing omega_file",
            "three-column omega table", "omega table narrower than the grid"])
    def test_rejected_before_any_route(self, tmp_path, capsys, body, table, said):
        # load_spec finds each of these, so no route runs and no out dir is made
        if table is not None:
            (tmp_path / "table.csv").write_text(table)
        out = tmp_path / "out"
        assert main(["run", write_cfg(tmp_path, "bad.cfg", body), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid spec:") and said in err
        assert "Traceback" not in err
        assert not out.exists()


# junk for every numeric spec key: non-finite, zero, negative, huge, text
JUNK = ["nan", "-nan", "inf", "-inf", "0", "-1", "-0.5", "1e300", "-1e300",
        "abc", "1,5", "5%", "", "0x10"]
FUZZ_KEYS = [("scenario", "seed")] + [
    (section, key) for section, keys in [
        ("params", ("D", "alpha", "gamma")),
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
        # the exact OU jump is stable at any gamma dt, so the cloud itself
        # must outgrow the floats: at D/gamma = 1e306 the sum of x^2 over the
        # particles overflows, and at D = 1e308 the noise scale sqrt(2 D dt)
        # does, and with it the positions themselves
        """
[scenario]
kind = smoluchowski_ou
routes = sde

[params]
D = 1e306
gamma = 1

[grid]
x_min = -1e155
x_max = 1e155

[sde]
n_particles = 1000
""",
        """
[scenario]
kind = smoluchowski_ou
routes = sde

[params]
D = 1e308
gamma = 1

[grid]
x_min = -1e155
x_max = 1e155

[sde]
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

    def test_particles_leaving_a_drift_table_mid_march_return_three(self, tmp_path,
                                                                   monkeypatch, capsys):
        # b = x tabulated on [-6, 6]: the cloud of width 1 starts well inside
        # and grows e-fold per unit time, so a particle leaves the table part
        # way to t_end = 2, after the march has passed a stored step
        x = np.linspace(-6.0, 6.0, 13)
        np.savetxt(tmp_path / "drift.csv", [np.r_[np.nan, x], np.r_[0.0, x], np.r_[2.0, x]],
                   delimiter=",")
        path = write_cfg(tmp_path, "outward.cfg", """
[scenario]
kind = custom
routes = sde

[time]
t_end = 2

[sde]
n_particles = 2000

[tables]
drift_file = drift.csv
""")
        march, calls = sde.TabulatedDrift.march, []

        def counted(drift, *args):
            calls.append(args[3])  # the steps of this stored interval
            return march(drift, *args)

        monkeypatch.setattr(sde.TabulatedDrift, "march", counted)
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "solver failure: 1 particle(s) outside drift domain [-6.0, 6.0]" in err
        assert "Traceback" not in err
        assert not (out / "manifest.json").exists()
        assert 1 < len(calls) < steps(2.0, 1e-3) // calls[0].stop

    @pytest.mark.parametrize("snapshot_stride", [1571, 5])
    def test_a_drift_row_that_aliases_between_stored_steps_returns_three(
            self, tmp_path, capsys, snapshot_stride):
        # a breathing cloud on a coarse grid: the phase jump reaches 3.113 rad
        # near t = 1.545, where only the drift rows look, so the verdict must
        # not hang on whether a stored slice lands there too
        path = write_cfg(tmp_path, "alias.cfg", f"""
[scenario]
kind = harmonic_recoil
routes = analytic, schrodinger, fp

[params]
alpha = 0.5
gamma = 2

[grid]
x_min = -12
x_max = 12
n = 121

[time]
dt = 1e-3
fp_dt = 1e-3
t_end = 1.571
snapshot_stride = {snapshot_stride}
drift_stride = 5
""")
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "solver failure: phase jump" in err and "refine the grid" in err
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
        # end nodes the fields file reads the drift at: a bad spec
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
        assert main(["run", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid spec: bad drift table:")
        assert "outside drift domain" in err
        assert "Traceback" not in err
        assert not out.exists()

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

    @pytest.mark.parametrize("energy_drift, rc", [(1e-3, 0), (1e-9, 1)])
    def test_a_custom_wave_run_gates_its_energy(self, tmp_path, energy_drift, rc):
        # the wave's Omega is static, so its total energy is conserved; the
        # spread on this grid is about 1e-5
        np.savetxt(tmp_path / "omega.csv", [[-10.0, 0.0], [10.0, 0.0]], delimiter=",")
        path = write_cfg(tmp_path, "custom.cfg", f"""
[scenario]
kind = custom
routes = schrodinger

[grid]
x_min = -10
x_max = 10
n = 201

[time]
t_end = 0.2

[tables]
omega_file = omega.csv

[tolerances]
energy_drift = {energy_drift}
""")
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == rc
        gates = json.loads((out / "report.json").read_text())["gates"]
        assert [g["name"] for g in gates] == ["energy_drift_schrodinger"]
        assert 1e-9 < gates[0]["value"] < 1e-3

    def test_custom_routes_take_the_drift_file(self, tmp_path):
        # b = -x tabulated at t = 0 and t = 1 is the OU drift with gamma = 1,
        # so the custom fp route, an LU march of the table, must give the OU
        # fp route's symmetric march to roundoff; 4000 particles are too few
        # for the default l1_rho
        x = np.linspace(-12.0, 12.0, 241)
        np.savetxt(tmp_path / "drift.csv", [np.r_[np.nan, x], np.r_[0.0, -x], np.r_[1.0, -x]],
                   delimiter=",")
        body = """
[scenario]
kind = {}
routes = fp, sde
seed = 3

[params]
alpha = 2
gamma = 1

[grid]
x_min = -12
x_max = 12
n = 241

[time]
dt = 1e-2
t_end = 1
snapshot_stride = 10

[sde]
n_particles = 4000

[tolerances]
l1_rho = 1
"""
        runs = {}
        for kind, tables in [("custom", "[tables]\ndrift_file = drift.csv\n"),
                             ("smoluchowski_ou", "")]:
            out = runs[kind] = tmp_path / kind
            path = write_cfg(tmp_path, f"{kind}.cfg", body.format(kind) + tables)
            assert main(["run", path, "--out", str(out)]) == 0
            march = json.loads((out / "report.json").read_text())["ledgers"]["fp"]["march"]
            assert march == {"custom": "LAPACK", "smoluchowski_ou": "symmetric"}[kind]
        for name, column in [("fields_fp.csv", "rho"), ("msd_fp.csv", "msd")]:
            a, b = (np.genfromtxt(run / name, delimiter=",", names=True)[column]
                    for run in runs.values())
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind, routes, tables, stride", [
        ("free_recoil", "analytic, schrodinger, fp, sde", "", 5),
        ("free_recoil", "schrodinger, sde", "", 5),
        ("free_recoil", "analytic, schrodinger", "", None),   # no route reads it
        ("free_brownian", "analytic, fp, sde", "", None),    # closed-form drift
        ("custom", "schrodinger, fp", "", 5),
        ("custom", "schrodinger, fp", "drift_file = drift.csv\n", None),
    ])
    def test_load_spec_decides_the_drift_source(self, tmp_path, kind, routes, tables,
                                                stride):
        # drift_stride is None unless an fp or sde route reads the wave's table
        np.savetxt(tmp_path / "omega.csv", [[-10.0, 0.0], [10.0, 0.0]], delimiter=",")
        (tmp_path / "drift.csv").write_text(
            "\n".join(["nan," + NODES, "0," + ONES, "1," + ONES]) + "\n")
        body = (f"[scenario]\nkind = {kind}\nroutes = {routes}\n"
                "[grid]\nx_min = -10\nx_max = 10\nn = 201\n"
                "[time]\nt_end = 0.2\ndrift_stride = 5\n")
        if kind == "custom":
            body += "[tables]\nomega_file = omega.csv\n" + tables
        spec = load_spec(write_cfg(tmp_path, "s.cfg", body), out_dir=str(tmp_path))
        assert spec.drift_stride == stride

    def test_a_wave_only_run_tabulates_no_drift_rows(self, tmp_path, monkeypatch):
        waves = []
        solve = pde.solve_schrodinger
        monkeypatch.setattr(pde, "solve_schrodinger",
                            lambda prob: waves.append(solve(prob)) or waves[-1])
        body = ("[scenario]\nkind = free_recoil\nroutes = {}\n"
                "[grid]\nx_min = -12\nx_max = 12\nn = 241\n"
                "[time]\ndt = 0.01\nt_end = 0.1\nsnapshot_stride = 5\ndrift_stride = 2\n"
                "[tolerances]\nlinf_rho = 1\nmsd_rel = 1\n")
        for routes in ("analytic, schrodinger", "schrodinger, fp"):
            path = write_cfg(tmp_path, "wave.cfg", body.format(routes))
            assert main(["run", path, "--out", str(tmp_path / "out")]) == 0
        assert waves[0].drift_table is None
        assert waves[1].drift_table.times.tolist() == pytest.approx([0.0, 0.02, 0.04, 0.06,
                                                                     0.08, 0.1])

    @pytest.mark.parametrize("spec", ["free_recoil", "smoke_free_recoil"])
    def test_each_drift_row_is_the_written_b_column(self, tmp_path, monkeypatch, spec):
        # at every step that is stored and tabulated, the drift row is the b
        # column of fields_schrodinger.csv where that column is written, and
        # 0 where it is blanked
        waves = []
        solve = pde.solve_schrodinger
        monkeypatch.setattr(pde, "solve_schrodinger",
                            lambda prob: waves.append(solve(prob)) or waves[-1])
        loaded = load_spec(os.path.join(SPEC_DIR, f"{spec}.cfg"), out_dir=str(tmp_path))
        assert cli.run_scenario(dataclasses.replace(loaded, routes=("schrodinger", "fp"))) == 0
        table = waves[0].drift_table
        data = np.loadtxt(tmp_path / "fields_schrodinger.csv", delimiter=",", skiprows=1)
        checked = 0
        for t in np.unique(data[:, 0]):
            k = np.flatnonzero(table.times == t)
            if not k.size:
                continue
            rows = data[data[:, 0] == t]
            rho, b, row = rows[:, 2], rows[:, 6], table.values[k[0]]
            written = ~fieldcalc.sparse(rho)
            np.testing.assert_array_equal(row[written], b[written])
            assert np.all(np.isnan(b[~written])) and np.all(row[~written] == 0.0)
            checked += 1
        assert checked == {"free_recoil": 11, "smoke_free_recoil": 6}[spec]

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


class TestDispersionVerdicts:
    @pytest.mark.parametrize("kind, routes, regime, exponent", [
        ("free_recoil", "analytic, schrodinger, fp, sde", "enhanced", 2.0),
        ("free_brownian", "analytic, fp, sde", "normal", 1.0),
    ])
    def test_spreading_runs_name_their_regime(self, tmp_path, kind, routes, regime,
                                              exponent):
        # the excess msd - msd(0) is 2 D^2 t^2 / alpha^2 (recoil) or 2 D t
        # (Brownian) from t = 0 on, so a run to t = 1 already reads its regime;
        # the gates are not under test, and 20000 particles are too few for
        # the default l1_rho
        path = write_cfg(tmp_path, "spread.cfg", f"""
[scenario]
kind = {kind}
routes = {routes}
seed = 5

[grid]
x_min = -16
x_max = 16
n = 801

[time]
dt = 1e-3
t_end = 1.0
snapshot_stride = 100
drift_stride = 50

[sde]
n_particles = 20000

[tolerances]
linf_rho = 1
l1_rho = 1
msd_rel = 1
""")
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        for route in routes.split(", "):
            verdict = report["dispersion"][route]
            assert verdict["regime"] == regime, route
            assert verdict["exponent"] == pytest.approx(exponent, abs=0.1)
            # sde snapshots every 0.25, the grid routes every 0.1
            assert verdict["window"] == [0.25 if route == "sde" else 0.1, 1.0]

    def test_smoke_run_reads_enhanced(self, smoke_run):
        # its particle window [0.25, 0.5] holds two samples: max/min is 1.56,
        # just past the flat ratio 1.5, and two points carry no interval
        _, out = smoke_run
        dispersion = json.loads((out / "report.json").read_text())["dispersion"]
        assert {r: v["regime"] for r, v in dispersion.items()} == dict.fromkeys(
            ("fp", "schrodinger", "sde"), "enhanced")
        assert dispersion["sde"]["window"] == [0.25, 0.5]
        assert dispersion["sde"]["exponent_ci"] is None
        assert dispersion["fp"]["exponent_ci"] is not None


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
            # the series themselves live only in the msd and energy CSVs
            times = np.loadtxt(out / f"msd_{route}.csv", delimiter=",", skiprows=1, usecols=0)
            assert times[0] == 0.0
        assert "series" not in report and "energy" not in report
        assert len(report["comparisons"]) == 3

    def test_report_ledgers(self, smoke_run):
        # each grid route's solver ledger; the particle route keeps none
        _, out = smoke_run
        report = json.loads((out / "report.json").read_text())
        ledgers = report["ledgers"]
        assert set(ledgers) == {"schrodinger", "fp"}
        assert set(ledgers["schrodinger"]) == {"march", "even_half", "norm_drift_max"}
        assert ledgers["schrodinger"]["march"] == "sine basis"
        assert 0 <= ledgers["schrodinger"]["norm_drift_max"] <= 1e-12
        fp = ledgers["fp"]
        assert set(fp) == {"march", "even_half", "mass_drift_max", "min_density",
                           "mass_change", "positivity_bound"}
        assert fp["march"] == "LAPACK"  # the wave's drift table changes in time
        assert 0 <= fp["mass_drift_max"] <= 1e-12
        n_steps = steps(report["time"]["t_end"], report["time"]["fp_dt"])
        assert abs(fp["mass_change"]) <= n_steps * fp["mass_drift_max"]
        assert fp["min_density"] >= -1e-12
        assert 0 < fp["positivity_bound"] <= 1

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
        t_analytic = np.loadtxt(out / "msd_analytic.csv", delimiter=",",
                                skiprows=1, usecols=0)
        t_wave = np.loadtxt(out / "msd_schrodinger.csv", delimiter=",",
                            skiprows=1, usecols=0)
        np.testing.assert_array_equal(t_analytic, t_wave)
        assert t_wave[-1] == 7 * 0.1

    def test_analytic_route_writes_no_closed_form_fields(self, stepped_run):
        # the closed form is an oracle, not data: the run keeps its msd and
        # energy series, and report.json rebuilds its fields (README recipe)
        rc, out = stepped_run
        assert rc == 0
        names = set(os.listdir(out))
        assert {"msd_analytic.csv", "energy_analytic.csv"} <= names
        assert "fields_analytic.csv" not in names
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["files"]) == names - {"manifest.json"}

        from recoillab import Grid1D, PhysicalParams, ScalarField
        report = json.loads((out / "report.json").read_text())
        p = report["params"]  # t0 is derived from alpha and D
        sol = cli.SCENARIOS[report["scenario"]].solution(
            PhysicalParams(D=p["D"], gamma=p["gamma"], alpha=p["alpha"]))
        grid = Grid1D(**report["grid"])
        msd = np.loadtxt(out / "msd_analytic.csv", delimiter=",", skiprows=1, ndmin=2)
        rhos = (ScalarField(grid, sol.fields(grid.x, t)["rho"]) for t in msd[:, 0])
        rebuilt = diagnostics.msd_from_fields(msd[:, 0], rhos).values
        assert rebuilt.tobytes() == msd[:, 1].tobytes()

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


class TestEvenHalf:
    @pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(SPEC_DIR, "*.cfg"))),
                             ids=lambda path: os.path.basename(path)[:-4])
    def test_bundled_grid_routes_march_the_even_half(self, path):
        # every bundled spec is mirror-symmetric; only the free sine march and
        # the fp march of the free_recoil kind, whose drift table changes in
        # time, stay on the full grid. The fold is decided before the first
        # step, so ten steps of each spec show it
        spec = load_spec(path)
        spec = dataclasses.replace(spec, t_end=10 * max(spec.dt, spec.fp_dt))
        ledgers, wave = {}, None
        if "schrodinger" in spec.routes:
            data, wave = cli._run_schrodinger(spec)
            ledgers["schrodinger"] = data.ledger
        if "fp" in spec.routes:
            ledgers["fp"] = cli._run_fp(spec, cli._resolve_drift(spec, wave)).ledger
        assert ledgers
        for route, ledger in ledgers.items():
            full = ledger["march"] == "sine basis" or (spec.kind == "free_recoil"
                                                      and route == "fp")
            assert ledger["even_half"] is not full, route


class TestCrashMidWrite:
    def test_no_manifest_survives_a_failed_rerun(self, tmp_path, monkeypatch, capsys):
        out, first = tmp_path / "run", tmp_path / "first"
        assert run_smoke(out) == 0
        shutil.copytree(out, first)
        names = sorted(json.loads((out / "manifest.json").read_text())["files"])
        second = out / names[1]
        second.unlink()  # so the rerun's own copy marks that it got there

        text_slots = artifacts._text_slots

        def failing(values):
            if second.exists():
                raise RuntimeError("formatter failed")
            return text_slots(values)

        monkeypatch.setattr(artifacts, "_text_slots", failing)
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


class TestClosedStdout:
    """A reader that closes stdout early (``recoillab compare A B | head``)
    is no fault of the program: exit 141 (128 + SIGPIPE), no traceback."""

    def test_broken_pipe_exits_141(self, tmp_path, monkeypatch, capsys):
        def closed(*args):
            raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(artifacts, "compare_runs", closed)
        assert main(["compare", str(tmp_path / "a"), str(tmp_path / "b")]) == 141
        assert "Traceback" not in capsys.readouterr().err

    def test_a_closed_pipe_in_a_fresh_interpreter(self, tmp_path):
        a = write_run_dir(tmp_path / "a", {"msd_fp.csv": "t,msd\n0,1\n"})
        b = write_run_dir(tmp_path / "b", {"msd_fp.csv": "t,msd\n0,2\n"})
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the first line
        try:
            done = subprocess.run([sys.executable, "-m", "recoillab.cli", "compare", a, b],
                                  stdout=write_end, stderr=subprocess.PIPE, env=env,
                                  timeout=60)
        finally:
            os.close(write_end)
        assert done.returncode == 141
        assert done.stderr == b""


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

    def test_runs_in_two_formats(self, smoke_run, binary_run, capsys):
        # one seed, so only the particle file, named by its format, differs
        (_, a), (_, b) = smoke_run, binary_run
        capsys.readouterr()
        assert main(["compare", str(a), str(b)]) == 1
        *lines, last = capsys.readouterr().out.splitlines()
        assert last == "runs differ"
        names = json.loads((a / "manifest.json").read_text())["files"]
        assert dict(line.split(maxsplit=1) for line in lines) == dict(
            dict.fromkeys(names, "identical"),
            **{"particles_sde.csv": "only in A", "particles_sde.bin": "only in B"})


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
