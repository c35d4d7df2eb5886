"""The streaming artifact writers of recoillab.artifacts against the row-by-row
reference writers: byte for byte, block by block, and through the manifest.
Each writer runs at the module's block size and at three rows per block, so
slices and snapshots span several blocks."""

import hashlib
import json
import os
import tempfile
import tracemalloc
from collections import namedtuple
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import reference_writers as ref
from recoillab import artifacts, cli
from recoillab.core import Grid1D
from recoillab.diagnostics import EnergyReport

# duck-typed stand-ins: the writers read only these attributes, and unlike
# EnsembleState and MsdSeries they accept non-finite values
Snapshot = namedtuple("Snapshot", "t positions")
Series = namedtuple("Series", "times values stderr")

FIELD_COLUMNS = ("rho", "S", "v", "u", "b", "Q")
SPECIALS = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324,
            2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308,
            1.0, -3.0, 2.0**53, 1e16, 0.1, 1e-5, 123456789.0]
values = st.one_of(st.sampled_from(SPECIALS), st.floats(width=64))


def columns(n):
    return hnp.arrays(np.float64, n, elements=values)


def joined(blocks):
    return b"".join(blocks)


BLOCK_ROWS = (artifacts._BLOCK_ROWS, 3)


def blocks_of(writer, *args, rows):
    """Every block the writer yields with rows rows per block."""
    with mock.patch.object(artifacts, "_BLOCK_ROWS", rows):
        return list(writer(*args))


def assert_blocked(blocks, table_rows, rows):
    """A header block, then each table in blocks of at most rows rows."""
    assert len(blocks) == 1 + sum(-(-n // rows) for n in table_rows)
    assert all(block.count(b"\n") <= rows for block in blocks)


@st.composite
def field_slices(draw):
    n = draw(st.integers(1, 12))
    x = draw(columns(n))
    slices = []
    for _ in range(draw(st.integers(0, 4))):
        keys = draw(st.lists(st.sampled_from(FIELD_COLUMNS), unique=True))
        slices.append((draw(values), {k: draw(columns(n)) for k in keys}))
    return x, slices


@st.composite
def snapshots(draw):
    return [Snapshot(draw(values), draw(columns(draw(st.integers(1, 10)))))
            for _ in range(draw(st.integers(0, 4)))]


class TestFormatColumn:
    @given(columns(st.integers(0, 20)))
    def test_each_value_is_formatted_on_its_own(self, col):
        assert artifacts._format_column(col) == ["%.17g" % v for v in col]


class TestWritersMatchTheReference:
    @settings(max_examples=150, deadline=None)
    @given(field_slices())
    def test_fields(self, case):
        x, slices = case
        for rows in BLOCK_ROWS:
            blocks = blocks_of(artifacts._fields_csv, slices, artifacts._format_column(x),
                               rows=rows)
            assert_blocked(blocks, [x.size] * len(slices), rows)
            assert joined(blocks) == ref.fields_csv(slices, x)

    def test_fields_sde_slices_hold_rho_only(self):
        # the particle route's slices carry a KDE density and nothing else
        x = np.linspace(-1.0, 1.0, 9)
        slices = [(0.0, {"rho": np.exp(-x**2)}), (0.5, {"rho": np.full(9, 1e-320)})]
        for rows in BLOCK_ROWS:
            text = joined(blocks_of(artifacts._fields_csv, slices,
                                    artifacts._format_column(x), rows=rows))
            assert text == ref.fields_csv(slices, x)
            assert text.splitlines()[1].endswith(b",nan,nan,nan,nan,nan")

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 12).flatmap(
        lambda n: st.tuples(columns(n), columns(n), st.none() | columns(n))))
    def test_msd(self, cols):
        series = Series(*cols)
        for rows in BLOCK_ROWS:
            blocks = blocks_of(artifacts._msd_csv, series, rows=rows)
            assert_blocked(blocks, [series.times.size], rows)
            assert joined(blocks) == ref.msd_csv(series)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # totals of ±inf and ±1e308
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 12).flatmap(lambda n: st.tuples(*[columns(n)] * 4)))
    def test_energy(self, cols):
        report = EnergyReport(*cols)
        for rows in BLOCK_ROWS:
            blocks = blocks_of(artifacts._energy_csv, report, rows=rows)
            assert_blocked(blocks, [report.times.size], rows)
            assert joined(blocks) == ref.energy_csv(report)

    @settings(max_examples=100, deadline=None)
    @given(snapshots())
    def test_particles_csv(self, snaps):
        for rows in BLOCK_ROWS:
            blocks = blocks_of(artifacts._particles_csv, snaps, rows=rows)
            assert_blocked(blocks, [s.positions.size for s in snaps], rows)
            assert joined(blocks) == ref.particles_csv(snaps)

    def test_particles_csv_holds_one_block_at_a_time(self):
        # a 200 000-particle snapshot is about 8 MB of text; drained block by
        # block, the writer never holds more than a few blocks of it
        snaps = [Snapshot(0.5, np.random.default_rng(0).normal(size=200_000))]
        tracemalloc.start()
        try:
            for _ in artifacts._particles_csv(snaps):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    @settings(max_examples=100, deadline=None)
    @given(snapshots())
    def test_particles_binary_round_trip(self, snaps):
        blob = joined(artifacts._particles_binary(snaps))
        assert blob == ref.particles_binary(snaps)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "particles_sde.bin")
            with open(path, "wb") as fh:
                fh.write(blob)
            back = artifacts.read_particles_binary(path)
        assert len(back) == len(snaps)
        for (t, xs), s in zip(back, snaps):
            assert np.float64(t).tobytes() == np.float64(s.t).tobytes()
            assert xs.tobytes() == s.positions.tobytes()

    @given(st.recursive(
        st.none() | st.booleans() | values | st.text(max_size=5),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=5), inner, max_size=3),
        max_leaves=20))
    def test_json(self, obj):
        expected = (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()
        assert joined(artifacts._json_blocks(obj)) == expected


@st.composite
def run_results(draw):
    """A spec stand-in and route results with every artifact kind."""
    grid = Grid1D(-1.0, 1.0, draw(st.integers(8, 12)))
    fmt = draw(st.sampled_from(["csv", "binary"]))
    results = {}
    for route in draw(st.lists(st.sampled_from(cli.ROUTES), min_size=1,
                               unique=True)):
        times = draw(columns(draw(st.integers(1, 4))))
        slices = [(t, {k: draw(columns(grid.n)) for k in
                       draw(st.lists(st.sampled_from(FIELD_COLUMNS), unique=True))})
                  for t in times]
        energy = None
        if route in ("analytic", "schrodinger"):
            energy = EnergyReport(times, *(draw(columns(times.size)) for _ in range(3)))
        results[route] = cli.RouteData(
            fields=slices.__iter__, final_rho=None, energy=energy,
            msd=Series(times, draw(columns(times.size)),
                       draw(columns(times.size)) if route == "sde" else None),
            snapshots=draw(snapshots()) if route == "sde" else [])
    report = {"name": "case", "gates": [], "values": draw(st.lists(values))}
    spec = SimpleNamespace(name="case", seed=draw(st.integers(0, 2**32)),
                           grid=grid, fmt=fmt)
    return spec, results, report


class TestWriteArtifacts:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=40, deadline=None)
    @given(run_results())
    def test_files_and_manifest_match_the_reference(self, case):
        spec, results, report = case
        files, manifest_bytes = ref.artifacts(spec, results, report)
        for rows in BLOCK_ROWS:
            with tempfile.TemporaryDirectory() as tmp:
                spec.out_dir = tmp
                with mock.patch.object(artifacts, "_BLOCK_ROWS", rows):
                    manifest = cli._write_artifacts(spec, results, report)
                assert sorted(os.listdir(tmp)) == sorted([*files, "manifest.json"])
                for name, blob in files.items():
                    with open(os.path.join(tmp, name), "rb") as fh:
                        assert fh.read() == blob, name
                    assert manifest["files"][name] == {
                        "sha256": hashlib.sha256(blob).hexdigest(),
                        "bytes": len(blob)}
                with open(os.path.join(tmp, "manifest.json"), "rb") as fh:
                    assert fh.read() == manifest_bytes
