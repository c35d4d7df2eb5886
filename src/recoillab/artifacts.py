"""The on-disk format of a run directory: the CSV, JSON and binary particle
writers, the manifest of their sha256 hashes, and ``compare_runs``, which
diffs two run directories by their manifests and says by how much their
differing CSV files differ. The caller names the files."""

import hashlib
import json
import os
import struct
import sys
import warnings
from itertools import repeat

import numpy as np

# Every writer is a generator of bytes blocks of at most _BLOCK_ROWS rows
# each, so no artifact, time slice or particle snapshot is ever held whole as
# text. Each block formats only its own rows, with one %-call per column, and
# joins them; the text is that of formatting every value with "%.17g".
_BLOCK_ROWS = 2048


def _format_column(values) -> list:
    """The "%.17g" text of every value of a float column."""
    values = np.asarray(values, dtype=float).tolist()
    return ("%.17g\n" * len(values) % tuple(values)).split("\n")[:-1]


def _csv_block(*columns) -> bytes:
    """Comma-joined rows of equal-length text columns, at least one row, each
    row ending in a newline."""
    return ("\n".join(map(",".join, zip(*columns, strict=True))) + "\n").encode()


def _row_blocks(n):
    """The (lo, hi) row bounds of the blocks of an n-row table."""
    return ((lo, min(lo + _BLOCK_ROWS, n)) for lo in range(0, n, _BLOCK_ROWS))


def _columns_csv(*columns):
    """Blocks of the rows of equal-length float columns."""
    for lo, hi in _row_blocks(len(columns[0])):
        yield _csv_block(*(_format_column(c[lo:hi]) for c in columns))


def _fields_csv(slices, x_text):
    """Blocks of fields_<route>.csv from the (t, {col: array}) slices, read
    once and in order; x_text is the formatted grid column, shared by every
    slice. A column a slice lacks is written as nan."""
    yield b"t,x,rho,S,v,u,b,Q\n"
    for t, cols in slices:
        t_text = "%.17g" % float(t)
        for lo, hi in _row_blocks(len(x_text)):
            yield _csv_block(
                repeat(t_text, hi - lo), x_text[lo:hi],
                *(_format_column(cols[k][lo:hi]) if k in cols
                  else repeat("nan", hi - lo)
                  for k in ("rho", "S", "v", "u", "b", "Q")))


def _msd_csv(series):
    err = series.stderr
    yield b"t,msd,stderr\n"
    yield from _columns_csv(series.times, series.values,
                            np.zeros(len(series.times)) if err is None else err)


def _energy_csv(report):
    yield b"t,kinetic,osmotic,potential,total\n"
    yield from _columns_csv(report.times, report.kinetic, report.osmotic,
                            report.potential, report.total)


def _particles_csv(snapshots):
    yield b"t,particle_index,x\n"
    for s in snapshots:
        t_text = "%.17g" % float(s.t)
        for lo, hi in _row_blocks(s.positions.size):
            yield _csv_block(repeat(t_text, hi - lo), map(str, range(lo, hi)),
                             _format_column(s.positions[lo:hi]))


PARTICLE_MAGIC = b"RLABPT01"


def _particles_binary(snapshots):
    """Magic, uint64 snapshot count, then per snapshot: float64 t, uint64 n,
    n little-endian float64 positions."""
    yield PARTICLE_MAGIC + struct.pack("<Q", len(snapshots))
    for s in snapshots:
        yield struct.pack("<dQ", float(s.t), s.positions.size)
        yield np.ascontiguousarray(s.positions, dtype="<f8").tobytes()


def read_particles_binary(path):
    """Inverse of the binary writer; returns a list of (t, positions).
    ValueError, naming the file, on a truncated file or trailing bytes."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != PARTICLE_MAGIC:
        raise ValueError(f"{path!r} is not a particle snapshot file")
    out, offset = [], 16
    try:
        (count,) = struct.unpack_from("<Q", blob, 8)
        for _ in range(count):
            t, n = struct.unpack_from("<dQ", blob, offset)
            out.append((t, np.frombuffer(blob, "<f8", n, offset + 16).copy()))
            offset += 16 + 8 * n
    except (struct.error, ValueError, OverflowError) as exc:
        raise ValueError(f"{path!r} is truncated: {exc}") from exc
    if offset != len(blob):
        raise ValueError(f"{path!r} has {len(blob) - offset} byte(s) after its last snapshot")
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


_MANIFEST_ERRORS = (OSError, ValueError, TypeError, KeyError, AttributeError)


def _manifest_hashes(path) -> dict:
    """{file name: sha256} of a run manifest; one of _MANIFEST_ERRORS when
    it is missing, not JSON, or of another shape."""
    with open(path, "rb") as fh:
        files = json.load(fh)["files"]
    return {name: e["sha256"] for name, e in files.items()}


def write_run(out_dir, name, seed, files) -> dict:
    """Write files ({file name: blocks}) into the existing out_dir, then the
    manifest of their hashes, which it returns. An earlier manifest, then
    every plain file name it lists, is removed before the first byte is
    written, and the new one is renamed into place last: no earlier file
    stays beside it, and a run that dies partway leaves no manifest vouching
    for half-written files."""
    manifest_path = os.path.join(out_dir, "manifest.json")
    try:
        stale = _manifest_hashes(manifest_path)
    except _MANIFEST_ERRORS:
        stale = {}
    for stale_name in ["manifest.json", *stale]:
        path = os.path.join(out_dir, stale_name)
        if os.path.basename(stale_name) == stale_name and os.path.isfile(path):
            os.remove(path)

    manifest = {"name": name, "seed": seed, "files": {}}
    for file_name in sorted(files):
        manifest["files"][file_name] = _write_blocks(
            os.path.join(out_dir, file_name), files[file_name])
    _write_blocks(manifest_path + ".tmp", _json_blocks(manifest))
    os.replace(manifest_path + ".tmp", manifest_path)
    return manifest


def _read_csv(path):
    """(header names, rows x columns float array) of a run CSV file."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # loadtxt warns on a header-only file
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, data.reshape(-1, len(header))


def _column_diffs(path_a, path_b) -> list:
    """Lines saying by how much two CSV files differ: per column, the largest
    |a - b| where neither value is nan, that over the column's largest |value|
    in either file, and the rows where only one of them is nan."""
    try:
        (head_a, a), (head_b, b) = _read_csv(path_a), _read_csv(path_b)
    except (OSError, ValueError) as exc:
        return [f"  cannot compare the columns: {exc}"]
    if head_a != head_b:
        return [f"  columns differ: {','.join(head_a)} in A, {','.join(head_b)} in B"]
    if len(a) != len(b):
        return [f"  row counts differ: {len(a)} in A, {len(b)} in B"]
    lines = []
    for name, col_a, col_b in zip(head_a, a.T, b.T):
        nan_a, nan_b = np.isnan(col_a), np.isnan(col_b)
        both = ~(nan_a | nan_b)
        col_a, col_b = col_a[both], col_b[both]
        with np.errstate(invalid="ignore"):  # inf - inf where both are inf
            diff = np.where(col_a == col_b, 0.0, np.abs(col_a - col_b))
        largest = float(np.max(diff, initial=0.0))
        scale = float(np.max(np.abs([col_a, col_b]), initial=0.0))
        line = (f"  {name:<14} max |a-b| {largest:.3e}  "
                f"relative {largest / scale if scale else 0.0:.3e}")
        moved = int(np.count_nonzero(nan_a != nan_b))
        if moved:
            line += f"  nan in one run only: {moved} row(s)"
        lines.append(line)
    return lines


def compare_runs(dir_a: str, dir_b: str) -> int:
    """Print each file's status (identical, DIFFERS, only in A or B) and,
    under each differing CSV file, by how much its columns differ. 0 when
    the runs are byte-identical, 1 when they differ, 2 when a manifest
    cannot be read."""
    hashes = []
    for d in (dir_a, dir_b):
        path = os.path.join(d, "manifest.json")
        try:
            hashes.append(_manifest_hashes(path))
        except _MANIFEST_ERRORS as exc:
            print(f"cannot read {path}: {exc!r}", file=sys.stderr)
            return 2
    fa, fb = hashes
    identical = True
    for name in sorted(set(fa) | set(fb)):
        if name not in fa:
            status = "only in B"
        elif name not in fb:
            status = "only in A"
        else:
            status = "identical" if fa[name] == fb[name] else "DIFFERS"
        identical &= status == "identical"
        print(f"{name:<24} {status}")
        if status == "DIFFERS" and name.endswith(".csv"):
            for line in _column_diffs(os.path.join(dir_a, name), os.path.join(dir_b, name)):
                print(line)
    print("runs are byte-identical" if identical else "runs differ")
    return 0 if identical else 1
