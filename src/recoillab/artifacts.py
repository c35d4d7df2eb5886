"""The on-disk format of a run directory: the CSV, JSON and binary particle
writers, the manifest of their sha256 hashes, and ``compare_runs``, which
diffs two run directories by their manifests and says by how much their
differing CSV files differ. The caller names the files."""

import functools
import hashlib
import json
import os
import struct
import sys
import warnings

import numpy as np

# Every writer is a generator of bytes blocks of at most _BLOCK_ROWS rows
# each, so no artifact, time slice or particle snapshot is ever held whole as
# text. Each block formats only its own rows; at 512 rows the working set
# of a fields block, the widest, stays near 0.5 MB.
_BLOCK_ROWS = 512

# Every CSV value is the text "%.17g" % v, byte for byte, but made by numpy
# rather than by Python's exact binary-to-decimal conversion, which costs
# about half a microsecond a value. _text_slots takes a value's 17
# significant digits as an integer, from a double-double product with a
# table of powers of ten, and lays them out as %g does. Each value's text
# fills _SLOTS byte slots, with a 0 byte in every slot it leaves empty: slot
# 0 holds the sign, slots 1-22 the digits "0000" + 17 significant ones with
# the point put in, slots 23-27 the exponent. The few values the product
# cannot settle are formatted by Python.
_SLOTS = 28
# Between these magnitudes neither the split of a value nor its product with
# a power of ten leaves the normal range of a double.
_SMALLEST, _LARGEST = 1e-280, 1e280
# |decimal exponent| of the table, a little over that of the range
_X_MAX = 282
_SPLITTER = 2.0**27 + 1  # Dekker's split of a double into two 26-bit halves
_BODY_SLOTS = np.arange(22, dtype=np.int8)[:, None]
_DIGIT_SLOTS = np.arange(4, 21, dtype=np.int8)[:, None]
_SPECIALS = (b"nan", b"inf", b"0")
# values per pass of the kernel, which holds about 100 bytes a value: one
# pass formats the six field columns of a block
_SUB_BLOCK = 4096


@functools.cache
def _kernel_tables():
    """(powers, digits, exponents), built from exact int arithmetic on the
    first call: per decimal exponent X in [-_X_MAX, _X_MAX], 10**(16 - X) as
    a double-double hi + lo, with hi's two split halves between them; the
    four ASCII digits of each of 0-9999 as one uint32; and the slot-major
    exponent text "e+XX" of each X, with one empty column after the last."""
    xs = range(-_X_MAX, _X_MAX + 1)
    powers = np.empty((4, len(xs)))
    for i, x in enumerate(xs):
        num, den = 10 ** max(16 - x, 0), 10 ** max(x - 16, 0)
        hi = num / den  # int true division rounds correctly
        hi_num, hi_den = hi.as_integer_ratio()
        split = hi * _SPLITTER
        top = split - (split - hi)
        powers[:, i] = hi, top, hi - top, (num * hi_den - hi_num * den) / (den * hi_den)
    digits = np.frombuffer(b"".join(b"%04d" % g for g in range(10000)), np.uint32)
    exponents = np.zeros((5, len(xs) + 1), np.uint8)
    for i, x in enumerate(xs):
        text = b"e%+03d" % x
        exponents[:len(text), i] = list(text)
    powers.flags.writeable = exponents.flags.writeable = False  # shared by every call
    return powers, digits, exponents


def _text_slots(values) -> np.ndarray:
    """The "%.17g" text of every value of a float array, slot-major: an array
    of shape (_SLOTS, *values.shape) whose [:, i] slots, their 0 bytes
    dropped, spell "%.17g" % values[i]."""
    v = np.asarray(values, dtype=float)
    out = np.empty((_SLOTS, v.size), np.uint8)
    flat = v.ravel()
    for lo in range(0, flat.size, _SUB_BLOCK):
        _fill_slots(out[:, lo:lo + _SUB_BLOCK], flat[lo:lo + _SUB_BLOCK])
    return out.reshape(_SLOTS, *v.shape)


def _fill_slots(out, v):
    """Write the text of the 1-d floats v into the (_SLOTS, v.size) out."""
    powers, digits, exponents = _kernel_tables()
    size = v.size
    a = np.abs(v)
    ok = (a >= _SMALLEST) & (a <= _LARGEST)  # nan, inf and 0 are not
    special = not ok.all()
    if special:
        np.copyto(a, 1.0, where=~ok)  # formatted as 1, then overwritten

    # x, the decimal exponent, is at most one off; the product of a with the
    # double-double 10**(16 - x) is p + err, p an integer above 2**53, err
    # Dekker's exact error of a * hi plus the rounded a * lo
    x = np.floor(np.log10(a)).astype(np.int16)
    i = x + _X_MAX
    p = a * powers[0].take(i)
    top = a * _SPLITTER
    top -= top - a
    bottom = a - top
    hi_top, hi_bottom = powers[1].take(i), powers[2].take(i)
    err = top * hi_top
    err -= p
    top *= hi_bottom
    err += top
    hi_top *= bottom
    err += hi_top
    hi_bottom *= bottom
    err += hi_bottom
    del top, bottom, hi_top, hi_bottom
    lo = powers[3].take(i)
    lo *= a
    err += lo
    del a, lo
    whole = np.floor(err)
    err -= whole
    err -= 0.5  # the fraction's distance from 1/2
    n = p.astype(np.int64)
    n += whole.astype(np.int64)
    del p, whole
    # Python rounds a tie to even; x is one too large, or one too small (or n
    # rounds up to 10**17)
    odd = np.abs(err) < 1e-6
    odd |= n < 10**16
    n += err > 0
    odd |= n >= 10**17
    del err

    # z holds "0000" and the 17 digits of n between two 0 bytes
    z = np.empty((23, size), np.uint8)
    z[0] = z[22] = 0
    z[1:5] = ord("0")
    lead = n // 10**16
    np.add(lead, ord("0"), out=z[5], casting="unsafe")
    n -= lead * 10**16
    high = n // 10**8
    n -= high * 10**8
    groups = np.empty((4, size), np.int32)
    np.floor_divide(high, 10**4, out=groups[0], casting="unsafe")
    np.subtract(high, groups[0] * 10**4, out=groups[1], casting="unsafe")
    np.floor_divide(n, 10**4, out=groups[2], casting="unsafe")
    np.subtract(n, groups[2] * 10**4, out=groups[3], casting="unsafe")
    del lead, high, n
    z[6:22].reshape(4, 4, size)[...] = (
        digits.take(groups).view(np.uint8).reshape(4, size, 4).swapaxes(1, 2))
    del groups
    last = np.multiply(z[5:22] != ord("0"), _DIGIT_SLOTS, dtype=np.int8).max(axis=0)

    # %g layout, in z's digit numbering: fixed notation for -4 <= x < 17,
    # with the point after digit x + 4, else the point after the leading
    # digit; the body keeps its slots [first, keep)
    fixed = (x >= -4) & (x < 17)
    point = np.where(fixed, x + 4, 4).astype(np.int8)
    first = np.minimum(point, 4)
    keep = np.where(last > point, last + 2, point + 1).astype(np.int8)
    body = out[1:23]
    np.subtract(z[1:], z[:22], out=body)
    body *= _BODY_SLOTS <= point  # slot s holds digit s up to the point,
    body += z[:22]                # digit s - 1 after it
    del z
    body[point.astype(np.intp) + 1, np.arange(size)] = ord(".")
    body *= _BODY_SLOTS >= first
    body *= _BODY_SLOTS < keep
    out[23:] = exponents.take(np.where(fixed, exponents.shape[1] - 1, i), axis=1)

    if special:
        out *= ok
        for text, hit in zip(_SPECIALS, (np.isnan(v), np.isinf(v), v == 0)):
            if hit.any():
                out[1:1 + len(text)] += np.multiply.outer(np.frombuffer(text, np.uint8), hit)
        odd |= ~ok & np.isfinite(v) & (v != 0)
    np.multiply(np.signbit(v) & ~np.isnan(v), ord("-"), out=out[0], casting="unsafe")
    fallback = np.flatnonzero(odd)
    if fallback.size:
        text = b"".join((b"%.17g" % f).ljust(_SLOTS, b"\0") for f in v[fallback].tolist())
        out[:, fallback] = np.frombuffer(text, np.uint8).reshape(-1, _SLOTS).T


_NAN_SLOTS = np.zeros((_SLOTS, 1), np.uint8)
_NAN_SLOTS[1:4, 0] = list(b"nan")


def _csv_rows(*columns) -> bytes:
    """Comma-joined rows of slot-major text columns, each of shape
    (_SLOTS, rows) or (_SLOTS, 1) for one text on every row, each row ending
    in a newline. A slot that no row of a column uses is dropped before the
    transpose."""
    rows = max(c.shape[1] for c in columns)
    block = np.empty((len(columns), _SLOTS + 1, rows), np.uint8)
    for j, column in enumerate(columns):
        block[j, :_SLOTS] = column
    block[:, _SLOTS] = ord(",")
    block[-1, _SLOTS] = ord("\n")
    block = block.reshape(-1, rows)
    return block[block.any(axis=1)].T.tobytes().translate(None, b"\0")


def _row_blocks(n):
    """The (lo, hi) row bounds of the blocks of an n-row table."""
    return ((lo, min(lo + _BLOCK_ROWS, n)) for lo in range(0, n, _BLOCK_ROWS))


def _columns_csv(*columns):
    """Blocks of the rows of equal-length float columns."""
    for lo, hi in _row_blocks(len(columns[0])):
        yield _csv_rows(*_text_slots([c[lo:hi] for c in columns]).swapaxes(0, 1))


_FIELD_COLUMNS = ("rho", "S", "v", "u", "b", "Q")


def _fields_csv(slices, x_text):
    """Blocks of fields_<route>.csv from the (t, {col: array}) slices, read
    once and in order; x_text is the _text_slots of the grid column, shared
    by every slice. A column a slice lacks, or whose rows in a block are all
    NaN (the sparse mask's tails), is written as nan without the kernel."""
    yield b"t,x,rho,S,v,u,b,Q\n"
    for t, cols in slices:
        t_text = _text_slots([t])
        for lo, hi in _row_blocks(x_text.shape[1]):
            present = [k for k in _FIELD_COLUMNS
                       if k in cols and not np.isnan(cols[k][lo:hi]).all()]
            text = _text_slots([cols[k][lo:hi] for k in present])
            text = dict(zip(present, text.swapaxes(0, 1)))
            yield _csv_rows(t_text, x_text[:, lo:hi],
                            *(text.get(k, _NAN_SLOTS) for k in _FIELD_COLUMNS))


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
        t_text = _text_slots([s.t])
        for lo, hi in _row_blocks(s.positions.size):
            yield _csv_rows(t_text, *_text_slots(
                [np.arange(lo, hi, dtype=float), s.positions[lo:hi]]).swapaxes(0, 1))


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
