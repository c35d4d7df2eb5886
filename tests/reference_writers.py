"""Row-by-row artifact writers, kept as the reference for the streaming
writers of ``recoillab.artifacts``: every value goes through ``"%.17g" % v`` on
its own and every file is built whole in memory."""

import hashlib
import json
import struct

import numpy as np

from recoillab.artifacts import PARTICLE_MAGIC


def fields_csv(slices, x) -> bytes:
    order = ("rho", "S", "v", "u", "b", "Q")
    lines = ["t,x,rho,S,v,u,b,Q"]
    for t, cols in slices:
        block = np.column_stack(
            [np.full(x.size, t), x]
            + [np.asarray(cols.get(k, np.full(x.size, np.nan)), dtype=float)
               for k in order])
        lines.extend(",".join("%.17g" % v for v in row) for row in block)
    return ("\n".join(lines) + "\n").encode()


def msd_csv(series) -> bytes:
    err = series.stderr
    lines = ["t,msd,stderr"]
    for i, t in enumerate(series.times):
        e = 0.0 if err is None else float(err[i])
        lines.append("%.17g,%.17g,%.17g" % (t, series.values[i], e))
    return ("\n".join(lines) + "\n").encode()


def energy_csv(report) -> bytes:
    lines = ["t,kinetic,osmotic,potential,total"]
    tot = report.total
    for i, t in enumerate(report.times):
        lines.append("%.17g,%.17g,%.17g,%.17g,%.17g" % (
            t, report.kinetic[i], report.osmotic[i], report.potential[i], tot[i]))
    return ("\n".join(lines) + "\n").encode()


def particles_csv(snapshots) -> bytes:
    chunks = ["t,particle_index,x"]
    for s in snapshots:
        t = float(s.t)
        chunks.extend("%.17g,%d,%.17g" % (t, i, v)
                      for i, v in enumerate(s.positions))
    return ("\n".join(chunks) + "\n").encode()


def particles_binary(snapshots) -> bytes:
    parts = [PARTICLE_MAGIC, struct.pack("<Q", len(snapshots))]
    for s in snapshots:
        parts.append(struct.pack("<dQ", float(s.t), s.positions.size))
        parts.append(np.ascontiguousarray(s.positions, dtype="<f8").tobytes())
    return b"".join(parts)


def artifacts(spec, results, report):
    """(files, manifest bytes): every artifact's bytes by file name, and the
    manifest.json those files get."""
    x = spec.grid.x
    files = {}
    for route, data in results.items():
        files[f"fields_{route}.csv"] = fields_csv(data.fields(), x)
        files[f"msd_{route}.csv"] = msd_csv(data.msd)
        if data.energy is not None:
            files[f"energy_{route}.csv"] = energy_csv(data.energy)
    if "sde" in results:
        if spec.fmt == "binary":
            files["particles_sde.bin"] = particles_binary(results["sde"].snapshots)
        else:
            files["particles_sde.csv"] = particles_csv(results["sde"].snapshots)
    files["report.json"] = (json.dumps(report, indent=2, sort_keys=True) + "\n").encode()

    manifest = {"name": spec.name, "seed": spec.seed, "files": {}}
    for name in sorted(files):
        blob = files[name]
        manifest["files"][name] = {
            "sha256": hashlib.sha256(blob).hexdigest(), "bytes": len(blob)}
    return files, (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode()
