"""Bit-stable structured outputs.

timeseries.csv   one row per step, frozen column order, 17 significant
                 digits (binary64 round-trip exact)
fields_*.bin     per-snapshot dumps: ASCII header (magic, version, grid
                 dims, array directory), then raw little-endian float64
report.json      structured summary of the run-level certificates

Two runs of the same configuration produce byte-identical files.
"""

from __future__ import annotations

import json
import os

import numpy as np

TIMESERIES_VERSION = 2
FIELDS_MAGIC = "THERMOVISC-FIELDS"
FIELDS_VERSION = 1

# column -> StepDiagnostics field, in the frozen column order; "step" is
# the row's step number
TIMESERIES_COLUMNS = {
    "step": None, "t": "t", "M": "M", "H": "H_val", "Phi_cpl": "Phi_cpl",
    "W": "W_total", "E": "E", "xi_step": "dissipation_step",
    "xi_reg_step": "reg_dissipation_step", "ext_power": "ext_power",
    "boundary_heat": "boundary_heat", "entropy_prod": "entropy_prod",
    "min_detF": "min_detF", "hk_bound": "hk_bound", "korn_const": "korn_const",
    "mech_residual": "mech_residual", "heat_residual": "heat_residual",
    "energy_gap_total": "energy_gap_total", "min_theta": "min_theta",
    "korn_lower": "korn_lower",
}


def _fmt(x):
    return f"{float(x):.17g}"


def write_timeseries(path, traj):
    lines = [f"# thermovisc-timeseries v{TIMESERIES_VERSION}",
             ",".join(TIMESERIES_COLUMNS)]
    for k, d in enumerate(traj.step_diags, start=1):
        lines.append(",".join(str(k) if f is None else _fmt(getattr(d, f))
                              for f in TIMESERIES_COLUMNS.values()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_timeseries(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header.startswith("# thermovisc-timeseries"):
            raise ValueError(f"{path}: not a timeseries file")
        cols = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    data = {c: np.array([float(r[i]) for r in rows]) for i, c in enumerate(cols)}
    return data


def write_field_dump(path, step, t, grid, arrays, config_hash=""):
    """ASCII header + concatenated raw little-endian float64 blocks."""
    header = [
        f"{FIELDS_MAGIC} {FIELDS_VERSION}",
        f"config_hash {config_hash}",
        f"step {int(step)}",
        f"t {_fmt(t)}",
        "grid " + " ".join([str(grid.d)] + [str(n) for n in grid.extents]),
        f"arrays {len(arrays)}",
    ]
    blobs = []
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(np.asarray(arr, dtype="<f8").ravel())
        header.append(f"array {name} float64 {arr.size} little_endian")
        blobs.append(arr.tobytes())
    header.append("end_header")
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode("ascii"))
        for blob in blobs:
            fh.write(blob)


def write_snapshot(path, snap, grid, config_hash=""):
    """Field dump of one snapshot: y, theta, w and det F."""
    write_field_dump(path, step=snap.k, t=snap.t, grid=grid, config_hash=config_hash,
                     arrays={"y": snap.y.values.ravel(), "theta": snap.theta.values,
                             "w": snap.w_qp.ravel(), "detF": snap.detF.ravel()})


def read_field_dump(path):
    with open(path, "rb") as fh:
        meta = {}
        order = []
        first = fh.readline().decode("ascii").split()
        if first[0] != FIELDS_MAGIC:
            raise ValueError(f"{path}: bad magic {first[0]!r}")
        meta["version"] = int(first[1])
        while True:
            line = fh.readline().decode("ascii").strip()
            if line == "end_header":
                break
            parts = line.split()
            if parts[0] == "array":
                order.append((parts[1], parts[2], int(parts[3])))
            elif parts[0] == "grid":
                meta["grid"] = [int(v) for v in parts[1:]]
            else:
                meta[parts[0]] = parts[1] if len(parts) > 1 else ""
        arrays = {}
        for name, dtype, count in order:
            if dtype != "float64":
                raise ValueError(f"{path}: unsupported dtype {dtype}")
            arrays[name] = np.frombuffer(fh.read(8 * count), dtype="<f8").copy()
    return meta, arrays


def emit_outputs(traj, outdir, config_text=None, config_hash=""):
    """Write timeseries, per-snapshot field dumps and the certificate report.

    Returns the report dict (also written as report.json)."""
    from .diagnostics import run_certificates

    os.makedirs(outdir, exist_ok=True)
    write_timeseries(os.path.join(outdir, "timeseries.csv"), traj)
    for snap in traj.snapshots:
        write_snapshot(os.path.join(outdir, f"fields_{snap.k:06d}.bin"), snap, traj.grid,
                       config_hash)
    if config_text is not None:
        with open(os.path.join(outdir, "config.ini"), "w", encoding="utf-8") as fh:
            fh.write(config_text)
    report = run_certificates(traj)
    with open(os.path.join(outdir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report
