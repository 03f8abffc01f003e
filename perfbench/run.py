"""End-to-end and per-layer benchmark of the thermovisc pipeline.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload shear2d --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --compare PARENT_DIR CHANGE_DIR

One invocation runs one workload in this single process.  It imports the
package from ``src/`` of the checkout, then repeats the user's whole
pipeline (build the scenario, ``scheme.run``, ``outputs.emit_outputs``,
``diagnostics.TestBank`` and ``diagnostics.weak_residuals``) for about
``--seconds`` seconds and reports medians over those repetitions.  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it runs
untraced for half the time and traced for the rest, and prints the
per-layer metrics together with the tracing overhead.  Every repetition is
checked for correct physics; the last line of standard output is the JSON
result.  A full record of each invocation (environment, check values, span
table) is written under ``.perfbench_runs/`` for ``--compare``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_runs"

LEDGER_RTOL = 1e-8      # the energy_ledger_closes scale of run_certificates
REFERENCE_RTOL = 1e-6   # final energy / min det F against the recorded values
SETUP_PROBES = 4        # fresh interpreters timed for setup_s (plus this one)


@dataclass
class Workload:
    """Deterministic physics inputs; the seed feeds only the TestBank."""

    build: object                 # (thermovisc namespace) -> Scenario
    tau: float
    eps: float
    config: dict = field(default_factory=dict)   # SolverConfig overrides
    steady: bool = False          # final state must equal the initial bit for bit
    reference: dict = field(default_factory=dict)  # check value -> recorded value


def _shear2d(tv):
    g = tv.StructuredGrid((16, 16), (1.0, 1.0), dirichlet_faces=("y0",))
    return tv.presets.shear_pulse(grid=g, T=0.1, amplitude=0.15, t_pulse=0.5)


def _steady2d(tv):
    g = tv.StructuredGrid((16, 16), (1.0, 1.0), dirichlet_faces=("y0",))
    return tv.presets.steady(grid=g, T=0.1)


def _shear3d(tv):
    g = tv.StructuredGrid((4, 4, 4), (1.0, 1.0, 1.0), dirichlet_faces=("x0",))
    # stress-free identity in 3D needs c2 * q = 12
    model = tv.MaterialModel(d=3, q=13.0, c2=12.0 / 13.0)
    return tv.presets.shear_pulse(grid=g, model=model, T=0.05, amplitude=0.15,
                                  t_pulse=0.5)


def _smoke(tv):
    g = tv.StructuredGrid((4, 4), (1.0, 1.0), dirichlet_faces=("y0",))
    return tv.presets.shear_pulse(grid=g, T=0.04, amplitude=0.15, t_pulse=0.5)


LIGHT = {"korn_every": 0, "hk_every": 0}

WORKLOADS = {
    # loaded 2D case: mech Newton, grid assembly and factorization dominate
    "shear2d": Workload(_shear2d, tau=0.02, eps=0.01,
                        reference={"E_final": 6.837673824956405,
                                   "min_detF": 0.9972056408090152}),
    # load-free audit: zero Newton iterations, the certificates dominate
    "steady2d": Workload(_steady2d, tau=0.01, eps=0.01, steady=True,
                         reference={"E_final": 6.837617635677557,
                                    "min_detF": 0.9999999999999967}),
    # 3D: 192-dof element blocks and wide LU fill, Korn and hk off
    "shear3d": Workload(_shear3d, tau=0.05, eps=0.01, config=LIGHT,
                        reference={"E_final": 11.160695348780255,
                                   "min_detF": 0.9998425086419548}),
    # tiny configuration for perfbench/selftest.py only
    "smoke": Workload(_smoke, tau=0.02, eps=0.01),
}


def _load_thermovisc():
    """Import the package from this checkout's src/ (and nowhere else)."""
    sys.path.insert(0, str(SRC))
    import thermovisc
    from thermovisc import diagnostics, outputs, presets, scheme
    if Path(thermovisc.__file__).resolve().parent != SRC / "thermovisc":
        raise ImportError(f"thermovisc imported from {thermovisc.__file__}, not {SRC}")
    return SimpleNamespace(StructuredGrid=thermovisc.StructuredGrid,
                           MaterialModel=thermovisc.MaterialModel,
                           SolverConfig=thermovisc.SolverConfig,
                           presets=presets, scheme=scheme, outputs=outputs,
                           diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# one repetition of the user's pipeline


@dataclass
class Rep:
    setup_s: float = math.nan
    run_s: float = math.nan
    post_s: float = math.nan
    steps_expected: int = 0
    steps_done: int = 0
    checks: dict = field(default_factory=dict)    # check name -> passed
    values: dict = field(default_factory=dict)    # check values (physics)
    bytes_written: int = 0
    error: str = ""

    @property
    def attempted(self):
        return self.steps_expected + len(self.checks)

    @property
    def failed(self):
        return (self.steps_expected - self.steps_done) + sum(
            1 for ok in self.checks.values() if not ok)


def state_hash(snap):
    h = hashlib.sha256()
    for arr in (snap.y.values, snap.theta.values, snap.w_qp):
        h.update(arr.astype("<f8", copy=False).tobytes(order="C"))
    return h.hexdigest()


def run_pipeline(tv, wl, bank_seed, outdir):
    """Build, run, write and audit once; timings from outside each call."""
    import numpy as np

    rep = Rep()
    clock = time.perf_counter
    marks = [clock()]         # ends of set-up, run and post-processing
    try:
        scenario = wl.build(tv)
        marks.append(clock())
        rep.steps_expected = round(scenario.T / wl.tau)
        traj = tv.scheme.run(scenario, wl.tau, wl.eps, tv.SolverConfig(**wl.config))
        marks.append(clock())
        rep.steps_done = traj.n_steps
        report = tv.outputs.emit_outputs(traj, str(outdir))
        bank = tv.diagnostics.TestBank(scenario.grid, scenario.T, seed=bank_seed)
        weak = tv.diagnostics.weak_residuals(traj, bank)
        marks.append(clock())
    except Exception:
        # the failing phase is timed up to the failure, later phases as 0
        marks.append(clock())
        rep.error = traceback.format_exc()
        rep.checks["pipeline_completed"] = False
    phases = [b - a for a, b in zip(marks, marks[1:])] + [0.0, 0.0]
    rep.setup_s, rep.run_s, rep.post_s = phases[:3]
    if rep.error:
        return rep

    rep.bytes_written = sum(p.stat().st_size for p in outdir.iterdir())
    diags = traj.step_diags
    gaps = [abs(d.energy_gap_total) / max(abs(d.E), abs(d.ext_power),
                                          d.dissipation_step, 1.0) for d in diags]
    korn = [d.korn_const for d in diags if np.isfinite(d.korn_const)]
    final, first = traj.snapshots[-1], traj.snapshots[0]
    rep.values = {
        "E_final": float(diags[-1].E),
        "worst_ledger_gap": float(max(gaps)),
        "min_detF": float(min(d.min_detF for d in diags)),
        "min_theta": float(min(d.min_theta for d in diags)),
        "min_korn": float(min(korn)) if korn else None,
        "weak_residual_mech": weak[0],
        "weak_residual_heat": weak[1],
        "final_state_sha256": state_hash(final),
    }
    rep.checks["run_certificates_all_passed"] = bool(report["all_passed"])
    rep.checks["ledger_gap_le_1e-8"] = rep.values["worst_ledger_gap"] <= LEDGER_RTOL
    rep.checks["weak_residuals_finite"] = all(math.isfinite(v) for v in weak)
    if wl.steady:
        rep.checks["steady_state_bit_identical"] = bool(
            np.array_equal(final.y.values, first.y.values)
            and np.array_equal(final.theta.values, first.theta.values))
    for name, ref in wl.reference.items():
        rep.checks[f"{name}_matches_reference"] = (
            abs(rep.values[name] - ref) <= REFERENCE_RTOL * max(abs(ref), 1.0))
    return rep


def measure(tv, wl, seconds, bank_seeds, outdir, tracer=None):
    """Repeat the pipeline until the next repetition would overrun."""
    reps = []
    start = time.perf_counter()
    while True:
        gc.collect()
        if tracer is not None:
            tracer.run_id = len(reps)
        rep_start = time.perf_counter()
        outdir.mkdir(parents=True, exist_ok=True)
        rep = run_pipeline(tv, wl, next(bank_seeds), outdir)
        shutil.rmtree(outdir, ignore_errors=True)
        reps.append(rep)
        now = time.perf_counter()
        if now - start + (now - rep_start) > seconds:
            return reps


# ---------------------------------------------------------------------------
# metrics


END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "post_s": "s", "total_s": "s",
                    "peak_rss_mb": "MB"}


def _median(xs):
    xs = [x for x in xs if x is not None and math.isfinite(x)]
    return statistics.median(xs) if xs else math.nan


def probe_setups(workload, n=SETUP_PROBES):
    """Set-up times (import to validated Scenario) of n fresh interpreters.

    An import happens once per process, so the median over a few fresh
    processes is what steadies ``setup_s``; each probe is waited for.
    """
    out = []
    for _ in range(n):
        proc = subprocess.run([sys.executable, __file__, "--workload", workload,
                               "--setup-probe"], capture_output=True, text=True,
                              timeout=120, cwd=ROOT)
        if proc.returncode == 0:
            out.append(float(proc.stdout.split()[-1]))
    return out


def end_to_end(setups, reps):
    setup = _median(setups)
    run = _median([r.run_s for r in reps])
    post = _median([r.post_s for r in reps])
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    values = {"setup_s": setup, "run_s": run, "post_s": post,
              "total_s": setup + run + post, "peak_rss_mb": peak_mb}
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)["per_layer"]


def per_layer_values(tracer, run_id, rep, untraced_run_s):
    """Every per-layer metric of one traced repetition, by name."""
    table = tracer.summary(run_id)
    out = {}
    for spec in per_layer_spec():
        name = spec["name"]
        head, _, stat = name.rpartition(".")
        if stat in ("calls", "s", "self_s") and head in table:
            out[name] = table[head][stat]
        elif stat in ("calls", "s", "self_s"):
            out[name] = 0          # the workload never calls this function
        else:
            out[name] = None
    c = tracer.counter
    fevals = table.get("mech.incremental_functional", {}).get("calls", 0)
    nsplu = table.get("mech.splu", {}).get("calls", 0)
    out.update({
        "mech.newton_iters": c(run_id, "mech.newton_iters"),
        "heat.newton_iters": c(run_id, "heat.newton_iters"),
        "mech.accept_ratio": (c(run_id, "mech.accepted_iterates") / fevals
                              if fevals else 0),
        "mech.splu.fill_nnz": c(run_id, "mech.splu.fill_nnz") / nsplu if nsplu else 0,
        "grid.assemble_hessian.block_mb": c(run_id, "grid.assemble_hessian.block_mb"),
        "scheme.steps": rep.steps_done,
        "scheme.step_rejections": c(run_id, "scheme.step_rejections"),
        "outputs.bytes_written": rep.bytes_written,
        "trace.run_s": rep.run_s,
        "trace.overhead_s": rep.run_s - untraced_run_s,
    })
    return out, table


# ---------------------------------------------------------------------------
# environment record


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def environment(seed):
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "git_commit": _git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# command line


def _bank_seeds(seed):
    rng = random.Random(seed)
    while True:
        yield rng.randrange(2**31)


def _fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def run_workload(args):
    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    if not (SRC / "thermovisc" / "__init__.py").is_file():
        return _fail(f"no thermovisc sources under {SRC}")
    if args.trace and not (ROOT / "BENCHMARK.json").is_file():
        return _fail("BENCHMARK.json not found at the checkout root")
    wl = WORKLOADS[args.workload]

    t0 = time.perf_counter()
    try:
        tv = _load_thermovisc()
    except ImportError as exc:
        return _fail(f"cannot import thermovisc: {exc}")
    wl.build(tv)
    setup_here = time.perf_counter() - t0
    if args.setup_probe:
        print(setup_here)
        return 0
    setups = [setup_here] + probe_setups(args.workload)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    outdir = WORK / "out" / tag
    seeds = _bank_seeds(args.seed)
    record = {"kind": "perfbench-record", "workload": args.workload,
              "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
              "env": environment(args.seed)}

    if not args.trace:
        reps = measure(tv, wl, args.seconds, seeds, outdir)
        metrics = end_to_end(setups, reps)
        hashes = {r.values.get("final_state_sha256") for r in reps}
        extra_checks = {"reruns_bit_identical": len(hashes) == 1 and None not in hashes}
    else:
        from tracer import Tracer
        plain = measure(tv, wl, args.seconds / 2, seeds, outdir)
        tracer = Tracer()
        tracer.install()
        try:
            traced = measure(tv, wl, args.seconds / 2, seeds, outdir, tracer)
        finally:
            tracer.uninstall()
        reps = plain + traced
        untraced_run_s = _median([r.run_s for r in plain])
        rows, tables = [], []
        for i, rep in enumerate(traced):
            row, table = per_layer_values(tracer, i, rep, untraced_run_s)
            rows.append(row)
            tables.append(table)
            under_run = tracer.self_time_under(i, "scheme.run")
            rep.checks["span_self_times_within_run_s"] = under_run <= rep.run_s
        units = {s["name"]: s["unit"] for s in per_layer_spec()}
        metrics = {name: {"value": _median([r[name] for r in rows]), "unit": unit}
                   for name, unit in units.items()}
        names = sorted({n for t in tables for n in t})
        record["spans"] = {n: {k: _median([t[n][k] for t in tables if n in t])
                               for k in ("calls", "s", "self_s")} for n in names}
        record["absent"] = sorted(n for n in units if n.rpartition(".")[2] in
                                  ("calls", "s", "self_s", "fill_nnz")
                                  and n.rpartition(".")[0] not in record["spans"])
        plain_h = {r.values.get("final_state_sha256") for r in plain}
        traced_h = {r.values.get("final_state_sha256") for r in traced}
        extra_checks = {"traced_untraced_hash_equal":
                        len(plain_h | traced_h) == 1 and None not in plain_h}
        _write_trace(tracer, tag)

    attempted = sum(r.attempted for r in reps) + len(extra_checks)
    failed = sum(r.failed for r in reps) + sum(1 for ok in extra_checks.values() if not ok)
    checks = dict(extra_checks)
    for r in reps:
        for name, ok in r.checks.items():
            checks[name] = checks.get(name, True) and ok
    values = next((r.values for r in reps if r.values), {})

    for r in reps:
        if r.error:
            print(r.error, file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"repetitions {len(reps)}")
    print("env " + json.dumps(record["env"], sort_keys=True))
    print("check_values " + json.dumps(values, sort_keys=True))
    print("checks " + json.dumps(checks, sort_keys=True))
    print(f"failed_share {failed / max(attempted, 1):.6g} "
          f"({failed} failed of {attempted} operations)")
    if args.trace:
        print("absent " + json.dumps(record["absent"]))
        for name, row in record["spans"].items():
            print(f"span {name} calls {row['calls']:g} s {row['s']:.6g} "
                  f"self_s {row['self_s']:.6g}")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record.update({"check_values": values, "checks": checks, "result": result,
                   "repetitions": [{"setup_s": r.setup_s, "run_s": r.run_s,
                                    "post_s": r.post_s} for r in reps],
                   "setup_samples": setups})
    (WORK / "records").mkdir(parents=True, exist_ok=True)
    with open(WORK / "records" / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


def _write_trace(tracer, tag):
    (WORK / "traces").mkdir(parents=True, exist_ok=True)
    with open(WORK / "traces" / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "run_id"],
                   "spans": tracer.spans}, fh)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                    help="summarize two directories of records")
    args = ap.parse_args(argv)
    if args.compare:
        from compare import compare
        return compare(Path(args.compare[0]), Path(args.compare[1]))
    if not args.workload:
        ap.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
