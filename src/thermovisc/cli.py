"""Batch command line: simulate / refine / validate.

    thermovisc simulate <config> [--tau X] [--eps X] [--isothermal] [--out DIR]
    thermovisc refine   <config> [--tau-list X ...] [--eps-list X ...] [--out DIR]
    thermovisc validate <config>

Exit code 0 only if parsing succeeds and all enabled certificates pass;
1 when the config (its preset's refusal included) or a command-line
override breaks a rule (each printed as ``error: ...``), 2 when a certificate
fails, 3 when a step is still rejected after every halving (printed as one
``error: ...`` line with the interval and the reason).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .config import ConfigError, parse_config
from .mech import StepRejectedError
from .outputs import _fmt, emit_outputs
from .scheme import refinement_errors, refinement_study, run, run_hash, time_errors


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def cmd_validate(args):
    try:
        cfg = parse_config(_load(args.config))
    except ConfigError as exc:
        print(f"{args.config}: {len(exc.errors)} violation(s)")
        for e in exc.errors:
            print(f"  - {e}")
        return 1
    print(f"{args.config}: valid ({cfg.scenario.name}, tau={cfg.tau:g}, eps={cfg.eps:g})")
    return 0


def _errors(errors):
    """Print every violation to stderr; the exit code 1 when there are any."""
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    return 1 if errors else 0


def _rejected(exc):
    """Print a step rejection that survived every halving; exit code 3."""
    print(f"error: {exc}", file=sys.stderr)
    return 3


def cmd_simulate(args):
    try:
        cfg = parse_config(_load(args.config))
    except ConfigError as exc:
        return _errors(exc.errors)
    if args.tau is not None:
        cfg.tau = args.tau
    if args.eps is not None:
        cfg.eps = args.eps
    scenario = cfg.scenario
    if args.isothermal:
        scenario.isothermal = True
    if _errors(time_errors(scenario.T, cfg.tau, cfg.eps)):
        return 1
    outdir = args.out or cfg.directory
    h = run_hash(scenario, cfg.tau, cfg.eps, cfg.solver)
    try:
        traj = run(scenario, cfg.tau, cfg.eps, cfg.solver)
    except StepRejectedError as exc:
        return _rejected(exc)
    report = emit_outputs(traj, outdir, config_text=cfg.serialize(), config_hash=h)
    status = "PASS" if report["all_passed"] else "FAIL"
    for c in report["checks"]:
        mark = "ok " if c["passed"] else "FAIL"
        print(f"  [{mark}] {c['name']}: value={c['value']:.6g} threshold={c['threshold']:.6g}")
    print(f"{scenario.name}: {traj.n_steps} steps -> {outdir} [{status}]")
    return 0 if report["all_passed"] else 2


def cmd_refine(args):
    try:
        cfg = parse_config(_load(args.config))
    except ConfigError as exc:
        return _errors(exc.errors)
    tau_list = args.tau_list or cfg.tau_list or [cfg.tau]
    eps_list = args.eps_list or cfg.eps_list or [cfg.eps]
    scenario = cfg.scenario
    if _errors(refinement_errors(scenario.T, tau_list, eps_list)):
        return 1
    try:
        report = refinement_study(scenario, tau_list, eps_list, cfg.solver)
    except StepRejectedError as exc:
        return _rejected(exc)
    outdir = args.out or cfg.directory   # emit_outputs creates it with the first cell
    trajs = report.pop("trajectories")

    all_ok = True
    for (tau, eps), traj in trajs.items():
        cell = os.path.join(outdir, f"tau{tau:g}_eps{eps:g}")
        h = run_hash(scenario, tau, eps, cfg.solver)
        cell_report = emit_outputs(traj, cell, config_hash=h)
        all_ok &= cell_report["all_passed"]

    lines = ["eps,tau_coarse,tau_fine,dy_grad_l2,dtheta_l2"]
    for eps, rows in report["cauchy"].items():
        for r in rows:
            lines.append(",".join([_fmt(eps), _fmt(r["tau_coarse"]), _fmt(r["tau_fine"]),
                                   _fmt(r["dy_grad_l2"]), _fmt(r["dtheta_l2"])]))
    with open(os.path.join(outdir, "cauchy.csv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(os.path.join(outdir, "refine_report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    print(f"refinement study: {len(trajs)} cells -> {outdir} "
          f"[{'PASS' if all_ok else 'FAIL'}]")
    return 0 if all_ok else 2


def main(argv=None):
    ap = argparse.ArgumentParser(prog="thermovisc",
                                 description="Large-strain thermoviscoelasticity "
                                             "with run-time certificates")
    sub = ap.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one trajectory and emit outputs")
    p_sim.add_argument("config")
    p_sim.add_argument("--tau", type=float)
    p_sim.add_argument("--eps", type=float)
    p_sim.add_argument("--isothermal", action="store_true")
    p_sim.add_argument("--out")
    p_sim.set_defaults(func=cmd_simulate)

    p_ref = sub.add_parser("refine", help="tau/eps refinement study")
    p_ref.add_argument("config")
    p_ref.add_argument("--tau-list", type=float, nargs="+")
    p_ref.add_argument("--eps-list", type=float, nargs="+")
    p_ref.add_argument("--out")
    p_ref.set_defaults(func=cmd_refine)

    p_val = sub.add_parser("validate", help="parse and check a config")
    p_val.add_argument("config")
    p_val.set_defaults(func=cmd_validate)

    args = ap.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
