"""Summarize two sets of benchmark records (parent and change).

Usage: python3 perfbench/run.py --compare PARENT_DIR CHANGE_DIR

Each directory is searched recursively for the ``*.json`` records that
``run.py`` writes under ``.perfbench_runs/records``.  For every workload the
report gives, per end-to-end metric, each side's median and quartiles with
the sample count and the change of the median against the metric's bound;
then the per-layer self-time deltas from the traced records; then any drift
of the physics check values between the two sides.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_records(directory):
    out = []
    for path in sorted(Path(directory).rglob("*.json")):
        try:
            rec = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            continue
        if isinstance(rec, dict) and rec.get("kind") == "perfbench-record":
            out.append(rec)
    return out


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def _fmt(q):
    q1, med, q3 = q
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def _bounds():
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}
    return {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}


def _end_to_end(parent, change, bounds):
    names = sorted({n for r in parent + change for n in r["result"]["metrics"]})
    print(f"  {'metric':<14} {'parent median [q1, q3]':>30} {'change median [q1, q3]':>30}"
          f" {'delta':>8}  verdict")
    for name in names:
        pv = [r["result"]["metrics"][name]["value"] for r in parent
              if name in r["result"]["metrics"]]
        cv = [r["result"]["metrics"][name]["value"] for r in change
              if name in r["result"]["metrics"]]
        if not pv or not cv:
            continue
        pq, cq = quartiles(pv), quartiles(cv)
        delta = (cq[1] - pq[1]) / pq[1] if pq[1] else math.nan
        bound, better = bounds.get(name, (math.nan, "lower"))
        worse = delta if better == "lower" else -delta
        spread = (pq[2] - pq[0]) / pq[1] if pq[1] else math.nan
        if spread > bound:
            verdict = "unresolved (parent spread above bound)"
        elif worse > bound:
            verdict = "WORSE beyond bound"
        else:
            verdict = "within bound"
        print(f"  {name:<14} {_fmt(pq) + f' n={len(pv)}':>30} {_fmt(cq) + f' n={len(cv)}':>30}"
              f" {delta:>+8.1%}  {verdict} (bound {bound:g})")


def _self_times(records):
    spans = {}
    for rec in records:
        for name, row in rec.get("spans", {}).items():
            spans.setdefault(name, []).append(row["self_s"])
    return {name: statistics.median(v) for name, v in spans.items()}


def _layers(parent, change, top=20):
    ps, cs = _self_times(parent), _self_times(change)
    rows = [(cs.get(n, 0.0) - ps.get(n, 0.0), n) for n in set(ps) | set(cs)]
    rows.sort(key=lambda r: -abs(r[0]))
    print(f"  {'span':<40} {'parent self s':>14} {'change self s':>14} {'delta s':>10}")
    for delta, name in rows[:top]:
        print(f"  {name:<40} {ps.get(name, 0.0):>14.4g} {cs.get(name, 0.0):>14.4g}"
              f" {delta:>+10.4g}")


def _drift(parent, change):
    keys = sorted({k for r in parent + change for k in r.get("check_values", {})})
    for key in keys:
        pv = [r["check_values"].get(key) for r in parent if r.get("check_values")]
        cv = [r["check_values"].get(key) for r in change if r.get("check_values")]
        pv = [v for v in pv if v is not None]
        cv = [v for v in cv if v is not None]
        if not pv or not cv:
            continue
        if isinstance(pv[0], str):
            same = set(pv) == set(cv) and len(set(pv)) == 1
            print(f"  {key:<22} {'identical' if same else 'DIFFERS'}"
                  f" (parent {sorted(set(pv))[0][:16]}…, change {sorted(set(cv))[0][:16]}…)")
            continue
        p, c = statistics.median(pv), statistics.median(cv)
        rel = abs(c - p) / max(abs(p), 1e-300)
        print(f"  {key:<22} parent {p:.17g}  change {c:.17g}  rel drift {rel:.3g}")


def compare(parent_dir, change_dir):
    parent, change = load_records(parent_dir), load_records(change_dir)
    if not parent or not change:
        print("compare: no records found in one of the directories")
        return 2
    bounds = _bounds()
    for wl in sorted({r["workload"] for r in parent} & {r["workload"] for r in change}):
        print(f"== {wl}")
        p0 = [r for r in parent if r["workload"] == wl and not r["trace"]]
        c0 = [r for r in change if r["workload"] == wl and not r["trace"]]
        p1 = [r for r in parent if r["workload"] == wl and r["trace"]]
        c1 = [r for r in change if r["workload"] == wl and r["trace"]]
        if p0 and c0:
            print(" end-to-end (untraced records)")
            _end_to_end(p0, c0, bounds)
        if p1 and c1:
            print(" per-layer self time (traced records), largest changes first")
            _layers(p1, c1)
        fails = [r["result"]["failed"] for r in p0 + p1], [r["result"]["failed"] for r in c0 + c1]
        print(f" failed operations: parent {sum(fails[0])}, change {sum(fails[1])}")
        print(" check value drift")
        _drift(p0 + p1, c0 + c1)
    return 0
