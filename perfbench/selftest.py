"""Self-test of the benchmark on a tiny configuration (4x4 grid, 2 steps).

Run from the root of a checkout:  python3 perfbench/selftest.py

It runs the ``smoke`` workload untraced and traced in fresh processes and
checks that
  * every metric named in BENCHMARK.json is emitted, with its unit;
  * every correctness check passed, including the traced/untraced
    final-state hash comparison and the rule that span self times under
    ``scheme.run`` sum to no more than the traced ``run_s``;
  * the benchmark fails, without printing a result, in a directory that
    holds only BENCHMARK.json and the benchmark's files;
  * ``--compare`` summarizes the records just written.
Exit code 0 means every check passed.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TIMEOUT = 600


def run_bench(cwd, *args):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT)
    return proc.returncode, proc.stdout.splitlines(), proc.stderr


def check_result(lines, spec, problems, label):
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"{label}: correct={result['correct']} failed={result['failed']}")
    for m in spec:
        got = result["metrics"].get(m["name"])
        if got is None:
            problems.append(f"{label}: metric {m['name']} missing")
        elif got.get("unit") != m["unit"]:
            problems.append(f"{label}: metric {m['name']} unit {got.get('unit')!r}")
        elif not isinstance(got.get("value"), (int, float)) or not math.isfinite(got["value"]):
            problems.append(f"{label}: metric {m['name']} value {got.get('value')!r}")
    extra = set(result["metrics"]) - {m["name"] for m in spec}
    if extra:
        problems.append(f"{label}: unexpected metrics {sorted(extra)}")
    checks = next((json.loads(line[len("checks "):]) for line in lines
                   if line.startswith("checks ")), {})
    return checks


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []

    code, lines, err = run_bench(ROOT, "--workload", "smoke", "--seed", "0",
                                 "--seconds", "1", "--trace", "0")
    if code != 0:
        problems.append(f"untraced run exited {code}: {err[-2000:]}")
    else:
        checks = check_result(lines, spec["end_to_end"], problems, "untraced")
        if not checks.get("reruns_bit_identical"):
            problems.append("untraced: reruns_bit_identical missing or failed")

    code, lines, err = run_bench(ROOT, "--workload", "smoke", "--seed", "0",
                                 "--seconds", "2", "--trace", "1")
    if code != 0:
        problems.append(f"traced run exited {code}: {err[-2000:]}")
    else:
        checks = check_result(lines, spec["per_layer"], problems, "traced")
        for name in ("traced_untraced_hash_equal", "span_self_times_within_run_s"):
            if not checks.get(name):
                problems.append(f"traced: check {name} missing or failed")

    work = ROOT / ".perfbench_runs"
    work.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=work))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines, _ = run_bench(bare, "--workload", "smoke", "--seed", "0",
                                   "--seconds", "1", "--trace", "0")
        if code == 0 or any(line.startswith("{") for line in lines):
            problems.append(f"bare directory: exit {code}, output {lines[-1:]}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--compare",
                           str(work / "records"), str(work / "records")],
                          cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT)
    if proc.returncode != 0 or "== smoke" not in proc.stdout:
        problems.append(f"compare exited {proc.returncode}: {proc.stdout[-500:]}")

    for p in problems:
        print("FAIL", p)
    print("selftest", "passed" if not problems else f"failed ({len(problems)} problems)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
