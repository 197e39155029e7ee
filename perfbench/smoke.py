"""Smoke tests of the benchmark itself, at tiny sizes:  python3 perfbench/smoke.py

1. Every workload, untraced and traced, emits each metric BENCHMARK.json
   names, with its unit, and passes every gate.
2. A deliberately corrupted program output is counted as failed, and the run
   exits with code 1.
3. In a directory that holds only BENCHMARK.json and perfbench/, the
   benchmark exits non-zero without printing a result.

Exits 0 when all hold; prints each verdict.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def bench(*extra, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "5",
           "--seconds", "1", "--tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


def last_json(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(result: dict, declared: list[dict], stdout: str) -> list[str]:
    problems = []
    want = {f"{w}.{m['name']}": m["unit"] for w in workloads.WORKLOADS
            for m in declared}
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if set(result["metrics"]) != set(want):
        problems.append(f"metric names differ: {set(result['metrics']) ^ set(want)}")
    for name, m in result["metrics"].items():
        if m.get("unit") != want.get(name):
            problems.append(f"{name} unit {m.get('unit')!r}")
        if not (isinstance(m.get("value"), (int, float)) and math.isfinite(m["value"])):
            problems.append(f"{name} value {m.get('value')!r}")
        workload, metric = name.split(".", 1)
        if f"[{workload}] {metric} = " not in stdout:
            problems.append(f"{name} not printed by name")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"gates: {result['failed']}/{result['attempted']} failed")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        print("FAIL BENCHMARK.json workloads differ from perfbench/workloads.py")
        return 1
    verdicts = []

    for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        proc = bench("--trace", str(trace))
        problems = ([f"exit {proc.returncode}: {proc.stderr[-2000:]}"]
                    if proc.returncode else
                    check_metrics(last_json(proc), declared, proc.stdout))
        if trace == 0:
            for w, rate in (("sweep_ladder", "points_per_s"),
                            ("mc_coverage", "mc_samples_per_s"),
                            ("oracle_audit", "checks_per_s")):
                for name in (rate, "failed_ratio"):
                    if f"[{w}] {name} = " not in proc.stdout:
                        problems.append(f"{w} does not print {name}")
        verdicts.append((f"tiny pass, trace {trace}, emits every metric", problems))

    proc = bench("--trace", "0", "--corrupt")
    result = last_json(proc) if proc.stdout.strip() else {}
    caught = [w for w in workloads.WORKLOADS if f"[{w}] FAILED " in proc.stdout]
    problems = []
    if proc.returncode != 1 or result.get("correct") is not False:
        problems.append(f"exit {proc.returncode}, correct={result.get('correct')}")
    if caught != list(workloads.WORKLOADS):
        problems.append(f"corruption caught only on {caught}")
    verdicts.append(("corrupted result counted as failed", problems))

    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, *spec["command"][1:], "--workload",
                           "sweep_ladder", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=bare, capture_output=True,
                          text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    problems = []
    if proc.returncode == 0 or "{" in proc.stdout:
        problems.append(f"exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    verdicts.append(("without the package source: non-zero exit, no result",
                     problems))

    for name, problems in verdicts:
        print(f"{'PASS' if not problems else 'FAIL'} {name}")
        for p in problems:
            print(f"     {p}")
    return 0 if all(not p for _, p in verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
