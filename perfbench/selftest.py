"""Self-test: every workload, tiny sizes, a few ops, both trace modes.

Usage: ``python3 perfbench/selftest.py``

Asserts that each run exits 0, that its last line is the result object with
exactly the keys correct, attempted, failed and metrics, that every op
matched the reference, and that every metric declared in BENCHMARK.json for
that mode is emitted with its declared unit and a finite value.  Takes about a minute.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check(workload, trace, declared):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    problems = []
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-400:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')} "
                        f"attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    want = {d["name"]: d["unit"] for d in declared}
    if set(metrics) != set(want):
        problems.append(f"missing {sorted(set(want) - set(metrics))}, extra {sorted(set(metrics) - set(want))}")
    for name, mv in metrics.items():
        if mv.get("unit") != want.get(name):
            problems.append(f"{name}: unit {mv.get('unit')!r}, declared {want.get(name)!r}")
        v = mv.get("value")
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append(f"{name}: value {v!r}")
    return problems


def main():
    decl = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for w in decl["workloads"]:
        for trace, declared in ((0, decl["end_to_end"]), (1, decl["per_layer"])):
            problems = check(w["name"], trace, declared)
            print(f"{'FAIL' if problems else 'ok  '} {w['name']} trace={trace}")
            for p in problems:
                print(f"     {p}")
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
