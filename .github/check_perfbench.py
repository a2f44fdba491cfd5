"""Smoke-run every perfbench workload and check that each run's result is usable.

    python .github/check_perfbench.py

Runs perfbench/run.py on each workload with --trace 0 and --trace 1 at
--seed 1 --seconds 1. A run passes when it exits 0, the last line of its
standard output is one JSON object, "correct" is true and every metric value
is a finite number (a null metric means a traced layer lost its call site).
Prints one line per run and exits 1 if any run failed.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paper-sweep", "greedy-large", "cover-mid", "tiny-many")


def problems(stdout: str, returncode: int) -> list[str]:
    """What is wrong with one run's output; empty when it passes."""
    found = [] if returncode == 0 else [f"exit code {returncode}"]
    lines = stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict):
        return found + ["the last line is not a JSON object"]
    if result.get("correct") is not True:
        found.append("run not correct")
    metrics = result.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        return found + ["no metrics"]
    bad = [
        name
        for name, metric in metrics.items()
        if not isinstance(metric, dict)
        or not isinstance(metric.get("value"), (int, float))
        or isinstance(metric["value"], bool)
        or not math.isfinite(metric["value"])
    ]
    if bad:
        found.append(f"metrics not finite numbers: {bad}")
    return found


def main() -> int:
    failed = 0
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            argv = [
                sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                "--seed", "1", "--seconds", "1", "--trace", trace,
            ]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            found = problems(proc.stdout, proc.returncode)
            if found:
                failed += 1
                print(f"FAIL perfbench: {workload} --trace {trace}: {'; '.join(found)}")
                sys.stdout.write(proc.stderr[-2000:])
            else:
                count = len(json.loads(proc.stdout.splitlines()[-1])["metrics"])
                print(f"ok perfbench: {workload} --trace {trace}: {count} metrics")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
