"""Regenerate pins/<workload>.json: the machine counts of every instance in
every part of a workload at the pinned seed, and under "fixed" those of the
instances another seed also has (the nf-hard and tight-2 families), which
every run checks.

    python3 perfbench/pin.py [workload ...]

ff, nf and cover are pinned wherever a workload runs them. The true optimum
is computed once with an unlimited node budget for every instance within the
exact solver's size cap, whether or not the workload runs opt. Regenerate
only when a workload's sweep document changes, never to absorb a changed
count.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from workloads import NODE_BUDGET, ORACLE_CAP, PARTS, PINNED_SEED, WORKLOADS, ids_digest, sweep_doc

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from fosched.bench import evaluate, expand_sweep  # noqa: E402
from fosched.exact import optimal  # noqa: E402


def counts(workload: str, part: int) -> tuple[list, dict[str, list]]:
    """Tasks of a part at the pinned seed and each algorithm's machine counts."""
    tasks = expand_sweep(sweep_doc(workload, PINNED_SEED, part), oracle_cap=ORACLE_CAP)
    columns: dict[str, list] = {"ff": [], "nf": [], "cover": [], "opt": []}
    for tid, instance, algos in tasks:
        rec = evaluate(instance, tid, [a for a in algos if a != "opt"], node_budget=NODE_BUDGET)
        for algo in ("ff", "nf", "cover"):
            columns[algo].append(getattr(rec, algo))
        exact = instance.n <= ORACLE_CAP
        columns["opt"].append(optimal(instance, limit=ORACLE_CAP, node_budget=None).machine_count if exact else None)
    return tasks, {algo: col for algo, col in columns.items() if any(c is not None for c in col)}


def pins_for(workload: str) -> dict:
    parts, fixed = [], {}
    other = {tid for tid, _, _ in expand_sweep(sweep_doc(workload, PINNED_SEED + 1, 0), oracle_cap=ORACLE_CAP)}
    for part in range(PARTS):
        tasks, columns = counts(workload, part)
        doc = {"instances": len(tasks), "ids_sha256": ids_digest(tasks)}
        doc.update({algo: " ".join("-" if c is None else str(c) for c in col) for algo, col in columns.items()})
        parts.append(doc)
        for index, (tid, _, _) in enumerate(tasks):
            if tid in other:
                fixed[tid] = {algo: col[index] for algo, col in columns.items()}
    return {"workload": workload, "seed": PINNED_SEED, "parts": parts, "fixed": fixed}


def main(names: list[str]) -> int:
    for workload in names or WORKLOADS:
        path = HERE / "pins" / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(pins_for(workload), indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path.relative_to(HERE.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
