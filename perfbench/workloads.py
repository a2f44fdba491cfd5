"""Workload definitions shared by run.py, worker.py and pin.py.

Every workload is a `fosched bench` sweep built from a base seed and split
into PARTS sweep documents of the same shape, one per measuring process; the
random families draw different instances in every part. This module imports
nothing from fosched, so run.py can build documents without loading the
package it measures.
"""

from __future__ import annotations

import hashlib

# Pinned solver settings: the same for every workload and every run, and
# never taken from the environment (FOSCHED_ORACLE_CAP is removed from the
# environment of every process the benchmark starts).
ORACLE_CAP = 20
NODE_BUDGET = 20_000
# Sweep processes the benchmark runs at once, and the --jobs value it hands
# `fosched bench`. The benchmark has no flag or environment value that
# raises it.
JOBS = 1
# Measuring processes per run, one after the other, each on its own part.
PARTS = 4
# Seed whose machine counts are pinned under pins/.
PINNED_SEED = 1

RANDOM_FAMILIES = ("unit", "slack-noninc", "slack-nondec", "deadline-noninc", "arbitrary")


def _random(family: str, seed: int, part: int, slot: int, n: int, count: int, **ranges) -> dict:
    # An entry draws `count` consecutive instance seeds per part; PARTS *
    # count stays below 10,000, so parts, slots and base seeds never share
    # an instance.
    first = (seed * 100_000 + slot * 10_000 + part * count) % 2**64
    return {"family": family, "n": n, "count": count, "seed": first, **ranges}


def _paper_sweep(seed: int, part: int) -> dict:
    # The paper's experiment shape: both adversarial families plus every
    # order class, all four algorithms, bounds asserted. Exact search
    # dominates, and some opt calls exhaust the node budget.
    sweeps = [{"family": "nf-hard", "n_range": [3, 20]}, {"family": "tight-2", "k_range": [1, 6]}]
    sweeps += [_random(f, seed, part, i, 16, 100) for i, f in enumerate(RANDOM_FAMILIES)]
    return {"sweeps": sweeps}


def _greedy_large(seed: int, part: int) -> dict:
    # Large instances where first fit's scan over open machines dominates;
    # the machine count (and so the scan length) differs by family.
    return {
        "algorithms": ["ff", "nf"],
        "sweeps": [
            _random(f, seed, part, i, 10_000, 3, p_range=[1, 10], slack_range=[0, 100])
            for i, f in enumerate(RANDOM_FAMILIES)
        ],
    }


def _cover_mid(seed: int, part: int) -> dict:
    # The subset DP dominates. The slack range sets how many jobs one round
    # places: (0, 30) needs ~120 rounds at n=600, (0, 300) ~24.
    return {
        "algorithms": ["ff", "nf", "cover"],
        "sweeps": [
            _random("arbitrary", seed, part, 0, 600, 3, slack_range=[0, 30]),
            _random("arbitrary", seed, part, 1, 600, 3, slack_range=[0, 300]),
            _random("deadline-noninc", seed, part, 2, 600, 2, slack_range=[0, 30]),
            _random("slack-nondec", seed, part, 3, 600, 2, slack_range=[0, 30]),
        ],
    }


def _tiny_many(seed: int, part: int) -> dict:
    # Many small instances: per-call overhead, classify, the feasibility
    # re-check and report emission weigh as much as the solvers.
    return {
        "algorithms": ["ff", "nf", "cover"],
        "sweeps": [_random(f, seed, part, i, 8, 500) for i, f in enumerate(RANDOM_FAMILIES)],
    }


WORKLOADS = {
    "paper-sweep": _paper_sweep,
    "greedy-large": _greedy_large,
    "cover-mid": _cover_mid,
    "tiny-many": _tiny_many,
}


def sweep_doc(workload: str, seed: int, part: int) -> dict:
    """Part ``part`` of a workload's sweep; the same seed gives the same documents."""
    if not 0 <= part < PARTS:
        raise ValueError(f"part must lie in [0, {PARTS})")
    return WORKLOADS[workload](seed, part)


# A paper-sweep instance whose exact search needs about twice NODE_BUDGET
# nodes, so the CLI check also compares a record whose opt ran out of budget.
BUDGET_EXHAUSTING = {"family": "slack-noninc", "n": 16, "count": 1, "seed": 12}


def smoke_doc(workload: str, seed: int) -> dict:
    """A small sweep with the families, ranges and algorithms of part 0."""
    small = sweep_doc(workload, seed, 0)
    for entry in small["sweeps"]:
        if "count" in entry:
            entry["count"] = min(entry["count"], 2)
        if "n" in entry:
            entry["n"] = min(entry["n"], 40)
        for key in ("n_range", "k_range"):
            if key in entry:
                lo, hi = entry[key]
                entry[key] = [lo, min(hi, lo + 2)]
    if workload == "paper-sweep":
        small["sweeps"].append(dict(BUDGET_EXHAUSTING))
    return small


def blank_ms(report_csv: str) -> str:
    """A CSV report with every ms_* cell emptied; the rest is deterministic."""
    lines = report_csv.splitlines()
    if not lines:
        return ""
    timed = {i for i, col in enumerate(lines[0].split(",")) if col.startswith("ms_")}
    out = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        out.append(",".join("" if i in timed else c for i, c in enumerate(cells)))
    return "\n".join(out) + "\n"


def ids_digest(tasks) -> str:
    """Fingerprint of the task ids, to tie pinned counts to their sweep."""
    return hashlib.sha256("\n".join(task[0] for task in tasks).encode()).hexdigest()
