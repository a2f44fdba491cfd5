"""Benchmark harness: run solvers, check proven bounds, emit reports.

Reports are deterministic apart from the timing columns: rows keep input
order, columns have a fixed order, and all counts derive from seeded
generators, so two runs of the same sweep differ only in ms_* cells.
"""

from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from itertools import chain
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from .core import InputError, Instance, Schedule, _require_int, is_feasible
from .cover import setcover_greedy
from .exact import DEFAULT_ORACLE_CAP, MAX_ORACLE_CAP, CapacityError, SearchBudgetError, optimal
from .greedy import first_fit, next_fit
from .instances import (
    MAX_JOBS,
    GenSpec,
    _int_pair,
    OrderClass,
    class_tokens,
    classify,
    gen_random,
    generate,
    parse_class_tokens,
)

ALGORITHMS = ("ff", "nf", "cover", "opt")
ORACLE_CAP_ENV = "FOSCHED_ORACLE_CAP"


def effective_oracle_cap() -> int:
    """Size cap for the exact solver, overridable via FOSCHED_ORACLE_CAP up to MAX_ORACLE_CAP."""
    raw = os.environ.get(ORACLE_CAP_ENV)
    if raw is None:
        return DEFAULT_ORACLE_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise InputError(f"{ORACLE_CAP_ENV} must be an integer, got {raw!r}") from None
    if not 0 <= cap <= MAX_ORACLE_CAP:
        raise InputError(f"{ORACLE_CAP_ENV} must be between 0 and {MAX_ORACLE_CAP}, got {cap}")
    return cap


@dataclass(frozen=True)
class SolveReport:
    """One solver's outcome on one instance."""

    algorithm: str
    machine_count: int | None
    schedule: Schedule | None
    ms: float
    error: str | None = None
    error_kind: str | None = None  # "capacity" or "budget" when error is set


_SOLVERS: dict[str, Callable] = {
    "ff": lambda inst, cap, budget: first_fit(inst),
    "nf": lambda inst, cap, budget: next_fit(inst),
    "cover": lambda inst, cap, budget: setcover_greedy(inst),
    "opt": lambda inst, cap, budget: optimal(inst, limit=cap, node_budget=budget),
}


def run(
    instance: Instance,
    algorithms: Iterable[str],
    *,
    oracle_cap: int = DEFAULT_ORACLE_CAP,
    node_budget: int | None = None,
) -> list[SolveReport]:
    """Run the named solvers; one report per algorithm in canonical order.

    Every emitted schedule is re-checked for feasibility. Capacity or budget
    failures of the exact solver land in that algorithm's report instead of
    aborting the others.
    """
    requested = set(algorithms)
    unknown = requested - set(ALGORITHMS)
    if unknown:
        raise InputError(f"unknown algorithms: {sorted(unknown)}")
    reports = []
    for name in ALGORITHMS:
        if name not in requested:
            continue
        start = time.perf_counter()
        try:
            schedule = _SOLVERS[name](instance, oracle_cap, node_budget)
        except (CapacityError, SearchBudgetError) as exc:
            ms = round((time.perf_counter() - start) * 1000, 3)
            kind = "capacity" if isinstance(exc, CapacityError) else "budget"
            reports.append(SolveReport(name, None, None, ms, str(exc), kind))
            continue
        ms = round((time.perf_counter() - start) * 1000, 3)
        if not is_feasible(instance, schedule):
            raise RuntimeError(f"{name} produced an infeasible schedule")
        reports.append(SolveReport(name, schedule.machine_count, schedule, ms))
    return reports


@dataclass(frozen=True)
class BenchRecord:
    """Machine counts and timings for one instance; None means not run."""

    instance_id: str
    n: int
    classes: OrderClass
    ff: int | None = None
    nf: int | None = None
    cover: int | None = None
    opt: int | None = None
    ms_ff: float | None = None
    ms_nf: float | None = None
    ms_cover: float | None = None
    ms_opt: float | None = None

    def ratio(self, algorithm: str) -> float | None:
        """The algorithm's machine count over opt; None if either is missing or opt is 0."""
        count = getattr(self, algorithm)
        if count is None or not self.opt:
            return None
        return count / self.opt


def evaluate(
    instance: Instance,
    instance_id: str | None = None,
    algorithms: Iterable[str] = ALGORITHMS,
    *,
    oracle_cap: int = DEFAULT_ORACLE_CAP,
    node_budget: int | None = None,
) -> BenchRecord:
    """Run solvers on one instance and fold the outcomes into a record."""
    fields: dict[str, int | float | None] = {}
    for rep in run(instance, algorithms, oracle_cap=oracle_cap, node_budget=node_budget):
        fields[rep.algorithm] = rep.machine_count
        fields[f"ms_{rep.algorithm}"] = None if rep.error else rep.ms
    name = instance_id if instance_id is not None else (instance.name or "instance")
    return BenchRecord(name, instance.n, classify(instance), **fields)


# --- proven bounds ----------------------------------------------------------


@dataclass(frozen=True)
class BoundAssertion:
    """A guarantee a record must satisfy whenever it applies.

    ``applies`` is total over all records and checks that every count the
    assertion reads is present, so a record lacking one (an opt above the
    oracle cap or out of node budget) skips it; ``holds`` runs only where it
    applies.
    """

    name: str
    rule: str
    applies: Callable[[BenchRecord], bool]
    holds: Callable[[BenchRecord], bool]


@dataclass(frozen=True)
class BoundViolation:
    assertion: str
    instance_id: str
    detail: str


def _has(record: BenchRecord, *fields: str) -> bool:
    return all(getattr(record, f) is not None for f in fields)


def _harmonic_cap(record: BenchRecord) -> int:
    return math.ceil((math.log(record.n) + 1) * record.opt)


BOUND_ASSERTIONS: tuple[BoundAssertion, ...] = (
    BoundAssertion(
        "unit-ff-optimal",
        "unit processing times: ff == opt",
        lambda r: OrderClass.UNIT_PROCESSING in r.classes and _has(r, "ff", "opt"),
        lambda r: r.ff == r.opt,
    ),
    BoundAssertion(
        "slack-noninc-ff-equals-nf",
        "non-increasing slacks: ff == nf",
        lambda r: OrderClass.SLACK_NONINCREASING in r.classes and _has(r, "ff", "nf"),
        lambda r: r.ff == r.nf,
    ),
    BoundAssertion(
        "slack-noninc-ff-below-double",
        "non-increasing slacks: ff <= 2*opt - 1",
        lambda r: OrderClass.SLACK_NONINCREASING in r.classes
        and _has(r, "ff", "opt")
        and r.opt >= 1,
        lambda r: r.ff <= 2 * r.opt - 1,
    ),
    BoundAssertion(
        "slack-nondec-ff-below-double",
        "non-decreasing slacks: ff <= 2*opt - 1",
        lambda r: OrderClass.SLACK_NONDECREASING in r.classes
        and _has(r, "ff", "opt")
        and r.opt >= 1,
        lambda r: r.ff <= 2 * r.opt - 1,
    ),
    BoundAssertion(
        "deadline-noninc-ff-below-double",
        "non-increasing deadlines: ff <= 2*opt - 1",
        lambda r: OrderClass.DEADLINE_NONINCREASING in r.classes
        and _has(r, "ff", "opt")
        and r.opt >= 1,
        lambda r: r.ff <= 2 * r.opt - 1,
    ),
    BoundAssertion(
        "opt1-ff-exact",
        "opt == 1: ff == 1",
        lambda r: r.opt == 1 and _has(r, "ff"),
        lambda r: r.ff == 1,
    ),
    BoundAssertion(
        "opt2-ff-at-most-3",
        "opt == 2: ff <= 3",
        lambda r: r.opt == 2 and _has(r, "ff"),
        lambda r: r.ff <= 3,
    ),
    BoundAssertion(
        "opt3-ff-at-most-6",
        "opt == 3: ff <= 6",
        lambda r: r.opt == 3 and _has(r, "ff"),
        lambda r: r.ff <= 6,
    ),
    BoundAssertion(
        "cover-harmonic",
        "cover <= ceil((ln n + 1) * opt)",
        lambda r: _has(r, "cover", "opt") and r.n >= 1 and r.opt >= 1,
        lambda r: r.cover <= _harmonic_cap(r),
    ),
)


def assert_bounds(record: BenchRecord) -> list[BoundViolation]:
    """Violations of every applicable proven bound; empty when all hold.

    Bounds whose counts the record lacks are skipped, so a record without
    opt is still checked against ff == nf under non-increasing slacks.
    """
    violations = []
    for assertion in BOUND_ASSERTIONS:
        if assertion.applies(record) and not assertion.holds(record):
            violations.append(
                BoundViolation(
                    assertion.name,
                    record.instance_id,
                    f"{assertion.rule} failed: ff={record.ff} nf={record.nf} "
                    f"cover={record.cover} opt={record.opt} n={record.n}",
                )
            )
    return violations


# --- counterexample hunt ----------------------------------------------------


@dataclass(frozen=True)
class HuntResult:
    """Outcome of a randomized search for high ff/opt ratios."""

    best: BenchRecord | None
    evaluated: int
    skipped: int
    flagged: tuple[BenchRecord, ...]


def counterexample_search(
    budget: int,
    template: GenSpec,
    threshold: Fraction | int = Fraction(2),
    *,
    plants: Sequence[Instance] = (),
    oracle_cap: int = DEFAULT_ORACLE_CAP,
    node_budget: int | None = None,
) -> HuntResult:
    """Evaluate ``budget`` seeded instances (plus any plants) and report the
    record with the largest ff/opt ratio.

    Instance i uses seed template.seed + i. Ratios compare exactly as
    rationals. Records at or above ``threshold`` are returned in ``flagged``;
    exact-solver budget failures skip the instance and bump ``skipped``.
    Seeded instances above the oracle cap could get no ratio, so they are
    counted as skipped without being generated.
    """
    if budget < 0:
        raise InputError(f"budget must be >= 0, got {budget}")
    skipped = budget if template.n > oracle_cap else 0
    # Lazily, so only the instance under evaluation is held in memory.
    drawn = map(gen_random, _seeded_specs(template, budget - skipped))
    candidates = chain(
        ((plant.name or f"plant-{idx}", plant) for idx, plant in enumerate(plants)),
        ((instance.name or "random", instance) for instance in drawn),
    )
    best: BenchRecord | None = None
    best_ratio = Fraction(0)
    evaluated = 0
    flagged = []
    for instance_id, instance in candidates:
        record = evaluate(
            instance, instance_id, ("ff", "opt"), oracle_cap=oracle_cap, node_budget=node_budget
        )
        if record.ratio("ff") is None:
            skipped += 1
            continue
        evaluated += 1
        ratio = Fraction(record.ff, record.opt)
        if ratio > best_ratio:
            best, best_ratio = record, ratio
        if ratio >= threshold:
            flagged.append(record)
    return HuntResult(best, evaluated, skipped, tuple(flagged))


# --- reports ----------------------------------------------------------------

# Every heuristic is compared against opt, the last algorithm.
_RATIOED = ALGORITHMS[:-1]
_TIMINGS = tuple(f"ms_{a}" for a in ALGORITHMS)
REPORT_COLUMNS = ("id", "n", "classes", *ALGORITHMS, *(f"ratio_{a}" for a in _RATIOED), *_TIMINGS)
_COUNTS_OF = attrgetter(*ALGORITHMS)
_TIMINGS_OF = attrgetter(*_TIMINGS)


def report_row(record: BenchRecord) -> list:
    """The record's cells in REPORT_COLUMNS order; None marks an empty cell."""
    ratios = [None if (r := record.ratio(a)) is None else round(r, 6) for a in _RATIOED]
    return [
        record.instance_id, record.n, class_tokens(record.classes),
        *_COUNTS_OF(record), *ratios, *_TIMINGS_OF(record),
    ]


def emit_report(records: Sequence[BenchRecord], fmt: str = "csv") -> str:
    """Render records as CSV or JSON, rows in input order."""
    if fmt == "csv":
        lines = [",".join(REPORT_COLUMNS)]
        for record in records:
            cells = ["" if v is None else str(v) for v in report_row(record)]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"
    if fmt == "json":
        rows = [dict(zip(REPORT_COLUMNS, report_row(r))) for r in records]
        return json.dumps(rows, indent=2) + "\n"
    raise InputError(f"unknown report format {fmt!r}")


def records_from_json(text: str) -> list[BenchRecord]:
    """Parse a JSON report back into records (ratios are rederived)."""
    try:
        rows = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid report: {exc}") from None
    if not isinstance(rows, list):
        raise InputError("report must hold a JSON array")
    records = []
    for row in rows:
        if not isinstance(row, dict):
            raise InputError("report rows must be objects")
        missing = {"id", "n", "classes"} - set(row)
        if missing:
            raise InputError(f"report row missing keys {sorted(missing)}")
        if not isinstance(row["classes"], str):
            raise InputError(f"report classes must be a string, got {row['classes']!r}")
        if _require_int(row["n"], "report n") < 0:
            raise InputError(f"report n must be >= 0, got {row['n']}")
        fields = {key: row.get(key) for key in (*ALGORITHMS, *_TIMINGS)}
        for key in ALGORITHMS:
            if fields[key] is not None:
                _require_int(fields[key], f"report {key} count")
        for key in _TIMINGS:
            value = fields[key]
            if value is not None and (not isinstance(value, (int, float)) or isinstance(value, bool)):
                raise InputError(f"report {key} must be a number, got {value!r}")
        records.append(BenchRecord(row["id"], row["n"], parse_class_tokens(row["classes"]), **fields))
    return records


# --- sweeps -----------------------------------------------------------------
#
# A sweep file is JSON:
#   {"algorithms": ["ff", "nf", "cover", "opt"],   # optional, default all
#    "sweeps": [
#      {"family": "nf-hard", "n": 5} or {"family": "nf-hard", "n_range": [3, 20]},
#      {"family": "tight-2", "k": 3} or {"family": "tight-2", "k_range": [1, 5]},
#      {"family": "arbitrary", "n": 10, "count": 50, "seed": 7,
#       "p_range": [1, 9], "slack_range": [0, 12]}]}
# Random entries expand to `count` instances seeded seed, seed+1, ...
# Entries may override "algorithms". "opt" is dropped automatically for
# instances larger than the oracle cap. A sweep may generate at most MAX_JOBS
# jobs in all. Every entry's fields, and the job count against the cap, are
# checked before any instance is generated; the nf-hard and tight-2 limits
# on n and k are checked by their generators.

SweepTask = tuple[str, Instance, tuple[str, ...]]


def _algorithms(value: object) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(a, str) for a in value):
        raise InputError(f"algorithms must be an array of names, got {value!r}")
    unknown = set(value) - set(ALGORITHMS)
    if unknown:
        raise InputError(f"unknown algorithms: {sorted(unknown)}")
    return tuple(value)


def _count(entry: dict) -> int:
    count = entry.get("count", 1)
    if not isinstance(count, int) or isinstance(count, bool) or count < 1:
        raise InputError(f"count must be a positive integer, got {count!r}")
    return count


def _sum_at_least(lo: int, hi: int, floor: int) -> int:
    """Sum of max(v, floor) over v = lo..hi, in closed form."""
    if hi < lo:
        return 0
    clamped = max(0, min(hi, floor) - lo + 1)
    first = max(lo, floor + 1)
    rest = (first + hi) * (hi - first + 1) // 2 if hi >= first else 0
    return clamped * floor + rest


def _seeded_specs(template: GenSpec, count: int) -> Iterator[GenSpec]:
    """``count`` copies of ``template`` seeded seed, seed+1, ... (mod 2**64), lazily."""
    return (replace(template, seed=(template.seed + i) % 2**64) for i in range(count))


_ENTRY_KEYS = {
    "family", "algorithms", "n", "n_range", "k", "k_range", "count", "seed", "p_range", "slack_range",
}


def _parse_entry(entry: dict) -> tuple[int, Iterator[tuple[str, GenSpec]]]:
    """The jobs the entry would generate, from its fields alone, and its
    (id, spec) pairs, built lazily; the entry's fields are checked first.

    Every instance counts at least one job, so a sweep of many empty
    instances is bounded too.
    """
    unknown = set(entry) - _ENTRY_KEYS
    if unknown:
        raise InputError(f"unknown sweep keys: {sorted(unknown)}")
    family = entry.get("family")
    if family in ("nf-hard", "tight-2"):
        key = "n" if family == "nf-hard" else "k"
        if f"{key}_range" in entry:
            lo, hi = _int_pair(entry[f"{key}_range"], f"{key}_range")
        else:
            lo = hi = _require_int(entry[key], key)
        if family == "nf-hard":
            jobs = _sum_at_least(lo, hi, 1)
        else:
            jobs = 3 * _sum_at_least(lo, hi, 0) + max(0, hi - lo + 1)  # 3k+1 each
        specs = ((f"{family}-{key}{v}", GenSpec(family, **{key: v})) for v in range(lo, hi + 1))
        return jobs, specs
    count = _count(entry)
    ranges = {key: entry[key] for key in ("p_range", "slack_range") if key in entry}
    base = GenSpec(family, n=entry["n"], seed=entry.get("seed", 0), **ranges)
    specs = ((f"{family}-n{s.n}-s{s.seed}", s) for s in _seeded_specs(base, count))
    return count * max(base.n, 1), specs


def expand_sweep(doc: dict, *, oracle_cap: int = DEFAULT_ORACLE_CAP) -> list[SweepTask]:
    """Turn a sweep document into (id, instance, algorithms) tasks; every
    entry's fields are checked before anything is generated."""
    if not isinstance(doc, dict) or not isinstance(doc.get("sweeps"), list):
        raise InputError('sweep file needs a "sweeps" array')
    default_algos = _algorithms(doc["algorithms"]) if "algorithms" in doc else ALGORITHMS
    entries = doc["sweeps"]
    if not all(isinstance(entry, dict) for entry in entries):
        raise InputError("sweep entries must be objects")
    parsed = []
    try:
        for entry in entries:
            entry_jobs, specs = _parse_entry(entry)
            algos = _algorithms(entry["algorithms"]) if "algorithms" in entry else default_algos
            parsed.append((entry_jobs, specs, algos))
    except KeyError as exc:
        raise InputError(f"sweep entry missing key {exc}") from None
    jobs = sum(entry_jobs for entry_jobs, _, _ in parsed)
    if jobs > MAX_JOBS:
        raise InputError(f"sweep would generate {jobs} jobs, above the cap of {MAX_JOBS}")
    tasks: list[SweepTask] = []
    for _, specs, algos in parsed:
        for instance_id, spec in specs:
            instance = generate(spec)
            effective = tuple(a for a in algos if a != "opt" or instance.n <= oracle_cap)
            tasks.append((instance_id, instance, effective))
    return tasks


def load_sweep(path: str | Path) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"invalid sweep file: {exc}") from None


def _evaluate_task(
    task: SweepTask, oracle_cap: int, node_budget: int | None
) -> BenchRecord:
    instance_id, instance, algos = task
    return evaluate(
        instance, instance_id, algos, oracle_cap=oracle_cap, node_budget=node_budget
    )


def run_sweep(
    tasks: Sequence[SweepTask],
    *,
    jobs: int = 1,
    oracle_cap: int = DEFAULT_ORACLE_CAP,
    node_budget: int | None = None,
) -> list[BenchRecord]:
    """Evaluate sweep tasks, optionally in parallel; results keep task order."""
    if jobs < 1:
        raise InputError(f"jobs must be >= 1, got {jobs}")
    worker = partial(_evaluate_task, oracle_cap=oracle_cap, node_budget=node_budget)
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        return [worker(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, tasks))
