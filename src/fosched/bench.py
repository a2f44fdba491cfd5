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
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from operator import attrgetter, eq
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from .core import InputError, Instance, Schedule, _require_int, is_feasible
from .cover import setcover_greedy
from .exact import DEFAULT_ORACLE_CAP, CapacityError, SearchBudgetError, optimal
from .greedy import first_fit, next_fit
from .instances import (
    FAMILIES,
    MAX_JOBS,
    GenSpec,
    _int_pair,
    OrderClass,
    class_tokens,
    classify,
    gen_random,
    generate,
)

ALGORITHMS = ("ff", "nf", "cover", "opt")


def _within_cap(algorithms: Iterable[str], n: int, oracle_cap: int) -> tuple[str, ...]:
    """``algorithms`` without opt when ``n`` jobs are above the oracle cap."""
    return tuple(a for a in algorithms if a != "opt" or n <= oracle_cap)


@dataclass(frozen=True)
class SolveReport:
    """One solver's outcome on one instance."""

    algorithm: str
    machine_count: int | None
    schedule: Schedule | None
    ms: float
    error: CapacityError | SearchBudgetError | None = None


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
    failures of the exact solver land, as the exception raised, in that
    algorithm's report instead of aborting the others.
    """
    requested = set(algorithms)
    unknown = requested - set(ALGORITHMS)
    if unknown:
        raise InputError(f"unknown algorithms: {sorted(unknown)}")
    reports = []
    for name in ALGORITHMS:
        if name not in requested:
            continue
        schedule = error = None
        start = time.perf_counter()
        try:
            schedule = _SOLVERS[name](instance, oracle_cap, node_budget)
        except (CapacityError, SearchBudgetError) as exc:
            error = exc
        ms = round((time.perf_counter() - start) * 1000, 3)
        if schedule is not None and not is_feasible(instance, schedule):
            raise RuntimeError(f"{name} produced an infeasible schedule")
        count = None if schedule is None else schedule.machine_count
        reports.append(SolveReport(name, count, schedule, ms, error))
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
class BoundViolation:
    assertion: str
    instance_id: str
    detail: str


def _ff_below_double(ff: int, opt: int) -> bool:
    return opt < 1 or ff <= 2 * opt - 1


# A guarantee a record must satisfy whenever it applies, as (name, rule, order
# class, counts getter, test). It applies to a record whose classes include
# the order class (every record's include ARBITRARY, the empty set) and that
# holds every count the getter returns, so a record lacking one (an opt above
# the oracle cap or out of node budget) skips it. The test takes those counts.
_BOUND_ASSERTIONS = (
    ("unit-ff-optimal", "unit processing times: ff == opt",
     OrderClass.UNIT_PROCESSING, attrgetter("ff", "opt"), eq),
    ("slack-noninc-ff-equals-nf", "non-increasing slacks: ff == nf",
     OrderClass.SLACK_NONINCREASING, attrgetter("ff", "nf"), eq),
    ("slack-noninc-ff-below-double", "non-increasing slacks: ff <= 2*opt - 1",
     OrderClass.SLACK_NONINCREASING, attrgetter("ff", "opt"), _ff_below_double),
    ("slack-nondec-ff-below-double", "non-decreasing slacks: ff <= 2*opt - 1",
     OrderClass.SLACK_NONDECREASING, attrgetter("ff", "opt"), _ff_below_double),
    ("deadline-noninc-ff-below-double", "non-increasing deadlines: ff <= 2*opt - 1",
     OrderClass.DEADLINE_NONINCREASING, attrgetter("ff", "opt"), _ff_below_double),
    ("opt1-ff-exact", "opt == 1: ff == 1", OrderClass.ARBITRARY,
     attrgetter("ff", "opt"), lambda ff, opt: opt != 1 or ff == 1),
    ("opt2-ff-at-most-3", "opt == 2: ff <= 3", OrderClass.ARBITRARY,
     attrgetter("ff", "opt"), lambda ff, opt: opt != 2 or ff <= 3),
    ("opt3-ff-at-most-6", "opt == 3: ff <= 6", OrderClass.ARBITRARY,
     attrgetter("ff", "opt"), lambda ff, opt: opt != 3 or ff <= 6),
    ("cover-harmonic", "cover <= ceil((ln n + 1) * opt)", OrderClass.ARBITRARY,
     attrgetter("cover", "opt", "n"),
     lambda cover, opt, n: n < 1 or opt < 1 or cover <= math.ceil((math.log(n) + 1) * opt)),
)


def assert_bounds(record: BenchRecord) -> list[BoundViolation]:
    """Violations of every applicable proven bound; empty when all hold.

    Bounds whose counts the record lacks are skipped, so a record without
    opt is still checked against ff == nf under non-increasing slacks.
    """
    violations = []
    for name, rule, order, counts_of, holds in _BOUND_ASSERTIONS:
        if order in record.classes:
            counts = counts_of(record)
            if None not in counts and not holds(*counts):
                violations.append(
                    BoundViolation(
                        name,
                        record.instance_id,
                        f"{rule} failed: ff={record.ff} nf={record.nf} "
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
    oracle_cap: int = DEFAULT_ORACLE_CAP,
    node_budget: int | None = None,
) -> HuntResult:
    """Evaluate ``budget`` seeded instances and report the record with the
    largest ff/opt ratio.

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
    best: BenchRecord | None = None
    best_ratio = Fraction(0)
    evaluated = 0
    flagged = []
    for instance in drawn:
        record = evaluate(
            instance, instance.name, ("ff", "opt"), oracle_cap=oracle_cap, node_budget=node_budget
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
    """Render records as CSV or JSON, rows in input order.

    Of the CSV cells only the id is free text. It is quoted when it holds a
    comma, a quote, ``\\r`` or ``\\n``, with quotes doubled. On Python 3.11
    ``csv.writer`` leaves a lone ``\\r`` unquoted, and ``csv.reader`` then
    rejects the row.
    """
    if fmt == "csv":
        lines = [",".join(REPORT_COLUMNS)]
        for record in records:
            cells = ["" if v is None else str(v) for v in report_row(record)]
            name = cells[0]
            if "," in name or '"' in name or "\n" in name or "\r" in name:
                cells[0] = '"' + name.replace('"', '""') + '"'
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"
    if fmt == "json":
        rows = [dict(zip(REPORT_COLUMNS, report_row(r))) for r in records]
        return json.dumps(rows, indent=2) + "\n"
    raise InputError(f"unknown report format {fmt!r}")


# --- sweeps -----------------------------------------------------------------
#
# A sweep file is JSON:
#   {"algorithms": ["ff", "nf", "cover", "opt"],   # optional, default all
#    "sweeps": [
#      {"family": "nf-hard", "n": 5} or {"family": "nf-hard", "n_range": [3, 20]},
#      {"family": "tight-2", "k": 3} or {"family": "tight-2", "k_range": [1, 5]},
#      {"family": "arbitrary", "n": 10, "count": 50, "seed": 7,
#       "p_range": [1, 9], "slack_range": [0, 12]}]}
# and takes no other top-level key.
# Random entries expand to `count` instances seeded seed, seed+1, ...; an
# n_range or k_range runs lo..hi and may not be inverted. A task's id is its
# instance's name: nf-hard-n5, tight-2-k3, arbitrary-n10-s7.
# Entries may override "algorithms". "opt" is dropped automatically for
# instances larger than the oracle cap. A sweep may generate at most MAX_JOBS
# jobs in all. Every entry's fields, including the nf-hard and tight-2 limits
# on n and k, and the job count against the cap, are checked before any
# instance is generated.

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


def _seeded_specs(template: GenSpec, count: int) -> Iterator[GenSpec]:
    """``count`` copies of ``template`` seeded seed, seed+1, ... (mod 2**64), lazily."""
    return (replace(template, seed=(template.seed + i) % 2**64) for i in range(count))


_RANDOM_ENTRY_KEYS = {"family", "algorithms", "n", "count", "seed", "p_range", "slack_range"}


def _parse_entry(entry: dict) -> tuple[int, Iterator[GenSpec]]:
    """The jobs the entry would generate, from its fields alone, and its
    specs, built lazily; the entry's fields are checked first.

    An entry takes only the keys its family reads: nf-hard one of n and
    n_range, tight-2 one of k and k_range. Every instance counts at least
    one job, so a sweep of many empty instances is bounded too.
    """
    family = entry["family"]
    if family not in FAMILIES:
        raise InputError(f"unknown family {family!r}")
    key = {"nf-hard": "n", "tight-2": "k"}.get(family)
    allowed = _RANDOM_ENTRY_KEYS if key is None else {"family", "algorithms", key, f"{key}_range"}
    extra = set(entry) - allowed
    if extra:
        raise InputError(f"{family} entries take no {sorted(extra)}")
    if key is not None:
        if key in entry and f"{key}_range" in entry:
            raise InputError(f"{family} entries take one of {key} and {key}_range, not both")
        if f"{key}_range" in entry:
            lo, hi = _int_pair(entry[f"{key}_range"], f"{key}_range")
            if hi < lo:
                raise InputError(f"bad {key}_range {(lo, hi)}")
        else:
            lo = hi = _require_int(entry[key], key)
        # The family's limits on n and k are intervals, so the range's two end
        # specs check all of it.
        for end in (lo, hi):
            GenSpec(family, **{key: end})
        values = hi - lo + 1
        jobs = (lo + hi) * values // 2  # the sum of n, or of k
        if family == "tight-2":
            jobs = 3 * jobs + values  # 3k+1 each
        return jobs, (GenSpec(family, **{key: v}) for v in range(lo, hi + 1))
    count = _count(entry)
    given = {name: entry[name] for name in ("seed", "p_range", "slack_range") if name in entry}
    base = GenSpec(family, n=entry["n"], **given)
    return count * max(base.n, 1), _seeded_specs(base, count)


def expand_sweep(doc: dict, *, oracle_cap: int = DEFAULT_ORACLE_CAP) -> list[SweepTask]:
    """Turn a sweep document into (id, instance, algorithms) tasks, each id
    the instance's name; every entry's fields are checked before anything
    is generated."""
    if not isinstance(doc, dict) or not isinstance(doc.get("sweeps"), list):
        raise InputError('sweep file needs a "sweeps" array')
    extra = set(doc) - {"algorithms", "sweeps"}
    if extra:
        raise InputError(f"sweep files take no {sorted(extra)}")
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
        for spec in specs:
            instance = generate(spec)
            tasks.append((instance.name, instance, _within_cap(algos, instance.n, oracle_cap)))
    return tasks


def load_sweep(path: str | Path) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
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
    # Imported here: the pool pulls in multiprocessing, which serial runs never use.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, tasks))
