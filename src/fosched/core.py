"""Domain model for fixed-order machine scheduling.

A job is an integer (processing time, deadline) pair. An instance is a job
sequence whose position encodes a global priority order: every machine must
process its jobs in that order, back to back from time zero. A schedule maps
each job to a machine; it is feasible when every job's cumulative load on its
own machine stays within the job's deadline.

All arithmetic is exact integer arithmetic. Instances are validated so the
total processing time fits a signed 64-bit range, which keeps every load and
completion value representable in fixed-width integers as well.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from operator import gt
from pathlib import Path
from typing import Iterable, Sequence

MAX_TOTAL_WORK = 2**63 - 1


class InputError(ValueError):
    """Invalid job data, instance file, schedule shape, or generator parameters."""


class CoverageError(InputError):
    """Schedule does not cover exactly the instance's job set."""


def _require_int(value: object, what: str) -> int:
    # bool is an int subclass; reject it explicitly
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputError(f"{what} must be an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class Job:
    """One job: processing time ``p`` and deadline ``d`` (integer time units).

    Invariants: p >= 1 and d >= p, so a job alone on a fresh machine always
    meets its deadline.
    """

    p: int
    d: int

    def __post_init__(self) -> None:
        _require_int(self.p, "processing time")
        _require_int(self.d, "deadline")
        if self.p < 1:
            raise InputError(f"processing time must be >= 1, got {self.p}")
        if self.d < self.p:
            raise InputError(f"deadline {self.d} is below processing time {self.p}")


def _first_bad_job(p: Sequence[object], d: Sequence[object]) -> tuple[int, InputError] | None:
    """Position and error of the first ``Job(p[i], d[i])`` that would be
    rejected, or None when every pair is a valid job.

    One bulk pass settles the common case of plain ints; only when it fails
    does the per-job check run, so the error is the one ``Job`` raises.
    """
    plain_ints = {*map(type, p), *map(type, d)} <= {int}
    if plain_ints and (not p or min(p) >= 1) and not any(map(gt, p, d)):
        return None
    for idx, pair in enumerate(zip(p, d)):
        try:
            Job(*pair)
        except InputError as exc:
            return idx, exc
    return None


def _require_name(name: object) -> None:
    if name is not None and not isinstance(name, str):
        raise InputError("instance name must be a string")


@dataclass(frozen=True, init=False)
class Instance:
    """An ordered job sequence; position is the fixed priority order.

    Job j has processing time ``p[j]`` and deadline ``d[j]``. ``Instance(p,
    d)`` takes any two iterables, checks every job once and stores tuples of
    ints. ``jobs`` holds the same data as ``Job`` values, built on first
    access; no solver reads it. The empty instance is legal. ``name`` is
    identification metadata only and does not participate in equality.
    """

    p: tuple[int, ...]
    d: tuple[int, ...]
    name: str | None = field(default=None, compare=False)

    def __init__(self, p: Iterable[int], d: Iterable[int], name: str | None = None) -> None:
        p, d = tuple(p), tuple(d)
        if len(p) != len(d):
            raise InputError(f"{len(p)} processing times but {len(d)} deadlines")
        # Each job, then the name, then the work cap: the first error a per-job check meets.
        bad = _first_bad_job(p, d)
        if bad is not None:
            raise bad[1]
        _require_name(name)
        if sum(p) > MAX_TOTAL_WORK:
            raise InputError("total processing time exceeds the 64-bit work cap")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "name", name)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]], name: str | None = None) -> "Instance":
        p, d = [], []
        for pj, dj in pairs:
            p.append(pj)
            d.append(dj)
        return cls(p, d, name)

    @cached_property
    def jobs(self) -> tuple[Job, ...]:
        return tuple(map(Job, self.p, self.d))

    @property
    def n(self) -> int:
        return len(self.p)


@dataclass(frozen=True)
class Schedule:
    """Job-to-machine assignment: ``assignment[j]`` is the machine of job j.

    Machine labels are 1-based and contiguous (1..m with no gaps). Solvers
    emit labels in first-use order.
    """

    assignment: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "assignment", tuple(self.assignment))
        top = 0
        for label in self.assignment:
            _require_int(label, "machine label")
            if label < 1:
                raise InputError(f"machine labels are 1-based, got {label}")
            if label > top:
                top = label
        # every label is in 1..top, so they are contiguous iff top of them are distinct
        if len(set(self.assignment)) != top:
            raise InputError("machine labels must be contiguous 1..m")

    @classmethod
    def _trusted(cls, assignment: tuple[int, ...]) -> "Schedule":
        """A solver's own labeling, stored unchecked: solvers emit
        contiguous first-use labels by construction, and ``bench.run``
        re-checks every schedule's feasibility."""
        schedule = cls.__new__(cls)
        object.__setattr__(schedule, "assignment", assignment)
        return schedule

    @property
    def machine_count(self) -> int:
        return max(self.assignment, default=0)


def _check_coverage(instance: Instance, schedule: Schedule) -> None:
    if len(schedule.assignment) != instance.n:
        raise CoverageError(
            f"schedule covers {len(schedule.assignment)} jobs, instance has {instance.n}"
        )


def completion_profile(instance: Instance, schedule: Schedule) -> tuple[int, ...]:
    """Completion time of every job under the fixed per-machine order."""
    _check_coverage(instance, schedule)
    acc: dict[int, int] = {}
    out = []
    for pj, machine in zip(instance.p, schedule.assignment):
        finish = acc.get(machine, 0) + pj
        acc[machine] = finish
        out.append(finish)
    return tuple(out)


def is_feasible(instance: Instance, schedule: Schedule) -> bool:
    """True iff every job completes by its deadline.

    A schedule that does not cover exactly the instance's jobs raises
    CoverageError; that is an input defect, not infeasibility.
    """
    _check_coverage(instance, schedule)
    acc: dict[int, int] = {}
    for pj, dj, machine in zip(instance.p, instance.d, schedule.assignment):
        finish = acc.get(machine, 0) + pj
        if finish > dj:
            return False
        acc[machine] = finish
    return True


def loads(instance: Instance, schedule: Schedule) -> tuple[int, ...]:
    """Total processing time per machine; position i holds machine i+1."""
    totals = [0] * schedule.machine_count
    for machine, finish in zip(schedule.assignment, completion_profile(instance, schedule)):
        totals[machine - 1] = finish
    return tuple(totals)


# --- file format ------------------------------------------------------------
#
# Instance files are JSON: {"name": optional str, "jobs": [{"p": int, "d": int}, ...]}
# Serialization is canonical (fixed key order, two-space indent, trailing
# newline) so equal values produce identical bytes.


def instance_to_json(instance: Instance) -> str:
    doc: dict = {}
    if instance.name is not None:
        doc["name"] = instance.name
    doc["jobs"] = [{"p": pj, "d": dj} for pj, dj in zip(instance.p, instance.d)]
    return json.dumps(doc, indent=2) + "\n"


def instance_from_json(text: str) -> Instance:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"invalid instance file: {exc}") from None
    if not isinstance(doc, dict):
        raise InputError("instance file must hold a JSON object")
    unknown = set(doc) - {"name", "jobs"}
    if unknown:
        raise InputError(f"unknown instance keys: {sorted(unknown)}")
    if "jobs" not in doc or not isinstance(doc["jobs"], list):
        raise InputError('instance file needs a "jobs" array')
    p, d = [], []
    for idx, item in enumerate(doc["jobs"]):
        if not isinstance(item, dict) or set(item) != {"p", "d"}:
            # a bad value before this item is the first error
            bad = _first_bad_job(p, d) or (idx, "expected an object with exactly p and d")
            raise InputError(f"job {bad[0]}: {bad[1]}")
        p.append(item["p"])
        d.append(item["d"])
    bad = _first_bad_job(p, d)
    if bad is not None:
        raise InputError(f"job {bad[0]}: {bad[1]}")
    return Instance(p, d, name=doc.get("name"))


def load_instance(path: str | Path) -> Instance:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"invalid instance file: {exc}") from None
    return instance_from_json(text)


def save_instance(instance: Instance, path: str | Path) -> None:
    Path(path).write_text(instance_to_json(instance), encoding="utf-8")
