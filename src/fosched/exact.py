"""Exact minimum-machine solver.

``optimal`` runs an iterative-deepening depth-first search: it tries machine
budgets upward from a provable lower bound until a feasible assignment
exists, so the first success is optimal. It is deliberately capped at
n <= 20 by default (override via the ``limit`` argument).
"""

from __future__ import annotations

from .core import InputError, Instance, Schedule
from .greedy import first_fit

DEFAULT_ORACLE_CAP = 20


class CapacityError(InputError):
    """Instance is larger than the solver's size cap."""


class SearchBudgetError(RuntimeError):
    """Node budget ran out before the search could prove optimality.

    ``upper_bound`` carries the best machine count known to be achievable
    (None when no feasible schedule was computed before the failure).
    """

    def __init__(self, message: str, upper_bound: int | None = None):
        super().__init__(message)
        self.upper_bound = upper_bound


class _Budget:
    """Shared node counter; None means unlimited."""

    __slots__ = ("remaining",)

    def __init__(self, nodes: int | None):
        self.remaining = nodes

    def spend(self) -> None:
        if self.remaining is None:
            return
        self.remaining -= 1
        if self.remaining < 0:
            raise SearchBudgetError("search node budget exhausted")


def lower_bound(instance: Instance) -> int:
    """A machine count no feasible schedule can beat.

    Combines a volume bound (total work over the largest deadline, since a
    machine's load never exceeds its last job's deadline) with a count of
    jobs that must sit first on their machine because even the smallest
    earlier job would push them past their deadline.
    """
    if instance.n == 0:
        return 0
    total = instance.total_work
    dmax = max(job.d for job in instance.jobs)
    volume = -(-total // dmax)
    forced_first = 0
    min_p: int | None = None
    for job in instance.jobs:
        if min_p is None or job.slack < min_p:
            forced_first += 1
        min_p = job.p if min_p is None else min(min_p, job.p)
    return max(1, volume, forced_first)


def _search(
    p: list[int], d: list[int], machine_limit: int, budget: _Budget
) -> list[int] | None:
    """Assignment using at most machine_limit machines, or None.

    Jobs are placed in order, so machines are labeled in first-use order by
    construction. States that failed once are memoized by (next job, sorted
    load multiset); machines with equal loads are interchangeable and only
    the first is branched on. Children are explored in ascending load order
    with the fresh-machine branch last.
    """
    n = len(p)
    failed: set[tuple[int, tuple[int, ...]]] = set()
    loads: list[int] = []
    assignment: list[int] = []

    def dfs(j: int) -> bool:
        budget.spend()
        if j == n:
            return True
        key = (j, tuple(sorted(loads)))
        if key in failed:
            return False
        pj, dj = p[j], d[j]
        last_load = -1
        for load, i in sorted((load, i) for i, load in enumerate(loads)):
            if load == last_load:
                continue
            last_load = load
            if load + pj <= dj:
                loads[i] = load + pj
                assignment.append(i + 1)
                if dfs(j + 1):
                    return True
                loads[i] = load
                assignment.pop()
        if len(loads) < machine_limit:
            loads.append(pj)
            assignment.append(len(loads))
            if dfs(j + 1):
                return True
            loads.pop()
            assignment.pop()
        failed.add(key)
        return False

    return assignment if dfs(0) else None


def optimal(
    instance: Instance, limit: int | None = None, *, node_budget: int | None = None
) -> Schedule:
    """A schedule with the minimum number of machines.

    Deterministic given the instance. ``limit`` overrides the default size
    cap; ``node_budget`` bounds total search nodes across all deepening
    levels and raises SearchBudgetError (carrying the first-fit machine
    count as the best known upper bound) when exhausted; a negative budget
    is an InputError.
    """
    if node_budget is not None and node_budget < 0:
        raise InputError(f"node budget must be >= 0, got {node_budget}")
    cap = DEFAULT_ORACLE_CAP if limit is None else limit
    if instance.n > cap:
        raise CapacityError(f"instance has {instance.n} jobs, exact solver cap is {cap}")
    if instance.n == 0:
        return Schedule(())
    seed = first_fit(instance)
    floor = lower_bound(instance)
    if seed.machine_count <= floor:
        return seed
    p = [job.p for job in instance.jobs]
    d = [job.d for job in instance.jobs]
    budget = _Budget(node_budget)
    try:
        for m in range(floor, seed.machine_count):
            found = _search(p, d, m, budget)
            if found is not None:
                return Schedule(tuple(found))
    except SearchBudgetError as exc:
        raise SearchBudgetError(str(exc), upper_bound=seed.machine_count) from None
    return seed
