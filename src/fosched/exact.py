"""Exact minimum-machine solver.

``optimal`` runs an iterative-deepening depth-first search: it tries machine
budgets upward from a provable lower bound until a feasible assignment
exists, so the first success is optimal. The root bound is the larger of a
threshold-volume bound and a conflict clique (``lower_bound``). Every search
node is pruned by a cardinality bound from a backward Lawler–Moore table
(``cover.latest_starts``) and by the conflict clique of the jobs no open
machine can take. The solver is capped at n <= 20 by default (override via
the ``limit`` argument, up to MAX_ORACLE_CAP).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Sequence

from .core import InputError, Instance, Schedule
from .cover import latest_starts
from .greedy import first_fit

DEFAULT_ORACLE_CAP = 20
# _search recurses once per job; this keeps it well below Python's default
# recursion limit of 1000 frames.
MAX_ORACLE_CAP = 500


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


def suffix_cliques(p: Sequence[int], slack: Sequence[int], below: float = math.inf) -> list[int]:
    """For every j, the most jobs k >= j with slack_k < below that pairwise conflict.

    Jobs i < k conflict when p_i > slack_k: job k cannot start once job i has
    run, so no two jobs of such a set share a machine and each needs its own.
    Walking back from the last job, job i joins a set of later jobs when its
    p exceeds the largest slack in the set, so ``sizes`` maps that largest
    slack to the most jobs reaching it. Entry n is 0.
    """
    n = len(p)
    cliques = [0] * (n + 1)
    sizes: dict[int, int] = {}
    best = 0
    for i in range(n - 1, -1, -1):
        si = slack[i]
        if si < below:
            pi = p[i]
            grown = {si: 1}
            for top, size in sizes.items():
                if pi > top:
                    key = top if top > si else si
                    if grown.get(key, 0) <= size:
                        grown[key] = size + 1
            for key, size in grown.items():
                if sizes.get(key, 0) < size:
                    sizes[key] = size
                    best = max(best, size)
        cliques[i] = best
    return cliques


def lower_bound(instance: Instance) -> int:
    """A machine count no feasible schedule can beat.

    The larger of two bounds. Threshold volume: the jobs with deadline at
    most t all run within [0, t] on their machines, so m >= W_t / t for
    every deadline t, with W_t their total work. Conflict clique: jobs that
    pairwise cannot share a machine (``suffix_cliques``) need one each.
    """
    if instance.n == 0:
        return 0
    p = [job.p for job in instance.jobs]
    d = [job.d for job in instance.jobs]
    volume = work = 0
    for deadline, length in sorted(zip(d, p)):
        work += length
        volume = max(volume, -(-work // deadline))
    return max(volume, suffix_cliques(p, [dj - pj for pj, dj in zip(p, d)])[0])


def _search(
    p: list[int], d: list[int], machine_limit: int, budget: _Budget
) -> list[int] | None:
    """Assignment using at most machine_limit machines, or None.

    Jobs are placed in order, so machines are labeled in first-use order by
    construction. States that failed once are memoized by (next job, sorted
    load multiset); machines with equal loads are interchangeable and only
    the first is branched on. Children are explored in ascending load order
    with the fresh-machine branch last.

    Two sound prunes fail a state, into the memo, before it branches:
    - cardinality: a machine loaded to L takes at most kmax(j, L) of the
      remaining jobs j..n-1 (``cover.latest_starts``), so the open machines
      plus the unopened ones, kmax(j, 0) each, must cover n - j jobs;
    - conflict clique: loads only grow, so a remaining job whose slack is
      below the least open load must go on a machine not yet open, and a
      clique of such jobs needs one machine each.
    Both only cut subtrees without a feasible leaf, so the first feasible
    leaf, and the assignment returned, is the one the plain search finds.
    """
    n = len(p)
    slack = [dj - pj for pj, dj in zip(p, d)]
    slack_values = sorted(set(slack))
    starts = latest_starts(p, d)
    cliques: dict[int, list[int]] = {}
    failed: set[tuple[int, tuple[int, ...]]] = set()
    loads: list[int] = []
    assignment: list[int] = []

    def doomed(j: int, sorted_loads: tuple[int, ...]) -> bool:
        spare = machine_limit - len(sorted_loads)
        if spare >= n - j:
            return False  # one fresh machine per remaining job
        row = starts[j]
        room = spare * len(row)
        for load in sorted_loads:
            room += bisect_right(row, -load)
        if room < n - j:
            return True
        least = sorted_loads[0] if sorted_loads else math.inf
        # the cliques depend on the least load only through which slacks lie below it
        rank = bisect_left(slack_values, least)
        below = cliques.get(rank)
        if below is None:
            below = cliques[rank] = suffix_cliques(p, slack, least)
        return below[j] > spare

    def dfs(j: int) -> bool:
        budget.spend()
        if j == n:
            return True
        key = (j, tuple(sorted(loads)))
        if key in failed:
            return False
        if doomed(*key):
            failed.add(key)
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
    instance: Instance, limit: int = DEFAULT_ORACLE_CAP, *, node_budget: int | None = None
) -> Schedule:
    """A schedule with the minimum number of machines.

    Deterministic given the instance. ``limit`` overrides the default size
    cap, up to MAX_ORACLE_CAP; ``node_budget`` bounds total search nodes
    across all deepening levels and raises SearchBudgetError (carrying the
    first-fit machine count as the best known upper bound) when exhausted.
    A negative budget or a limit above MAX_ORACLE_CAP is an InputError.
    """
    if node_budget is not None and node_budget < 0:
        raise InputError(f"node budget must be >= 0, got {node_budget}")
    if limit > MAX_ORACLE_CAP:
        raise InputError(f"exact solver cap must be <= {MAX_ORACLE_CAP}, got {limit}")
    if instance.n > limit:
        raise CapacityError(f"instance has {instance.n} jobs, exact solver cap is {limit}")
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
