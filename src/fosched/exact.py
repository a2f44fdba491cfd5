"""Exact minimum-machine solver.

``optimal`` runs an iterative-deepening depth-first search: it tries machine
budgets upward from a provable lower bound until a feasible assignment
exists, so the first success is optimal. The root bound is the largest of a
threshold-volume bound, a conflict clique and the anchor bound
(``lower_bound``). A search node is the machines' sorted loads alone, pruned
by two per-instance tables: the fewest machines whose last jobs' deadlines
cover the remaining work (``anchor_counts``) and the conflict clique of the
jobs no open machine can take (``clique_rows``). A state that branches and
fails is memoized, its closed machines, which no remaining job fits on,
counted by their number alone. A state also fails when one of the last
``_WINDOW`` failures with the same job, machine count and live count has
loads at most its own in every position (Korf's bin-completion dominance).
Labels are read off the winning path once. Each level's memo is freed when
the level ends, also when the node budget runs out in it. n is capped at 20
by default (``limit``, up to MAX_ORACLE_CAP).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import deque
from heapq import heappush, heappushpop
from itertools import accumulate
from operator import le
from typing import Callable, Iterator, Sequence

from .core import InputError, Instance, Schedule
from .greedy import first_fit

DEFAULT_ORACLE_CAP = 20
# _search recurses once per job; this keeps it well below Python's default
# recursion limit of 1000 frames.
MAX_ORACLE_CAP = 500
# How many of its bucket's latest failures a search node compares its loads
# against. A bucket can hold thousands of failures, and scanning them all
# costs more than the nodes it saves; 8 was sized by measurement.
_WINDOW = 8


class CapacityError(InputError):
    """Instance is larger than the solver's size cap."""


class SearchBudgetError(RuntimeError):
    """Node budget ran out before the search could prove optimality.

    ``upper_bound`` carries the best machine count known to be achievable
    (None when no feasible schedule was computed before the failure).
    ``lower_bound`` carries the machine count being searched when the budget
    ran out: every smaller count was proven infeasible (None when the failure
    came from outside ``optimal``'s deepening).
    """

    def __init__(
        self, message: str, upper_bound: int | None = None, lower_bound: int | None = None
    ):
        super().__init__(message)
        self.upper_bound = upper_bound
        self.lower_bound = lower_bound


def clique_rows(p: Sequence[int], slack: Sequence[int], values: list[int]) -> Iterator[list[int]]:
    """Conflict cliques of every suffix, by the rank of their slacks.

    Jobs i < k conflict when p_i > slack_k: job k cannot start once job i has
    run, so each job of a pairwise-conflicting set needs its own machine.
    With ``values = sorted(set(slack))``, the row yielded after job j (for
    j = n-1 down to 0, one list of R+1 entries updated in place) holds in
    ``row[r]`` the most such jobs of j..n-1 whose slacks all rank below r,
    so it never decreases along r. Job i joins the sets below ``cut``, the
    rank of p_i: a set with none of its slacks above i's own rank takes
    slack_i as its largest, and one with its largest between the two keeps
    it and grows by one. So every entry from ``own + 1`` to ``cut`` grows
    by one, and the entries after both are raised to the new size of the
    best set job i joins.
    """
    row = [0] * (len(values) + 1)
    for i in range(len(p) - 1, -1, -1):
        own = bisect_left(values, slack[i])
        cut = bisect_left(values, p[i])
        if own < cut:
            row[own + 1 : cut + 1] = [size + 1 for size in row[own + 1 : cut + 1]]
            start, best = cut + 1, row[cut]
        else:
            start, best = own + 1, row[cut] + 1
        stop = bisect_left(row, best, start)
        row[start:stop] = [best] * (stop - start)
        yield row


def anchor_counts(p: Sequence[int], d: Sequence[int]) -> list[int]:
    """For every j, a lower bound on the machines that run jobs j..n-1.

    A machine runs its jobs back to back from 0, so its work fits before the
    deadline of its last job, its anchor. So the work of every suffix i..n-1
    fits under the deadlines of the anchors at or after i, and ``counts[j]``
    is the fewest anchors among jobs j..n-1 that meet every suffix i >= j
    (``counts[n]`` is 0). Walking back from the last job, each job adds its p
    to a deficit, and a positive deficit takes the largest deadline not yet
    taken, which serves every earlier suffix as well as any other. One take
    suffices: the deficit was at most 0 before job j, and d_j >= p_j.
    """
    counts = [0] * (len(p) + 1)
    deadlines: list[int] = []  # negated, a max-heap of the deadlines not taken
    deficit = taken = 0
    for j in range(len(p) - 1, -1, -1):
        deficit += p[j]
        if deficit > 0:
            deficit += heappushpop(deadlines, -d[j])
            taken += 1
        else:
            heappush(deadlines, -d[j])
        counts[j] = taken
    return counts


def lower_bound(instance: Instance) -> int:
    """A machine count no feasible schedule can beat.

    The largest of three bounds. Threshold volume: the jobs with deadline at
    most t all run within [0, t] on their machines, so m >= W_t / t for
    every deadline t, with W_t their total work. Conflict clique: jobs that
    pairwise cannot share a machine need one each (``clique_rows``' last row).
    Anchors: every machine's work fits before its last job's deadline, so
    the last jobs' deadlines cover every suffix's work (``anchor_counts``
    at job 0).
    """
    if instance.n == 0:
        return 0
    p, d = instance.p, instance.d
    volume = work = 0
    for deadline, length in sorted(zip(d, p)):
        work += length
        volume = max(volume, -(-work // deadline))
    slack = [dj - pj for pj, dj in zip(p, d)]
    *_, row = clique_rows(p, slack, sorted(set(slack)))
    return max(volume, row[-1], anchor_counts(p, d)[0])


def _search(
    p: Sequence[int], d: Sequence[int]
) -> Callable[[int, float], tuple[list[int] | None, float]]:
    """The exact search over the jobs (p[j], d[j]), called once per machine limit.

    Everything no limit changes is built here, once per instance, and shared
    by the deepening levels: the slacks, ``anchor_counts``, the clique table
    and ``dead``, where ``dead[j]`` is one more than the largest slack of
    jobs j..n-1. A machine loaded to ``dead[j]`` or more is closed: no
    remaining job fits on it.
    ``cliques[j][r]``, a copy of ``clique_rows``' row j, is the largest
    clique of jobs j..n-1 whose slacks rank below r.

    ``level(machine_limit, nodes)`` returns an assignment using at most
    machine_limit machines, or None, and the nodes left of ``nodes``: each
    search node spends one, and SearchBudgetError is raised when none is
    left to spend. Machines with equal loads are interchangeable, so a node
    holds only the ascending loads, kept sorted so no node sorts. Children
    are one machine of each distinct load that fits, in ascending load
    order, then a fresh machine. Only the winning path records the load it
    chose per job; the labels are read off those.

    A node first runs two sound prunes, from the loads and the live count
    (the open machines below ``dead[j]``) alone:
    - anchor: every machine that takes one of jobs j..n-1 ends with one of
      them, and a closed machine takes none, so the live machines and the
      unopened ones must number at least ``anchors[j]``;
    - conflict clique: loads only grow, so a remaining job whose slack is
      below the least live load (every remaining job, when none is live)
      must go on a machine not yet open, and a clique of such jobs needs one
      machine each: ``cliques[j]`` at the least live load's rank.
    A pruned state is not memoized: it costs no more to prune again.

    A state that branched and failed is memoized by (next job, machines
    opened, live loads): a closed machine's future does not depend on its
    load, so its load leaves the key. Its live loads also join its bucket,
    (next job, machines opened, live count), which fixes the spare and the
    closed machines and keeps only its last ``_WINDOW`` failures. A state
    fails, into the memo, when its key is memoized or when a failure in its
    bucket is at most its live loads in every position (a lexicographic
    comparison filters first): lower loads admit every job that higher ones
    do, so any plan from the state would work from the failure. A pruned
    state needs no bucket, since a state it dominates fails the same two
    tests (the same spare and live count, a least live load no lower). The
    window bounds the comparisons per node, so a node budget still bounds
    the CPU.

    The memo, the window and both prunes only cut subtrees without a
    feasible leaf, so the first feasible leaf, and the assignment returned,
    is the one the plain search finds.
    """
    n = len(p)
    slack = [dj - pj for pj, dj in zip(p, d)]
    slack_values = sorted(set(slack))
    anchors = anchor_counts(p, d)
    cliques = [row[:] for row in clique_rows(p, slack, slack_values)][::-1]
    dead = [top + 1 for top in accumulate(reversed(slack), max)][::-1]

    def level(machine_limit: int, nodes: float) -> tuple[list[int] | None, float]:
        failed: set[tuple[int, int, tuple[int, ...]]] = set()
        # per bucket, the live loads of its last _WINDOW branching failures
        failures: dict[tuple[int, int, int], deque[tuple[int, ...]]] = {}
        loads: list[int] = []  # ascending
        chosen: list[int] = []  # the load each job went on, 0 when fresh; last job first

        def dfs(j: int) -> bool:
            nonlocal nodes
            nodes -= 1
            if nodes < 0:
                raise SearchBudgetError("search node budget exhausted")
            if j == n:
                return True
            opened = len(loads)
            spare = machine_limit - opened
            live_count = bisect_left(loads, dead[j])
            # the anchor prune, then the clique of the jobs below the least
            # live load (every remaining job when none is live)
            if anchors[j] > spare + live_count or cliques[j][
                bisect_left(slack_values, loads[0]) if live_count else len(slack_values)
            ] > spare:
                return False
            live = tuple(loads[:live_count])
            key = (j, opened, live)
            if key in failed:
                return False
            bucket = (j, opened, live_count)
            recent = failures.get(bucket)
            if recent is not None:
                for low in recent:
                    if low <= live and all(map(le, low, live)):
                        failed.add(key)
                        return False
            pj = p[j]
            last_load = -1
            for i in range(bisect_right(loads, slack[j])):
                load = loads[i]
                if load == last_load:
                    continue
                last_load = load
                del loads[i]
                grown = load + pj
                k = bisect_left(loads, grown, i)
                loads.insert(k, grown)
                if dfs(j + 1):
                    chosen.append(load)
                    return True
                del loads[k]
                loads.insert(i, load)
            if spare:
                k = bisect_left(loads, pj)
                loads.insert(k, pj)
                if dfs(j + 1):
                    chosen.append(0)
                    return True
                del loads[k]
            failed.add(key)
            if recent is None:
                failures[bucket] = recent = deque(maxlen=_WINDOW)
            recent.append(live)
            return False

        try:
            solved = dfs(0)
        finally:
            # dfs holds itself through this cell; emptying it frees the memo
            # as the level ends, by reference counting, also on a budget error
            del dfs
        if not solved:
            return None, nodes
        # The lowest label holding the chosen load is the machine the search
        # meant. Only unopened machines hold 0 (p >= 1), so they open in order.
        by_label = [0] * machine_limit
        assignment = []
        for pj, load in zip(p, reversed(chosen)):
            label = by_label.index(load)
            by_label[label] += pj
            assignment.append(label + 1)
        return assignment, nodes

    return level


def optimal(
    instance: Instance, limit: int = DEFAULT_ORACLE_CAP, *, node_budget: int | None = None
) -> Schedule:
    """A schedule with the minimum number of machines.

    Deterministic given the instance. ``limit`` overrides the default size
    cap, up to MAX_ORACLE_CAP; ``node_budget`` bounds total search nodes
    across all deepening levels and raises SearchBudgetError when exhausted,
    carrying the first-fit machine count as the best known upper bound and
    the level being searched as a lower bound.
    A negative budget or a limit above MAX_ORACLE_CAP is an InputError.
    """
    if node_budget is not None and node_budget < 0:
        raise InputError(f"node budget must be >= 0, got {node_budget}")
    if limit > MAX_ORACLE_CAP:
        raise InputError(f"exact solver cap must be <= {MAX_ORACLE_CAP}, got {limit}")
    if instance.n > limit:
        raise CapacityError(f"instance has {instance.n} jobs, exact solver cap is {limit}")
    seed = first_fit(instance)
    floor = lower_bound(instance)
    if seed.machine_count <= floor:
        return seed
    nodes = math.inf if node_budget is None else node_budget
    search = _search(instance.p, instance.d)
    for m in range(floor, seed.machine_count):
        try:
            found, nodes = search(m, nodes)
        except SearchBudgetError as exc:
            raise SearchBudgetError(
                str(exc), upper_bound=seed.machine_count, lower_bound=m
            ) from None
        if found is not None:
            return Schedule._trusted(tuple(found))
    return seed
