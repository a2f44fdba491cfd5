"""Shared test fixtures: frozen instances, strategies, and slow oracles."""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from itertools import combinations

import hypothesis.strategies as st

from fosched import (
    RANDOM_FAMILIES,
    CapacityError,
    GenSpec,
    InputError,
    Instance,
    PlacementTrace,
    Schedule,
    first_fit,
    is_feasible,
)

# Alternating-growth family at n=5: [(1,1),(2,2),(3,4),(5,7),(8,12)].
NF_HARD_5 = Instance.from_pairs([(1, 1), (2, 2), (3, 4), (5, 7), (8, 12)])
# Its two-machine schedule: odd positions on machine 1, even on machine 2.
NF_HARD_5_OPT = Schedule((1, 2, 1, 2, 1))
# Alone, needs 93,699 search nodes to prove 8 machines too few: opt = ff = 9.
DEEP_TAIL = GenSpec("slack-noninc", n=20, seed=59, p_range=(1, 20), slack_range=(0, 40))


@st.composite
def pairs_st(draw, max_p: int = 8, max_slack: int = 10):
    p = draw(st.integers(1, max_p))
    return p, p + draw(st.integers(0, max_slack))


@st.composite
def instances_st(draw, max_n: int = 10, max_p: int = 8, max_slack: int = 10):
    pairs = draw(st.lists(pairs_st(max_p=max_p, max_slack=max_slack), max_size=max_n))
    return Instance.from_pairs(pairs)


@st.composite
def assigned_st(draw, max_n: int = 8, max_p: int = 8, max_slack: int = 10):
    """An instance plus an arbitrary (not necessarily feasible) schedule."""
    instance = draw(instances_st(max_n=max_n, max_p=max_p, max_slack=max_slack))
    labels = []
    top = 0
    for _ in range(instance.n):
        label = draw(st.integers(1, top + 1))
        top = max(top, label)
        labels.append(label)
    return instance, Schedule(tuple(labels))


def first_fit_linear_traced(instance: Instance) -> tuple[Schedule, tuple[PlacementTrace, ...]]:
    """First fit by testing every open machine in label order, O(n·m).

    The oracle for the tree descent in ``greedy.first_fit_traced`` and for
    ``greedy.placement_trace(instance, schedule, "ff")``: each ``tried`` is
    the number of fit tests this scan actually runs.
    """
    loads: list[int] = []
    assignment: list[int] = []
    trace: list[PlacementTrace] = []
    for job in instance.jobs:
        tried = 0
        chosen = 0
        for i, load in enumerate(loads):
            tried += 1
            if load + job.p <= job.d:
                chosen = i + 1
                loads[i] = load + job.p
                break
        if not chosen:
            loads.append(job.p)  # fresh machine always admits: d >= p
            chosen = len(loads)
        assignment.append(chosen)
        trace.append(PlacementTrace(tried, chosen, loads[chosen - 1]))
    return Schedule(tuple(assignment)), tuple(trace)


def next_fit_traced(instance: Instance) -> tuple[Schedule, tuple[PlacementTrace, ...]]:
    """Next fit with its trace built as it places jobs.

    The oracle for ``greedy.placement_trace(instance, schedule, "nf")``.
    """
    loads: list[int] = []
    assignment: list[int] = []
    trace: list[PlacementTrace] = []
    for job in instance.jobs:
        tried = 0
        if loads:
            tried = 1
        if loads and loads[-1] + job.p <= job.d:
            loads[-1] += job.p
        else:
            loads.append(job.p)
        assignment.append(len(loads))
        trace.append(PlacementTrace(tried, len(loads), loads[-1]))
    return Schedule(tuple(assignment)), tuple(trace)


def max_subset_exhaustive(p, d) -> int:
    """Largest subset size one machine runs, by trying every subset.

    Independent of the dynamic program: plain include/exclude recursion over
    the jobs ``(p[i], d[i])``, carrying the running completion time. Skipping
    a job never hurts later feasibility, so pruning infeasible inclusions is
    exhaustive.
    """

    def walk(idx: int, completion: int) -> int:
        if idx == len(p):
            return 0
        best = walk(idx + 1, completion)
        if completion + p[idx] <= d[idx]:
            best = max(best, 1 + walk(idx + 1, completion + p[idx]))
        return best

    return walk(0, 0)


def build_table_unskipped(p, d) -> tuple[list[int], list[int]]:
    """``cover.build_table`` without its skip: every job runs the downward loop.

    The oracle for the skip rule and the ``widest`` steps it reads. Bit k
    of ``marks[i]`` is set when job i strictly lowered ``best[k]``, so
    ``best`` must be equal and ``build_table``'s ``ends[k]`` must list the
    jobs whose mark has bit k.
    """
    best = [0]
    marks = []
    for pj, dj in zip(p, d):
        mark = 0
        for k in range(bisect_right(best, dj - pj), 0, -1):
            ending_here = best[k - 1] + pj
            if k == len(best):
                best.append(ending_here)
            elif ending_here < best[k]:
                best[k] = ending_here
            else:
                continue
            mark |= 1 << k
        marks.append(mark)
    return best, marks


def setcover_rebuilding(instance: Instance) -> Schedule:
    """``cover.setcover_greedy`` on the unskipped table, rebuilding its lists each round.

    Each round walks the marks of ``build_table_unskipped`` back from the
    last remaining job, labels the picks, and filters them out of a fresh
    list of the remaining jobs; then machines are relabeled to first-use
    order. The oracle for the in-place removal and the skipping table.
    """
    p, d = instance.p, instance.d
    remaining = list(range(instance.n))
    labels = [0] * instance.n
    machine = 0
    while remaining:
        machine += 1
        best, marks = build_table_unskipped([p[t] for t in remaining], [d[t] for t in remaining])
        k = len(best) - 1
        chosen = set()
        for i in range(len(remaining) - 1, -1, -1):
            if marks[i] >> k & 1:
                chosen.add(remaining[i])
                k -= 1
        for t in chosen:
            labels[t] = machine
        remaining = [t for t in remaining if t not in chosen]
    first_use: dict[int, int] = {}
    return Schedule(tuple(first_use.setdefault(label, len(first_use) + 1) for label in labels))


def subset_dp_rows(p, d) -> list[list[float]]:
    """The full minimum-completion matrix over prefixes; inf marks infeasible.

    ``rows[i][k]`` is the least completion time of a feasible k-subset of
    the jobs ``(p[j], d[j])``, j < i, run back to back on one machine. Row 0
    is the empty prefix and every row has n+1 cells. The oracle for
    ``cover.build_table``.
    """
    n = len(p)
    rows = [[0] + [math.inf] * n]
    for pj, dj in zip(p, d):
        prev = rows[-1]
        row = prev.copy()
        for k in range(1, len(rows) + 1):
            ending_here = prev[k - 1] + pj
            if ending_here <= dj and ending_here < row[k]:
                row[k] = ending_here
        rows.append(row)
    return rows


def max_feasible_subset_table(p, d) -> tuple[int, list[int]]:
    """``cover.max_feasible_subset`` by walking the full matrix.

    Takes the largest finite size in the last row, then walks up: where a
    cell equals the one above, the job is left out, so ties keep the
    latest-index choice among minimum-completion subsets.
    """
    rows = subset_dp_rows(p, d)
    i = len(p)
    k = max(size for size, value in enumerate(rows[i]) if value != math.inf)
    size = k
    picks: list[int] = []
    while k > 0:
        if rows[i][k] != rows[i - 1][k]:
            picks.append(i - 1)
            k -= 1
        i -= 1
    picks.reverse()
    return size, picks


BRUTEFORCE_CAP = 12


def optimal_count_bruteforce(instance: Instance) -> int:
    """Minimum machine count by exhaustive enumeration; cross-check oracle.

    Shares no code with ``exact.optimal``. Walks every restricted-growth
    assignment (machine labels in first-use order, so relabelings are never
    visited twice), abandoning a prefix as soon as a placement misses its
    deadline or already uses as many machines as the best complete
    assignment found. Capped at n <= BRUTEFORCE_CAP.
    """
    n = instance.n
    if n > BRUTEFORCE_CAP:
        raise CapacityError(
            f"instance has {n} jobs, brute-force cap is {BRUTEFORCE_CAP}"
        )
    if n == 0:
        return 0
    p = [job.p for job in instance.jobs]
    d = [job.d for job in instance.jobs]
    best = n  # one machine per job is always feasible
    best_assignment = list(range(1, n + 1))
    loads: list[int] = []
    prefix: list[int] = []

    def walk(j: int) -> None:
        nonlocal best, best_assignment
        if len(loads) >= best:
            return
        if j == n:
            best = len(loads)
            best_assignment = prefix.copy()
            return
        pj, dj = p[j], d[j]
        for i in range(len(loads)):
            if loads[i] + pj <= dj:
                loads[i] += pj
                prefix.append(i + 1)
                walk(j + 1)
                loads[i] -= pj
                prefix.pop()
        loads.append(pj)
        prefix.append(len(loads))
        walk(j + 1)
        loads.pop()
        prefix.pop()

    walk(0)
    if not is_feasible(instance, Schedule(tuple(best_assignment))):
        raise RuntimeError("enumeration produced an infeasible witness")
    return best


def search_unpruned(p: list[int], d: list[int], machine_limit: int) -> list[int] | None:
    """One level of ``exact._search`` without its prunes or its closed-machine clamp.

    The memo key is (next job, every load, sorted), closed machines
    included, and there is no anchor or clique prune. The branching is
    the same: the lowest-labeled machine of each distinct load in ascending
    load order, fresh machine last, so it reaches the same first feasible
    leaf by a longer walk.
    """
    n = len(p)
    failed: set[tuple[int, tuple[int, ...]]] = set()
    loads: list[int] = []
    assignment: list[int] = []

    def dfs(j: int) -> bool:
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


def anchors_exhaustive(p, d, start: int = 0) -> int:
    """The fewest anchors among jobs start..n-1 that cover every suffix's work.

    The oracle for ``exact.anchor_counts``: tries every set A of positions
    at or after ``start``, smallest first, and returns the size of the first
    one with ``sum(p[i:]) <= sum(d[k] for k in A if k >= i)`` for every
    i >= start. The full set always qualifies, because d >= p.
    """
    n = len(p)
    for size in range(n - start + 1):
        for chosen in combinations(range(start, n), size):
            if all(
                sum(p[i:]) <= sum(d[k] for k in chosen if k >= i) for i in range(start, n)
            ):
                return size
    raise AssertionError("every job as an anchor covers every suffix")


def volume_clique_bound(instance: Instance) -> int:
    """``exact.lower_bound`` before it took the anchor bound.

    The larger of the threshold volume, max over deadlines t of the work due
    by t over t, and the largest conflict clique, here from the
    ``suffix_cliques`` oracle rather than ``exact.clique_rows``.
    """
    volume = work = 0
    for deadline, length in sorted(zip(instance.d, instance.p)):
        work += length
        volume = max(volume, -(-work // deadline))
    slack = [dj - pj for pj, dj in zip(instance.p, instance.d)]
    return max(volume, suffix_cliques(instance.p, slack)[0])


def suffix_cliques(p, slack, below: float = math.inf) -> list[int]:
    """For every j, the most jobs k >= j with slack_k < below that pairwise conflict.

    The oracle for ``exact.clique_rows`` at sizes enumeration cannot reach:
    one pass per threshold, keyed by value rather than by rank. Walking back
    from the last job, job i joins a set of later jobs when its p exceeds
    the largest slack in the set, so ``sizes`` maps that largest slack to
    the most jobs reaching it. Entry n is 0.
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


def optimal_unpruned(instance: Instance) -> Schedule:
    """``exact.optimal`` by plain iterative deepening; the assignment oracle.

    Deepens upward from the weaker volume and forced-first bound, with no
    node budget and no size cap, and keeps first fit's schedule when no
    smaller level is feasible, exactly as ``optimal`` does. A sound prune in
    ``optimal`` changes neither the first feasible level nor its first leaf,
    so both return the same assignment.
    """
    if instance.n == 0:
        return Schedule(())
    p = [job.p for job in instance.jobs]
    d = [job.d for job in instance.jobs]
    # work over the largest deadline; jobs whose slack is below every
    # earlier job's p must each open a machine
    floor = -(-sum(p) // max(d))
    forced_first = 0
    min_p: int | None = None
    for pj, dj in zip(p, d):
        if min_p is None or dj - pj < min_p:
            forced_first += 1
        min_p = pj if min_p is None else min(min_p, pj)
    seed = first_fit(instance)
    for m in range(max(1, floor, forced_first), seed.machine_count):
        found = search_unpruned(p, d, m)
        if found is not None:
            return Schedule(tuple(found))
    return seed


def gen_random_randint(spec: GenSpec) -> Instance:
    """A random family instance drawn with ``random.Random.randint``.

    The oracle for ``instances.gen_random``, which inlines the same
    rejection sampling on ``getrandbits``: one randint per p (none in the
    unit family) and per slack, job by job, then a stable sort of the
    (p, slack) pairs into the family's order.
    """
    if spec.family not in RANDOM_FAMILIES:
        raise InputError(f"{spec.family!r} is not a random family")
    rng = random.Random(spec.seed)
    pairs = []
    for _ in range(spec.n):
        p = 1 if spec.family == "unit" else rng.randint(*spec.p_range)
        pairs.append((p, rng.randint(*spec.slack_range)))
    if spec.family == "slack-noninc":
        pairs.sort(key=lambda t: t[1], reverse=True)
    elif spec.family == "slack-nondec":
        pairs.sort(key=lambda t: t[1])
    elif spec.family == "deadline-noninc":
        pairs.sort(key=lambda t: t[0] + t[1], reverse=True)
    name = f"{spec.family}-n{spec.n}-s{spec.seed}"
    return Instance.from_pairs(((p, p + slack) for p, slack in pairs), name=name)
