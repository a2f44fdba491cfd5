"""Set-cover style solver.

Each round schedules the largest deadline-feasible subsequence of the still
unscheduled jobs on a fresh machine. That subsequence comes from the
Lawler–Moore dynamic program for a fixed sequence: ``best[k]`` is the least
completion time of a feasible k-subset of the jobs seen so far, and each job
improves it in place. ``best`` is strictly increasing, so it only holds the
feasible sizes, and bitmasks of the improved sizes replay the choices. A
job lowers ``best[k]`` only where the step ``best[k] - best[k-1]`` exceeds
its processing time, so the running maximum of those steps lets the table
skip, exactly and in O(1), the many jobs that change nothing. Each round
removes its picks from the remaining jobs in place.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Sequence

from .core import Instance, Schedule


def build_table(p: Sequence[int], d: Sequence[int]) -> tuple[list[int], list[int]]:
    """Least completion times by subset size, and what each job improved.

    Returns ``(best, marks)``. ``best[k]`` is the least completion time of a
    feasible k-subset of the jobs ``(p[i], d[i])``, run back to back on one
    machine, so ``len(best) - 1`` is the largest feasible size. Bit k of
    ``marks[i]`` is set when job i strictly lowered ``best[k]``, i.e. the
    best k-subset of jobs 0..i ends with job i. A job ends a k-subset only
    when ``best[k-1] + p <= d``, which bisect finds as ``k <= hi``; k runs
    downward so each update still reads the previous job's ``best[k-1]``.

    Most jobs change nothing, and those cost one bisect and one lookup. For
    ``k <= hi`` and ``k < len(best)``, the job lowers ``best[k]`` exactly
    when the step ``best[k] - best[k-1]`` exceeds p. ``widest[k]`` is the
    largest step up to k, so it never falls as k grows. A job with
    ``hi < len(best)`` (nothing to append) and ``widest[hi] <= p`` therefore
    gets mark 0. Any other job changes ``best[low]``, with ``low`` the first
    size whose ``widest`` exceeds p, and nothing below it; so the update
    runs from hi down to low, and ``widest`` is rebuilt from low up.
    """
    best = [0]
    widest = [0]
    marks = []
    for pj, dj in zip(p, d):
        hi = bisect_right(best, dj - pj)
        if hi < len(best):
            if widest[hi] <= pj:
                marks.append(0)
                continue
            mark = 0
        else:
            best.append(best[-1] + pj)
            mark = 1 << hi
            hi -= 1
        low = bisect_right(widest, pj)
        for k in range(hi, low - 1, -1):
            ending_here = best[k - 1] + pj
            if ending_here < best[k]:
                best[k] = ending_here
                mark |= 1 << k
        marks.append(mark)
        step = widest[low - 1]
        del widest[low:]
        below = best[low - 1]
        for value in best[low:]:
            if value - below > step:
                step = value - below
            widest.append(step)
            below = value
    return best, marks


def max_feasible_subset(p: Sequence[int], d: Sequence[int]) -> tuple[int, list[int]]:
    """Size and 0-based positions of a largest single-machine subset of the
    jobs ``(p[i], d[i])``.

    Walks back from the last job, taking a job only when it ended the best
    subset of the remaining size, so ties leave jobs out and the picks are
    the latest-index choice among minimum-completion subsets.
    """
    best, marks = build_table(p, d)
    k = len(best) - 1
    picks: list[int] = []
    for i in range(len(p) - 1, -1, -1):
        if marks[i] >> k & 1:
            picks.append(i)
            k -= 1
            if not k:
                break
    picks.reverse()
    return len(picks), picks


def setcover_greedy(instance: Instance) -> Schedule:
    """Repeatedly peel off a largest feasible subset onto a fresh machine.

    Terminates because a lone job always fits (d >= p), so every round
    schedules at least one job. Machines are relabeled to first-use order.
    """
    p, d = list(instance.p), list(instance.d)
    remaining = list(range(instance.n))
    labels = [0] * instance.n
    machine = 0
    while remaining:
        machine += 1
        _, picks = max_feasible_subset(p, d)
        for t in reversed(picks):
            labels[remaining[t]] = machine
            del remaining[t], p[t], d[t]
    first_use: dict[int, int] = {}
    return Schedule._trusted(
        tuple(first_use.setdefault(label, len(first_use) + 1) for label in labels)
    )
