"""Set-cover style solver.

Each round schedules the largest deadline-feasible subsequence of the still
unscheduled jobs on a fresh machine. That subsequence comes from the
Lawler–Moore dynamic program for a fixed sequence: ``best[k]`` is the least
completion time of a feasible k-subset of the jobs seen so far, and each job
improves it in place. ``best`` is strictly increasing, so it only holds the
feasible sizes, and per-size lists of the jobs that improved each size
replay the choices, one bisect per size. A job lowers ``best[k]`` only
where the step ``best[k] - best[k-1]`` exceeds its processing time, so the
running maximum of those steps lets the table skip, exactly and in O(1), the
many jobs that change nothing. Each round removes its picks from the
remaining jobs in place, and the first round that places a single job ends
the cover: no two of the jobs left fit on one machine.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from math import inf
from typing import Sequence

from .core import Instance, Schedule


def build_table(p: Sequence[int], d: Sequence[int]) -> tuple[list[int], list[list[int]]]:
    """Least completion times by subset size, and the jobs that improved each.

    Returns ``(best, ends)``. ``best[k]`` is the least completion time of a
    feasible k-subset of the jobs ``(p[i], d[i])``, run back to back on one
    machine, so ``len(best) - 1`` is the largest feasible size. ``ends[k]``
    lists, ascending, the positions i of the jobs that strictly lowered
    ``best[k]``, i.e. the best k-subset of jobs 0..i ends with job i;
    ``ends[0]`` is empty. A job ends a k-subset only when
    ``best[k-1] + p <= d``, which bisect finds as ``k <= hi``.

    Most jobs change nothing, and those cost one bisect and one lookup. For
    ``k <= hi`` and ``k < len(best)``, the job lowers ``best[k]`` exactly
    when the step ``best[k] - best[k-1]`` exceeds p. ``widest[k]`` is the
    largest step up to k, so it never falls as k grows. A job with
    ``hi < len(best)`` (nothing to append) and ``widest[hi] <= p`` therefore
    joins no list. Any other job changes ``best[low]``, with ``low`` the
    first size whose ``widest`` exceeds p, and nothing below it. The update
    runs from low up to hi, keeping the old ``best[k-1]`` aside, and
    rebuilds ``widest`` as it goes. Above hi only the step at hi + 1 is new,
    so ``widest`` past it moves only where the old entries sit below the new
    running maximum (raised by one slice assignment), or where they equal an
    old maximum that fell (recomputed until the running maximum meets it).
    """
    best = [0]
    widest = [0]
    ends: list[list[int]] = [[]]
    top = 1  # len(best)
    for i in range(len(p)):
        pj = p[i]
        hi = bisect_right(best, d[i] - pj)
        if hi < top:
            if widest[hi] <= pj:
                continue
        else:
            best.append(best[-1] + pj)
            # a placeholder above every step: low stays at most the new
            # size, and the rebuild at hi + 1 overwrites it
            widest.append(inf)
            ends.append([i])
            top += 1
            hi -= 1
        low = bisect_right(widest, pj)
        below = prev = best[low - 1]
        step = widest[low - 1]
        for k in range(low, hi + 1):
            value = best[k]
            ending_here = prev + pj
            prev = value
            if ending_here < value:
                best[k] = value = ending_here
                ends[k].append(i)
            if value - below > step:
                step = value - below
            widest[k] = step
            below = value
        k = hi + 1
        if k == top:
            continue
        value = best[k]
        if value - below > step:
            step = value - below
        was = widest[k]
        widest[k] = step
        if step > was:
            # the running maximum rose: raise the entries below it
            end = bisect_left(widest, step, k + 1)
            widest[k + 1 : end] = [step] * (end - k - 1)
        elif step < was:
            # it fell: the entries equal to was need the old steps again
            below = value
            for k in range(k + 1, top):
                if step >= was:
                    break
                value = best[k]
                if value - below > step:
                    step = value - below
                widest[k] = step
                below = value
    return best, ends


def max_feasible_subset(p: Sequence[int], d: Sequence[int]) -> tuple[int, list[int]]:
    """Size and 0-based positions of a largest single-machine subset of the
    jobs ``(p[i], d[i])``.

    The pick for the largest size is the last entry of its ``ends`` list,
    and pick k is the last entry of ``ends[k]`` before pick k+1, found by
    one bisect per size. A job is taken only when it ended the best subset
    of its size, so ties leave jobs out and the picks are the latest-index
    choice among minimum-completion subsets.
    """
    best, ends = build_table(p, d)
    size = len(best) - 1
    picks = [0] * size
    i = len(p)
    for k in range(size, 0, -1):
        at = ends[k]
        i = picks[k - 1] = at[bisect_left(at, i) - 1]
    return size, picks


def setcover_greedy(instance: Instance) -> Schedule:
    """Repeatedly peel off a largest feasible subset onto a fresh machine.

    Every round schedules at least one job, because a lone job always fits
    (d >= p). A round that places exactly one job shows that no two
    remaining jobs fit together, and removing jobs keeps that so; each job
    left then gets a machine of its own, which every later round would have
    given it, and the loop ends. Machines are relabeled to first-use order,
    which depends only on the partition.
    """
    p, d = list(instance.p), list(instance.d)
    remaining = list(range(instance.n))
    labels = [0] * instance.n
    machine = 0
    while remaining:
        machine += 1
        size, picks = max_feasible_subset(p, d)
        if size == 1:
            for label, t in enumerate(remaining, machine):
                labels[t] = label
            break
        for t in reversed(picks):
            labels[remaining[t]] = machine
            del remaining[t], p[t], d[t]
    first_use: dict[int, int] = {}
    return Schedule._trusted(
        tuple(first_use.setdefault(label, len(first_use) + 1) for label in labels)
    )
