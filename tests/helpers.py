"""Shared test fixtures: frozen instances, strategies, and slow oracles."""

from __future__ import annotations

import hypothesis.strategies as st

from fosched import Instance, Job, PlacementTrace, Schedule

# Alternating-growth family at n=5: [(1,1),(2,2),(3,4),(5,7),(8,12)].
NF_HARD_5 = Instance.from_pairs([(1, 1), (2, 2), (3, 4), (5, 7), (8, 12)])
# Its two-machine schedule: odd positions on machine 1, even on machine 2.
NF_HARD_5_OPT = Schedule((1, 2, 1, 2, 1))


@st.composite
def jobs_st(draw, max_p: int = 8, max_slack: int = 10):
    p = draw(st.integers(1, max_p))
    return Job(p, p + draw(st.integers(0, max_slack)))


@st.composite
def instances_st(draw, max_n: int = 10, max_p: int = 8, max_slack: int = 10):
    jobs = draw(st.lists(jobs_st(max_p=max_p, max_slack=max_slack), max_size=max_n))
    return Instance(tuple(jobs))


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

    The oracle for the tree descent in ``greedy.first_fit_traced``: each
    ``tried`` is the number of fit tests this scan actually runs.
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


def max_subset_exhaustive(jobs) -> int:
    """Largest single-machine-feasible subset size, by trying every subset.

    Independent of the dynamic program: plain include/exclude recursion over
    the sequence, carrying the running completion time. Skipping a job never
    hurts later feasibility, so pruning infeasible inclusions is exhaustive.
    """

    def walk(idx: int, completion: int) -> int:
        if idx == len(jobs):
            return 0
        best = walk(idx + 1, completion)
        job = jobs[idx]
        if completion + job.p <= job.d:
            best = max(best, 1 + walk(idx + 1, completion + job.p))
        return best

    return walk(0, 0)
