"""First-fit and next-fit greedy solvers over the fixed job order.

Both walk the job sequence once and never revisit a placement, so running
them on a prefix of an instance reproduces a prefix of their output. Next
fit probes only the most recently opened machine. First fit wants the
lowest-labeled machine that admits the job; since d >= p, "load + p <= d" is
the same test as "load <= slack", so a min-load tournament tree over machine
labels finds that machine in O(log m) (Johnson, JCSS 8(3), 1974). Its trace
still reports ``tried`` as the number of fit tests a label-order scan would
run: the chosen label, or the open-machine count when a new machine opens.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import Instance, Schedule


class PlacementTrace(NamedTuple):
    """Per-job diagnostics: fit tests run, machine chosen, its load after."""

    tried: int
    machine: int
    load_after: int


def first_fit(instance: Instance) -> Schedule:
    """Place each job on the lowest-labeled machine that still meets its
    deadline, opening a new machine when none does."""
    schedule, _ = first_fit_traced(instance)
    return schedule


def first_fit_traced(instance: Instance) -> tuple[Schedule, tuple[PlacementTrace, ...]]:
    jobs = instance.jobs
    # Min-load tree over `size` leaves; leaf size + i holds machine i+1's
    # load and unopened machines read 0. Before job j at most j < size
    # machines are open and slack >= 0, so when no open machine admits the
    # job the descent lands on the next fresh one.
    size = 1
    while size < len(jobs):
        size *= 2
    tree = [0] * (2 * size)  # inner node v: min of nodes 2v and 2v+1; root at 1
    opened = 0
    assignment: list[int] = []
    trace: list[PlacementTrace] = []
    for job in jobs:
        p = job.p
        slack = job.d - p
        node = 1
        while node < size:  # leftmost leaf with load <= slack
            node *= 2
            if tree[node] > slack:
                node += 1
        load = tree[node] + p
        tree[node] = load
        machine = node - size + 1
        if machine > opened:
            tried, opened = opened, machine
        else:
            tried = machine
        # Loads only grow, so stop at the first ancestor whose min holds.
        low = load
        while node > 1:
            sibling = tree[node ^ 1]
            if sibling < low:
                low = sibling
            node >>= 1
            if tree[node] == low:
                break
            tree[node] = low
        assignment.append(machine)
        trace.append(PlacementTrace(tried, machine, load))
    return Schedule(tuple(assignment)), tuple(trace)


def next_fit(instance: Instance) -> Schedule:
    """Like first fit, but only the most recently opened machine is probed."""
    schedule, _ = next_fit_traced(instance)
    return schedule


def next_fit_traced(instance: Instance) -> tuple[Schedule, tuple[PlacementTrace, ...]]:
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
