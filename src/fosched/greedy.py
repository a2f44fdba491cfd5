"""First-fit and next-fit greedy solvers over the fixed job order.

Both walk the job sequence once and never revisit a placement, so running
them on a prefix of an instance reproduces a prefix of their output. Next
fit probes only the most recently opened machine. First fit wants the
lowest-labeled machine that admits the job; since d >= p, "load + p <= d" is
the same test as "load <= slack", so a min-load tournament tree over machine
labels finds that machine in O(log m) (Johnson, JCSS 8(3), 1974). The tree
starts at one leaf and doubles when every leaf is an open machine and none
admits the job, so its size follows the machines opened, not the job count.

A rule's trace depends only on the instance and the schedule it produced, so
``placement_trace`` derives it afterwards. Its ``tried`` counts the rule's
fit tests in label order: first fit tests machines up to the chosen one, or
every open one before opening a new one; next fit tests the last opened one.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import InputError, Instance, Schedule, completion_profile


class PlacementTrace(NamedTuple):
    """Per-job diagnostics: fit tests run, machine chosen, its load after."""

    tried: int
    machine: int
    load_after: int


def placement_trace(
    instance: Instance, schedule: Schedule, algorithm: str
) -> tuple[PlacementTrace, ...]:
    """The trace of ``schedule``, as placed by first fit ("ff") or next fit ("nf")."""
    if algorithm not in ("ff", "nf"):
        raise InputError(f"placement traces exist for ff and nf, got {algorithm!r}")
    first = algorithm == "ff"
    opened = 0  # machines open before the job
    trace: list[PlacementTrace] = []
    for machine, load in zip(schedule.assignment, completion_profile(instance, schedule)):
        if first:  # min(machine, opened) and min(opened, 1), without the calls
            tried = machine if machine <= opened else opened
        else:
            tried = 1 if opened else 0
        if machine > opened:
            opened = machine
        trace.append(PlacementTrace(tried, machine, load))
    return tuple(trace)


def first_fit(instance: Instance) -> Schedule:
    """Place each job on the lowest-labeled machine that still meets its
    deadline, opening a new machine when none does."""
    schedule, _ = first_fit_traced(instance)
    return schedule


def first_fit_traced(instance: Instance) -> tuple[Schedule, tuple[PlacementTrace, ...]]:
    # Min-load tree over `size` leaves; leaf size + i holds machine i+1's
    # load and unopened machines read 0. Since slack >= 0, a root above the
    # slack means every leaf is an open machine and none admits the job.
    # Then the tree doubles: each level moves into the left half of the
    # level below it, and the new right half is unopened, so the root reads
    # 0 and the descent lands on machine size + 1.
    size = 1
    tree = [0, 0]  # inner node v: min of nodes 2v and 2v+1; root at 1
    assignment: list[int] = []
    for p, d in zip(instance.p, instance.d):
        slack = d - p
        if tree[1] > slack:
            grown = [0] * (4 * size)
            width = 1
            while width <= size:
                grown[2 * width : 3 * width] = tree[width : 2 * width]
                width *= 2
            tree = grown
            size *= 2
        node = 1
        while node < size:  # leftmost leaf with load <= slack
            node *= 2
            if tree[node] > slack:
                node += 1
        low = tree[node] + p
        tree[node] = low
        assignment.append(node - size + 1)
        # Loads only grow, so stop at the first ancestor whose min holds.
        while node > 1:
            sibling = tree[node ^ 1]
            if sibling < low:
                low = sibling
            node >>= 1
            if tree[node] == low:
                break
            tree[node] = low
    schedule = Schedule._trusted(tuple(assignment))
    return schedule, placement_trace(instance, schedule, "ff")


def next_fit(instance: Instance) -> Schedule:
    """Like first fit, but only the most recently opened machine is probed."""
    assignment: list[int] = []
    machines = 0
    load = 0  # of machine `machines`, the last one opened
    for p, d in zip(instance.p, instance.d):
        if machines and load + p <= d:
            load += p
        else:
            machines += 1
            load = p
        assignment.append(machines)
    return Schedule._trusted(tuple(assignment))
