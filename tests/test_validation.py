"""Instances are checked once, in bulk, and solver schedules are trusted.

The bulk check in ``core`` must accept and reject exactly what building one
``Job(p, d)`` per job does, with the same first message, through every
constructor. Solvers build their schedules unchecked, so every schedule they
return must still pass the checked constructor unchanged.
"""

import enum
import json
import math
import pickle

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from fosched import (
    ALGORITHMS,
    MAX_TOTAL_WORK,
    GenSpec,
    InputError,
    Instance,
    Job,
    Schedule,
    evaluate,
    first_fit,
    generate,
    instance_from_json,
    instance_to_json,
    next_fit,
    optimal,
    setcover_greedy,
)
from helpers import instances_st


class Size(enum.IntEnum):
    ONE = 1
    FIVE = 5


BIG = 2**62
# Values a job field may hold: mostly small ints, plus every kind the check
# must reject or must accept like an int.
VALUES = st.one_of(
    st.integers(-2, 12),
    st.sampled_from([BIG, BIG + 1, True, False, 1.0, 2.5, math.nan, "3", None, Size.ONE, Size.FIVE]),
)
VALID_PAIRS = st.integers(1, 9).flatmap(lambda p: st.tuples(st.just(p), st.integers(p, p + 9)))
PAIRS = st.lists(st.one_of(VALID_PAIRS, VALID_PAIRS, VALID_PAIRS, st.tuples(VALUES, VALUES)), max_size=6)
NAMES = st.one_of(st.none(), st.just("demo"), st.just(7))


def job_by_job(pairs, name=None) -> str | None:
    """The first error of the per-job path: ``Job(p, d)`` for each job in
    order, then the name, then the 64-bit work cap; None when all pass."""
    try:
        for p, d in pairs:
            Job(p, d)
        if name is not None and not isinstance(name, str):
            raise InputError("instance name must be a string")
        if sum(p for p, _ in pairs) > MAX_TOTAL_WORK:
            raise InputError("total processing time exceeds the 64-bit work cap")
    except InputError as exc:
        return str(exc)
    return None


def error_of(build) -> str | None:
    try:
        build()
    except InputError as exc:
        return str(exc)
    return None


def assert_holds(instance: Instance, pairs, name) -> None:
    assert instance.p == tuple(p for p, _ in pairs)
    assert instance.d == tuple(d for _, d in pairs)
    assert instance.jobs == tuple(Job(p, d) for p, d in pairs)
    assert instance.name == name


@given(PAIRS, NAMES)
@settings(max_examples=250)
def test_from_pairs_matches_job_by_job(pairs, name):
    expected = job_by_job(pairs, name)
    assert error_of(lambda: Instance.from_pairs(pairs, name=name)) == expected
    if expected is None:
        assert_holds(Instance.from_pairs(pairs, name=name), pairs, name)


@given(PAIRS, NAMES)
@settings(max_examples=250)
def test_instance_matches_job_by_job(pairs, name):
    p, d = [p for p, _ in pairs], [d for _, d in pairs]
    expected = job_by_job(pairs, name)
    assert error_of(lambda: Instance(p, d, name)) == expected
    assert error_of(lambda: Instance(iter(p), iter(d), name)) == expected
    if expected is None:
        assert_holds(Instance(p, d, name), pairs, name)
        assert_holds(Instance(iter(p), iter(d), name), pairs, name)


JSON_JOBS = st.lists(
    st.one_of(
        PAIRS.map(lambda pairs: [{"p": p, "d": d} for p, d in pairs]),
        st.just([{"p": 1}]),
        st.just([[1, 2]]),
        st.just([{"p": 1, "d": 2, "x": 0}]),
    ),
    max_size=3,
).map(lambda chunks: [item for chunk in chunks for item in chunk])


def json_job_by_job(items, name) -> str | None:
    """The first error the per-job JSON parser raised, numbered by job."""
    pairs = []
    for idx, item in enumerate(items):
        if not isinstance(item, dict) or set(item) != {"p", "d"}:
            return f"job {idx}: expected an object with exactly p and d"
        error = job_by_job([(item["p"], item["d"])])
        if error is not None:
            return f"job {idx}: {error}"
        pairs.append((item["p"], item["d"]))
    return job_by_job(pairs, name)


@given(JSON_JOBS, NAMES)
@settings(max_examples=250)
def test_instance_from_json_matches_job_by_job(items, name):
    doc = {"jobs": items} if name is None else {"name": name, "jobs": items}
    text = json.dumps(doc)
    loaded = json.loads(text)["jobs"]  # IntEnum members load as plain ints
    expected = json_job_by_job(loaded, name)
    assert error_of(lambda: instance_from_json(text)) == expected
    if expected is None:
        assert_holds(instance_from_json(text), [(i["p"], i["d"]) for i in loaded], name)


def test_int_subclasses_are_kept_like_job_keeps_them():
    instance = Instance.from_pairs([(Size.ONE, Size.FIVE)])
    assert instance.p == (1,) and type(instance.p[0]) is Size
    assert instance.jobs == (Job(Size.ONE, Size.FIVE),)


def test_the_work_cap_is_checked_after_every_job():
    assert error_of(lambda: Instance.from_pairs([(BIG, BIG), (BIG - 1, BIG)])) is None
    over = [(BIG, BIG), (BIG, BIG), (0, 1)]
    assert error_of(lambda: Instance.from_pairs(over)) == "processing time must be >= 1, got 0"
    assert error_of(lambda: Instance.from_pairs(over[:2])) == (
        "total processing time exceeds the 64-bit work cap"
    )


def test_arrays_of_different_lengths_are_refused():
    assert error_of(lambda: Instance((1, 2), (1,))) == (
        "2 processing times but 1 deadlines"
    )


@given(instances_st(max_n=6), st.text(max_size=3), st.text(max_size=3))
@settings(max_examples=100)
def test_equality_and_hash_ignore_the_name_and_pickle_keeps_it(instance, a, b):
    named_a = Instance(instance.p, instance.d, a)
    named_b = Instance(instance.p, instance.d, b)
    assert named_a == named_b == instance
    assert hash(named_a) == hash(named_b) == hash(instance)
    again = pickle.loads(pickle.dumps(named_a))
    assert again == named_a and again.name == a


def test_instances_are_frozen():
    instance = Instance.from_pairs([(1, 2)])
    with pytest.raises(AttributeError):
        instance.p = (2,)


SOLVERS = {
    "ff": first_fit,
    "nf": next_fit,
    "cover": setcover_greedy,
    "opt": lambda instance: optimal(instance, node_budget=50_000),
}


@pytest.mark.parametrize("algorithm", SOLVERS)
@given(instance=instances_st(max_n=9))
@settings(max_examples=60)
def test_solver_schedules_pass_the_checked_constructor(algorithm, instance):
    schedule = SOLVERS[algorithm](instance)
    assert Schedule(schedule.assignment) == schedule
    first_uses = list(dict.fromkeys(schedule.assignment))
    assert first_uses == list(range(1, schedule.machine_count + 1))
    assert type(schedule.assignment) is tuple and len(schedule.assignment) == instance.n
    assert all(type(label) is int for label in schedule.assignment)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Schedule((0,)), "machine labels are 1-based, got 0"),
        (lambda: Schedule((1, 3)), "machine labels must be contiguous 1..m"),
        (lambda: Schedule((2,)), "machine labels must be contiguous 1..m"),
        (lambda: Schedule((True,)), "machine label must be an integer, got True"),
        (lambda: Schedule((1, "a")), "machine label must be an integer, got 'a'"),
        (lambda: Schedule((1.0,)), "machine label must be an integer, got 1.0"),
    ],
)
def test_checked_schedule_constructors_still_reject(build, message):
    assert error_of(build) == message


def test_no_solve_path_builds_a_job(monkeypatch):
    def refuse(self):
        raise AssertionError("built a Job")

    monkeypatch.setattr(Job, "__post_init__", refuse)
    for spec in (
        GenSpec("arbitrary", n=14, seed=3),
        GenSpec("slack-noninc", n=12, seed=4),
        GenSpec("unit", n=10, seed=5),
        GenSpec("nf-hard", n=9),
        GenSpec("tight-2", k=3),
    ):
        instance = instance_from_json(instance_to_json(generate(spec)))
        record = evaluate(instance, algorithms=ALGORITHMS, node_budget=100_000)
        assert None not in (record.ff, record.nf, record.cover, record.opt)
    with pytest.raises(AssertionError, match="built a Job"):
        instance.jobs
