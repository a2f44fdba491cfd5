import json
import tracemalloc

import pytest
from hypothesis import given
import hypothesis.strategies as st

from fosched import (
    CoverageError,
    InputError,
    Instance,
    Job,
    Schedule,
    completion_profile,
    instance_from_json,
    instance_to_json,
    is_feasible,
    loads,
)
from helpers import NF_HARD_5, NF_HARD_5_OPT, assigned_st, instances_st


class TestJob:
    @pytest.mark.parametrize("p,d", [(0, 1), (-1, 2), (3, 2), (1, 0)])
    def test_rejects_bad_ranges(self, p, d):
        with pytest.raises(InputError):
            Job(p, d)

    @pytest.mark.parametrize("p,d", [(1.5, 3), (1, 2.0), (True, 2), (1, "3")])
    def test_rejects_non_integers(self, p, d):
        with pytest.raises(InputError):
            Job(p, d)


class TestInstance:
    def test_empty_is_legal(self):
        inst = Instance((), ())
        assert inst.n == 0

    def test_name_is_metadata_only(self):
        a = Instance.from_pairs([(1, 2)], name="a")
        b = Instance.from_pairs([(1, 2)], name="b")
        assert a == b

    def test_total_work_cap(self):
        big = 2**62
        Instance((big, big - 1), (big, big))  # exactly at the cap
        with pytest.raises(InputError):
            Instance((big, big), (big, big))

    @pytest.mark.parametrize(
        "p,d",
        [
            ((0,), (1,)),
            ((-1,), (2,)),
            ((3,), (2,)),
            ((1,), (0,)),
            ((1.5,), (3,)),
            ((1,), (2.0,)),
            ((True,), (2,)),
            ((1,), ("3",)),
            ((1, 2, 0), (1, 5, 5)),
            ((1, (1, 2)), (2, 3)),
        ],
    )
    def test_rejects_a_bad_job_with_the_message_job_gives(self, p, d):
        idx = next(i for i, pair in enumerate(zip(p, d)) if _job_error(*pair))
        with pytest.raises(InputError) as caught:
            Instance(p, d)
        assert str(caught.value) == _job_error(p[idx], d[idx])

    @pytest.mark.parametrize("name", [7, b"x", ["x"]])
    def test_rejects_a_name_that_is_not_a_string(self, name):
        with pytest.raises(InputError, match="instance name must be a string"):
            Instance((1,), (1,), name=name)


def _job_error(p, d) -> str | None:
    try:
        Job(p, d)
    except InputError as exc:
        return str(exc)
    return None


class TestSchedule:
    def test_machine_count(self):
        assert Schedule(()).machine_count == 0
        assert Schedule((1, 2, 1)).machine_count == 2

    def test_rejects_gaps_and_bad_labels(self):
        with pytest.raises(InputError):
            Schedule((1, 3))
        with pytest.raises(InputError):
            Schedule((0,))
        with pytest.raises(InputError):
            Schedule((2,))

    def test_contiguity_check_costs_memory_by_n_not_by_the_top_label(self):
        tracemalloc.start()
        try:
            with pytest.raises(InputError, match="machine labels must be contiguous 1..m"):
                Schedule((3_000_000,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestFeasibility:
    def test_alternating_two_machine_schedule_is_feasible(self):
        assert is_feasible(NF_HARD_5, NF_HARD_5_OPT)

    def test_single_job(self):
        assert is_feasible(Instance.from_pairs([(2, 2)]), Schedule((1,)))

    def test_stacked_pair_misses_second_deadline(self):
        inst = Instance.from_pairs([(1, 1), (2, 2)])
        assert not is_feasible(inst, Schedule((1, 1)))
        assert is_feasible(inst, Schedule((1, 2)))

    def test_coverage_mismatch_is_an_error_not_infeasible(self):
        inst = Instance.from_pairs([(1, 1), (2, 2)])
        with pytest.raises(CoverageError):
            is_feasible(inst, Schedule((1,)))
        with pytest.raises(CoverageError):
            completion_profile(inst, Schedule((1, 2, 1)))
        with pytest.raises(CoverageError):
            loads(inst, Schedule(()))


class TestCompletionProfile:
    def test_alternating_schedule(self):
        assert completion_profile(NF_HARD_5, NF_HARD_5_OPT) == (1, 2, 4, 7, 12)

    def test_empty(self):
        assert completion_profile(Instance((), ()), Schedule(())) == ()

    def test_shared_machine_accumulates(self):
        inst = Instance.from_pairs([(1, 1), (1, 2)])
        assert completion_profile(inst, Schedule((1, 1))) == (1, 2)


class TestLoads:
    def test_alternating_schedule(self):
        assert loads(NF_HARD_5, NF_HARD_5_OPT) == (12, 7)

    def test_one_job_per_machine(self):
        inst = Instance.from_pairs([(3, 3), (4, 5), (2, 9)])
        assert loads(inst, Schedule((1, 2, 3))) == (3, 4, 2)

    def test_everything_on_one_machine(self):
        inst = Instance.from_pairs([(1, 2)] * 4)
        assert loads(inst, Schedule((1, 1, 1, 1))) == (4,)


@given(assigned_st())
def test_loads_conserve_total_work(pair):
    instance, schedule = pair
    assert sum(loads(instance, schedule)) == sum(instance.p)


@given(assigned_st())
def test_feasible_iff_no_completion_exceeds_deadline(pair):
    instance, schedule = pair
    profile = completion_profile(instance, schedule)
    expected = all(c <= job.d for c, job in zip(profile, instance.jobs))
    assert is_feasible(instance, schedule) == expected


@given(assigned_st(), st.randoms(use_true_random=False))
def test_relabeling_machines_changes_nothing(pair, rng):
    instance, schedule = pair
    m = schedule.machine_count
    perm = list(range(1, m + 1))
    rng.shuffle(perm)
    permuted = Schedule(tuple(perm[a - 1] for a in schedule.assignment))
    assert permuted.machine_count == schedule.machine_count
    assert is_feasible(instance, permuted) == is_feasible(instance, schedule)
    assert sorted(loads(instance, permuted)) == sorted(loads(instance, schedule))


class TestInstanceIO:
    def test_round_trip_bytes(self):
        inst = Instance.from_pairs([(1, 1), (2, 5)], name="demo")
        text = instance_to_json(inst)
        again = instance_from_json(text)
        assert again == inst and again.name == "demo"
        assert instance_to_json(again) == text

    def test_round_trip_without_name(self):
        inst = Instance.from_pairs([(3, 4)])
        again = instance_from_json(instance_to_json(inst))
        assert again == inst and again.name is None

    def test_empty_instance(self):
        assert instance_from_json(instance_to_json(Instance((), ()))).n == 0

    @pytest.mark.parametrize(
        "text",
        [
            "not json",
            "[]",
            '{"jobs": {}}',
            '{"jobs": [{"p": 1}]}',
            '{"jobs": [{"p": 1, "d": 2, "x": 3}]}',
            '{"jobs": [{"p": 0, "d": 2}]}',
            '{"jobs": [{"p": 3, "d": 2}]}',
            '{"jobs": [{"p": 1.5, "d": 2}]}',
            '{"jobs": [{"p": true, "d": 2}]}',
            '{"jobs": [], "extra": 1}',
            '{"jobs": [], "name": 7}',
            '{"name": "x"}',
            '{"jobs": [1]}',
            '{"jobs": [{"p": -1, "d": 2}]}',
            '{"jobs": [{"p": "1", "d": 2}]}',
            '{"jobs": [{"p": 1, "d": 2.0}]}',
            '{"jobs": [{"p": 1, "d": false}]}',
        ],
    )
    def test_rejects_malformed_documents(self, text):
        with pytest.raises(InputError):
            instance_from_json(text)

    def test_rejects_work_cap_overflow(self):
        big = 2**62
        text = json.dumps({"jobs": [{"p": big, "d": big}, {"p": big, "d": big}]})
        with pytest.raises(InputError):
            instance_from_json(text)
