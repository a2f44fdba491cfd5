import pytest
from hypothesis import given

import fosched.instances as instances_module
from fosched import (
    MAX_JOBS,
    MAX_TOTAL_WORK,
    GenSpec,
    InputError,
    Instance,
    OrderClass,
    class_tokens,
    classify,
    gen_nf_hard,
    gen_random,
    gen_tight2,
    generate,
    instance_from_json,
    instance_to_json,
    parse_class_tokens,
)
from helpers import instances_st


class TestNfHardFamily:
    def test_frozen_values(self):
        inst = gen_nf_hard(5)
        assert [(j.p, j.d) for j in inst] == [(1, 1), (2, 2), (3, 4), (5, 7), (8, 12)]
        assert [j.slack for j in inst] == [0, 0, 1, 2, 4]

    def test_smallest_size(self):
        assert [(j.p, j.d) for j in gen_nf_hard(3)] == [(1, 1), (2, 2), (3, 4)]

    def test_rejects_tiny_n(self):
        with pytest.raises(InputError):
            gen_nf_hard(2)

    def test_work_cap_boundary(self):
        assert gen_nf_hard(89).total_work <= MAX_TOTAL_WORK
        with pytest.raises(InputError):
            gen_nf_hard(90)

    def test_classified_as_nondecreasing(self):
        flags = classify(gen_nf_hard(5))
        assert flags == OrderClass.SLACK_NONDECREASING | OrderClass.DEADLINE_NONDECREASING


class TestTight2Family:
    def test_frozen_values(self):
        assert [(j.p, j.d) for j in gen_tight2(1)] == [(1, 2), (1, 2), (2, 3), (2, 3)]
        assert [(j.p, j.d) for j in gen_tight2(2)] == [
            (2, 4), (1, 3), (2, 4), (1, 3), (3, 5), (3, 5), (3, 5),
        ]

    def test_size_is_3k_plus_1(self):
        for k in range(1, 6):
            assert gen_tight2(k).n == 3 * k + 1

    def test_rejects_k_zero(self):
        with pytest.raises(InputError):
            gen_tight2(0)

    @pytest.mark.parametrize("k", [(MAX_JOBS - 1) // 3 + 1, 10**8])
    def test_rejects_k_above_the_job_cap_before_building(self, monkeypatch, k):
        assert k >= 333_334

        def refuse(*args):
            raise AssertionError("built a job")

        monkeypatch.setattr(instances_module, "Job", refuse)
        with pytest.raises(InputError, match="above the cap"):
            gen_tight2(k)

    def test_all_slacks_equal(self):
        flags = classify(gen_tight2(3))
        assert OrderClass.SLACK_NONINCREASING in flags
        assert OrderClass.SLACK_NONDECREASING in flags


class TestClassify:
    def test_unit_flag(self):
        inst = Instance.from_pairs([(1, 3), (1, 1), (1, 2)])
        assert OrderClass.UNIT_PROCESSING in classify(inst)

    def test_unstructured_order_is_arbitrary(self):
        inst = Instance.from_pairs([(1, 5), (1, 1), (2, 8)])
        assert classify(inst) == OrderClass.ARBITRARY

    def test_deadline_monotonicity(self):
        dec = Instance.from_pairs([(2, 9), (3, 7), (1, 7)])
        assert OrderClass.DEADLINE_NONINCREASING in classify(dec)
        assert OrderClass.DEADLINE_NONDECREASING not in classify(dec)

    def test_tiny_instances_satisfy_everything(self):
        everything = (
            OrderClass.UNIT_PROCESSING
            | OrderClass.SLACK_NONINCREASING
            | OrderClass.SLACK_NONDECREASING
            | OrderClass.DEADLINE_NONINCREASING
            | OrderClass.DEADLINE_NONDECREASING
        )
        assert classify(Instance(())) == everything
        assert classify(Instance.from_pairs([(1, 4)])) == everything

    def test_tokens_round_trip(self):
        for flags in (
            OrderClass.ARBITRARY,
            OrderClass.UNIT_PROCESSING,
            OrderClass.SLACK_NONINCREASING | OrderClass.DEADLINE_NONINCREASING,
        ):
            assert parse_class_tokens(class_tokens(flags)) == flags
        assert class_tokens(OrderClass.ARBITRARY) == "arbitrary"
        with pytest.raises(InputError):
            parse_class_tokens("bogus")


class TestGenSpec:
    def test_validation(self):
        with pytest.raises(InputError):
            GenSpec("nope")
        with pytest.raises(InputError):
            GenSpec("arbitrary", n=-1)
        with pytest.raises(InputError):
            GenSpec("arbitrary", seed=-1)
        with pytest.raises(InputError):
            GenSpec("arbitrary", seed=2**64)
        with pytest.raises(InputError):
            GenSpec("arbitrary", p_range=(0, 5))
        with pytest.raises(InputError):
            GenSpec("arbitrary", slack_range=(3, 1))

    @pytest.mark.parametrize("field", ["p_range", "slack_range"])
    @pytest.mark.parametrize("value", [("a", 2), (1,), (1.5, 3), (True, 2), None, [1, 2, 3]])
    def test_rejects_ranges_that_are_not_integer_pairs(self, field, value):
        with pytest.raises(InputError, match=f"{field} must be a pair of integers"):
            GenSpec("arbitrary", n=3, **{field: value})

    def test_stores_ranges_as_tuples(self):
        spec = GenSpec("arbitrary", n=3, p_range=[1, 5], slack_range=[0, 7])
        assert spec.p_range == (1, 5) and spec.slack_range == (0, 7)
        assert isinstance(spec.p_range, tuple) and isinstance(spec.slack_range, tuple)

    @pytest.mark.parametrize(
        "family, n, k",
        [
            ("arbitrary", 10**12, 0),
            ("unit", MAX_JOBS + 1, 0),
            ("nf-hard", MAX_JOBS + 1, 0),
            ("tight-2", 0, 10**9),
            ("tight-2", 0, (MAX_JOBS - 1) // 3 + 1),  # the smallest k past the cap
        ],
    )
    def test_rejects_instances_above_the_job_cap(self, family, n, k):
        with pytest.raises(InputError, match="above the cap"):
            GenSpec(family, n=n, k=k)

    def test_accepts_instances_at_the_job_cap(self):
        # the spec alone generates nothing
        GenSpec("arbitrary", n=MAX_JOBS)
        GenSpec("tight-2", k=(MAX_JOBS - 1) // 3)

    def test_generate_dispatch(self):
        assert generate(GenSpec("nf-hard", n=4)) == gen_nf_hard(4)
        assert generate(GenSpec("tight-2", k=2)) == gen_tight2(2)
        assert generate(GenSpec("unit", n=5, seed=9)) == gen_random(GenSpec("unit", n=5, seed=9))

    def test_gen_random_rejects_named_families(self):
        with pytest.raises(InputError):
            gen_random(GenSpec("nf-hard", n=5))


class TestGenRandom:
    def test_unit_family_has_unit_processing(self):
        inst = gen_random(GenSpec("unit", n=30, seed=5, slack_range=(0, 4)))
        assert all(job.p == 1 for job in inst)
        assert all(job.d >= 1 for job in inst)

    def test_families_match_their_order_class(self):
        for family, flag in (
            ("slack-noninc", OrderClass.SLACK_NONINCREASING),
            ("slack-nondec", OrderClass.SLACK_NONDECREASING),
            ("deadline-noninc", OrderClass.DEADLINE_NONINCREASING),
        ):
            inst = gen_random(GenSpec(family, n=25, seed=11))
            assert flag in classify(inst), family

    def test_same_seed_reproduces_the_instance(self):
        spec = GenSpec("arbitrary", n=15, seed=123456789)
        assert gen_random(spec) == gen_random(spec)

    def test_different_seeds_differ(self):
        a = gen_random(GenSpec("arbitrary", n=15, seed=1))
        b = gen_random(GenSpec("arbitrary", n=15, seed=2))
        assert a != b

    def test_empty(self):
        assert gen_random(GenSpec("arbitrary", n=0, seed=3)).n == 0

    def test_draws_respect_ranges(self):
        inst = gen_random(GenSpec("arbitrary", n=40, seed=8, p_range=(2, 4), slack_range=(1, 3)))
        assert all(2 <= job.p <= 4 for job in inst)
        assert all(1 <= job.slack <= 3 for job in inst)


class TestFileRoundTrip:
    def test_generated_instances_round_trip_bit_identically(self):
        samples = [
            gen_nf_hard(6),
            gen_tight2(3),
            gen_random(GenSpec("unit", n=7, seed=42)),
            gen_random(GenSpec("arbitrary", n=0, seed=1)),
        ]
        for inst in samples:
            text = instance_to_json(inst)
            again = instance_from_json(text)
            assert again == inst
            assert again.name == inst.name
            assert instance_to_json(again) == text

    @given(instances_st(max_n=12))
    def test_any_instance_round_trips(self, instance):
        assert instance_from_json(instance_to_json(instance)) == instance
