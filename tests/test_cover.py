import math
import random
from unittest import mock

from hypothesis import given, settings

import fosched.cover as cover_module
from fosched import (
    GenSpec,
    Instance,
    build_table,
    gen_random,
    gen_tight2,
    is_feasible,
    max_feasible_subset,
    optimal,
    setcover_greedy,
)
from helpers import (
    NF_HARD_5,
    build_table_unskipped,
    instances_st,
    max_feasible_subset_table,
    max_subset_exhaustive,
    setcover_rebuilding,
    subset_dp_rows,
)


class TestDpTable:
    def test_boundaries(self):
        best, marks = build_table(NF_HARD_5.p, NF_HARD_5.d)
        assert best[0] == 0
        assert len(marks) == NF_HARD_5.n
        assert build_table((), ()) == ([0], [])

    def test_growth_family_values(self):
        # minimum completions: one job -> 1, odds {1,3} -> 4, odds {1,3,5} -> 12
        best, marks = build_table(NF_HARD_5.p, NF_HARD_5.d)
        assert best == [0, 1, 4, 12]
        # each odd job opens the next size; the even ones improve nothing
        assert marks == [0b10, 0, 0b100, 0, 0b1000]

    @given(instances_st(max_n=10))
    @settings(max_examples=80)
    def test_best_is_strictly_increasing(self, instance):
        best, _ = build_table(instance.p, instance.d)
        assert all(a < b for a, b in zip(best, best[1:]))

    @given(instances_st(max_n=10))
    @settings(max_examples=80)
    def test_best_matches_the_oracle_last_row(self, instance):
        best, _ = build_table(instance.p, instance.d)
        last = subset_dp_rows(instance.p, instance.d)[-1]
        assert best == last[: len(best)]
        assert all(value == math.inf for value in last[len(best) :])

    @given(instances_st(max_n=9))
    @settings(max_examples=60)
    def test_marks_are_the_oracle_strict_improvements(self, instance):
        _, marks = build_table(instance.p, instance.d)
        rows = subset_dp_rows(instance.p, instance.d)
        for i, mark in enumerate(marks):
            improved = {k for k in range(1, len(rows[0])) if rows[i + 1][k] < rows[i][k]}
            assert {k for k in range(mark.bit_length()) if mark >> k & 1} == improved

    @given(instances_st(max_n=10))
    @settings(max_examples=80)
    def test_longest_feasible_size_matches_exhaustive(self, instance):
        best, _ = build_table(instance.p, instance.d)
        assert len(best) - 1 == max_subset_exhaustive(instance.p, instance.d)

    @given(instances_st(max_n=9))
    @settings(max_examples=60)
    def test_every_prefix_pick_is_realizable(self, instance):
        for i in range(instance.n + 1):
            p, d = instance.p[:i], instance.d[:i]
            best, _ = build_table(p, d)
            k, picks = max_feasible_subset(p, d)
            assert len(picks) == k == len(best) - 1
            completion = 0
            for idx in picks:
                completion += p[idx]
                assert completion <= d[idx]
            assert completion == best[k]


class TestSkippingTable:
    """The skipping table and the in-place cover against their unskipped oracles.

    Long, wide instances grow long tables with uneven steps, so the skip
    test and the rebuilt ``widest`` are read at every size.
    """

    @given(instances_st(max_n=60, max_p=30, max_slack=200))
    @settings(max_examples=150)
    def test_table_matches_the_unskipped_loop(self, instance):
        assert build_table(instance.p, instance.d) == build_table_unskipped(instance.p, instance.d)

    @given(instances_st(max_n=60, max_p=30, max_slack=200))
    @settings(max_examples=100)
    def test_cover_matches_the_rebuilding_rounds(self, instance):
        assert setcover_greedy(instance) == setcover_rebuilding(instance)

    def test_cover_mid_shaped_instances(self):
        for slack_range in ((0, 30), (0, 300)):
            for seed in range(3):
                inst = gen_random(GenSpec("arbitrary", n=600, seed=seed, slack_range=slack_range))
                assert build_table(inst.p, inst.d) == build_table_unskipped(inst.p, inst.d)
                assert setcover_greedy(inst) == setcover_rebuilding(inst), inst.name


class TestMaxFeasibleSubset:
    def test_zero_slack_pair_keeps_only_the_first(self):
        # both fit alone; on ties the walk prefers dropping the later job
        assert max_feasible_subset((1, 2), (1, 2)) == (1, [0])

    def test_growth_family_picks_odd_positions(self):
        assert max_feasible_subset(NF_HARD_5.p, NF_HARD_5.d) == (3, [0, 2, 4])

    def test_single(self):
        assert max_feasible_subset((2,), (2,)) == (1, [0])

    def test_empty(self):
        assert max_feasible_subset((), ()) == (0, [])

    @given(instances_st(max_n=10))
    @settings(max_examples=80)
    def test_matches_exhaustive_enumeration(self, instance):
        k, picks = max_feasible_subset(instance.p, instance.d)
        assert k == max_subset_exhaustive(instance.p, instance.d)
        assert len(picks) == k

    def test_matches_exhaustive_enumeration_seeded(self):
        rng = random.Random(77)
        for _ in range(120):
            n = rng.randint(0, 11)
            pairs = []
            for _ in range(n):
                p = rng.randint(1, 9)
                pairs.append((p, p + rng.randint(0, 12)))
            inst = Instance.from_pairs(pairs)
            k, _ = max_feasible_subset(inst.p, inst.d)
            assert k == max_subset_exhaustive(inst.p, inst.d)

    @given(instances_st(max_n=14, max_slack=20))
    @settings(max_examples=200)
    def test_picks_match_the_table_walk(self, instance):
        assert max_feasible_subset(instance.p, instance.d) == max_feasible_subset_table(instance.p, instance.d)

    def test_picks_match_the_table_walk_seeded(self):
        rng = random.Random(14)
        for _ in range(300):
            n = rng.randint(0, 40)
            pairs = []
            for _ in range(n):
                p = rng.randint(1, rng.choice((1, 3, 9)))
                pairs.append((p, p + rng.randint(0, rng.choice((0, 2, 10, 60)))))
            inst = Instance.from_pairs(pairs)
            assert max_feasible_subset(inst.p, inst.d) == max_feasible_subset_table(inst.p, inst.d), pairs


class TestSetCoverGreedy:
    def test_growth_family_covers_in_two_rounds(self):
        schedule = setcover_greedy(NF_HARD_5)
        assert schedule.assignment == (1, 2, 1, 2, 1)

    def test_single_job(self):
        assert setcover_greedy(Instance.from_pairs([(5, 6)])).machine_count == 1

    def test_empty(self):
        assert setcover_greedy(Instance((), ())).machine_count == 0

    @given(instances_st(max_n=14, max_slack=20))
    @settings(max_examples=100)
    def test_matches_a_table_driven_cover(self, instance):
        schedule = setcover_greedy(instance)
        with mock.patch.object(cover_module, "max_feasible_subset", max_feasible_subset_table):
            assert setcover_greedy(instance) == schedule

    def test_tight2_k1_uses_three_machines(self):
        # The maximum first pick is the two leading unit-slack jobs, which
        # strands both closing jobs on machines of their own; the optimum
        # pairs each leader with one closer and needs only two machines.
        inst = gen_tight2(1)
        assert setcover_greedy(inst).machine_count == 3
        assert optimal(inst).machine_count == 2

    @given(instances_st(max_n=12))
    @settings(max_examples=80)
    def test_output_is_feasible_and_covers_every_job(self, instance):
        schedule = setcover_greedy(instance)
        assert len(schedule.assignment) == instance.n
        assert is_feasible(instance, schedule)

    @given(instances_st(max_n=10))
    @settings(max_examples=60)
    def test_single_machine_instances_get_one_machine(self, instance):
        k, _ = max_feasible_subset(instance.p, instance.d)
        if k == instance.n and instance.n > 0:
            assert setcover_greedy(instance).machine_count == 1

    @given(instances_st(max_n=9))
    @settings(max_examples=50)
    def test_never_below_optimum(self, instance):
        assert setcover_greedy(instance).machine_count >= optimal(instance).machine_count
