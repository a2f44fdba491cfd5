import math
import random
from collections import Counter
from contextlib import contextmanager
from unittest import mock

from hypothesis import example, given, settings

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


def ends_of(table):
    """``(best, marks)`` from ``build_table_unskipped`` as ``(best, ends)``:
    ``ends[k]`` lists, ascending, the jobs whose mark has bit k."""
    best, marks = table
    return best, [[i for i, m in enumerate(marks) if m >> k & 1] for k in range(len(best))]


class TestDpTable:
    def test_boundaries(self):
        best, ends = build_table(NF_HARD_5.p, NF_HARD_5.d)
        assert best[0] == 0
        assert len(ends) == len(best)
        assert ends[0] == []
        assert all(0 <= i < NF_HARD_5.n for at in ends for i in at)
        assert build_table((), ()) == ([0], [[]])

    def test_growth_family_values(self):
        # minimum completions: one job -> 1, odds {1,3} -> 4, odds {1,3,5} -> 12
        best, ends = build_table(NF_HARD_5.p, NF_HARD_5.d)
        assert best == [0, 1, 4, 12]
        # each odd job opens the next size; the even ones improve nothing
        assert ends == [[], [0], [2], [4]]

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
    def test_ends_are_the_oracle_strict_improvements(self, instance):
        _, ends = build_table(instance.p, instance.d)
        rows = subset_dp_rows(instance.p, instance.d)
        assert ends[0] == []
        for k in range(1, len(rows[0])):
            improved = [i for i in range(instance.n) if rows[i + 1][k] < rows[i][k]]
            assert (ends[k] if k < len(ends) else []) == improved

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
        assert build_table(instance.p, instance.d) == ends_of(build_table_unskipped(instance.p, instance.d))

    @given(instances_st(max_n=60, max_p=30, max_slack=200))
    @settings(max_examples=100)
    def test_cover_matches_the_rebuilding_rounds(self, instance):
        assert setcover_greedy(instance) == setcover_rebuilding(instance)

    def test_cover_mid_shaped_instances(self):
        for slack_range in ((0, 30), (0, 300)):
            for seed in range(3):
                inst = gen_random(GenSpec("arbitrary", n=600, seed=seed, slack_range=slack_range))
                assert build_table(inst.p, inst.d) == ends_of(build_table_unskipped(inst.p, inst.d))
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


@contextmanager
def counted_rounds():
    """Patches ``cover.max_feasible_subset``; yields the sizes its calls return."""
    rounds = []
    real = cover_module.max_feasible_subset

    def counting(p, d):
        size, picks = real(p, d)
        rounds.append(size)
        return size, picks

    with mock.patch.object(cover_module, "max_feasible_subset", counting):
        yield rounds


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

    def test_no_pair_fits_so_one_round_covers(self):
        # p >= 5 and slack <= 4: no job fits after another, so the first
        # round places one job and every job gets a machine of its own
        inst = gen_random(GenSpec("arbitrary", n=8, seed=1, p_range=(5, 9), slack_range=(0, 4)))
        with counted_rounds() as rounds:
            schedule = setcover_greedy(inst)
        assert rounds == [1]
        assert schedule == setcover_rebuilding(inst)
        assert schedule.assignment == tuple(range(1, 9))

    @given(instances_st(max_n=30, max_slack=2))
    @example(Instance.from_pairs([(1, 1), (1, 2), (5, 5), (5, 5)]))
    @settings(max_examples=150)
    def test_one_job_tail_ends_the_cover(self, instance):
        # narrow slacks fit a few short jobs together, then only lone jobs:
        # the first round that places one job is the last call
        with counted_rounds() as rounds:
            schedule = setcover_greedy(instance)
        assert schedule == setcover_rebuilding(instance)
        sizes = Counter(schedule.assignment).values()
        shared = sum(size >= 2 for size in sizes)
        assert len(rounds) == shared + (shared < len(sizes))
        assert all(size >= 2 for size in rounds[:shared])

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
