import gc
import math
import random
from collections import deque
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fosched.exact as exact_module

from fosched import (
    RANDOM_FAMILIES,
    CapacityError,
    GenSpec,
    InputError,
    Instance,
    SearchBudgetError,
    Schedule,
    first_fit,
    gen_nf_hard,
    gen_random,
    gen_tight2,
    is_feasible,
    lower_bound,
    next_fit,
    optimal,
)
from fosched.exact import MAX_ORACLE_CAP, _search, anchor_counts, clique_rows
from helpers import (
    DEEP_TAIL,
    NF_HARD_5,
    anchors_exhaustive,
    instances_st,
    optimal_count_bruteforce,
    optimal_unpruned,
    search_unpruned,
    suffix_cliques,
    volume_clique_bound,
)


def _search_with(instance: Instance, machine_limit: int, node_budget: int | None = None):
    """One deepening level of the exact search, as a schedule or None."""
    nodes = math.inf if node_budget is None else node_budget
    found, _ = _search(instance.p, instance.d)(machine_limit, nodes)
    return None if found is None else Schedule(tuple(found))


def _random_instance(rng: random.Random, n: int, max_p=8, max_slack=10) -> Instance:
    pairs = []
    for _ in range(n):
        p = rng.randint(1, max_p)
        pairs.append((p, p + rng.randint(0, max_slack)))
    return Instance.from_pairs(pairs)


class TestOptimalExamples:
    @pytest.mark.parametrize("n", [3, 5, 12])
    def test_growth_family_needs_exactly_two_machines(self, n):
        assert optimal(gen_nf_hard(n)).machine_count == 2

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_tight2_needs_k_plus_one(self, k):
        assert optimal(gen_tight2(k)).machine_count == k + 1

    def test_single_job(self):
        assert optimal(Instance.from_pairs([(9, 9)])).machine_count == 1

    def test_zero_slack_pair_needs_two_machines(self):
        assert optimal(Instance.from_pairs([(1, 1), (2, 2)])).machine_count == 2

    def test_empty(self):
        assert optimal(Instance((), ())).machine_count == 0

    def test_returns_feasible_schedule(self):
        for inst in (NF_HARD_5, gen_tight2(2)):
            assert is_feasible(inst, optimal(inst))

    def test_deterministic(self):
        inst = gen_tight2(2)
        assert optimal(inst).assignment == optimal(inst).assignment


class TestBruteForceExamples:
    def test_growth_family(self):
        assert optimal_count_bruteforce(NF_HARD_5) == 2

    def test_unit_jobs_with_unit_deadlines_need_own_machines(self):
        assert optimal_count_bruteforce(Instance.from_pairs([(1, 1)] * 3)) == 3

    def test_tight2(self):
        assert optimal_count_bruteforce(gen_tight2(2)) == 3

    def test_empty(self):
        assert optimal_count_bruteforce(Instance((), ())) == 0


class TestAgreement:
    @given(instances_st(max_n=7))
    @settings(max_examples=60)
    def test_search_matches_enumeration(self, instance):
        assert optimal(instance).machine_count == optimal_count_bruteforce(instance)

    def test_search_matches_enumeration_seeded(self):
        rng = random.Random(20260815)
        for trial in range(60):
            inst = _random_instance(rng, rng.randint(0, 9))
            assert optimal(inst).machine_count == optimal_count_bruteforce(inst), inst


@given(instances_st(max_n=8))
@settings(max_examples=60)
def test_sandwich_opt_ff_nf(instance):
    opt = optimal(instance).machine_count
    ff = first_fit(instance).machine_count
    nf = next_fit(instance).machine_count
    assert opt <= ff <= nf <= instance.n


@given(instances_st(max_n=8))
@settings(max_examples=60)
def test_lower_bound_never_exceeds_optimum(instance):
    assert lower_bound(instance) <= optimal(instance).machine_count or instance.n == 0
    if instance.n == 0:
        assert lower_bound(instance) == 0


@given(instances_st(max_n=10))
@settings(max_examples=80)
def test_lower_bound_never_exceeds_enumeration(instance):
    assert lower_bound(instance) <= optimal_count_bruteforce(instance)


@given(instances_st(max_n=10, max_slack=20))
@settings(max_examples=100)
def test_lower_bound_is_the_largest_of_volume_clique_and_anchors(instance):
    p, d = instance.p, instance.d
    bound = lower_bound(instance)
    assert bound == max(volume_clique_bound(instance), anchors_exhaustive(p, d))
    assert bound <= optimal(instance).machine_count


@given(instances_st(max_n=12, max_p=12, max_slack=20))
@settings(max_examples=100)
def test_lower_bound_covers_volume_and_forced_first(instance):
    # the threshold volume at t = d_max and the clique generalise the work
    # over the largest deadline and the jobs forced to open a machine
    if instance.n == 0:
        return
    p, d = instance.p, instance.d
    forced_first = [k for k in range(instance.n) if all(d[k] - p[k] < pi for pi in p[:k])]
    volume = -(-sum(p) // max(d))
    assert lower_bound(instance) >= max(1, volume, len(forced_first))


def _clique_table(p, slack):
    """``_search``'s clique table, with row n of zeros, and the threshold of each rank.

    ``table[j][r]`` is the largest conflict clique of jobs j..n-1 whose
    slacks lie below ``thresholds[r]``: the r-th distinct slack, or infinity
    at r = R.
    """
    values = sorted(set(slack))
    table = [row[:] for row in clique_rows(p, slack, values)][::-1]
    return table + [[0] * (len(values) + 1)], [*values, math.inf]


def test_lower_bound_threshold_volume():
    # three 3-jobs due at 6 need two machines, though the work over the
    # largest deadline and every clique give one
    inst = Instance.from_pairs([(3, 6), (3, 6), (3, 6), (1, 100)])
    table, _ = _clique_table([3, 3, 3, 1], [3, 3, 3, 99])
    assert max(table[0]) == 1
    assert lower_bound(inst) == optimal(inst).machine_count == 2


def _clique_by_enumeration(p, slack, start, below):
    eligible = [k for k in range(start, len(p)) if slack[k] < below]
    return max(
        (size for size in range(len(eligible) + 1)
         for chosen in combinations(eligible, size)
         if all(p[i] > slack[k] for i, k in combinations(chosen, 2))),
        default=0,
    )


@given(instances_st(max_n=9, max_p=6, max_slack=6))
@settings(max_examples=150)
def test_clique_table_matches_enumeration(instance):
    # every j and every rank 0..R, so every threshold a least load can set
    p = list(instance.p)
    slack = [dj - pj for pj, dj in zip(instance.p, instance.d)]
    table, thresholds = _clique_table(p, slack)
    for r, below in enumerate(thresholds):
        expected = [_clique_by_enumeration(p, slack, j, below) for j in range(instance.n + 1)]
        assert [row[r] for row in table] == expected


@given(instances_st(max_n=60, max_p=100, max_slack=200))
@settings(max_examples=100)
def test_clique_table_matches_dict_dp(instance):
    # sizes enumeration cannot reach, against the DP keyed by slack value
    p = list(instance.p)
    slack = [dj - pj for pj, dj in zip(instance.p, instance.d)]
    table, thresholds = _clique_table(p, slack)
    for r, below in enumerate(thresholds):
        assert [row[r] for row in table] == suffix_cliques(p, slack, below)


class TestAnchorCounts:
    def test_growth_family(self):
        # (8,12) covers its own work; (5,7) brings the work to 13, past 12,
        # so it is taken too, and 12 + 7 covers all 19 of the work
        assert anchor_counts(NF_HARD_5.p, NF_HARD_5.d) == [2, 2, 2, 2, 1, 0]

    @given(instances_st(max_n=10, max_slack=20))
    @settings(max_examples=150)
    def test_matches_the_least_anchor_set_at_every_suffix(self, instance):
        p, d = instance.p, instance.d
        expected = [anchors_exhaustive(p, d, j) for j in range(instance.n + 1)]
        assert anchor_counts(p, d) == expected

    @given(instances_st(max_n=10))
    @settings(max_examples=60)
    def test_never_exceeds_the_optimum_of_any_suffix(self, instance):
        p, d = instance.p, instance.d
        counts = anchor_counts(p, d)
        for j in range(instance.n + 1):
            assert counts[j] <= optimal(Instance(p[j:], d[j:])).machine_count


class TestPrunesKeepTheAssignment:
    """A sound prune cuts only failing subtrees, so the first feasible leaf,
    and with it the assignment, is the plain search's."""

    @given(instances_st(max_n=12))
    @settings(max_examples=100)
    def test_matches_the_unpruned_search(self, instance):
        assert optimal(instance).assignment == optimal_unpruned(instance).assignment

    @pytest.mark.parametrize("family", RANDOM_FAMILIES)
    def test_matches_the_unpruned_search_seeded(self, family):
        for seed in range(20):
            instance = gen_random(GenSpec(family, n=14, seed=seed))
            assert optimal(instance).assignment == optimal_unpruned(instance).assignment, seed

    @pytest.mark.parametrize(
        "family, slack_range",
        [pytest.param(family, (0, 10), id=family) for family in RANDOM_FAMILIES]
        + [pytest.param("slack-noninc", (0, 20), id="slack-noninc-slack-0-20")],
    )
    def test_every_level_matches_the_unpruned_search(self, family, slack_range):
        for seed in range(5):
            instance = gen_random(GenSpec(family, n=10, seed=seed, slack_range=slack_range))
            search = _search(instance.p, instance.d)
            for machines in range(0, first_fit(instance).machine_count + 2):
                pruned, _ = search(machines, math.inf)
                assert pruned == search_unpruned(instance.p, instance.d, machines), (seed, machines)

    def test_every_level_matches_the_unpruned_search_where_the_window_cuts(self, monkeypatch):
        # small non-increasing slacks close machines early and fill the
        # dominance buckets, so the window fails states the memo misses
        instances = [
            gen_random(GenSpec("slack-noninc", n=14, seed=seed, slack_range=(0, 20)))
            for seed in range(10)
        ]

        def every_level(window):
            monkeypatch.setattr(exact_module, "_WINDOW", window)
            spent, found = 0, []
            for instance in instances:
                search = _search(instance.p, instance.d)
                for machines in range(0, first_fit(instance).machine_count + 2):
                    assignment, left = search(machines, 10**9)
                    spent += 10**9 - left
                    found.append(assignment)
            return spent, found

        spent, found = every_level(exact_module._WINDOW)
        spent_without, _ = every_level(0)
        assert spent < spent_without
        assert found == [
            search_unpruned(instance.p, instance.d, machines)
            for instance in instances
            for machines in range(0, first_fit(instance).machine_count + 2)
        ]


@st.composite
def closing_instances_st(draw):
    """Long jobs first, then a tail of small slacks the long jobs' machines
    can no longer take, so machines close early in the search."""
    head = draw(st.lists(st.tuples(st.integers(4, 12), st.integers(0, 12)), min_size=1, max_size=5))
    tail = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(0, 3)), max_size=7))
    return Instance.from_pairs((p, p + slack) for p, slack in head + tail)


@given(closing_instances_st())
@settings(max_examples=150)
def test_clamped_memo_matches_the_unpruned_search_at_every_level(instance):
    # one search per instance, so every level also reuses the shared tables
    search = _search(instance.p, instance.d)
    for machines in range(0, first_fit(instance).machine_count + 2):
        expected = search_unpruned(instance.p, instance.d, machines)
        assert search(machines, math.inf) == (expected, math.inf), machines


def test_solves_leave_no_cyclic_garbage():
    # each level's memo is freed when the level ends, also when the budget
    # runs out in it, not left for the cycle collector
    gc.collect()
    gc.disable()
    try:
        for family in ("arbitrary", "slack-noninc"):
            for seed in range(10):
                optimal(gen_random(GenSpec(family, n=14, seed=seed)))
        with pytest.raises(SearchBudgetError):
            optimal(gen_tight2(4), node_budget=3)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_no_node_reads_more_than_the_window_of_failures(monkeypatch):
    # a counting stand-in for each bucket's failures: a node scans its
    # bucket at most once, so the most failures one scan reads bounds the
    # comparisons per node, and a node budget still bounds the CPU
    reads = []

    class CountingDeque(deque):
        def __iter__(self):
            reads.append(0)
            for low in super().__iter__():
                reads[-1] += 1
                yield low

    monkeypatch.setattr(exact_module, "deque", CountingDeque)
    with pytest.raises(SearchBudgetError):
        optimal(gen_random(DEEP_TAIL), node_budget=20_000)
    assert max(reads) == exact_module._WINDOW


class TestDeepeningSoundness:
    def test_one_machine_below_optimum_is_infeasible(self):
        for inst in (NF_HARD_5, gen_tight2(2), Instance.from_pairs([(1, 1)] * 3)):
            best = optimal(inst).machine_count
            assert _search_with(inst, best) is not None
            assert _search_with(inst, best - 1) is None

    def test_extra_machines_stay_feasible(self):
        inst = gen_tight2(2)
        for m in range(3, 8):
            found = _search_with(inst, m)
            assert found is not None and is_feasible(inst, found)

    def test_zero_machines(self):
        assert _search_with(Instance((), ()), 0) == Schedule(())
        assert _search_with(NF_HARD_5, 0) is None


class TestCapsAndBudgets:
    def test_default_cap_rejects_21_jobs(self):
        inst = Instance.from_pairs([(1, 100)] * 21)
        with pytest.raises(CapacityError):
            optimal(inst)

    def test_limit_overrides_cap(self):
        inst = Instance.from_pairs([(1, 100)] * 21)
        assert optimal(inst, limit=25).machine_count == 1

    def test_bruteforce_cap(self):
        with pytest.raises(CapacityError):
            optimal_count_bruteforce(Instance.from_pairs([(1, 100)] * 13))

    def test_budget_error_carries_first_fit_upper_bound(self):
        inst = gen_tight2(2)  # ff=5 > lower bound, so the search must run
        with pytest.raises(SearchBudgetError) as exc:
            optimal(inst, node_budget=1)
        assert exc.value.upper_bound == 5

    def test_search_level_budget(self):
        with pytest.raises(SearchBudgetError) as exc:
            _search_with(gen_tight2(2), 3, node_budget=1)
        assert exc.value.upper_bound is None and exc.value.lower_bound is None

    def test_budget_error_carries_the_level_it_was_searching(self):
        # the root bound of gen_tight2(2) is already its optimum, 3, so the
        # budget runs out on the first level searched
        with pytest.raises(SearchBudgetError) as exc:
            optimal(gen_tight2(2), node_budget=1)
        assert (exc.value.lower_bound, exc.value.upper_bound) == (3, 5)
        # root bound 4, first fit 6: level 4 fails in 15 nodes and level 5
        # solves in 12, so a budget of 20 proves level 4 infeasible and runs
        # out on the feasible level 5
        instance = gen_random(GenSpec("slack-nondec", n=10, seed=11))
        assert lower_bound(instance) == 4 and optimal(instance).machine_count == 5
        with pytest.raises(SearchBudgetError, match="^search node budget exhausted$") as exc:
            optimal(instance, node_budget=20)
        assert (exc.value.lower_bound, exc.value.upper_bound) == (5, 6)

    def test_generous_budget_succeeds(self):
        assert optimal(gen_tight2(2), node_budget=10**6).machine_count == 3

    @pytest.mark.parametrize("instance", [gen_tight2(2), Instance((), ())])
    def test_negative_budget_is_input_error_before_searching(self, monkeypatch, instance):
        def refuse(*args):
            raise AssertionError("searched")

        monkeypatch.setattr(exact_module, "first_fit", refuse)
        monkeypatch.setattr(exact_module, "_search", refuse)
        with pytest.raises(InputError, match="node budget must be >= 0"):
            optimal(instance, node_budget=-1)

    def test_pruned_search_still_exhausts_the_budget(self):
        # opt = ff = 9 and the root bound is 8, so the budget runs out
        # proving level 8 infeasible
        with pytest.raises(SearchBudgetError) as exc:
            optimal(gen_random(DEEP_TAIL), node_budget=20_000)
        assert exc.value.upper_bound == 9
        assert exc.value.lower_bound == 8

    def test_limit_above_the_maximum_is_input_error(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("searched")

        monkeypatch.setattr(exact_module, "first_fit", refuse)
        with pytest.raises(InputError, match=f"cap must be <= {MAX_ORACLE_CAP}, got 501"):
            optimal(NF_HARD_5, limit=MAX_ORACLE_CAP + 1)

    @staticmethod
    def _deep(tail: Instance) -> Instance:
        # loose unit jobs, then a tail the first machine cannot take: the
        # search places every job, one stack frame each, MAX_ORACLE_CAP
        # frames deep
        pairs = list(zip(tail.p, tail.d))
        return Instance.from_pairs([(1, 10**6)] * (MAX_ORACLE_CAP - len(pairs)) + pairs)

    def test_deepest_instance_within_the_maximum_solves(self):
        inst = self._deep(gen_tight2(1))
        found = optimal(inst, limit=MAX_ORACLE_CAP, node_budget=20_000)
        assert found.machine_count == 3 and is_feasible(inst, found)

    def test_deepest_instance_within_the_maximum_ends_in_a_budget_error(self):
        with pytest.raises(SearchBudgetError) as exc:
            optimal(self._deep(gen_random(DEEP_TAIL)), limit=MAX_ORACLE_CAP, node_budget=20_000)
        assert exc.value.upper_bound == 10

    def test_zero_budget_still_solves_without_search(self):
        loose = Instance.from_pairs([(1, 10)] * 3)  # first fit meets the lower bound
        assert optimal(loose, node_budget=0).machine_count == 1
        with pytest.raises(SearchBudgetError):
            optimal(gen_tight2(2), node_budget=0)
