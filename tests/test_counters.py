"""Deterministic work counters on a small fixed corpus.

Counts of fit tests, machines, search nodes and the jobs each set-cover
round examines move only when the algorithms do, never with machine noise,
so they pin the work each solver does. Nothing here reads a clock.
"""

from unittest import mock

import pytest

import fosched.cover as cover_module
from fosched import (
    RANDOM_FAMILIES,
    GenSpec,
    first_fit,
    first_fit_traced,
    gen_nf_hard,
    gen_random,
    gen_tight2,
    lower_bound,
    setcover_greedy,
)
from fosched.exact import _search
from helpers import DEEP_TAIL


def test_first_fit_probes_and_machines():
    corpus = [gen_nf_hard(n) for n in range(3, 60)] + [gen_tight2(k) for k in range(1, 31)]
    corpus += [
        gen_random(GenSpec(family, n=200, seed=seed, p_range=(1, 10), slack_range=(0, 100)))
        for family in RANDOM_FAMILIES
        for seed in range(10)
    ]
    assert sum(t.tried for instance in corpus for t in first_fit_traced(instance)[1]) == 96_670
    assert sum(first_fit(instance).machine_count for instance in corpus) == 2_143


SEARCH_NODES = {
    "unit": 219,
    "slack-noninc": 324,
    "slack-nondec": 429,
    "deadline-noninc": 203,
    "arbitrary": 1_043,
}


def _deepening_nodes(instances) -> int:
    # optimal's deepening, from the lower bound up to first fit's count, on
    # a budget of the test's own; spent nodes include failed levels
    nodes = 10**9
    for instance in instances:
        search = _search(instance.p, instance.d)
        for machines in range(lower_bound(instance), first_fit(instance).machine_count):
            found, nodes = search(machines, nodes)
            if found is not None:
                break
    return 10**9 - nodes


@pytest.mark.parametrize("family", RANDOM_FAMILIES)
def test_search_nodes_per_family(family):
    instances = [gen_random(GenSpec(family, n=14, seed=seed)) for seed in range(20)]
    assert _deepening_nodes(instances) == SEARCH_NODES[family]


def test_search_nodes_on_a_paper_sweep_shaped_corpus():
    # the benchmark's paper sweep draws n=16 with the default ranges
    instances = [
        gen_random(GenSpec(family, n=16, seed=seed))
        for family in RANDOM_FAMILIES
        for seed in range(20)
    ]
    assert _deepening_nodes(instances) == 3_738


def test_search_nodes_on_small_nonincreasing_slacks():
    # the shape whose node count depends most on which prunes run
    instances = [
        gen_random(GenSpec("slack-noninc", n=20, seed=seed, slack_range=(0, 20)))
        for seed in range(40)
    ]
    assert _deepening_nodes(instances) == 57_693


def test_search_nodes_on_the_deep_tail():
    # the budget fixtures' margin: a 20,000-node budget runs out on it
    assert _deepening_nodes([gen_random(DEEP_TAIL)]) == 93_699


def test_cover_machines_and_jobs_per_round():
    # the benchmark's cover-mid shapes; every job still remaining is handed
    # to each round's max_feasible_subset, until a round places one job
    corpus = [
        gen_random(GenSpec(family, n=600, seed=seed, slack_range=slack_range))
        for family, slack_range in (
            ("arbitrary", (0, 30)),
            ("arbitrary", (0, 300)),
            ("deadline-noninc", (0, 30)),
            ("slack-nondec", (0, 30)),
        )
        for seed in range(2)
    ]
    real = cover_module.max_feasible_subset
    rounds = handed = 0

    def counting(p, d):
        nonlocal rounds, handed
        rounds += 1
        handed += len(p)
        return real(p, d)

    with mock.patch.object(cover_module, "max_feasible_subset", counting):
        machines = sum(setcover_greedy(instance).machine_count for instance in corpus)
    assert machines == 1_003
    assert rounds == 731
    assert handed == 171_764
