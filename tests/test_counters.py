"""Deterministic work counters on a small fixed corpus.

Counts of fit tests, machines and search nodes move only when the
algorithms do, never with machine noise, so they pin the work each solver
does. Nothing here reads a clock.
"""

import pytest

from fosched import (
    RANDOM_FAMILIES,
    GenSpec,
    first_fit,
    first_fit_traced,
    gen_nf_hard,
    gen_random,
    gen_tight2,
    lower_bound,
)
from fosched.exact import _Budget, _search


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
    "unit": 268,
    "slack-noninc": 1_352,
    "slack-nondec": 747,
    "deadline-noninc": 359,
    "arbitrary": 1_486,
}


@pytest.mark.parametrize("family", RANDOM_FAMILIES)
def test_search_nodes_per_family(family):
    # optimal's deepening, from the lower bound up to first fit's count, on
    # a budget of the test's own; spent nodes include failed levels
    budget = _Budget(10**9)
    for seed in range(20):
        instance = gen_random(GenSpec(family, n=14, seed=seed))
        p = [job.p for job in instance.jobs]
        d = [job.d for job in instance.jobs]
        for machines in range(lower_bound(instance), first_fit(instance).machine_count):
            if _search(p, d, machines, budget) is not None:
                break
    assert 10**9 - budget.remaining == SEARCH_NODES[family]
