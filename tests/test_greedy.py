import pytest
from hypothesis import given
import hypothesis.strategies as st

import fosched.greedy as greedy_module
from fosched import (
    RANDOM_FAMILIES,
    CoverageError,
    GenSpec,
    InputError,
    Instance,
    Schedule,
    first_fit,
    first_fit_traced,
    gen_nf_hard,
    gen_tight2,
    generate,
    is_feasible,
    loads,
    next_fit,
    optimal,
    placement_trace,
)
from fosched.bench import evaluate
from helpers import NF_HARD_5, first_fit_linear_traced, instances_st, next_fit_traced


def derived(instance, solver, algorithm):
    """The solver's schedule and the trace placement_trace derives from it."""
    schedule = solver(instance)
    return schedule, placement_trace(instance, schedule, algorithm)


def assert_matches_oracles(instance):
    """Schedules and traces equal the label-order scan and the in-loop next fit."""
    oracle = first_fit_linear_traced(instance)
    assert first_fit_traced(instance) == oracle
    for solver, algorithm, (schedule, trace) in (
        (first_fit, "ff", oracle),
        (next_fit, "nf", next_fit_traced(instance)),
    ):
        assert solver(instance) == schedule
        assert placement_trace(instance, schedule, algorithm) == trace


class TestFirstFitExamples:
    def test_alternates_over_two_machines(self):
        assert first_fit(NF_HARD_5).assignment == (1, 2, 1, 2, 1)

    def test_tight2_opens_2k_plus_1(self):
        assert first_fit(gen_tight2(2)).machine_count == 5

    def test_single_job(self):
        assert first_fit(Instance.from_pairs([(4, 4)])).assignment == (1,)

    def test_unit_jobs_with_paired_deadlines(self):
        inst = Instance.from_pairs([(1, 1), (1, 1), (1, 2), (1, 2)])
        assert first_fit(inst).assignment == (1, 2, 1, 2)

    def test_empty(self):
        assert first_fit(Instance((), ())).machine_count == 0


class TestNextFitExamples:
    def test_growth_family_opens_one_machine_per_job(self):
        assert next_fit(NF_HARD_5).assignment == (1, 2, 3, 4, 5)

    def test_loose_jobs_stay_on_one_machine(self):
        assert next_fit(Instance.from_pairs([(1, 3)] * 3)).assignment == (1, 1, 1)

    def test_empty(self):
        assert next_fit(Instance((), ())).machine_count == 0


class TestTraces:
    def test_tracing_does_not_change_the_schedule(self):
        for inst in (NF_HARD_5, gen_tight2(3)):
            assert first_fit_traced(inst)[0] == first_fit(inst)
            assert next_fit_traced(inst)[0] == next_fit(inst)

    def test_first_fit_trace_content(self):
        _, trace = first_fit_traced(NF_HARD_5)
        # job 1 opens machine 1 untested; job 2 fails machine 1 and opens 2
        assert trace[0] == (0, 1, 1)
        assert trace[1] == (1, 2, 2)
        assert trace[2] == (1, 1, 4)  # fits machine 1 on the first probe

    def test_next_fit_trace_content(self):
        _, trace = derived(NF_HARD_5, next_fit, "nf")
        # job 1 opens machine 1 untested; every later job fails machine j-1
        assert trace[0] == (0, 1, 1)
        assert trace[1:] == tuple((1, j, p) for j, p in zip(range(2, 6), (2, 3, 5, 8)))

    @given(instances_st())
    def test_trace_invariants(self, instance):
        for solver, algorithm in ((first_fit, "ff"), (next_fit, "nf")):
            schedule, trace = derived(instance, solver, algorithm)
            open_machines = 0
            for step, label in zip(trace, schedule.assignment):
                assert step.machine == label
                assert step.machine <= open_machines + 1
                assert step.tried <= max(open_machines, 1)
                open_machines = max(open_machines, step.machine)


class TestTreeMatchesLinearScan:
    """The tree descent gives the label-order scan's schedule and trace, and
    placement_trace gives both oracles' traces from the schedules alone."""

    @given(instances_st(max_n=80, max_p=10, max_slack=80))
    def test_random_instances(self, instance):
        assert_matches_oracles(instance)

    @pytest.mark.parametrize("n", range(71))
    def test_every_size_across_power_of_two_boundaries(self, n):
        # mixed slacks open about n/2 machines; zero slacks open all n leaves
        mixed = [(1 + i % 7, 1 + i % 7 + (i * 37) % 11 * (i % 3)) for i in range(n)]
        for pairs in (mixed, [(1 + i % 7, 1 + i % 7) for i in range(n)]):
            assert_matches_oracles(Instance.from_pairs(pairs))

    @pytest.mark.parametrize("n", range(3, 60))
    def test_nf_hard(self, n):
        assert_matches_oracles(gen_nf_hard(n))

    @pytest.mark.parametrize("k", range(1, 31))
    def test_tight2(self, k):
        assert_matches_oracles(gen_tight2(k))

    @pytest.mark.parametrize("family", RANDOM_FAMILIES)
    def test_large_instance_of_each_family(self, family):
        # the benchmark's n=10k shape at n=2,000: 35-354 machines, so the
        # tree doubles six to nine times while loads are spread over it
        spec = GenSpec(family, n=2_000, seed=0, p_range=(1, 10), slack_range=(0, 100))
        assert_matches_oracles(generate(spec))

    def test_job_returns_to_the_left_half_after_growth(self):
        # the zero-slack jobs grow the tree to 2 and then 4 leaves; the last
        # job fits machine 1 again, in the left half of both growths
        inst = Instance.from_pairs([(1, 5), (1, 1), (1, 1), (1, 5)])
        assert first_fit(inst).assignment == (1, 2, 3, 1)
        assert_matches_oracles(inst)


class TestPlacementTrace:
    def test_unknown_algorithm_is_input_error(self):
        with pytest.raises(InputError, match="ff and nf"):
            placement_trace(NF_HARD_5, first_fit(NF_HARD_5), "cover")

    def test_schedule_must_cover_the_instance(self):
        with pytest.raises(CoverageError):
            placement_trace(NF_HARD_5, Schedule((1, 2)), "ff")

    def test_empty(self):
        assert placement_trace(Instance((), ()), Schedule(()), "nf") == ()


class TestDeferredTrace:
    """first_fit_traced hands back its trace unbuilt; placement_trace runs
    the first time the trace is read, and never on a solve."""

    @pytest.fixture
    def derivations(self, monkeypatch):
        calls = []
        real = greedy_module.placement_trace

        def counted(*args):
            calls.append(args[2])
            return real(*args)

        monkeypatch.setattr(greedy_module, "placement_trace", counted)
        return calls

    def test_no_solve_builds_a_trace(self, derivations):
        first_fit(NF_HARD_5)
        optimal(NF_HARD_5)
        record = evaluate(NF_HARD_5, "nf5", ("ff", "nf", "cover", "opt"))
        assert (record.ff, record.opt) == (2, 2)
        assert derivations == []

    def test_derived_once_on_first_read(self, derivations):
        schedule, trace = first_fit_traced(NF_HARD_5)
        assert derivations == []
        expected = placement_trace(NF_HARD_5, schedule, "ff")
        derivations.clear()
        assert len(trace) == 5
        assert trace[0] == expected[0]
        assert trace[1:] == expected[1:]
        assert [placement for placement in trace] == list(expected)
        assert trace == expected
        assert derivations == ["ff"]

    def test_equals_and_hashes_as_the_tuple(self):
        schedule, trace = first_fit_traced(NF_HARD_5)
        expected = placement_trace(NF_HARD_5, schedule, "ff")
        assert trace == expected and expected == trace
        assert not (trace != expected or expected != trace)
        assert first_fit_traced(NF_HARD_5)[1] == trace
        assert hash(trace) == hash(expected)
        assert trace != expected[:-1] and expected[:-1] != trace
        assert first_fit_traced(Instance((), ()))[1] == ()


@given(instances_st())
def test_greedy_schedules_are_feasible(instance):
    assert is_feasible(instance, first_fit(instance))
    assert is_feasible(instance, next_fit(instance))


@given(instances_st())
def test_first_fit_never_beaten_by_next_fit(instance):
    assert first_fit(instance).machine_count <= next_fit(instance).machine_count


@given(instances_st(max_n=12), st.integers(0, 12))
def test_prefix_consistency(instance, cut):
    cut = min(cut, instance.n)
    prefix = Instance(instance.p[:cut], instance.d[:cut])
    assert first_fit(prefix).assignment == first_fit(instance).assignment[:cut]
    assert next_fit(prefix).assignment == next_fit(instance).assignment[:cut]


@given(instances_st(max_n=12))
def test_nonincreasing_slack_makes_first_and_next_fit_identical(instance):
    by_slack = sorted(zip(instance.p, instance.d), key=lambda pd: pd[1] - pd[0], reverse=True)
    ordered = Instance.from_pairs(by_slack)
    assert first_fit(ordered).assignment == next_fit(ordered).assignment


@given(st.lists(st.integers(1, 12), max_size=12))
def test_unit_jobs_leave_first_fit_loads_nonincreasing(deadlines):
    instance = Instance.from_pairs([(1, d) for d in deadlines])
    final = loads(instance, first_fit(instance))
    assert all(a >= b for a, b in zip(final, final[1:]))


def test_tight2_first_fit_fills_pairs_then_one_machine_per_closer():
    # k machines at load k+1, then each closing job opens its own machine
    inst = gen_tight2(3)
    schedule = first_fit(inst)
    assert schedule.machine_count == 7
    assert loads(inst, schedule)[:3] == (4, 4, 4)
