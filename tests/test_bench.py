import math
from fractions import Fraction

import pytest
from hypothesis import given, settings

import fosched.bench as bench_module

from fosched import (
    DEFAULT_ORACLE_CAP,
    MAX_JOBS,
    BenchRecord,
    GenSpec,
    HuntResult,
    InputError,
    Instance,
    OrderClass,
    assert_bounds,
    counterexample_search,
    effective_oracle_cap,
    emit_report,
    evaluate,
    expand_sweep,
    gen_tight2,
    is_feasible,
    records_from_json,
    run,
    run_sweep,
)
from helpers import NF_HARD_5, instances_st

LOOSE_21 = Instance.from_pairs([(1, 100)] * 21)


class TestRun:
    def test_growth_family_counts(self):
        reports = run(NF_HARD_5, ("ff", "nf", "opt"))
        assert [(r.algorithm, r.machine_count) for r in reports] == [
            ("ff", 2), ("nf", 5), ("opt", 2),
        ]

    def test_canonical_order_regardless_of_request_order(self):
        reports = run(NF_HARD_5, {"opt", "ff", "nf", "cover"})
        assert [r.algorithm for r in reports] == ["ff", "nf", "cover", "opt"]

    def test_empty_instance_all_zero(self):
        reports = run(Instance(()), ("ff", "nf", "cover", "opt"))
        assert all(r.machine_count == 0 for r in reports)

    def test_tight2_counts(self):
        reports = run(gen_tight2(2), ("ff", "opt"))
        assert [r.machine_count for r in reports] == [5, 3]

    def test_schedules_are_attached_and_feasible(self):
        for rep in run(NF_HARD_5, ("ff", "cover", "opt")):
            assert is_feasible(NF_HARD_5, rep.schedule)

    def test_unknown_algorithm(self):
        with pytest.raises(InputError):
            run(NF_HARD_5, ("ff", "meta"))

    def test_capacity_failure_lands_in_the_report(self):
        reports = run(LOOSE_21, ("ff", "opt"))
        assert reports[0].machine_count == 1
        assert reports[1].machine_count is None
        assert reports[1].error_kind == "capacity"

    def test_budget_failure_lands_in_the_report(self):
        reports = run(gen_tight2(2), ("opt",), node_budget=1)
        assert reports[0].error_kind == "budget"


class TestOracleCap:
    def test_default_without_the_variable(self, monkeypatch):
        monkeypatch.delenv("FOSCHED_ORACLE_CAP", raising=False)
        assert effective_oracle_cap() == DEFAULT_ORACLE_CAP

    @pytest.mark.parametrize("raw, cap", [("0", 0), ("500", 500)])
    def test_accepts_up_to_the_maximum(self, monkeypatch, raw, cap):
        monkeypatch.setenv("FOSCHED_ORACLE_CAP", raw)
        assert effective_oracle_cap() == cap

    @pytest.mark.parametrize("raw", ["-1", "501", "5000"])
    def test_rejects_values_outside_the_range(self, monkeypatch, raw):
        monkeypatch.setenv("FOSCHED_ORACLE_CAP", raw)
        with pytest.raises(InputError, match=f"between 0 and 500, got {raw}"):
            effective_oracle_cap()


class TestEvaluate:
    def test_record_fields(self):
        record = evaluate(gen_tight2(2), "t2")
        assert record.instance_id == "t2"
        assert (record.n, record.ff, record.nf, record.opt) == (7, 5, 5, 3)
        assert record.cover is not None
        assert record.ms_ff is not None and record.ms_opt is not None
        assert record.ratio("ff") == 5 / 3

    def test_id_falls_back_to_instance_name(self):
        assert evaluate(gen_tight2(1)).instance_id == "tight-2-k1"

    def test_ratios_absent_without_opt(self):
        record = evaluate(NF_HARD_5, "x", ("ff", "nf"))
        assert record.opt is None and record.ratio("ff") is None

    def test_ratios_absent_for_empty_instance(self):
        record = evaluate(Instance(()), "empty")
        assert record.opt == 0 and record.ratio("ff") is None

    @given(instances_st(max_n=8))
    @settings(max_examples=30)
    def test_ratios_at_least_one(self, instance):
        record = evaluate(instance, "r")
        if instance.n:
            assert all(record.ratio(a) >= 1 for a in ("ff", "nf", "cover"))


class TestAssertBounds:
    def test_tight2_record_is_clean(self):
        # equal slacks everywhere: ff == nf and ff <= 2*opt - 1 must hold
        record = evaluate(gen_tight2(3), "t3")
        assert record.ff == 7 and record.opt == 4
        assert assert_bounds(record) == []

    def test_real_records_are_clean(self):
        for inst in (NF_HARD_5, Instance.from_pairs([(1, 1)] * 3), Instance(())):
            assert assert_bounds(evaluate(inst, "i")) == []

    def test_checks_opt_free_bounds_without_opt(self):
        record = evaluate(gen_tight2(3), "t3", ("ff", "nf", "cover"))
        assert record.opt is None and record.ff == record.nf == 7
        assert assert_bounds(record) == []

    def test_ff_nf_violation_reported_without_opt(self):
        record = BenchRecord("bad", 5, OrderClass.SLACK_NONINCREASING, ff=2, nf=3, cover=2)
        assert [v.assertion for v in assert_bounds(record)] == ["slack-noninc-ff-equals-nf"]

    def test_opt2_violation_detected(self):
        record = BenchRecord("bad", 4, OrderClass.ARBITRARY, ff=4, opt=2)
        names = [v.assertion for v in assert_bounds(record)]
        assert names == ["opt2-ff-at-most-3"]

    def test_unit_violation_detected(self):
        record = BenchRecord("bad", 3, OrderClass.UNIT_PROCESSING, ff=2, nf=2, opt=1)
        names = [v.assertion for v in assert_bounds(record)]
        assert "unit-ff-optimal" in names and "opt1-ff-exact" in names

    def test_slack_noninc_equality_violation_detected(self):
        record = BenchRecord("bad", 5, OrderClass.SLACK_NONINCREASING, ff=2, nf=3, opt=2)
        assert [v.assertion for v in assert_bounds(record)] == ["slack-noninc-ff-equals-nf"]

    def test_cover_harmonic_violation_detected(self):
        record = BenchRecord("bad", 4, OrderClass.ARBITRARY, ff=1, cover=5, opt=1)
        assert [v.assertion for v in assert_bounds(record)] == ["cover-harmonic"]
        assert math.ceil((math.log(4) + 1) * 1) == 3

    def test_skips_assertions_missing_their_counts(self):
        record = BenchRecord("x", 5, OrderClass.SLACK_NONINCREASING, ff=1, opt=1)
        assert assert_bounds(record) == []  # no nf, no cover: only ff bounds run


class TestCounterexampleSearch:
    TEMPLATE = GenSpec("arbitrary", n=6, seed=31337)

    def test_zero_budget(self):
        result = counterexample_search(0, self.TEMPLATE)
        assert result.best is None and result.evaluated == 0 and result.flagged == ()

    def test_planted_tight2_sets_the_floor(self):
        result = counterexample_search(0, self.TEMPLATE, plants=(gen_tight2(5),))
        assert result.best.ff == 11 and result.best.opt == 6
        assert Fraction(result.best.ff, result.best.opt) == Fraction(11, 6)
        assert result.flagged == ()  # 11/6 < 2

    def test_threshold_flags_planted_ratio(self):
        result = counterexample_search(
            0, self.TEMPLATE, Fraction(11, 6), plants=(gen_tight2(5),)
        )
        assert len(result.flagged) == 1

    def test_identical_loose_jobs_hold_ratio_one(self):
        plant = Instance.from_pairs([(1, 10)] * 8, name="loose")
        result = counterexample_search(0, self.TEMPLATE, plants=(plant,))
        assert result.best.ff == 1 and result.best.opt == 1

    def test_deterministic_and_below_two(self):
        a = counterexample_search(25, self.TEMPLATE)
        b = counterexample_search(25, self.TEMPLATE)
        assert a.evaluated == b.evaluated == 25
        assert a.best.instance_id == b.best.instance_id
        assert (a.best.ff, a.best.opt) == (b.best.ff, b.best.opt)
        assert a.flagged == () and Fraction(a.best.ff, a.best.opt) < 2

    def test_generates_and_evaluates_one_instance_at_a_time(self, monkeypatch):
        events = []
        real_gen, real_evaluate = bench_module.gen_random, bench_module.evaluate

        def gen_random(spec):
            events.append(("gen", spec.seed))
            return real_gen(spec)

        def evaluate(instance, instance_id, *args, **kwargs):
            events.append(("evaluate", instance_id))
            return real_evaluate(instance, instance_id, *args, **kwargs)

        monkeypatch.setattr(bench_module, "gen_random", gen_random)
        monkeypatch.setattr(bench_module, "evaluate", evaluate)
        plant = Instance.from_pairs([(1, 10)] * 3, name="loose")
        result = counterexample_search(3, self.TEMPLATE, plants=(plant,))
        assert events == [
            ("evaluate", "loose"),
            ("gen", 31337), ("evaluate", "arbitrary-n6-s31337"),
            ("gen", 31338), ("evaluate", "arbitrary-n6-s31338"),
            ("gen", 31339), ("evaluate", "arbitrary-n6-s31339"),
        ]
        assert result.evaluated == 4

    def test_nothing_is_generated_above_the_oracle_cap(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("generated or evaluated an instance")

        monkeypatch.setattr(bench_module, "gen_random", refuse)
        monkeypatch.setattr(bench_module, "evaluate", refuse)
        template = GenSpec("arbitrary", n=DEFAULT_ORACLE_CAP + 1, seed=1)
        assert counterexample_search(100, template) == HuntResult(None, 0, 100, ())

    def test_plants_are_evaluated_above_the_oracle_cap(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("generated an instance")

        monkeypatch.setattr(bench_module, "gen_random", refuse)
        plant = Instance.from_pairs([(1, 10)] * 3, name="loose")
        result = counterexample_search(7, self.TEMPLATE, plants=(plant,), oracle_cap=5)
        assert (result.evaluated, result.skipped) == (1, 7)
        assert result.best.instance_id == "loose"

    def test_instances_at_the_oracle_cap_are_evaluated(self):
        result = counterexample_search(2, self.TEMPLATE, oracle_cap=self.TEMPLATE.n)
        assert (result.evaluated, result.skipped) == (2, 0)

    def test_budget_failures_are_skipped_and_counted(self):
        result = counterexample_search(
            0, self.TEMPLATE, plants=(gen_tight2(2),), node_budget=1
        )
        assert result.skipped == 1 and result.evaluated == 0


class TestReports:
    def test_header_only_for_no_records(self):
        assert emit_report([]) == (
            "id,n,classes,ff,nf,cover,opt,ratio_ff,ratio_nf,ratio_cover,"
            "ms_ff,ms_nf,ms_cover,ms_opt\n"
        )

    def test_csv_row_content(self):
        record = evaluate(gen_tight2(2), "t2", ("ff", "nf", "opt"))
        lines = emit_report([record]).splitlines()
        cells = lines[1].split(",")
        assert cells[0] == "t2"
        assert cells[1] == "7"
        assert cells[2] == "slack-noninc|slack-nondec"
        assert cells[3:7] == ["5", "5", "", "3"]
        assert cells[7] == "1.666667"
        assert cells[9] == ""  # no cover count, no cover ratio

    def test_json_round_trip(self):
        records = [
            evaluate(gen_tight2(2), "a"),
            evaluate(NF_HARD_5, "b", ("ff", "nf")),
            evaluate(Instance(()), "c"),
        ]
        assert records_from_json(emit_report(records, "json")) == records

    @pytest.mark.parametrize(
        "text",
        [
            '[{"n": 1, "classes": "arbitrary"}]',
            '[{"id": "a", "classes": "arbitrary"}]',
            '[{"id": "a", "n": 1}]',
            '[{"id": "a", "n": 1, "classes": 5}]',
            '[{"id": "a", "n": "x", "classes": "arbitrary", "cover": 2, "opt": 1}]',
            '[{"id": "a", "n": true, "classes": "arbitrary"}]',
            '[{"id": "a", "n": -1, "classes": "arbitrary"}]',
            '[{"id": "a", "n": 1.0, "classes": "arbitrary"}]',
            '[{"id": "a", "n": 1, "classes": "arbitrary", "ff": true}]',
            '[{"id": "a", "n": 1, "classes": "arbitrary", "opt": 1.5}]',
            '[{"id": "a", "n": 1, "classes": "arbitrary", "nf": "2"}]',
            '[{"id": "a", "n": 1, "classes": "arbitrary", "ms_ff": "0.1"}]',
            '[{"id": "a", "n": 1, "classes": "arbitrary", "ms_opt": false}]',
        ],
    )
    def test_json_rejects_malformed_rows(self, text):
        with pytest.raises(InputError):
            records_from_json(text)

    def test_unknown_format(self):
        with pytest.raises(InputError):
            emit_report([], "xml")

    def test_deterministic_apart_from_timings(self):
        def stripped(records):
            text = emit_report(records)
            return [",".join(line.split(",")[:10]) for line in text.splitlines()]

        a = [evaluate(gen_tight2(2), "t2"), evaluate(NF_HARD_5, "g5")]
        b = [evaluate(gen_tight2(2), "t2"), evaluate(NF_HARD_5, "g5")]
        assert stripped(a) == stripped(b)


SWEEP_DOC = {
    "algorithms": ["ff", "nf", "opt"],
    "sweeps": [
        {"family": "nf-hard", "n_range": [3, 5]},
        {"family": "tight-2", "k": 1, "algorithms": ["ff", "opt"]},
        {"family": "arbitrary", "n": 6, "count": 2, "seed": 99},
    ],
}


class TestSweeps:
    def test_expansion_ids_and_algorithms(self):
        tasks = expand_sweep(SWEEP_DOC)
        assert [t[0] for t in tasks] == [
            "nf-hard-n3",
            "nf-hard-n4",
            "nf-hard-n5",
            "tight-2-k1",
            "arbitrary-n6-s99",
            "arbitrary-n6-s100",
        ]
        assert tasks[3][2] == ("ff", "opt")
        assert tasks[4][2] == ("ff", "nf", "opt")

    def test_opt_dropped_beyond_oracle_cap(self):
        tasks = expand_sweep(SWEEP_DOC, oracle_cap=4)
        by_id = {t[0]: t[2] for t in tasks}
        assert "opt" in by_id["nf-hard-n4"]
        assert "opt" not in by_id["nf-hard-n5"]  # n=5 > cap 4

    @pytest.mark.parametrize(
        "doc",
        [
            {},
            {"sweeps": [{"family": "what"}]},
            {"sweeps": [{"family": "nf-hard"}]},
            {"sweeps": [{"family": "nf-hard", "n_range": [3]}]},
            {"sweeps": [{"family": "arbitrary", "n": 3, "count": 0}]},
            {"sweeps": [{"family": "arbitrary", "n": 3, "oops": 1}]},
            {"sweeps": [{"family": "arbitrary", "n": 3}], "algorithms": ["zz"]},
            {"sweeps": [{"family": "nf-hard", "n": "5"}]},
            {"sweeps": [{"family": "arbitrary", "n": "5"}]},
            {"sweeps": [{"family": "arbitrary", "n": 3, "seed": "x"}]},
            {"sweeps": 5},
            {"sweeps": [{"family": "arbitrary", "n": 3}], "algorithms": 5},
            {"sweeps": [{"family": "arbitrary", "n": 3}], "algorithms": "ff"},
            {"sweeps": [{"family": "arbitrary", "n": 3, "count": True}]},
        ],
    )
    def test_rejects_malformed_documents(self, doc):
        with pytest.raises(InputError):
            expand_sweep(doc)

    @pytest.mark.parametrize(
        "entries",
        [
            [{"family": "arbitrary", "n": 1, "count": 10**7}],
            [{"family": "unit", "n": MAX_JOBS + 1}],
            [{"family": "arbitrary", "n": 0, "count": 10**7}],  # empty instances count one job each
            [{"family": "tight-2", "k_range": [1, 10**9]}],
            [{"family": "tight-2", "k_range": [-(10**9), 1]}],
            [{"family": "tight-2", "k": 10**9}],
            [{"family": "nf-hard", "n_range": [3, 10**6]}],
            [{"family": "nf-hard", "n": 10**12}],
            [{"family": "slack-noninc", "n": 500_000, "count": 2}, {"family": "nf-hard", "n": 3}],
        ],
    )
    def test_job_cap_is_checked_before_generating(self, monkeypatch, entries):
        def refuse(*args):
            raise AssertionError("generated an instance")

        monkeypatch.setattr(bench_module, "generate", refuse)
        monkeypatch.setattr(bench_module, "gen_random", refuse)
        with pytest.raises(InputError, match="above the cap"):
            expand_sweep({"sweeps": entries})

    @pytest.mark.parametrize(
        "fault",
        [
            {"algorithms": ["zz"]},
            {"p_range": [1]},
            {"slack_range": [0, "x"]},
            {"seed": "x"},
            {"family": "what"},
            {"oops": 1},
        ],
    )
    def test_every_entry_is_checked_before_generating(self, monkeypatch, fault):
        def refuse(*args):
            raise AssertionError("generated an instance")

        monkeypatch.setattr(bench_module, "generate", refuse)
        monkeypatch.setattr(bench_module, "gen_random", refuse)
        entries = [{"family": "arbitrary", "n": 1000, "count": 999}, {"family": "unit", "n": 3, **fault}]
        with pytest.raises(InputError):
            expand_sweep({"sweeps": entries})

    def test_sweep_at_the_job_cap_is_accepted(self, monkeypatch):
        monkeypatch.setattr(bench_module, "generate", lambda spec: Instance(()))
        doc = {"algorithms": ["ff"], "sweeps": [{"family": "arbitrary", "n": 100_000, "count": 10}]}
        assert len(expand_sweep(doc)) == 10

    @pytest.mark.parametrize(
        "entry",
        [
            {"family": "nf-hard", "n_range": [3, 9]},
            {"family": "nf-hard", "n": 7},
            {"family": "tight-2", "k_range": [1, 6]},
            {"family": "tight-2", "k": 4},
            {"family": "arbitrary", "n": 5, "count": 3},
            {"family": "unit", "n": 0, "count": 2},
        ],
    )
    def test_job_count_matches_the_generated_sweep(self, entry):
        generated = sum(max(t[1].n, 1) for t in expand_sweep({"sweeps": [entry]}))
        assert bench_module._parse_entry(entry)[0] == generated

    def test_parsing_an_entry_generates_nothing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("generated an instance")

        monkeypatch.setattr(bench_module, "generate", refuse)
        monkeypatch.setattr(bench_module, "gen_random", refuse)
        for entry in ({"family": "tight-2", "k_range": [1, 3]}, {"family": "unit", "n": 4, "count": 2}):
            _, specs = bench_module._parse_entry(entry)
            instance_id, spec = next(specs)
            assert isinstance(spec, GenSpec) and spec.family == entry["family"]
            assert instance_id in ("tight-2-k1", "unit-n4-s0")

    def test_closed_form_range_sum(self):
        for lo in range(-5, 9):
            for hi in range(-6, 10):
                for floor in (0, 1):
                    expected = sum(max(v, floor) for v in range(lo, hi + 1))
                    assert bench_module._sum_at_least(lo, hi, floor) == expected

    def test_run_sweep_matches_serial_and_parallel(self):
        tasks = expand_sweep(SWEEP_DOC)
        serial = run_sweep(tasks)
        parallel = run_sweep(tasks, jobs=2)

        def key(r):
            return (r.instance_id, r.n, r.classes, r.ff, r.nf, r.cover, r.opt)

        assert [key(r) for r in serial] == [key(r) for r in parallel]
        assert serial[0].ff == 2 and serial[0].nf == 3 and serial[0].opt == 2

    @pytest.mark.parametrize(
        "jobs, cpus, tasks, expected",
        [(1000, 3, 5, [3]), (4, 8, 5, [4]), (32, 64, 3, [3]), (64, None, 5, []), (32, 64, 1, [])],
    )
    def test_run_sweep_caps_workers(self, monkeypatch, jobs, cpus, tasks, expected):
        sizes = []

        class FakePool:  # records the pool size and runs the tasks in this process
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(bench_module, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(bench_module.os, "cpu_count", lambda: cpus)
        doc = {"algorithms": ["ff"], "sweeps": [{"family": "nf-hard", "n_range": [3, 2 + tasks]}]}
        records = run_sweep(expand_sweep(doc), jobs=jobs)
        assert sizes == expected
        assert [r.ff for r in records] == [2] * tasks
