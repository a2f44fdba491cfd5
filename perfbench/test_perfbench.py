"""Unit tests of the benchmark's own logic: python3 -m pytest perfbench -q"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from fosched import Instance, first_fit, first_fit_traced, gen_nf_hard, gen_tight2, next_fit  # noqa: E402
from workloads import JOBS, NODE_BUDGET, ORACLE_CAP, PARTS, WORKLOADS, blank_ms, smoke_doc, sweep_doc  # noqa: E402


def random_instances(count: int, n: int, seed: int = 0):
    rng = random.Random(seed)
    for _ in range(count):
        pairs = []
        for _ in range(rng.randint(0, n)):
            p = rng.randint(1, 10)
            pairs.append((p, p + rng.randint(0, 25)))
        yield Instance.from_pairs(pairs)
    yield gen_nf_hard(12)
    yield gen_tight2(5)


def instance_seeds(doc):
    return {
        entry["seed"] + i for entry in doc["sweeps"] if "seed" in entry for i in range(entry["count"])
    }


def test_sweep_documents_follow_the_seed():
    for workload in WORKLOADS:
        assert sweep_doc(workload, 3, 1) == sweep_doc(workload, 3, 1)
    assert sweep_doc("tiny-many", 3, 0) != sweep_doc("tiny-many", 4, 0)


def test_parts_and_seeds_draw_disjoint_instances():
    for workload in WORKLOADS:
        seen: set[int] = set()
        for seed in (0, 1):
            for part in range(PARTS):
                drawn = instance_seeds(sweep_doc(workload, seed, part))
                assert not drawn & seen
                seen |= drawn


def test_smoke_doc_keeps_shape_and_shrinks():
    doc = sweep_doc("greedy-large", 1, 0)
    small = smoke_doc("greedy-large", 1)
    assert small["algorithms"] == doc["algorithms"]
    assert [e["family"] for e in small["sweeps"]] == [e["family"] for e in doc["sweeps"]]
    assert all(e["n"] <= 40 and e["count"] <= 2 for e in small["sweeps"])


def test_paper_smoke_sweep_reaches_the_node_budget():
    # If a faster exact search solves this instance within the budget, pick
    # another one that still exhausts it.
    from fosched import bench

    tasks = bench.expand_sweep(smoke_doc("paper-sweep", 1))
    tid, instance, algos = tasks[-1]
    assert "opt" in algos
    record = bench.evaluate(instance, tid, algos, oracle_cap=ORACLE_CAP, node_budget=NODE_BUDGET)
    assert record.opt is None and record.ff is not None


def test_reference_greedy_counts_match_fosched():
    for instance in random_instances(300, 40):
        pairs = [(job.p, job.d) for job in instance.jobs]
        assert worker.reference_first_fit(pairs) == first_fit(instance).machine_count
        assert worker.reference_next_fit(pairs) == next_fit(instance).machine_count


def test_probes_sum_tried_of_the_traced_first_fit_calls():
    tracer = tracing.Tracer()
    traced = tracer.wrap("greedy.first_fit_traced", first_fit_traced)
    seed_first_fit = tracer.wrap("exact.seed_first_fit", lambda instance: traced(instance)[0])
    ff = tracer.wrap("greedy.first_fit", lambda instance: traced(instance)[0])
    instances = list(random_instances(50, 30))
    for instance in instances:
        ff(instance)
        seed_first_fit(instance)  # a first_fit_traced call outside greedy.first_fit
    counts = tracer.counts()
    expected = sum(t.tried for instance in instances for t in first_fit_traced(instance)[1])
    assert counts["greedy.first_fit.probes"] == expected
    assert counts["greedy.first_fit.machines"] == sum(first_fit(i).machine_count for i in instances)


def test_probes_are_absent_once_first_fit_stops_calling_the_traced_scan():
    installed = {span for _, _, span, _ in tracing.LAYERS}
    spans = [
        ("greedy.first_fit", 0, 10, -1, "a"),
        ("exact.optimal", 20, 60, -1, "a"),
        ("exact.seed_first_fit", 30, 40, 1, "a"),
        ("greedy.first_fit_traced", 31, 39, 2, "a"),
    ]
    counts = {"greedy.first_fit.machines": 3}
    metrics = tracing.layer_metrics(spans, counts, installed)
    assert metrics["greedy.first_fit.probes"] is None
    assert metrics["greedy.first_fit.machines"] == 3
    assert tracing.layer_metrics(spans, counts, installed - {"greedy.first_fit_traced"})[
        "greedy.first_fit.probes"
    ] is None
    counts.update({"greedy.first_fit.traced_calls": 1, "greedy.first_fit.probes": 7})
    assert tracing.layer_metrics(spans, counts, installed)["greedy.first_fit.probes"] == 7


def test_blank_ms_empties_only_timing_cells():
    report = "id,n,ff,ms_ff,ms_opt\na,3,2,0.5,\nb,4,1,0.25,9.0\n"
    assert blank_ms(report) == "id,n,ff,ms_ff,ms_opt\na,3,2,,\nb,4,1,,\n"


def test_percentile_is_nearest_rank():
    values = list(range(1, 1001))
    assert run.percentile(values, 50) == 500
    assert run.percentile(values, 99) == 990
    assert run.percentile([7.0], 99) == 7.0


def test_self_time_subtracts_direct_children():
    spans = [
        ("bench.evaluate", 0, 100, -1, "a"),
        ("cover.setcover_greedy", 10, 60, 0, "a"),
        ("cover.max_feasible_subset", 20, 50, 1, "a"),
    ]
    total, self_s, calls = tracing.span_times(spans)
    assert self_s["bench.evaluate"] == pytest.approx(50e-9)
    assert self_s["cover.setcover_greedy"] == pytest.approx(20e-9)
    assert total["cover.max_feasible_subset"] == pytest.approx(30e-9)
    assert calls["cover.max_feasible_subset"] == 1


def test_removed_inner_call_site_is_absent_not_an_error():
    spans = [
        ("cover.setcover_greedy", 0, 60, -1, "a"),
        ("cover.max_feasible_subset", 10, 50, 0, "a"),
    ]
    installed = {span for _, _, span, _ in tracing.LAYERS}
    # build_table still exists but nothing calls it any more
    metrics = tracing.layer_metrics(spans, {}, installed)
    assert metrics["cover.build_table.s"] is None
    assert metrics["cover.max_feasible_subset.s"] == pytest.approx(40e-9)
    # build_table is gone from the module
    metrics = tracing.layer_metrics(spans, {}, installed - {"cover.build_table"})
    assert metrics["cover.build_table.s"] is None
    # a layer the workload does not reach reads 0, not absent
    assert metrics["exact.optimal.s"] == 0.0


def test_tracer_records_nesting_and_instance():
    tracer = tracing.Tracer()
    inner = tracer.wrap("cover.max_feasible_subset", lambda jobs: (1, [0]))
    outer = tracer.wrap_evaluate(lambda instance, instance_id: inner([object(), object()]))
    outer(None, "inst-7")
    assert [(s[0], s[3], s[4]) for s in tracer.spans] == [
        ("bench.evaluate", -1, "inst-7"),
        ("cover.max_feasible_subset", 0, "inst-7"),
    ]
    assert tracer.counts() == {"cover.round_jobs": 2, "cover.placed": 1}


def test_the_benchmark_starts_no_more_workers_than_cores():
    # Read the clamp; never start the workers.
    argv = run.cli_argv(Path("sweep.json"), Path("out.csv"))
    jobs = int(argv[argv.index("--jobs") + 1])
    assert jobs == JOBS == 1 <= (os.cpu_count() or 1)
    with pytest.raises(SystemExit):
        run.main(["--workload", "tiny-many", "--jobs", "8"])


def test_child_environment_drops_the_oracle_cap_and_python_settings(monkeypatch):
    monkeypatch.setenv("FOSCHED_ORACLE_CAP", "99")
    monkeypatch.setenv("PYTHONPATH", "/elsewhere")
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setenv("PYTHONPYCACHEPREFIX", "/elsewhere")
    env = run.child_env()
    assert "FOSCHED_ORACLE_CAP" not in env
    assert "PYTHONDONTWRITEBYTECODE" not in env and "PYTHONPYCACHEPREFIX" not in env
    assert env["PYTHONPATH"] == str(run.ROOT / "src")


def test_printed_metrics_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layers = list(tracing.layer_metrics([], {}, set())) + ["trace.overhead_frac"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {n: run.layer_unit(n) for n in layers}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_seed_independent_instances_are_checked_at_every_seed():
    from fosched import bench

    pins_path = run.HERE / "pins" / "paper-sweep.json"
    tasks = bench.expand_sweep(sweep_doc("paper-sweep", 5, 0))
    pins = worker.load_pins(str(pins_path), 5, 0, tasks)
    assert set(pins) == {tid for tid, _, _ in tasks if tid.startswith(("nf-hard-", "tight-2-"))}
    assert pins["tight-2-k5"]["opt"] == 6 and pins["nf-hard-n20"]["opt"] == 2
    index = next(i for i, (tid, _, _) in enumerate(tasks) if tid == "tight-2-k2")
    tid, instance, algos = tasks[index]
    record = bench.evaluate(instance, tid, algos)
    assert worker.check_records([tasks[index]], [record], pins, bench.assert_bounds) == []
    wrong = dataclasses.replace(record, opt=record.opt + 1)
    assert worker.check_records([tasks[index]], [wrong], pins, bench.assert_bounds)
