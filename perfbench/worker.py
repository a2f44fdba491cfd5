"""One benchmark process: the `fosched bench` path on one sweep file.

Started by run.py, one at a time, with PYTHONPATH pointing at the checkout's
src/ and FOSCHED_ORACLE_CAP removed. It makes the public calls `fosched
bench` makes (load_sweep, expand_sweep, evaluate per task, emit_report,
assert_bounds), with the oracle cap, node budget and a single process pinned,
and times each evaluate call from outside on the process CPU clock.

Modes:
  measure  run whole passes over the tasks for --seconds of CPU time, then
           check every record (independent first and next fit, invariants,
           pinned counts).
  trace    one pass with every layer wrapped in spans (see tracing.py).
  smoke    one pass; write the CSV report to --report.
  setup    stop after expand_sweep; report only the set-up time.

The last line of standard output is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

from workloads import NODE_BUDGET, ORACLE_CAP, blank_ms, ids_digest

ROOT = Path(__file__).resolve().parent.parent
MAX_PROBLEMS = 20


def reference_first_fit(pairs) -> int:
    """Machines first fit opens, found with a min-load tree.

    Independent of fosched: since d >= p, a machine admits a job exactly when
    its load is at most the job's slack, so first fit takes the leftmost
    machine whose load is <= slack. Unopened machines hold an infinite load.
    """
    size = 1
    while size < len(pairs):
        size *= 2
    tree = [float("inf")] * (2 * size)
    opened = 0
    for p, d in pairs:
        slack = d - p
        if tree[1] <= slack:
            node = 1
            while node < size:
                node = 2 * node if tree[2 * node] <= slack else 2 * node + 1
            tree[node] += p
        else:
            node = size + opened
            opened += 1
            tree[node] = p
        node //= 2
        while node:
            left, right = tree[2 * node], tree[2 * node + 1]
            tree[node] = left if left < right else right
            node //= 2
    return opened


def reference_next_fit(pairs) -> int:
    opened, load = 0, 0
    for p, d in pairs:
        if opened and load + p <= d:
            load += p
        else:
            opened, load = opened + 1, p
    return opened


def load_pins(path: str, seed: int, part: int, tasks) -> dict[str, dict]:
    """Pinned counts by instance id: the seed-independent instances at every
    seed, and every instance of the part at the pinned seed."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    pins = dict(doc["fixed"])
    if seed == doc["seed"]:
        counts = doc["parts"][part]
        if counts["instances"] != len(tasks) or counts["ids_sha256"] != ids_digest(tasks):
            raise RuntimeError(f"{path} part {part} was pinned for another sweep")
        columns = {algo: counts[algo].split() for algo in ("ff", "nf", "cover", "opt") if algo in counts}
        for index, (tid, _, _) in enumerate(tasks):
            pins[tid] = {algo: None if col[index] == "-" else int(col[index]) for algo, col in columns.items()}
    return pins


def check_records(tasks, records, pins, assert_bounds) -> list[tuple[str, str]]:
    """(instance id, problem) for every record that is not provably right.

    Every record: first and next fit match independent implementations,
    opt <= ff <= nf and opt <= cover. Every pinned record: each count equals
    its pin, an opt that succeeds equals the true optimum, and a record run
    without opt also meets the proven bounds under the pinned optimum.
    """
    problems = []
    for (tid, instance, algos), rec in zip(tasks, records):
        pairs = [(job.p, job.d) for job in instance.jobs]
        found = []
        if "ff" in algos and rec.ff != reference_first_fit(pairs):
            found.append(f"ff={rec.ff}, reference first fit gives {reference_first_fit(pairs)}")
        if "nf" in algos and rec.nf != reference_next_fit(pairs):
            found.append(f"nf={rec.nf}, reference next fit gives {reference_next_fit(pairs)}")
        if rec.ff is not None and rec.nf is not None and rec.ff > rec.nf:
            found.append(f"ff={rec.ff} > nf={rec.nf}")
        if rec.opt is not None:
            for algo in ("ff", "nf", "cover"):
                count = getattr(rec, algo)
                if count is not None and count < rec.opt:
                    found.append(f"{algo}={count} < opt={rec.opt}")
        pinned = pins.get(tid)
        if pinned is not None:
            for algo in ("ff", "nf", "cover"):
                if algo in algos and getattr(rec, algo) != pinned[algo]:
                    found.append(f"{algo}={getattr(rec, algo)}, pinned {pinned[algo]}")
            true_opt = pinned.get("opt")
            if rec.opt is not None and rec.opt != true_opt:
                found.append(f"opt={rec.opt}, pinned optimum {true_opt}")
            if "opt" not in algos and true_opt is not None:
                for v in assert_bounds(dataclasses.replace(rec, opt=true_opt)):
                    found.append(f"with pinned optimum: {v.detail}")
        problems.extend((tid, text) for text in found)
    return problems


def sweep_pass(tasks, api, solve_s: list[float]):
    """evaluate every task, then emit_report and assert_bounds, as `fosched bench`."""
    evaluate, emit_report, assert_bounds = api["evaluate"], api["emit_report"], api["assert_bounds"]
    clock = time.process_time
    records = []
    for tid, instance, algos in tasks:
        start = clock()
        records.append(evaluate(instance, tid, algos, oracle_cap=ORACLE_CAP, node_budget=NODE_BUDGET))
        solve_s.append(clock() - start)
    report = emit_report(records, "csv")
    violations = [v for rec in records if rec.opt is not None for v in assert_bounds(rec)]
    return records, report, violations


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", required=True, choices=("measure", "trace", "smoke", "setup"))
    parser.add_argument("--sweep", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--pins", help="measure mode: the pinned counts of the workload")
    parser.add_argument("--seed", type=int, help="with --pins: the seed --sweep was built from")
    parser.add_argument("--part", type=int, default=0, help="with --pins: the part --sweep holds")
    parser.add_argument("--spans", help="trace mode: where to write the spans")
    parser.add_argument("--report", help="smoke mode: where to write the CSV report")
    args = parser.parse_args(argv)

    import fosched
    from fosched import bench

    if not Path(fosched.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"imported fosched from {fosched.__file__}, not from {ROOT / 'src'}")
    api = {name: getattr(bench, name) for name in ("expand_sweep", "evaluate", "emit_report", "assert_bounds")}
    tracer = None
    if args.mode == "trace":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        for name in ("expand_sweep", "emit_report", "assert_bounds"):
            api[name] = tracer.wrap(f"bench.{name}", api[name])
        api["evaluate"] = tracer.wrap_evaluate(api["evaluate"])

    tasks = api["expand_sweep"](bench.load_sweep(args.sweep), oracle_cap=ORACLE_CAP)
    out = {"setup_s": time.process_time()}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0
    if tracer is not None:
        from_pairs = tracer.wrap("core.from_pairs", fosched.Instance.from_pairs)
        for _, instance, _ in tasks:
            if from_pairs([(job.p, job.d) for job in instance.jobs]) != instance:
                raise RuntimeError("Instance.from_pairs does not rebuild the instance")

    solve_s: list[float] = []
    pass_s, pass_wall_s, reports, problems = [], [], set(), []
    # Whole passes only: another pass runs while it is expected to end within
    # --seconds of CPU time (and within twice that of wall time).
    wall_start = time.perf_counter()
    while True:
        cpu, wall = time.process_time(), time.perf_counter()
        records, report, violations = sweep_pass(tasks, api, solve_s)
        pass_s.append(time.process_time() - cpu)
        pass_wall_s.append(time.perf_counter() - wall)
        reports.add(blank_ms(report))
        problems += [(v.instance_id, f"bound violated: {v.detail}") for v in violations]
        if args.mode != "measure":
            break
        expected = sum(pass_s) * (len(pass_s) + 1) / len(pass_s)
        expected_wall = sum(pass_wall_s) * (len(pass_s) + 1) / len(pass_s)
        if expected > args.seconds or time.perf_counter() - wall_start + expected_wall > 2 * args.seconds:
            break
    out["rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = list(dict.fromkeys(problems))  # every pass reports the same violations
    if len(reports) > 1:
        problems.append(("*", "passes over the same tasks produced different reports"))
    if args.mode == "measure":
        problems += check_records(tasks, records, load_pins(args.pins, args.seed, args.part, tasks), api["assert_bounds"])
    if tracer is not None:
        out["counts"] = tracer.counts()
        out["installed"] = sorted(tracer.installed)
        tracer.write(args.spans)
    if args.report:
        Path(args.report).write_text(report, encoding="utf-8")

    calls = sum(len(algos) for _, _, algos in tasks)
    unsolved = sum(
        getattr(rec, algo) is None for (_, _, algos), rec in zip(tasks, records) for algo in algos
    )
    out.update(
        pass_s=pass_s,
        pass_wall_s=pass_wall_s,
        solve_s=solve_s,
        instances=len(solve_s),
        calls=calls * len(pass_s),
        unsolved=unsolved * len(pass_s),
        bad_instances=len({tid for tid, _ in problems}) * len(pass_s),
        problems=[f"{tid}: {text}" for tid, text in problems[:MAX_PROBLEMS]],
        digest=hashlib.sha256(min(reports).encode()).hexdigest(),
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
