"""Command-line interface.

Subcommands: ``gen`` writes instance files, ``run`` solves one instance,
``bench`` evaluates a sweep file into a CSV/JSON report, and ``hunt``
searches seeded random instances for high ff/opt ratios.

Exit codes: 0 success, 1 input error, 2 bound or threshold violation,
3 exact-solver node budget exhausted.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .bench import (
    ALGORITHMS,
    assert_bounds,
    counterexample_search,
    effective_oracle_cap,
    emit_report,
    expand_sweep,
    load_sweep,
    report_row,
    run,
    run_sweep,
    REPORT_COLUMNS,
)
from .core import InputError, instance_to_json, load_instance
from .exact import SearchBudgetError
from .greedy import placement_trace
from .instances import FAMILIES, GenSpec, generate

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BOUNDS = 2
EXIT_BUDGET = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # bad usage is an input error (exit 1), not argparse's default exit 2
    def error(self, message: str):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="fosched", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance file")
    gen.add_argument("--family", required=True, choices=FAMILIES)
    gen.add_argument("--n", type=int, default=0, help="job count (random families, nf-hard)")
    gen.add_argument("--k", type=int, default=0, help="family parameter (tight-2)")
    gen.add_argument("--seed", type=int, default=0, help="64-bit unsigned seed")
    gen.add_argument("--p-range", type=int, nargs=2, default=(1, 10), metavar=("LO", "HI"))
    gen.add_argument("--slack-range", type=int, nargs=2, default=(0, 10), metavar=("LO", "HI"))
    gen.add_argument("--out", help="output path (default stdout)")

    runp = sub.add_parser("run", help="run solvers on an instance file")
    runp.add_argument("--algo", required=True, choices=ALGORITHMS + ("all",))
    runp.add_argument("--input", required=True)
    runp.add_argument("--trace", action="store_true", help="include per-job greedy placements")
    runp.add_argument("--format", choices=("json", "csv"), default="json")
    runp.add_argument("--node-budget", type=int, help="exact-solver node budget")

    bench = sub.add_parser("bench", help="evaluate a sweep file into a report")
    bench.add_argument("--sweep", required=True, help="sweep description file (JSON)")
    bench.add_argument("--out", required=True, help="report path (.csv or .json)")
    bench.add_argument("--assert-bounds", action="store_true")
    bench.add_argument("--jobs", type=int, default=1, help="parallel workers")
    bench.add_argument("--format", choices=("csv", "json"), help="default: from --out suffix")
    bench.add_argument("--node-budget", type=int)

    hunt = sub.add_parser("hunt", help="search random instances for high ff/opt ratios")
    hunt.add_argument("--budget", required=True, type=int, help="number of random instances")
    hunt.add_argument("--n", required=True, type=int, help="jobs per instance")
    hunt.add_argument("--seed", type=int, default=0)
    hunt.add_argument("--threshold", default="2", help="flag ratios >= this rational, e.g. 11/6")
    hunt.add_argument("--p-range", type=int, nargs=2, default=(1, 10), metavar=("LO", "HI"))
    hunt.add_argument("--slack-range", type=int, nargs=2, default=(0, 10), metavar=("LO", "HI"))
    hunt.add_argument("--node-budget", type=int)
    return parser


def _cmd_gen(args) -> int:
    spec = GenSpec(
        family=args.family,
        n=args.n,
        k=args.k,
        seed=args.seed,
        p_range=args.p_range,
        slack_range=args.slack_range,
    )
    text = instance_to_json(generate(spec))
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_run(args) -> int:
    instance = load_instance(args.input)
    algos = ALGORITHMS if args.algo == "all" else (args.algo,)
    cap = effective_oracle_cap()
    if args.algo == "all":
        algos = tuple(a for a in algos if a != "opt" or instance.n <= cap)
    reports = run(instance, algos, oracle_cap=cap, node_budget=args.node_budget)
    rows = []
    for rep in reports:
        row = {
            "algorithm": rep.algorithm,
            "machines": rep.machine_count,
            "ms": rep.ms,
            "assignment": list(rep.schedule.assignment) if rep.schedule else None,
            "error": rep.error,
        }
        if args.trace and rep.algorithm in ("ff", "nf") and not rep.error:
            trace = placement_trace(instance, rep.schedule, rep.algorithm)  # no second solve
            row["trace"] = [{"job": j + 1, **t._asdict()} for j, t in enumerate(trace)]
        rows.append(row)
    if args.format == "json":
        sys.stdout.write(json.dumps(rows, indent=2) + "\n")
    else:
        sys.stdout.write("algorithm,machines,ms,assignment,error\n")
        for row in rows:
            assignment = "" if row["assignment"] is None else " ".join(map(str, row["assignment"]))
            machines = "" if row["machines"] is None else row["machines"]
            error = row["error"] or ""
            sys.stdout.write(f"{row['algorithm']},{machines},{row['ms']},{assignment},{error}\n")
        if args.trace:
            for row in rows:
                for step in row.get("trace", ()):
                    sys.stderr.write(
                        f"trace {row['algorithm']}: job={step['job']} tried={step['tried']} "
                        f"machine={step['machine']} load={step['load_after']}\n"
                    )
    for rep in reports:
        if rep.error_kind:
            sys.stderr.write(f"error: {rep.error}\n")
            return EXIT_BUDGET if rep.error_kind == "budget" else EXIT_INPUT
    return EXIT_OK


def _cmd_bench(args) -> int:
    fmt = args.format
    if fmt is None:
        fmt = "json" if args.out.endswith(".json") else "csv"
    cap = effective_oracle_cap()
    tasks = expand_sweep(load_sweep(args.sweep), oracle_cap=cap)
    records = run_sweep(
        tasks, jobs=args.jobs, oracle_cap=cap, node_budget=args.node_budget
    )
    Path(args.out).write_text(emit_report(records, fmt), encoding="utf-8")
    sys.stderr.write(f"wrote {len(records)} records to {args.out}\n")
    if args.assert_bounds:
        violations = [v for r in records for v in assert_bounds(r)]
        for v in violations:
            sys.stderr.write(f"violation [{v.assertion}] {v.instance_id}: {v.detail}\n")
        without_opt = sum(r.opt is None for r in records)
        sys.stderr.write(f"checked bounds on {len(records)} records, {without_opt} without opt\n")
        if violations:
            return EXIT_BOUNDS
    return EXIT_OK


def _cmd_hunt(args) -> int:
    try:
        threshold = Fraction(args.threshold)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"threshold must be a rational, got {args.threshold!r}") from None
    template = GenSpec(
        family="arbitrary",
        n=args.n,
        seed=args.seed,
        p_range=args.p_range,
        slack_range=args.slack_range,
    )
    result = counterexample_search(
        args.budget,
        template,
        threshold,
        oracle_cap=effective_oracle_cap(),
        node_budget=args.node_budget,
    )
    summary = {
        "evaluated": result.evaluated,
        "skipped": result.skipped,
        "flagged": len(result.flagged),
        "best": None if result.best is None else dict(zip(REPORT_COLUMNS, report_row(result.best))),
    }
    sys.stdout.write(json.dumps(summary, indent=2) + "\n")
    for record in result.flagged:
        sys.stderr.write(
            f"ratio threshold {threshold} reached: {record.instance_id} "
            f"ff={record.ff} opt={record.opt}\n"
        )
    return EXIT_BOUNDS if result.flagged else EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "node_budget", None) is not None and args.node_budget < 0:
            raise InputError(f"--node-budget must be >= 0, got {args.node_budget}")
        if getattr(args, "jobs", 1) < 1:
            raise InputError(f"--jobs must be >= 1, got {args.jobs}")
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "bench":
            return _cmd_bench(args)
        return _cmd_hunt(args)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_INPUT
    except InputError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except SearchBudgetError as exc:
        sys.stderr.write(f"budget error: {exc}\n")
        return EXIT_BUDGET
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return EXIT_INPUT


def entrypoint() -> None:
    sys.exit(main())
