"""Command-line interface.

Subcommands: ``gen`` writes instance files, ``run`` solves one instance,
``bench`` evaluates a sweep file into a CSV/JSON report, and ``hunt``
searches seeded random instances for high ff/opt ratios.

Exit codes: 0 success, 1 input error, 2 bound or threshold violation,
3 exact-solver node budget exhausted.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from argparse import SUPPRESS
from fractions import Fraction
from pathlib import Path

from .bench import (
    ALGORITHMS,
    _within_cap,
    assert_bounds,
    counterexample_search,
    emit_report,
    expand_sweep,
    load_sweep,
    report_row,
    run,
    run_sweep,
    REPORT_COLUMNS,
)
from .core import InputError, instance_to_json, load_instance, save_instance
from .exact import DEFAULT_ORACLE_CAP, MAX_ORACLE_CAP, SearchBudgetError
from .greedy import placement_trace
from .instances import FAMILIES, GenSpec

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BOUNDS = 2
EXIT_BUDGET = 3

ORACLE_CAP_ENV = "FOSCHED_ORACLE_CAP"


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
    gen.add_argument("--n", type=int, default=SUPPRESS, help="job count (random families, nf-hard)")
    gen.add_argument("--k", type=int, default=SUPPRESS, help="family parameter (tight-2)")
    gen.add_argument("--seed", type=int, default=SUPPRESS, help="64-bit unsigned seed")
    gen.add_argument("--p-range", type=int, nargs=2, default=SUPPRESS, metavar=("LO", "HI"))
    gen.add_argument("--slack-range", type=int, nargs=2, default=SUPPRESS, metavar=("LO", "HI"))
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
    bench.add_argument("--node-budget", type=int)

    hunt = sub.add_parser("hunt", help="search random instances for high ff/opt ratios")
    hunt.add_argument("--budget", required=True, type=int, help="number of random instances")
    hunt.add_argument("--n", required=True, type=int, help="jobs per instance")
    hunt.add_argument("--seed", type=int, default=SUPPRESS)
    hunt.add_argument("--threshold", default="2", help="flag ratios >= this rational, e.g. 11/6")
    hunt.add_argument("--p-range", type=int, nargs=2, default=SUPPRESS, metavar=("LO", "HI"))
    hunt.add_argument("--slack-range", type=int, nargs=2, default=SUPPRESS, metavar=("LO", "HI"))
    hunt.add_argument("--node-budget", type=int)
    return parser


def _oracle_cap() -> int:
    """Size cap for the exact solver, overridable via FOSCHED_ORACLE_CAP up to MAX_ORACLE_CAP."""
    raw = os.environ.get(ORACLE_CAP_ENV)
    if raw is None:
        return DEFAULT_ORACLE_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise InputError(f"{ORACLE_CAP_ENV} must be an integer, got {raw!r}") from None
    if not 0 <= cap <= MAX_ORACLE_CAP:
        raise InputError(f"{ORACLE_CAP_ENV} must be between 0 and {MAX_ORACLE_CAP}, got {cap}")
    return cap


def _gen_fields(args) -> dict:
    """The generator fields the user gave; GenSpec holds the defaults."""
    fields = ("family", "n", "k", "seed", "p_range", "slack_range")
    return {name: value for name, value in vars(args).items() if name in fields}


def _cmd_gen(args) -> int:
    # a one-entry sweep, so gen checks its flags as a sweep entry's keys
    [(_, instance, _)] = expand_sweep({"sweeps": [_gen_fields(args)]})
    if args.out:
        save_instance(instance, args.out)
    else:
        sys.stdout.write(instance_to_json(instance))
    return EXIT_OK


def _cmd_run(args) -> int:
    instance = load_instance(args.input)
    cap = _oracle_cap()
    algos = _within_cap(ALGORITHMS, instance.n, cap) if args.algo == "all" else (args.algo,)
    reports = run(instance, algos, oracle_cap=cap, node_budget=args.node_budget)
    rows = []
    for rep in reports:
        row = {
            "algorithm": rep.algorithm,
            "machines": rep.machine_count,
            "ms": rep.ms,
            "assignment": list(rep.schedule.assignment) if rep.schedule else None,
            "error": None if rep.error is None else str(rep.error),
        }
        if args.trace and rep.algorithm in ("ff", "nf") and not rep.error:
            trace = placement_trace(instance, rep.schedule, rep.algorithm)  # no second solve
            row["trace"] = [{"job": j + 1, **t._asdict()} for j, t in enumerate(trace)]
        rows.append(row)
    if args.format == "json":
        sys.stdout.write(json.dumps(rows, indent=2) + "\n")
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")  # quotes a comma in an error
        writer.writerow(("algorithm", "machines", "ms", "assignment", "error"))
        for row in rows:
            labels = row["assignment"]
            assignment = None if labels is None else " ".join(map(str, labels))
            cells = (row["algorithm"], row["machines"], row["ms"], assignment, row["error"])
            writer.writerow(cells)
        if args.trace:
            for row in rows:
                for step in row.get("trace", ()):
                    sys.stderr.write(
                        f"trace {row['algorithm']}: job={step['job']} tried={step['tried']} "
                        f"machine={step['machine']} load={step['load_after']}\n"
                    )
    for rep in reports:
        if rep.error is not None:
            sys.stderr.write(f"error: {rep.error}\n")
            return EXIT_BUDGET if isinstance(rep.error, SearchBudgetError) else EXIT_INPUT
    return EXIT_OK


def _cmd_bench(args) -> int:
    fmt = "json" if args.out.endswith(".json") else "csv"
    cap = _oracle_cap()
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
    if "e" in args.threshold.lower():  # Fraction("1e10000000") builds 10**10000000
        raise InputError(f"threshold takes no exponent, got {args.threshold!r}")
    try:
        threshold = Fraction(args.threshold)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"threshold must be a rational, got {args.threshold!r}") from None
    template = GenSpec("arbitrary", **_gen_fields(args))
    result = counterexample_search(
        args.budget,
        template,
        threshold,
        oracle_cap=_oracle_cap(),
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
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return EXIT_INPUT


def entrypoint() -> None:
    sys.exit(main())
