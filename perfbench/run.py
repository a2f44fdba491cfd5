"""fosched benchmark: time the `fosched bench` path on one workload.

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 20 --trace 0

Workloads: paper-sweep, greedy-large, cover-mid, tiny-many (see README.md).
A workload's sweep is built from --seed in four parts of the same shape
(workloads.py). Each part runs in its own fresh single-threaded process, one
process at a time (worker.py), for as many whole passes as fit in a quarter
of --seconds, at least one. All times are CPU time of the process that runs
the sweep.

Before them, fosched and the benchmark are byte-compiled, so set-up never
depends on what the bytecode cache held. --trace 0 prints the end-to-end
metrics: the median set-up time of the four processes and of two
set-up-only processes per part run between them, instances per CPU second
over all passes, percentiles over every evaluate call. --trace 1 prints the per-layer metrics: the same untraced
processes plus one traced pass over part 0, whose spans give the time of
each layer.

Every run checks its outputs: the feasibility re-check inside fosched, zero
bound violations, first and next fit against independent implementations,
counts against pins/ (the seed-independent instances at every seed, every
instance at the pinned seed), and the report against `python -m fosched
bench` on a small sweep of the same shape.
The last line of standard output is one JSON object; the exit code is 0 only
when every check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import layer_metrics, read_spans
from workloads import JOBS, NODE_BUDGET, PARTS, PINNED_SEED, WORKLOADS, blank_ms, smoke_doc, sweep_doc

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170
ORACLE_CAP_ENV = "FOSCHED_ORACLE_CAP"
# Processes per part that only set up (load and expand the sweep), for a
# steadier median set-up time; each measuring process adds one more sample.
SETUP_ONLY_PER_PART = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "inst_per_s": "1/s",
    "solve_ms_p50": "ms",
    "solve_ms_p99": "ms",
    "solved_frac": "ratio",
    "peak_rss_mb": "MiB",
}


class BenchError(Exception):
    """A step of the run failed; the run reports incorrect and exits 1."""

    def __init__(self, message: str, attempted: int = 1, failed: int = 1):
        super().__init__(message)
        self.attempted, self.failed = attempted, failed


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: a measured sample, never an interpolation."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def child_env() -> dict[str, str]:
    """Environment of every process the benchmark starts: fosched from this
    checkout's src/, and no user value that changes the work (the oracle
    cap, or a PYTHON* setting such as PYTHONDONTWRITEBYTECODE,
    PYTHONPYCACHEPREFIX or PYTHONOPTIMIZE that changes what set-up does)."""
    env = {k: v for k, v in os.environ.items() if k != ORACLE_CAP_ENV and not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def cli_argv(sweep: Path, out: Path) -> list[str]:
    return [
        sys.executable, "-m", "fosched", "bench", "--sweep", str(sweep), "--out", str(out),
        "--assert-bounds", "--jobs", str(JOBS), "--node-budget", str(NODE_BUDGET),
    ]


class Run:
    """One benchmark run: its scratch directory, deadline and child processes."""

    def __init__(self, work: Path):
        self.work = work
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = child_env()

    def _remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError(f"run exceeded {DEADLINE_S} s")
        return left

    def call(self, argv: list[str]) -> subprocess.CompletedProcess:
        # subprocess.run kills and waits for the child when the timeout expires.
        try:
            return subprocess.run(
                argv, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=self._remaining()
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{argv[1:3]} did not finish within {DEADLINE_S} s") from None

    def worker(self, mode: str, sweep: Path, *extra: str) -> dict:
        done = self.call([sys.executable, str(HERE / "worker.py"), "--mode", mode, "--sweep", str(sweep), *extra])
        if done.returncode != 0:
            raise BenchError(f"worker --mode {mode} failed:\n{done.stderr.strip()}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if result.get("problems"):
            raise BenchError(
                f"worker --mode {mode}:\n  " + "\n  ".join(result["problems"]),
                result["instances"],
                result["bad_instances"],
            )
        return result

    def compile_sources(self) -> None:
        """Byte-compile fosched and the benchmark into their __pycache__, so
        every measured process imports the same cached bytecode whatever
        the cache held before the run."""
        done = self.call([sys.executable, "-m", "compileall", "-q", str(ROOT / "src"), str(HERE)])
        if done.returncode != 0:
            raise BenchError(f"compileall exited {done.returncode}:\n{done.stdout.strip()}")

    def check_cli(self, workload: str, seed: int) -> None:
        """The benchmark's report equals the CLI's, apart from ms_* cells."""
        sweep = self.write("smoke.json", smoke_doc(workload, seed))
        ours, theirs = self.work / "smoke-worker.csv", self.work / "smoke-cli.csv"
        self.worker("smoke", sweep, "--report", str(ours))
        done = self.call(cli_argv(sweep, theirs))
        if done.returncode != 0:
            raise BenchError(f"fosched bench exited {done.returncode}:\n{done.stderr.strip()}")
        if blank_ms(ours.read_text()) != blank_ms(theirs.read_text()):
            raise BenchError("report differs from `fosched bench` on the smoke sweep")

    def write(self, name: str, doc: dict) -> Path:
        path = self.work / name
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        return path


def end_to_end(measured: list[dict], setup_s: list[float]) -> dict[str, float]:
    solve_ms = [s * 1000 for m in measured for s in m["solve_s"]]
    return {
        "setup_s": statistics.median(setup_s),
        "inst_per_s": sum(m["instances"] for m in measured) / sum(sum(m["pass_s"]) for m in measured),
        "solve_ms_p50": percentile(solve_ms, 50),
        "solve_ms_p99": percentile(solve_ms, 99),
        "solved_frac": 1 - sum(m["unsolved"] for m in measured) / sum(m["calls"] for m in measured),
        "peak_rss_mb": statistics.median(m["rss_mib"] for m in measured),
    }


def per_layer(untraced: dict, traced: dict, spans_path: Path) -> dict[str, float | None]:
    """Layer metrics of a traced pass over the part an untraced process ran."""
    metrics = layer_metrics(read_spans(spans_path), traced["counts"], set(traced["installed"]))
    metrics["trace.overhead_frac"] = traced["pass_s"][0] / statistics.median(untraced["pass_s"]) - 1
    return metrics


def layer_unit(name: str) -> str:
    if name.endswith((".s", "self_s")):
        return "s"
    if name.endswith(("_frac", "_share", ".share", "_per_examined")):
        return "ratio"
    return "count"


def run(workload: str, seed: int, seconds: int, trace: bool, run_dir: Path) -> tuple[dict, int]:
    """Metrics of one run and the number of evaluate calls they cover."""
    bench = Run(run_dir)
    sweeps = [bench.write(f"sweep-{part}.json", sweep_doc(workload, seed, part)) for part in range(PARTS)]
    pins = str(HERE / "pins" / f"{workload}.json")
    check = ("--pins", pins, "--seed", str(seed))
    share = str(seconds / PARTS)
    bench.compile_sources()
    measured, setup_s = [], []
    # Set-up-only processes between the measuring ones sample set-up time
    # across the whole run; the traced run reports no set-up time.
    setup_only = 0 if trace else SETUP_ONLY_PER_PART
    for part, sweep in enumerate(sweeps):
        setup_s += [bench.worker("setup", sweep)["setup_s"] for _ in range(setup_only)]
        measured.append(bench.worker("measure", sweep, "--seconds", share, *check, "--part", str(part)))
        setup_s.append(measured[-1]["setup_s"])
    calls = sum(m["instances"] for m in measured)
    print(
        f"{workload} seed={seed}: {calls} evaluate calls in {PARTS} processes; passes "
        + " ".join(str(len(m["pass_s"])) for m in measured)
        + f"; {sum(sum(m['pass_s']) for m in measured):.2f} s CPU"
        + f", {sum(sum(m['pass_wall_s']) for m in measured):.2f} s wall",
        file=sys.stderr,
    )
    if trace:
        spans = run_dir / "spans.tsv"
        traced = bench.worker("trace", sweeps[0], "--spans", str(spans))
        if traced["digest"] != measured[0]["digest"]:
            raise BenchError("the traced pass produced a different report")
        values = per_layer(measured[0], traced, spans)
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
    else:
        values = end_to_end(measured, setup_s)
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    bench.check_cli(workload, seed)
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']} {metric['unit']}", file=sys.stderr)
    return metrics, calls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**48:
        parser.error("--seed must lie in [0, 2**48)")
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must lie in [1, 60]")
    if not (ROOT / "src" / "fosched" / "__init__.py").is_file():
        print(f"error: no fosched sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run_dir = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        metrics, attempted = run(args.workload, args.seed, args.seconds, bool(args.trace), run_dir)
        result = {"correct": True, "attempted": attempted, "failed": 0, "metrics": metrics}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        result = {"correct": False, "attempted": exc.attempted, "failed": exc.failed, "metrics": {}}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
