"""Rewrite the golden corpus: CLI outputs that later changes must keep.

The corpus pins, with every timing removed:
- ``bench/<workload>.{csv,json}``: ``fosched bench --node-budget 20000
  --assert-bounds`` reports on the four benchmark smoke sweeps (seed 1), kept
  under ``sweeps/`` as data, and ``bench/<workload>.<fmt>.log``: the exit code
  and stderr of each run, with the report path written as ``<out>``;
- ``run.jsonl``: ``fosched run --algo all --trace --node-budget 20000`` on
  nf-hard n=3..20, tight-2 k=1..6 and the random families at seeds 0..3 and
  n in {8, 16, 60}, one instance a line, each trace replaced by its SHA-256;
- ``hunt.json``: ``fosched hunt --budget 30 --n 8 --seed 3 --threshold 3/2``.

Run ``python tests/golden/regen.py`` from the repository root to copy the
sweep documents from the benchmark again and rewrite every output from them.
``tests/test_golden.py``, which may not import the benchmark, regenerates the
outputs from the committed sweeps in-process and compares them with the
committed files.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
WORKLOADS = ("paper-sweep", "greedy-large", "cover-mid", "tiny-many")
NODE_BUDGET = "20000"


def _cli(argv: list[str]) -> tuple[int, str, str]:
    from fosched.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _blank_csv(text: str) -> str:
    lines = text.splitlines()
    timed = {i for i, col in enumerate(lines[0].split(",")) if col.startswith("ms_")}
    rows = [lines[0]] + [
        ",".join("" if i in timed else c for i, c in enumerate(line.split(",")))
        for line in lines[1:]
    ]
    return "\n".join(rows) + "\n"


def _blank_json(text: str) -> str:
    rows = [{k: None if k.startswith("ms_") else v for k, v in row.items()} for row in json.loads(text)]
    return json.dumps(rows, indent=2) + "\n"


def _bench(workload: str, tmp: Path) -> dict[str, str]:
    files = {}
    for fmt, blank in (("csv", _blank_csv), ("json", _blank_json)):
        out = tmp / f"{workload}.{fmt}"
        sweep = str(GOLDEN / "sweeps" / f"{workload}.json")
        code, _, err = _cli(
            ["bench", "--sweep", sweep, "--out", str(out), "--node-budget", NODE_BUDGET, "--assert-bounds"]
        )
        files[f"bench/{workload}.{fmt}"] = blank(out.read_text(encoding="utf-8"))
        files[f"bench/{workload}.{fmt}.log"] = f"exit {code}\n" + err.replace(str(out), "<out>")
    return files


def _run_specs():
    from fosched.instances import RANDOM_FAMILIES, GenSpec

    yield from (GenSpec("nf-hard", n=n) for n in range(3, 21))
    yield from (GenSpec("tight-2", k=k) for k in range(1, 7))
    for family in RANDOM_FAMILIES:
        for seed in range(4):
            yield from (GenSpec(family, n=n, seed=seed) for n in (8, 16, 60))


def _run(tmp: Path) -> str:
    from fosched.core import save_instance
    from fosched.instances import generate

    lines = []
    for spec in _run_specs():
        instance = generate(spec)
        path = tmp / "instance.json"
        save_instance(instance, path)
        code, out, err = _cli(
            ["run", "--algo", "all", "--trace", "--node-budget", NODE_BUDGET, "--input", str(path)]
        )
        rows = json.loads(out)
        for row in rows:
            del row["ms"]
            if "trace" in row:
                row["trace"] = hashlib.sha256(json.dumps(row["trace"]).encode()).hexdigest()
        record = {"id": instance.name, "exit": code, "stderr": err, "rows": rows}
        lines.append(json.dumps(record, separators=(",", ":")))
    return "\n".join(lines) + "\n"


def _hunt() -> str:
    code, out, err = _cli(["hunt", "--budget", "30", "--n", "8", "--seed", "3", "--threshold", "3/2"])
    summary = json.loads(out)
    if summary["best"] is not None:
        summary["best"] = {k: v for k, v in summary["best"].items() if not k.startswith("ms_")}
    return json.dumps({"exit": code, "summary": summary, "stderr": err}, indent=2) + "\n"


def derived() -> dict[str, str]:
    """Every corpus file computed from the committed sweeps, by relative path.

    The caller must unset FOSCHED_ORACLE_CAP, so the default cap applies.
    """
    files: dict[str, str] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workload in WORKLOADS:
            files.update(_bench(workload, Path(tmp)))
        files["run.jsonl"] = _run(Path(tmp))
    files["hunt.json"] = _hunt()
    return files


def _copy_sweeps() -> None:
    from perfbench.workloads import smoke_doc

    for workload in WORKLOADS:
        text = json.dumps(smoke_doc(workload, 1), indent=2) + "\n"
        (GOLDEN / "sweeps" / f"{workload}.json").write_text(text, encoding="utf-8")


def main() -> None:
    root = GOLDEN.parents[1]
    sys.path[:0] = [str(root / "src"), str(root)]
    os.environ.pop("FOSCHED_ORACLE_CAP", None)
    (GOLDEN / "sweeps").mkdir(exist_ok=True)
    (GOLDEN / "bench").mkdir(exist_ok=True)
    _copy_sweeps()
    for name, text in derived().items():
        (GOLDEN / name).write_text(text, encoding="utf-8")


if __name__ == "__main__":
    main()
