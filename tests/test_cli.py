import csv
import json
import subprocess
import sys
from collections import Counter

import pytest

import fosched.bench as bench_module
import fosched.cli as cli_module
import fosched.greedy as greedy_module
from fosched import Instance, Schedule, gen_nf_hard, gen_tight2, instance_to_json, save_instance
from fosched.cli import main
from helpers import first_fit_linear_traced, next_fit_traced


@pytest.fixture()
def nf_hard_file(tmp_path):
    path = tmp_path / "nf5.json"
    save_instance(gen_nf_hard(5), path)
    return str(path)


class TestGen:
    def test_writes_instance_file(self, tmp_path):
        out = tmp_path / "inst.json"
        assert main(["gen", "--family", "nf-hard", "--n", "5", "--out", str(out)]) == 0
        assert out.read_text() == instance_to_json(gen_nf_hard(5))

    def test_prints_to_stdout(self, capsys):
        assert main(["gen", "--family", "tight-2", "--k", "1"]) == 0
        assert capsys.readouterr().out == instance_to_json(gen_tight2(1))

    def test_random_family_respects_seed(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["gen", "--family", "unit", "--n", "6", "--seed", "42"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_text() == b.read_text()

    def test_unknown_family_is_input_error(self, capsys):
        assert main(["gen", "--family", "cursed", "--n", "3"]) == 1

    def test_missing_parameter_is_input_error(self):
        assert main(["gen", "--family", "tight-2"]) == 1  # k defaults to 0


class TestRun:
    def test_json_output(self, nf_hard_file, capsys):
        assert main(["run", "--algo", "all", "--input", nf_hard_file]) == 0
        rows = json.loads(capsys.readouterr().out)
        counts = {row["algorithm"]: row["machines"] for row in rows}
        assert counts == {"ff": 2, "nf": 5, "cover": 2, "opt": 2}
        assert rows[0]["assignment"] == [1, 2, 1, 2, 1]

    def test_csv_output(self, nf_hard_file, capsys):
        assert main(["run", "--algo", "ff", "--input", nf_hard_file, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "algorithm,machines,ms,assignment,error"
        assert lines[1].startswith("ff,2,")

    def test_trace_rows(self, nf_hard_file, capsys):
        assert main(["run", "--algo", "ff", "--input", nf_hard_file, "--trace"]) == 0
        rows = json.loads(capsys.readouterr().out)
        trace = rows[0]["trace"]
        assert len(trace) == 5
        assert trace[0] == {"job": 1, "tried": 0, "machine": 1, "load_after": 1}

    def test_trace_rows_come_from_the_reported_solve(self, tmp_path, capsys, monkeypatch):
        # 21 jobs: above the oracle cap, so `all` runs no opt and no first-fit seed
        instance = Instance.from_pairs([(1 + i % 4, 1 + i % 4 + i * 5 % 9) for i in range(21)])
        path = tmp_path / "mixed.json"
        save_instance(instance, path)
        calls = Counter()

        def spy(module, name):
            real = getattr(module, name)

            def counted(*args):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(module, name, counted)

        spy(bench_module, "first_fit")
        spy(bench_module, "next_fit")
        spy(greedy_module, "first_fit_traced")
        monkeypatch.delenv("FOSCHED_ORACLE_CAP", raising=False)
        assert main(["run", "--algo", "all", "--input", str(path), "--trace"]) == 0
        assert calls == {"first_fit": 1, "next_fit": 1, "first_fit_traced": 1}
        rows = {row["algorithm"]: row for row in json.loads(capsys.readouterr().out)}
        assert "trace" not in rows["cover"]
        for algo, oracle in (("ff", first_fit_linear_traced), ("nf", next_fit_traced)):
            schedule, trace = oracle(instance)
            assert rows[algo]["assignment"] == list(schedule.assignment)
            assert rows[algo]["trace"] == [
                {"job": j + 1, "tried": t.tried, "machine": t.machine, "load_after": t.load_after}
                for j, t in enumerate(trace)
            ]

    def test_zero_node_budget_solves_only_without_search(self, tmp_path, nf_hard_file):
        loose = tmp_path / "loose.json"
        save_instance(Instance.from_pairs([(1, 10)] * 3), loose)  # first fit meets the lower bound
        assert main(["run", "--algo", "opt", "--input", str(loose), "--node-budget", "0"]) == 0
        tight = tmp_path / "t2.json"
        save_instance(gen_tight2(2), tight)
        assert main(["run", "--algo", "opt", "--input", str(tight), "--node-budget", "0"]) == 3

    def test_missing_file_is_input_error(self, tmp_path):
        assert main(["run", "--algo", "ff", "--input", str(tmp_path / "nope.json")]) == 1

    def test_malformed_file_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"jobs": [{"p": 0, "d": 1}]}')
        assert main(["run", "--algo", "ff", "--input", str(bad)]) == 1

    def test_non_utf8_file_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"jobs": [], "name": "\xff"}')
        assert main(["run", "--algo", "ff", "--input", str(bad)]) == 1
        assert capsys.readouterr().err.startswith("input error: invalid instance file")

    def test_opt_beyond_cap_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        save_instance(Instance.from_pairs([(1, 100)] * 21), path)
        assert main(["run", "--algo", "opt", "--input", str(path)]) == 1

    def test_env_cap_override_admits_larger_instances(self, tmp_path, monkeypatch):
        path = tmp_path / "big.json"
        save_instance(Instance.from_pairs([(1, 100)] * 21), path)
        monkeypatch.setenv("FOSCHED_ORACLE_CAP", "25")
        assert main(["run", "--algo", "opt", "--input", str(path)]) == 0

    def test_invalid_env_cap_is_input_error(self, nf_hard_file, monkeypatch):
        monkeypatch.setenv("FOSCHED_ORACLE_CAP", "many")
        assert main(["run", "--algo", "opt", "--input", nf_hard_file]) == 1

    def test_algo_all_drops_oversized_opt(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        save_instance(Instance.from_pairs([(1, 100)] * 21), path)
        assert main(["run", "--algo", "all", "--input", str(path)]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [row["algorithm"] for row in rows] == ["ff", "nf", "cover"]

    @staticmethod
    def _deep_instance(tmp_path, loose: int) -> str:
        # loose unit jobs, then the tight family: the search descends through
        # every job, one stack frame each
        path = tmp_path / "deep.json"
        tail = [(job.p, job.d) for job in gen_tight2(3).jobs]
        save_instance(Instance.from_pairs([(1, 10**6)] * loose + tail), path)
        return str(path)

    def test_oracle_cap_above_the_maximum_is_one_input_error_line(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("FOSCHED_ORACLE_CAP", "5000")
        assert main(["run", "--algo", "opt", "--input", self._deep_instance(tmp_path, 1100)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["input error: FOSCHED_ORACLE_CAP must be between 0 and 500, got 5000"]

    def test_deep_search_at_the_maximum_cap_ends_in_a_budget_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("FOSCHED_ORACLE_CAP", "500")
        path = self._deep_instance(tmp_path, 490)
        assert main(["run", "--algo", "opt", "--input", path, "--node-budget", "20000"]) == 3
        assert capsys.readouterr().err.splitlines() == ["error: search node budget exhausted"]

    def test_exhausted_node_budget_exits_3(self, tmp_path):
        path = tmp_path / "t2.json"
        save_instance(gen_tight2(2), path)
        argv = ["run", "--algo", "opt", "--input", str(path), "--node-budget", "1"]
        assert main(argv) == 3


SWEEP = {
    "sweeps": [
        {"family": "nf-hard", "n_range": [3, 6]},
        {"family": "tight-2", "k_range": [1, 2]},
        {"family": "arbitrary", "n": 6, "count": 3, "seed": 7},
    ]
}


def _strip_ms(report_text: str) -> str:
    return "\n".join(",".join(line.split(",")[:10]) for line in report_text.splitlines())


class TestBench:
    def test_sweep_to_csv_with_bounds(self, tmp_path):
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps(SWEEP))
        out = tmp_path / "report.csv"
        argv = ["bench", "--sweep", str(sweep), "--out", str(out), "--assert-bounds"]
        assert main(argv) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 4 + 2 + 3
        assert lines[0].startswith("id,n,classes,ff,")

    def test_reruns_identical_modulo_timings(self, tmp_path):
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps(SWEEP))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["bench", "--sweep", str(sweep), "--out", str(a)]) == 0
        assert main(["bench", "--sweep", str(sweep), "--out", str(b), "--jobs", "2"]) == 0
        assert _strip_ms(a.read_text()) == _strip_ms(b.read_text())

    def test_json_format_inferred_from_suffix(self, tmp_path):
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({"sweeps": [{"family": "nf-hard", "n": 4}]}))
        out = tmp_path / "report.json"
        assert main(["bench", "--sweep", str(sweep), "--out", str(out)]) == 0
        rows = json.loads(out.read_text())
        assert rows[0]["id"] == "nf-hard-n4" and rows[0]["opt"] == 2

    def test_violations_exit_2(self, tmp_path, monkeypatch):
        # force a fake violation by patching the assertion table
        import fosched.bench as bench_mod

        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({"sweeps": [{"family": "nf-hard", "n": 4}]}))
        out = tmp_path / "r.csv"
        broken = bench_mod.BoundAssertion(
            "always-fails", "ff == 0", lambda r: True, lambda r: False
        )
        monkeypatch.setattr(bench_mod, "BOUND_ASSERTIONS", (broken,))
        argv = ["bench", "--sweep", str(sweep), "--out", str(out), "--assert-bounds"]
        assert main(argv) == 2

    def test_bounds_without_opt_are_checked_and_counted(self, tmp_path, capsys):
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({"sweeps": [
            {"family": "tight-2", "k_range": [1, 3]},
            {"family": "slack-noninc", "n": 30, "count": 3},
        ]}))
        out = tmp_path / "r.csv"
        argv = ["bench", "--sweep", str(sweep), "--out", str(out), "--node-budget", "0",
                "--assert-bounds"]
        assert main(argv) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 6 and all(row["opt"] == "" for row in rows)
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == "checked bounds on 6 records, 6 without opt"

    def test_ff_nf_violation_without_opt_exits_2(self, tmp_path, capsys, monkeypatch):
        # next fit opening one machine per job breaks ff == nf, which needs no opt
        monkeypatch.setattr(
            bench_module, "next_fit", lambda inst: Schedule(tuple(range(1, inst.n + 1)))
        )
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({"sweeps": [{"family": "slack-noninc", "n": 30}]}))
        argv = ["bench", "--sweep", str(sweep), "--out", str(tmp_path / "r.csv"), "--assert-bounds"]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[1].startswith("violation [slack-noninc-ff-equals-nf] slack-noninc-n30-s0:")
        assert err[-1] == "checked bounds on 1 records, 1 without opt"

    def test_budget_exhausting_instance_leaves_opt_empty(self, tmp_path, capsys):
        entry = {"family": "slack-noninc", "n": 20, "count": 1, "seed": 0,
                 "p_range": [1, 100], "slack_range": [0, 100]}
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({"sweeps": [entry]}))
        out = tmp_path / "r.csv"
        argv = ["bench", "--sweep", str(sweep), "--out", str(out), "--node-budget", "20000"]
        assert main(argv) == 0
        [row] = csv.DictReader(out.read_text().splitlines())
        assert row["opt"] == "" and row["ff"] == "10"

    def test_malformed_sweep_is_input_error(self, tmp_path):
        sweep = tmp_path / "sweep.json"
        sweep.write_text("{")
        assert main(["bench", "--sweep", str(sweep), "--out", str(tmp_path / "r.csv")]) == 1

    @pytest.mark.parametrize(
        "content",
        [
            b'{"sweeps": [{"family": "nf-hard", "n": 4, "seed": "\xff"}]}',
            b'{"sweeps": [{"family": "nf-hard", "n": "5"}]}',
            b'{"sweeps": [{"family": "arbitrary", "n": "5"}]}',
            b'{"sweeps": [{"family": "arbitrary", "n": 3, "seed": "x"}]}',
            b'{"sweeps": 5}',
            b'{"sweeps": [{"family": "arbitrary", "n": 3}], "algorithms": 5}',
            b'{"sweeps": [{"family": "arbitrary", "n": 3}], "algorithms": "ff"}',
            b'{"sweeps": [{"family": "arbitrary", "n": 3, "count": true}]}',
        ],
    )
    def test_bad_sweep_is_one_input_error_line(self, tmp_path, capsys, content):
        sweep = tmp_path / "sweep.json"
        sweep.write_bytes(content)
        assert main(["bench", "--sweep", str(sweep), "--out", str(tmp_path / "r.csv")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("input error: ")
        assert not (tmp_path / "r.csv").exists()


class TestHunt:
    def test_reports_best_record(self, capsys):
        argv = ["hunt", "--budget", "5", "--n", "6", "--seed", "3"]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["evaluated"] == 5 and doc["best"]["ff"] >= doc["best"]["opt"]

    def test_threshold_one_always_flags(self, capsys):
        argv = ["hunt", "--budget", "2", "--n", "5", "--seed", "3", "--threshold", "1"]
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().out)["flagged"] >= 1

    def test_fractional_threshold_parses(self):
        argv = ["hunt", "--budget", "1", "--n", "4", "--seed", "0", "--threshold", "11/6"]
        assert main(argv) in (0, 2)

    def test_bad_threshold_is_input_error(self):
        argv = ["hunt", "--budget", "1", "--n", "4", "--threshold", "fast"]
        assert main(argv) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--algo", "opt", "--input", "{instance}", "--node-budget", "-5"],
        ["run", "--algo", "all", "--input", "{instance}", "--node-budget", "-1", "--trace"],
        ["bench", "--sweep", "{sweep}", "--out", "{out}", "--node-budget", "-1", "--assert-bounds"],
        ["hunt", "--budget", "3", "--n", "6", "--node-budget", "-1"],
    ],
)
def test_negative_node_budget_is_one_input_error_line(tmp_path, capsys, monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("started work")

    for name in ("load_instance", "load_sweep", "counterexample_search", "run"):
        monkeypatch.setattr(cli_module, name, refuse)
    paths = {"instance": tmp_path / "i.json", "sweep": tmp_path / "s.json", "out": tmp_path / "r.csv"}
    save_instance(gen_nf_hard(5), paths["instance"])
    paths["sweep"].write_text(json.dumps({"sweeps": [{"family": "tight-2", "k": 2}]}))
    assert main([arg.format(**paths) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("input error: --node-budget must be >= 0")
    assert not paths["out"].exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_one_input_error_line(tmp_path, capsys, monkeypatch, jobs):
    def refuse(*args, **kwargs):
        raise AssertionError("read the sweep")

    for name in ("load_sweep", "expand_sweep"):
        monkeypatch.setattr(cli_module, name, refuse)
    sweep, out = tmp_path / "s.json", tmp_path / "r.csv"
    sweep.write_text(json.dumps({"sweeps": [{"family": "arbitrary", "n": 1000, "count": 1000}]}))
    assert main(["bench", "--sweep", str(sweep), "--out", str(out), "--jobs", jobs]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0] == f"input error: --jobs must be >= 1, got {jobs}"
    assert not out.exists()


def test_module_entrypoint_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "fosched", "gen", "--family", "nf-hard", "--n", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["jobs"][0] == {"p": 1, "d": 1}


def test_no_command_is_input_error():
    assert main([]) == 1
