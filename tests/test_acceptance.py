"""Acceptance suite: every shipped guarantee, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines. All
checks are exact (tolerance zero); each criterion also enforces its runtime
budget, measured around the work it performs.
"""

import json
import math
import time
from fractions import Fraction

from fosched import (
    GenSpec,
    Instance,
    first_fit,
    gen_nf_hard,
    gen_random,
    gen_tight2,
    instance_to_json,
    loads,
    max_feasible_subset,
    next_fit,
    optimal,
    setcover_greedy,
)
from fosched.cli import main as cli_main
from helpers import max_subset_exhaustive, optimal_count_bruteforce


def _check(num: int, desc: str, failures: list, elapsed: float, budget: float) -> None:
    ok = not failures and elapsed <= budget
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {num:02d}: {desc} ({elapsed:.2f}s of {budget:.0f}s budget)")
    detail = f"; first failures: {failures[:3]}" if failures else ""
    if elapsed > budget:
        detail += f"; runtime {elapsed:.2f}s exceeded {budget:.0f}s"
    assert ok, f"criterion {num:02d} failed{detail}"


def test_c01_next_fit_unbounded_on_growth_family():
    failures = []
    start = time.perf_counter()
    for n in range(3, 21):
        inst = gen_nf_hard(n)
        nf = next_fit(inst).machine_count
        opt = optimal(inst).machine_count
        if nf != n or opt != 2:
            failures.append((n, nf, opt))
    _check(1, "next_fit opens n machines on nf-hard(3..20) while optimal is 2",
           failures, time.perf_counter() - start, 1.0)


def test_c02_first_fit_stays_at_two_on_growth_family():
    failures = []
    start = time.perf_counter()
    for n in range(3, 21):
        ff = first_fit(gen_nf_hard(n)).machine_count
        if ff != 2:
            failures.append((n, ff))
    _check(2, "first_fit uses exactly 2 machines on nf-hard(3..20)",
           failures, time.perf_counter() - start, 1.0)


def test_c03_first_fit_optimal_on_unit_instances():
    failures = []
    start = time.perf_counter()
    for i in range(500):
        spec = GenSpec("unit", n=4 + i % 9, seed=3000 + i, slack_range=(0, 8))
        inst = gen_random(spec)
        schedule = first_fit(inst)
        brute = optimal_count_bruteforce(inst)
        if schedule.machine_count != brute:
            failures.append((spec.seed, schedule.machine_count, brute))
        final = loads(inst, schedule)
        if any(a < b for a, b in zip(final, final[1:])):
            failures.append((spec.seed, "loads not non-increasing", final))
    _check(3, "unit processing: first_fit matches brute force on 500 instances, "
              "loads non-increasing", failures, time.perf_counter() - start, 60.0)


def test_c04_first_fit_equals_next_fit_under_nonincreasing_slack():
    failures = []
    start = time.perf_counter()
    for i in range(500):
        spec = GenSpec("slack-noninc", n=2 + i % 11, seed=4000 + i)
        inst = gen_random(spec)
        if first_fit(inst).assignment != next_fit(inst).assignment:
            failures.append(spec.seed)
    _check(4, "non-increasing slacks: first_fit and next_fit agree job for job "
              "on 500 instances", failures, time.perf_counter() - start, 10.0)


def test_c05_structured_orders_stay_below_double_optimum():
    failures = []
    start = time.perf_counter()
    for family, base in (("slack-noninc", 5000), ("slack-nondec", 6000),
                         ("deadline-noninc", 7000)):
        for i in range(300):
            spec = GenSpec(family, n=2 + i % 11, seed=base + i)
            inst = gen_random(spec)
            ff = first_fit(inst).machine_count
            opt = optimal(inst).machine_count
            if ff > 2 * opt - 1:
                failures.append((family, spec.seed, ff, opt))
    _check(5, "structured orders: ff <= 2*opt - 1 on 300 instances per class",
           failures, time.perf_counter() - start, 300.0)


def test_c06_tight_family_ratio_approaches_two():
    failures = []
    start = time.perf_counter()
    for k in range(1, 6):
        inst = gen_tight2(k)
        ff = first_fit(inst).machine_count
        opt = optimal(inst).machine_count
        if ff != 2 * k + 1 or opt != k + 1:
            failures.append((k, ff, opt))
    ratio = Fraction(11, 6)
    if Fraction(first_fit(gen_tight2(5)).machine_count,
                optimal(gen_tight2(5)).machine_count) != ratio or not ratio >= 1.83:
        failures.append(("ratio", ratio))
    _check(6, "tight-2(k=1..5): ff = 2k+1, opt = k+1, ratio 11/6 at k=5",
           failures, time.perf_counter() - start, 30.0)


def test_c07_small_optimum_caps_first_fit():
    failures = []
    buckets = {1: 0, 2: 0, 3: 0}
    start = time.perf_counter()
    for i in range(1000):
        spec = GenSpec("arbitrary", n=1 + i % 12, seed=8000 + i, slack_range=(0, 15))
        inst = gen_random(spec)
        ff = first_fit(inst).machine_count
        nf = next_fit(inst).machine_count
        opt = optimal(inst).machine_count
        if not opt <= ff <= nf <= inst.n:
            failures.append((spec.seed, "sandwich", opt, ff, nf))
        if opt in buckets:
            buckets[opt] += 1
        if opt == 1 and ff != 1:
            failures.append((spec.seed, opt, ff))
        elif opt == 2 and ff > 3:
            failures.append((spec.seed, opt, ff))
        elif opt == 3 and ff > 6:
            failures.append((spec.seed, opt, ff))
    if min(buckets.values()) == 0:
        failures.append(("sweep never produced some small optimum", buckets))
    _check(7, "1000 arbitrary instances: opt=1 -> ff=1, opt=2 -> ff<=3, opt=3 -> ff<=6",
           failures, time.perf_counter() - start, 600.0)


_C8_SWEEP = [
    gen_random(GenSpec("arbitrary", n=1 + i % 15, seed=9000 + i,
                       p_range=(1, 9), slack_range=(0, 12)))
    for i in range(300)
]


def test_c08_subset_dp_matches_exhaustive_enumeration():
    failures = []
    start = time.perf_counter()
    for inst in _C8_SWEEP:
        k, picks = max_feasible_subset(inst.p, inst.d)
        expected = max_subset_exhaustive(inst.p, inst.d)
        if k != expected or len(picks) != k:
            failures.append((inst.name, k, expected))
    _check(8, "largest one-machine subset: DP equals exhaustive enumeration "
              "on 300 instances (n <= 15)", failures, time.perf_counter() - start, 300.0)


def test_c09_set_cover_respects_harmonic_bound():
    failures = []
    start = time.perf_counter()
    for inst in _C8_SWEEP:
        if inst.n == 0:
            continue
        cover = setcover_greedy(inst).machine_count
        opt = optimal(inst).machine_count
        if cover > math.ceil((math.log(inst.n) + 1) * opt):
            failures.append((inst.name, cover, opt))
    for n in range(3, 21):
        cover = setcover_greedy(gen_nf_hard(n)).machine_count
        if cover != 2:
            failures.append(("nf-hard", n, cover))
    _check(9, "set cover <= ceil((ln n + 1) * opt) on the same sweep; exactly 2 "
              "machines on nf-hard(3..20)", failures, time.perf_counter() - start, 120.0)


def test_c10_search_and_enumeration_agree():
    failures = []
    start = time.perf_counter()
    for i in range(500):
        spec = GenSpec("arbitrary", n=1 + i % 10, seed=10000 + i, slack_range=(0, 15))
        inst = gen_random(spec)
        opt = optimal(inst).machine_count
        brute = optimal_count_bruteforce(inst)
        ff = first_fit(inst).machine_count
        nf = next_fit(inst).machine_count
        if opt != brute:
            failures.append((spec.seed, opt, brute))
        if not opt <= ff <= nf <= inst.n:
            failures.append((spec.seed, "sandwich", opt, ff, nf))
    _check(10, "exact search equals brute-force enumeration on 500 instances; "
               "opt <= ff <= nf sandwich", failures, time.perf_counter() - start, 300.0)


def test_c11_bench_reports_reproduce_byte_identically(tmp_path):
    failures = []
    start = time.perf_counter()
    sweep = {
        "sweeps": [
            {"family": "nf-hard", "n_range": [3, 8]},
            {"family": "tight-2", "k_range": [1, 3]},
            {"family": "unit", "n": 6, "count": 5, "seed": 11000},
            {"family": "slack-noninc", "n": 8, "count": 5, "seed": 11500},
            {"family": "arbitrary", "n": 8, "count": 5, "seed": 12000},
        ]
    }
    sweep_path = tmp_path / "sweep.json"
    sweep_path.write_text(json.dumps(sweep))
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    code_a = cli_main(["bench", "--sweep", str(sweep_path), "--out", str(out_a),
                       "--assert-bounds"])
    code_b = cli_main(["bench", "--sweep", str(sweep_path), "--out", str(out_b)])
    if code_a != 0 or code_b != 0:
        failures.append(("exit codes", code_a, code_b))

    def strip_ms(text: str) -> str:
        return "\n".join(",".join(line.split(",")[:10]) for line in text.splitlines())

    if strip_ms(out_a.read_text()) != strip_ms(out_b.read_text()):
        failures.append("reports differ beyond timing columns")
    _check(11, "two bench runs of one sweep are byte-identical modulo timings",
           failures, time.perf_counter() - start, 120.0)
