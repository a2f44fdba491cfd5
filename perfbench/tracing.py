"""Spans and counts for the traced benchmark run.

The worker wraps fosched's public functions at the module attribute its
callers look up, so every call records a span: name, start and end on the
process CPU clock (ns), the enclosing span and the instance id. Spans stay in
memory and are written once the pass ends; run.py derives self times from
them. The wrappers keep a reference to what they need for counts (a
schedule, a subset size) and the counts are computed after the pass, outside
every span, so counting never inflates a layer's time.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

now = time.process_time_ns

# (module, attribute, span name, layer whose calls contain this one).
# A layer with a caller is reported absent when its call site is gone: the
# function no longer exists, or the caller ran and this layer never did.
LAYERS = (
    ("fosched.bench", "first_fit", "greedy.first_fit", None),
    ("fosched.greedy", "first_fit_traced", "greedy.first_fit_traced", "greedy.first_fit"),
    ("fosched.bench", "next_fit", "greedy.next_fit", None),
    ("fosched.bench", "setcover_greedy", "cover.setcover_greedy", None),
    ("fosched.cover", "max_feasible_subset", "cover.max_feasible_subset", "cover.setcover_greedy"),
    ("fosched.cover", "build_table", "cover.build_table", "cover.max_feasible_subset"),
    ("fosched.bench", "optimal", "exact.optimal", None),
    ("fosched.exact", "first_fit", "exact.seed_first_fit", "exact.optimal"),
    ("fosched.exact", "lower_bound", "exact.lower_bound", "exact.optimal"),
    ("fosched.bench", "classify", "instances.classify", None),
    ("fosched.bench", "is_feasible", "core.is_feasible", None),
    ("fosched.bench", "generate", "instances.generate", None),
    ("fosched.bench", "gen_random", "instances.generate", None),
)
CALLERS = {span: caller for _, _, span, caller in LAYERS if caller}

# What a wrapper keeps from a call for the counts; the rest keep nothing.
_KEEP = {
    "greedy.first_fit": lambda args, result: result,
    "greedy.first_fit_traced": lambda args, result: result[1],
    "cover.max_feasible_subset": lambda args, result: (len(args[0]), result[0]),
    "exact.seed_first_fit": lambda args, result: result,
    "exact.lower_bound": lambda args, result: result,
}

NAME, START, END, PARENT, INSTANCE, KEPT = range(6)


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.installed: set[str] = set()
        self.instance = ""
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, keep = self.spans, self._stack, _KEEP.get(name)

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.instance, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = now()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[END] = now()
                stack.pop()
                span[KEPT] = type(exc).__name__
                raise
            span[END] = now()
            stack.pop()
            if keep is not None:
                span[KEPT] = keep(args, result)
            return result

        return traced

    def wrap_evaluate(self, fn):
        """Wrap the per-instance entry point; its spans carry the instance id."""
        traced = self.wrap("bench.evaluate", fn)

        def evaluate(instance, instance_id, *args, **kwargs):
            self.instance = instance_id
            return traced(instance, instance_id, *args, **kwargs)

        return evaluate

    def install(self) -> None:
        """Wrap every layer in LAYERS that the installed fosched still has."""
        for module_name, attr, span, _ in LAYERS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is not None:
                setattr(module, attr, self.wrap(span, fn))
                self.installed.add(span)

    def counts(self) -> dict[str, int]:
        """Work counts from what the wrappers kept; call after the pass."""
        counts: Counter = Counter()
        children = defaultdict(list)
        for span in self.spans:
            if span[PARENT] >= 0:
                children[span[PARENT]].append(span)
        for index, span in enumerate(self.spans):
            name, kept = span[NAME], span[KEPT]
            if name == "greedy.first_fit":
                counts["greedy.first_fit.machines"] += kept.machine_count
                for child in children[index]:
                    if child[NAME] == "greedy.first_fit_traced":
                        counts["greedy.first_fit.traced_calls"] += 1
                        counts["greedy.first_fit.probes"] += sum(placement.tried for placement in child[KEPT])
            elif name == "cover.max_feasible_subset":
                counts["cover.round_jobs"] += kept[0]
                counts["cover.placed"] += kept[1]
            elif name == "exact.optimal":
                if kept == "SearchBudgetError":
                    counts["exact.budget_failures"] += 1
                inner = {c[NAME]: c[KEPT] for c in children[index]}
                if "exact.seed_first_fit" in inner and "exact.lower_bound" in inner:
                    gap = inner["exact.seed_first_fit"].machine_count - inner["exact.lower_bound"]
                    counts["exact.gap_levels"] += gap
                    counts["exact.search_calls"] += gap > 0
        return dict(counts)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, instance, _ in self.spans:
                out.write(f"{name}\t{start}\t{end}\t{parent}\t{instance}\n")


def read_spans(path) -> list[tuple[str, int, int, int, str]]:
    spans = []
    with open(path, encoding="utf-8") as src:
        for line in src:
            name, start, end, parent, instance = line.rstrip("\n").split("\t")
            spans.append((name, int(start), int(end), int(parent), instance))
    return spans


def span_times(spans) -> tuple[dict[str, float], dict[str, float], Counter]:
    """Total seconds, self seconds and call count per span name.

    A span's self time is its duration minus the durations of the spans it
    directly encloses. Names without spans read as 0.
    """
    total_ns: Counter = Counter()
    self_ns: Counter = Counter()
    calls: Counter = Counter()
    for name, start, end, parent, _ in spans:
        took = end - start
        total_ns[name] += took
        self_ns[name] += took
        calls[name] += 1
        if parent >= 0:
            self_ns[spans[parent][0]] -= took
    return _seconds(total_ns), _seconds(self_ns), calls


def _seconds(ns: Counter) -> defaultdict:
    return defaultdict(float, {name: value / 1e9 for name, value in ns.items()})


def layer_metrics(spans, counts: dict, installed) -> dict[str, float | None]:
    """Per-layer metrics from one traced pass; None marks an absent layer."""
    total, self_s, calls = span_times(spans)

    def absent(layer: str) -> bool:
        if layer not in installed:
            return True
        caller = CALLERS.get(layer)
        return caller is not None and calls[caller] > 0 and calls[layer] == 0

    def when(layer: str, value):
        return None if absent(layer) else value

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    sweep_s = total["bench.evaluate"] + total["bench.emit_report"] + total["bench.assert_bounds"]
    rounds = counts.get("cover.round_jobs", 0)
    opt_calls = calls["exact.optimal"]
    exact_counts_absent = absent("exact.seed_first_fit") or absent("exact.lower_bound")
    # Σ tried over the first_fit_traced calls first fit makes; absent once
    # first fit no longer calls it.
    probes_absent = absent("greedy.first_fit_traced") or (
        calls["greedy.first_fit"] > 0 and not counts.get("greedy.first_fit.traced_calls")
    )
    return {
        "bench.sweep.s": sweep_s,
        "greedy.first_fit.s": when("greedy.first_fit", total["greedy.first_fit"]),
        "greedy.first_fit.calls": when("greedy.first_fit", calls["greedy.first_fit"]),
        "greedy.first_fit.probes": None if probes_absent else counts.get("greedy.first_fit.probes", 0),
        "greedy.first_fit.machines": when("greedy.first_fit", counts.get("greedy.first_fit.machines", 0)),
        "greedy.first_fit.share": when("greedy.first_fit", share(total["greedy.first_fit"], sweep_s)),
        "greedy.next_fit.s": when("greedy.next_fit", total["greedy.next_fit"]),
        "cover.setcover_greedy.s": when("cover.setcover_greedy", total["cover.setcover_greedy"]),
        "cover.max_feasible_subset.calls": when("cover.max_feasible_subset", calls["cover.max_feasible_subset"]),
        "cover.max_feasible_subset.s": when("cover.max_feasible_subset", total["cover.max_feasible_subset"]),
        "cover.max_feasible_subset.share": when(
            "cover.max_feasible_subset", share(total["cover.max_feasible_subset"], sweep_s)
        ),
        "cover.build_table.s": when("cover.build_table", total["cover.build_table"]),
        "cover.round_jobs": when("cover.max_feasible_subset", rounds),
        "cover.placed_per_examined": when(
            "cover.max_feasible_subset", share(counts.get("cover.placed", 0), rounds)
        ),
        "exact.optimal.s": when("exact.optimal", total["exact.optimal"]),
        "exact.optimal.calls": when("exact.optimal", opt_calls),
        "exact.optimal.share": when("exact.optimal", share(total["exact.optimal"], sweep_s)),
        "exact.seed_first_fit.s": when("exact.seed_first_fit", total["exact.seed_first_fit"]),
        "exact.lower_bound.s": when("exact.lower_bound", total["exact.lower_bound"]),
        "exact.search.self_s": when("exact.optimal", self_s["exact.optimal"]),
        "exact.search_share": None
        if exact_counts_absent
        else share(counts.get("exact.search_calls", 0), opt_calls),
        "exact.gap_levels": None if exact_counts_absent else counts.get("exact.gap_levels", 0),
        "exact.budget_failures": when("exact.optimal", counts.get("exact.budget_failures", 0)),
        "instances.generate.s": when("instances.generate", total["instances.generate"]),
        "core.from_pairs.s": total["core.from_pairs"],
        "instances.classify.s": when("instances.classify", total["instances.classify"]),
        "core.is_feasible.s": when("core.is_feasible", total["core.is_feasible"]),
        "core.is_feasible.calls": when("core.is_feasible", calls["core.is_feasible"]),
        "bench.evaluate.self_s": self_s["bench.evaluate"],
        "bench.emit_report.s": total["bench.emit_report"],
        "bench.assert_bounds.s": total["bench.assert_bounds"],
        "bench.expand_sweep.self_s": self_s["bench.expand_sweep"],
    }
