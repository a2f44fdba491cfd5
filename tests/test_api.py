"""The public surface of ``fosched``, pinned by name.

A name added here or taken away is an API change; CHANGES.md records each
one as a deliberate addition or trim.
"""

import types

import fosched
from fosched import Instance, Schedule

PUBLIC = {
    # core
    "MAX_TOTAL_WORK", "CoverageError", "InputError", "Instance", "Job", "Schedule",
    "completion_profile", "instance_from_json", "instance_to_json", "is_feasible",
    "load_instance", "loads", "save_instance",
    # cover
    "build_table", "max_feasible_subset", "setcover_greedy",
    # exact
    "DEFAULT_ORACLE_CAP", "MAX_ORACLE_CAP", "CapacityError", "SearchBudgetError", "lower_bound",
    "optimal",
    # greedy
    "PlacementTrace", "first_fit", "first_fit_traced", "next_fit", "placement_trace",
    # instances
    "FAMILIES", "MAX_JOBS", "RANDOM_FAMILIES", "GenSpec", "OrderClass", "class_tokens",
    "classify", "gen_nf_hard", "gen_random", "gen_tight2", "generate",
    # bench
    "ALGORITHMS", "REPORT_COLUMNS", "BenchRecord", "BoundViolation", "HuntResult",
    "SolveReport", "assert_bounds", "counterexample_search", "emit_report", "evaluate",
    "expand_sweep", "load_sweep", "report_row", "run", "run_sweep",
}
# Instance(p, d, name) is the one checked constructor; from_pairs unzips into it.
INSTANCE_PUBLIC = {"p", "d", "name", "from_pairs", "jobs", "n"}
# Schedule(labels) is the checked constructor; solvers build theirs unchecked.
SCHEDULE_PUBLIC = {"assignment", "machine_count"}


def test_public_surface():
    exported = {
        name for name, value in vars(fosched).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC
    assert {name for name in dir(Instance((), ())) if not name.startswith("_")} == INSTANCE_PUBLIC
    assert {name for name in dir(Schedule(())) if not name.startswith("_")} == SCHEDULE_PUBLIC
    assert not hasattr(Instance, "__iter__")
