"""Machine minimization for fixed-priority-order scheduling.

Jobs arrive as an ordered sequence of (processing time, deadline) pairs; the
sequence position is a global priority every machine must respect. The
package provides greedy solvers (first fit, next fit), a set-cover style
approximation, an exact branch-and-bound oracle, instance generators, and a
benchmark harness with proven-bound checking.
"""

from .core import (
    MAX_TOTAL_WORK,
    CoverageError,
    InputError,
    Instance,
    Job,
    Schedule,
    completion_profile,
    instance_from_json,
    instance_to_json,
    is_feasible,
    load_instance,
    loads,
    save_instance,
)
from .cover import build_table, max_feasible_subset, setcover_greedy
from .exact import (
    DEFAULT_ORACLE_CAP,
    MAX_ORACLE_CAP,
    CapacityError,
    SearchBudgetError,
    lower_bound,
    optimal,
)
from .greedy import PlacementTrace, first_fit, first_fit_traced, next_fit, placement_trace
from .instances import (
    FAMILIES,
    MAX_JOBS,
    RANDOM_FAMILIES,
    GenSpec,
    OrderClass,
    class_tokens,
    classify,
    gen_nf_hard,
    gen_random,
    gen_tight2,
    generate,
)
from .bench import (
    ALGORITHMS,
    REPORT_COLUMNS,
    BenchRecord,
    BoundViolation,
    HuntResult,
    SolveReport,
    assert_bounds,
    counterexample_search,
    emit_report,
    evaluate,
    expand_sweep,
    load_sweep,
    report_row,
    run,
    run_sweep,
)

__version__ = "0.1.0"
