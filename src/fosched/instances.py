"""Instance generators and the job-order classifier.

Random generation uses the standard library's ``random.Random`` (the
MT19937 Mersenne Twister). Given the same 64-bit seed it reproduces the same
draw sequence on every platform, which is what the benchmark formats rely on
for byte-identical reruns.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass

from .core import MAX_TOTAL_WORK, InputError, Instance, Job, _require_int


class OrderClass(enum.Flag):
    """Structural properties of the job order; several may hold at once.

    ARBITRARY is the empty flag set: no recognized structure. Instances with
    fewer than two jobs satisfy every monotonicity vacuously.
    """

    ARBITRARY = 0
    UNIT_PROCESSING = enum.auto()
    SLACK_NONINCREASING = enum.auto()
    SLACK_NONDECREASING = enum.auto()
    DEADLINE_NONINCREASING = enum.auto()
    DEADLINE_NONDECREASING = enum.auto()


_CLASS_TOKENS = (
    (OrderClass.UNIT_PROCESSING, "unit"),
    (OrderClass.SLACK_NONINCREASING, "slack-noninc"),
    (OrderClass.SLACK_NONDECREASING, "slack-nondec"),
    (OrderClass.DEADLINE_NONINCREASING, "deadline-noninc"),
    (OrderClass.DEADLINE_NONDECREASING, "deadline-nondec"),
)


def class_tokens(flags: OrderClass) -> str:
    """Stable text form of a flag set, e.g. ``unit|slack-nondec``."""
    parts = [token for flag, token in _CLASS_TOKENS if flag in flags]
    return "|".join(parts) if parts else "arbitrary"


def parse_class_tokens(text: str) -> OrderClass:
    lookup = {token: flag for flag, token in _CLASS_TOKENS}
    flags = OrderClass.ARBITRARY
    if text == "arbitrary":
        return flags
    for part in text.split("|"):
        if part not in lookup:
            raise InputError(f"unknown order class token {part!r}")
        flags |= lookup[part]
    return flags


def classify(instance: Instance) -> OrderClass:
    """Flags for every structural property the job order satisfies."""
    jobs = instance.jobs
    flags = OrderClass.ARBITRARY
    if all(job.p == 1 for job in jobs):
        flags |= OrderClass.UNIT_PROCESSING
    if all(a.slack >= b.slack for a, b in zip(jobs, jobs[1:])):
        flags |= OrderClass.SLACK_NONINCREASING
    if all(a.slack <= b.slack for a, b in zip(jobs, jobs[1:])):
        flags |= OrderClass.SLACK_NONDECREASING
    if all(a.d >= b.d for a, b in zip(jobs, jobs[1:])):
        flags |= OrderClass.DEADLINE_NONINCREASING
    if all(a.d <= b.d for a, b in zip(jobs, jobs[1:])):
        flags |= OrderClass.DEADLINE_NONDECREASING
    return flags


# Most jobs one generated instance, or one whole sweep, may hold. Generated
# instances live in memory together, at roughly 200 bytes per job.
MAX_JOBS = 1_000_000


def _int_pair(value: object, what: str) -> tuple[int, int]:
    """``value`` as a tuple of two non-bool ints, else an InputError naming ``what``."""
    ok = (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(isinstance(v, int) and not isinstance(v, bool) for v in value)
    )
    if not ok:
        raise InputError(f"{what} must be a pair of integers, got {value!r}")
    return value[0], value[1]


def _require_within_cap(family: str, n: int = 0, k: int = 0) -> None:
    """Reject a family instance above MAX_JOBS jobs (tight-2 holds 3k+1)."""
    jobs = 3 * k + 1 if family == "tight-2" else n
    if jobs > MAX_JOBS:
        raise InputError(f"{family} instance would hold {jobs} jobs, above the cap of {MAX_JOBS}")


def gen_nf_hard(n: int) -> Instance:
    """Growth family that ruins next fit: it opens one machine per job while
    alternating the jobs over two machines is always feasible.

    Processing times grow like Fibonacci numbers and each deadline admits a
    job exactly on top of the one two positions back, never on top of its
    predecessor. Total work must stay within the 64-bit cap (n <= 89).
    """
    if n < 3:
        raise InputError(f"family needs n >= 3, got {n}")
    jobs = [Job(1, 1), Job(2, 2)]
    total = 3
    for _ in range(n - 2):
        p = jobs[-1].p + jobs[-2].p
        total += p
        if total > MAX_TOTAL_WORK:
            raise InputError(f"n={n} pushes total work past the 64-bit cap")
        jobs.append(Job(p, p + jobs[-1].p - 1))
    return Instance(tuple(jobs), name=f"nf-hard-n{n}")


def gen_tight2(k: int) -> Instance:
    """Three-type family driving first fit to 2k+1 machines when k+1 suffice.

    k interleaved pairs of a long job (k, 2k) and a filler (1, k+1) bait
    first fit into filling k machines to exactly k+1, after which each of
    the k+1 closing jobs (k+1, 2k+1) needs a fresh machine. n = 3k+1, which
    may not exceed MAX_JOBS.
    """
    if k < 1:
        raise InputError(f"family needs k >= 1, got {k}")
    _require_within_cap("tight-2", k=k)
    jobs: list[Job] = []
    for _ in range(k):
        jobs.append(Job(k, 2 * k))
        jobs.append(Job(1, k + 1))
    jobs.extend(Job(k + 1, 2 * k + 1) for _ in range(k + 1))
    return Instance(tuple(jobs), name=f"tight-2-k{k}")


RANDOM_FAMILIES = (
    "unit",
    "slack-noninc",
    "slack-nondec",
    "deadline-noninc",
    "arbitrary",
)
FAMILIES = ("nf-hard", "tight-2") + RANDOM_FAMILIES

@dataclass(frozen=True)
class GenSpec:
    """Everything needed to regenerate an instance deterministically.

    ``n`` sizes the random families and nf-hard; ``k`` parameterizes
    tight-2, which has 3k+1 jobs. No spec may ask for more than MAX_JOBS
    jobs. Processing times are drawn uniformly from ``p_range`` and
    deadlines are p plus a uniform draw from ``slack_range``; both ranges
    must be pairs of integers and are stored as tuples.
    """

    family: str
    n: int = 0
    k: int = 0
    seed: int = 0
    p_range: tuple[int, int] = (1, 10)
    slack_range: tuple[int, int] = (0, 10)

    def __post_init__(self) -> None:
        for what in ("p_range", "slack_range"):
            object.__setattr__(self, what, _int_pair(getattr(self, what), what))
        if self.family not in FAMILIES:
            raise InputError(f"unknown family {self.family!r}")
        for what in ("n", "k", "seed"):
            _require_int(getattr(self, what), what)
        if not 0 <= self.seed < 2**64:
            raise InputError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.n < 0:
            raise InputError(f"n must be >= 0, got {self.n}")
        _require_within_cap(self.family, self.n, self.k)
        (p_lo, p_hi), (s_lo, s_hi) = self.p_range, self.slack_range
        if p_lo < 1 or p_hi < p_lo:
            raise InputError(f"bad processing range {self.p_range}")
        if s_lo < 0 or s_hi < s_lo:
            raise InputError(f"bad slack range {self.slack_range}")


def gen_random(spec: GenSpec) -> Instance:
    """Draw a random instance for one of the random families.

    Draws (p, slack) pairs with MT19937, then stable-sorts them into the
    family's order, so ties keep their draw order and a seed pins the
    instance exactly.
    """
    if spec.family not in RANDOM_FAMILIES:
        raise InputError(f"{spec.family!r} is not a random family")
    rng = random.Random(spec.seed)
    pairs = []
    for _ in range(spec.n):
        p = 1 if spec.family == "unit" else rng.randint(*spec.p_range)
        pairs.append((p, rng.randint(*spec.slack_range)))
    if spec.family == "slack-noninc":
        pairs.sort(key=lambda t: t[1], reverse=True)
    elif spec.family == "slack-nondec":
        pairs.sort(key=lambda t: t[1])
    elif spec.family == "deadline-noninc":
        pairs.sort(key=lambda t: t[0] + t[1], reverse=True)
    jobs = tuple(Job(p, p + s) for p, s in pairs)
    return Instance(jobs, name=f"{spec.family}-n{spec.n}-s{spec.seed}")


def generate(spec: GenSpec) -> Instance:
    """Dispatch a GenSpec to its family's generator."""
    if spec.family == "nf-hard":
        return gen_nf_hard(spec.n)
    if spec.family == "tight-2":
        return gen_tight2(spec.k)
    return gen_random(spec)
