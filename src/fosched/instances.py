"""Instance generators and the job-order classifier.

Random generation uses the standard library's ``random.Random`` (the
MT19937 Mersenne Twister). Given the same 64-bit seed it reproduces the same
draw sequence on every platform, which is what the benchmark formats rely on
for byte-identical reruns.

A value drawn uniformly from ``[lo, hi]`` is ``lo + r``, where, with
``w = hi - lo + 1`` and ``k = w.bit_length()``, ``r`` is the first result
of ``getrandbits(k)`` below ``w``. That is the computation CPython's
``randint`` performs, so instances are the ones ``randint`` draws, but the
stream depends only on ``getrandbits``, not on how ``random.py`` implements
``randint``. Each random instance draws, job by job, p (except in the unit
family, where p is 1) and then its slack.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from operator import add, ge, le, sub

from .core import InputError, Instance, _require_int


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


def classify(instance: Instance) -> OrderClass:
    """Flags for every structural property the job order satisfies."""
    p, d = instance.p, instance.d
    slack = tuple(map(sub, d, p))
    flags = OrderClass.ARBITRARY
    if all(pj == 1 for pj in p):
        flags |= OrderClass.UNIT_PROCESSING
    if all(map(ge, slack, slack[1:])):
        flags |= OrderClass.SLACK_NONINCREASING
    if all(map(le, slack, slack[1:])):
        flags |= OrderClass.SLACK_NONDECREASING
    if all(map(ge, d, d[1:])):
        flags |= OrderClass.DEADLINE_NONINCREASING
    if all(map(le, d, d[1:])):
        flags |= OrderClass.DEADLINE_NONDECREASING
    return flags


# Most jobs one generated instance, or one whole sweep, may hold. Generated
# instances live in memory together as two int tuples: 16 bytes per job
# while deadlines stay below 257 (small ints are shared), about 40 beyond.
# The instance being drawn briefly needs about 70 bytes per job more.
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


# The largest nf-hard n whose total work stays within core.MAX_TOTAL_WORK.
NF_HARD_MAX_N = 89


def _require_family_limits(family: str, n: int = 0, k: int = 0) -> None:
    """Reject an n or k that nf-hard or tight-2 cannot build, then a family
    instance above MAX_JOBS jobs (tight-2 holds 3k+1)."""
    if family == "nf-hard":
        if n < 3:
            raise InputError(f"family needs n >= 3, got {n}")
        if n > NF_HARD_MAX_N:
            raise InputError(f"n={n} pushes total work past the 64-bit cap")
    elif family == "tight-2" and k < 1:
        raise InputError(f"family needs k >= 1, got {k}")
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
    _require_family_limits("nf-hard", n=n)
    p, d = [1, 2], [1, 2]
    for _ in range(n - 2):
        pj = p[-1] + p[-2]
        d.append(pj + p[-1] - 1)
        p.append(pj)
    return Instance(p, d, name=f"nf-hard-n{n}")


def gen_tight2(k: int) -> Instance:
    """Three-type family driving first fit to 2k+1 machines when k+1 suffice.

    k interleaved pairs of a long job (k, 2k) and a filler (1, k+1) bait
    first fit into filling k machines to exactly k+1, after which each of
    the k+1 closing jobs (k+1, 2k+1) needs a fresh machine. n = 3k+1, which
    may not exceed MAX_JOBS.
    """
    _require_family_limits("tight-2", k=k)
    p = (k, 1) * k + (k + 1,) * (k + 1)
    d = (2 * k, k + 1) * k + (2 * k + 1,) * (k + 1)
    return Instance(p, d, name=f"tight-2-k{k}")


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

    ``n`` sizes the random families and nf-hard (3 <= n <= 89); ``k``
    parameterizes tight-2 (k >= 1), which has 3k+1 jobs. No spec may ask
    for more than MAX_JOBS jobs; the family limits are checked first.
    Processing times are drawn uniformly from ``p_range`` and deadlines are
    p plus a uniform draw from ``slack_range``; both ranges must be pairs of
    integers and are stored as tuples.
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
        _require_family_limits(self.family, self.n, self.k)
        (p_lo, p_hi), (s_lo, s_hi) = self.p_range, self.slack_range
        if p_lo < 1 or p_hi < p_lo:
            raise InputError(f"bad processing range {self.p_range}")
        if s_lo < 0 or s_hi < s_lo:
            raise InputError(f"bad slack range {self.slack_range}")


def gen_random(spec: GenSpec) -> Instance:
    """Draw a random instance for one of the random families.

    Draws (p, slack) pairs with MT19937, as the module docstring defines,
    then stable-sorts them into the family's order, so ties keep their draw
    order and a seed pins the instance exactly.
    """
    if spec.family not in RANDOM_FAMILIES:
        raise InputError(f"{spec.family!r} is not a random family")
    bits = random.Random(spec.seed).getrandbits
    (p_lo, p_hi), (s_lo, s_hi) = spec.p_range, spec.slack_range
    p_w, s_w = p_hi - p_lo + 1, s_hi - s_lo + 1
    p_k, s_k = p_w.bit_length(), s_w.bit_length()
    unit = spec.family == "unit"
    p = [1] * spec.n if unit else []
    slack = []
    # Inline rejection sampling: a helper call per draw would cost more than the draw.
    for _ in range(spec.n):
        if not unit:
            r = bits(p_k)
            while r >= p_w:
                r = bits(p_k)
            p.append(p_lo + r)
        r = bits(s_k)
        while r >= s_w:
            r = bits(s_k)
        slack.append(s_lo + r)
    d = list(map(add, p, slack))
    order = None
    if spec.family == "slack-noninc":
        order = sorted(range(spec.n), key=slack.__getitem__, reverse=True)
    elif spec.family == "slack-nondec":
        order = sorted(range(spec.n), key=slack.__getitem__)
    elif spec.family == "deadline-noninc":
        order = sorted(range(spec.n), key=d.__getitem__, reverse=True)
    if order is not None:
        p, d = map(p.__getitem__, order), map(d.__getitem__, order)
    name = f"{spec.family}-n{spec.n}-s{spec.seed}"
    return Instance(p, d, name=name)


def generate(spec: GenSpec) -> Instance:
    """Dispatch a GenSpec to its family's generator."""
    if spec.family == "nf-hard":
        return gen_nf_hard(spec.n)
    if spec.family == "tight-2":
        return gen_tight2(spec.k)
    return gen_random(spec)
