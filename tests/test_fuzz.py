"""Arbitrary JSON through the four parsers, and junk GenSpec fields: each
succeeds or raises InputError.

Documents are built from the parsers' real keys, families, algorithm names
and class tokens, mixed with junk keys and values of the wrong type. Every
integer stays within -3..30 and every list within a few items, so a sweep
that does expand stays small.
"""

import json

import hypothesis.strategies as st
from hypothesis import given, settings

from fosched import (
    ALGORITHMS,
    FAMILIES,
    REPORT_COLUMNS,
    GenSpec,
    InputError,
    expand_sweep,
    instance_from_json,
    records_from_json,
    schedule_from_json,
)

INTS = st.integers(-3, 30)
PAIRS = st.one_of(st.tuples(INTS, INTS).map(sorted), st.tuples(INTS, INTS).map(list))
WORDS = st.sampled_from(FAMILIES + ALGORITHMS + ("unit|slack-noninc", "deadline-nondec", "", "zz"))
JUNK = st.recursive(
    INTS | WORDS | st.booleans() | st.none() | st.floats(-3, 30),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(WORDS, kids, max_size=3),
    max_leaves=8,
)


def mostly(good):
    """Three draws in four from ``good``, the rest arbitrary JSON."""
    return st.one_of(good, good, good, JUNK)


def objects(fields):
    """Objects with the given fields, at times with one of them dropped, one
    holding arbitrary JSON, or one junk key added."""
    key = st.sampled_from(sorted(fields))

    def mutants(doc):
        return st.one_of(
            st.just(doc),
            st.just(doc),
            key.map(lambda k: {name: v for name, v in doc.items() if name != k}),
            st.tuples(key, JUNK).map(lambda kv: {**doc, kv[0]: kv[1]}),
            JUNK.map(lambda v: {**doc, "junk": v}),
        )

    return st.fixed_dictionaries(fields).flatmap(mutants)


ALGOS = st.lists(st.sampled_from(ALGORITHMS), max_size=4)
ENTRY = objects(
    {
        "family": st.sampled_from(FAMILIES),
        "algorithms": ALGOS,
        "n": INTS,
        "n_range": PAIRS,
        "k": INTS,
        "k_range": PAIRS,
        "count": INTS,
        "seed": INTS,
        "p_range": PAIRS,
        "slack_range": PAIRS,
    }
)
SWEEP = mostly(objects({"sweeps": st.lists(ENTRY, max_size=3), "algorithms": ALGOS}))
JOB = objects({"p": INTS, "d": INTS})
INSTANCE = mostly(objects({"name": WORDS, "jobs": st.lists(JOB, max_size=4)}))
SCHEDULE = mostly(objects({"machines": INTS, "assignment": st.lists(st.integers(-1, 4), max_size=5)}))
ROW = objects(
    {
        "id": WORDS,
        "n": INTS,
        "classes": st.sampled_from(("arbitrary", "unit", "unit|slack-noninc", "deadline-nondec")),
        **{a: st.none() | INTS for a in ALGORITHMS},
        **{c: st.none() | st.floats(0, 30) for c in REPORT_COLUMNS if c.startswith(("ratio_", "ms_"))},
    }
)
REPORT = mostly(st.lists(ROW, max_size=3))
SPEC_FIELDS = st.fixed_dictionaries(
    {
        "family": mostly(st.sampled_from(FAMILIES)),
        "n": mostly(INTS),
        "k": mostly(INTS),
        "seed": mostly(INTS),
        "p_range": mostly(PAIRS | PAIRS.map(tuple)),
        "slack_range": mostly(PAIRS | PAIRS.map(tuple)),
    }
)


def succeeds_or_input_error(parse, doc) -> None:
    try:
        parse(doc)
    except InputError:
        pass


@given(INSTANCE)
@settings(max_examples=200)
def test_instance_parser(doc):
    succeeds_or_input_error(instance_from_json, json.dumps(doc))


@given(SCHEDULE)
@settings(max_examples=200)
def test_schedule_parser(doc):
    succeeds_or_input_error(schedule_from_json, json.dumps(doc))


@given(SWEEP)
@settings(max_examples=200)
def test_sweep_parser(doc):
    succeeds_or_input_error(expand_sweep, json.loads(json.dumps(doc)))


@given(REPORT)
@settings(max_examples=200)
def test_report_parser(doc):
    succeeds_or_input_error(records_from_json, json.dumps(doc))


@given(SPEC_FIELDS)
@settings(max_examples=300)
def test_genspec_fields(fields):
    try:
        spec = GenSpec(**fields)
    except InputError:
        return
    for pair in (spec.p_range, spec.slack_range):
        assert type(pair) is tuple and all(type(v) is int for v in pair)
