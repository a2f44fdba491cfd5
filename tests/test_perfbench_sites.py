"""The benchmark's traced call sites still exist in ``fosched``.

``perfbench/tracing.py`` wraps each ``(module, attribute)`` of its ``LAYERS``
table and reports a nested layer absent, its metrics null, when the layer
it sits in ran and it never did. These checks read that table from the
file, without importing the benchmark, so a renamed function or a call that
no longer goes through a module global fails here and not only in the
benchmark's smoke runs.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

import pytest

from helpers import NF_HARD_5

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _layers() -> tuple[tuple[str, str, str, str | None], ...]:
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS table in {TRACING}")


LAYERS = _layers()
CALLERS = {span: caller for _, _, span, caller in LAYERS if caller}
NESTED = sorted(CALLERS)


@pytest.mark.parametrize("module, attr", sorted({(m, a) for m, a, _, _ in LAYERS}))
def test_every_layer_resolves(module, attr):
    assert module.split(".")[0] == "fosched"
    assert callable(getattr(importlib.import_module(module), attr, None))


def test_some_layers_are_nested():
    assert NESTED


@pytest.fixture
def spied(monkeypatch):
    """Wrap every layer at its module attribute, as the benchmark does; the
    counter tallies calls by span name."""
    calls: Counter = Counter()
    for module_name, attr, span, _ in LAYERS:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr)

        def spy(*args, _fn=fn, _span=span, **kwargs):
            calls[_span] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, attr, spy)
    return calls


@pytest.mark.parametrize("span", NESTED)
def test_nested_layer_is_called_by_its_caller(spied, span):
    # walk up to the top-level layer and call it, through its spy, on an
    # instance every solver works on
    root = span
    while root in CALLERS:
        root = CALLERS[root]
    module_name, attr = next((m, a) for m, a, s, _ in LAYERS if s == root)
    getattr(importlib.import_module(module_name), attr)(NF_HARD_5)
    assert spied[CALLERS[span]] > 0
    assert spied[span] > 0, f"{CALLERS[span]} ran without calling {span}"
