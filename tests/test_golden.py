"""The golden corpus under tests/golden, regenerated in-process.

Each file pins CLI output that a refactor must keep byte for byte, timings
removed. A change that alters a file on purpose rewrites the corpus with
``python tests/golden/regen.py`` and says why.
"""

import pytest

from golden.regen import GOLDEN, derived

COMMITTED = sorted(
    path.relative_to(GOLDEN).as_posix()
    for path in (*GOLDEN.glob("bench/*"), *GOLDEN.glob("*.json*"))
)


@pytest.fixture(scope="module")
def regenerated():
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("FOSCHED_ORACLE_CAP", raising=False)
        return derived()


def test_corpus_lists_every_committed_output(regenerated):
    assert sorted(regenerated) == COMMITTED


@pytest.mark.parametrize("name", COMMITTED)
def test_output_matches_the_corpus(regenerated, name):
    assert regenerated[name] == (GOLDEN / name).read_text(encoding="utf-8")
