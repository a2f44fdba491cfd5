"""``fosched`` imports nothing outside the standard library and itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "fosched"
MODULES = sorted(SRC.rglob("*.py"))


def test_modules_found():
    assert SRC / "__init__.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.relative_to(SRC).as_posix())
def test_imports_are_stdlib_or_fosched(path):
    outside = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue  # not an import, or a relative one inside the package
        for name in names:
            top = name.split(".")[0]
            if top != "fosched" and top not in sys.stdlib_module_names:
                outside.append(f"line {node.lineno}: {name}")
    assert not outside


def test_import_leaves_fractions_unloaded():
    # Only the counterexample hunt reads a ratio; it imports fractions itself.
    # -S keeps site hooks from loading modules of their own.
    code = "import sys, fosched; print('fractions' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout == "False\n"
