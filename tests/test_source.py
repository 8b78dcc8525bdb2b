"""Source-level rules for the package: no bare asserts, no numpy."""

import ast
from pathlib import Path

import pytest

import eigencones

SOURCES = sorted(Path(eigencones.__file__).parent.glob("*.py"))


def _is_numpy(name):
    return name is not None and name.split(".")[0] == "numpy"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_and_no_numpy(path):
    # python -O strips assert statements, so a self-check must raise instead
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        where = f"{path.name}:{getattr(node, 'lineno', '?')}"
        assert not isinstance(node, ast.Assert), f"bare assert at {where}"
        if isinstance(node, ast.Import):
            assert not any(_is_numpy(a.name) for a in node.names), where
        if isinstance(node, ast.ImportFrom):
            assert not _is_numpy(node.module), where
