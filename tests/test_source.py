"""Source-level rules for the package: no bare asserts, no numpy, no
Fraction on the localization and theta hot paths, and Weyl's private
context kept inside weyl."""

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


@pytest.mark.parametrize("method", ["_localization", "theta"])
def test_no_fraction_in_the_int_hot_paths(method):
    # restrictions, Euler factors and theta are ints at the generic point
    path = Path(eigencones.__file__).parent / "schubert.py"
    tree = ast.parse(path.read_text(), str(path))
    (cls,) = [n for n in tree.body
              if isinstance(n, ast.ClassDef) and n.name == "FlagVariety"]
    (fn,) = [n for n in cls.body
             if isinstance(n, ast.FunctionDef) and n.name == method]
    names = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)}
    assert "Fraction" not in names, f"Fraction in FlagVariety.{method}"


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "weyl.py"],
                         ids=lambda p: p.name)
def test_only_weyl_reads_its_context(path):
    # root rows live on RootSystem; other layers read them there
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        names = {getattr(node, "id", None), getattr(node, "attr", None)}
        if isinstance(node, ast.alias):
            names |= {node.name, node.asname}
        assert "_ctx" not in names, f"{path.name}:{getattr(node, 'lineno', '?')}"
