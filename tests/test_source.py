"""Source-level rules for the package: no bare asserts, no numpy, no
Fraction on the localization, theta and grid-scan hot paths, no epsilon
arithmetic in the embedding layer or the B/C projection, no epsilon data in
weyl, and Weyl's private context kept inside weyl."""

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


def _function(module, name):
    path = Path(eigencones.__file__).parent / f"{module}.py"
    node = ast.parse(path.read_text(), str(path))
    for part in name.split("."):
        (node,) = [n for n in node.body
                   if isinstance(n, (ast.ClassDef, ast.FunctionDef))
                   and n.name == part]
    return node


@pytest.mark.parametrize("module,name", [
    # restrictions, Euler factors and theta are ints at the generic point, and
    # the covers the recursion reads are int Weyl products
    pytest.param("schubert", "FlagVariety._localization", id="_localization"),
    pytest.param("schubert", "FlagVariety.covers", id="covers"),
    pytest.param("schubert", "FlagVariety.theta", id="theta"),
    # the grid kernel scans int value tables as int bitsets
    *(pytest.param("cones", fn, id=f"cones.{fn}")
      for fn in ("_value_tables", "_tail", "_value_sets", "_walls", "_scan",
                 "_cell", "_cells", "_first_tight", "_grid_scan")),
    # the set bits that the grid kernel and the integrals walk
    pytest.param("linalg", "set_bits", id="linalg.set_bits"),
])
def test_no_fraction_in_the_int_hot_paths(module, name):
    names = {n.id for n in ast.walk(_function(module, name))
             if isinstance(n, ast.Name)}
    assert "Fraction" not in names, f"Fraction in {module}.{name}"


def test_weyl_keeps_no_epsilon_data():
    # apply_eps is a view through the root system's fw coordinates
    path = Path(eigencones.__file__).parent / "weyl.py"
    tree = ast.parse(path.read_text(), str(path))
    imported = {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
                for a in n.names}
    assert "Fraction" not in imported
    (ctx,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "_Context"]
    fields = {n.attr for n in ast.walk(ctx) if isinstance(n, ast.Attribute)}
    assert not fields & {"coroots", "weights", "eps_scale", "simple_roots",
                         "fundamental_weights"}


EPSILON_NAMES = {"killing", "coroot_pairing", "fw_coords", "alpha_coords",
                 "from_fw", "simple_roots", "vadd", "vscale",
                 # the epsilon views and the lookup of a root by its vector
                 "positive_roots", "simple_images", "root_index", "reflection"}


@pytest.mark.parametrize("module,name", [
    ("rootsys", "SubsystemEmbedding.image_alpha_coords"),
    ("rootsys", "_make_embedding"),
    ("rootsys", "build_embedding"),
    ("rootsys", "_build_embedding"),
    ("rootsys", "_build_g2_in_f4"),
    ("rootsys", "restrict_weight_via_embedding"),
    ("rootsys", "embed_weight"),
    ("weyl", "_generator_images"),
    ("cones", "project_weight_BC"),
    ("cones", "include_weight_BC"),
    ("cones", "projection_step_invariance"),
    ("schubert", "FlagVariety.eval_xP"),
    ("schubert", "FlagVariety.covers"),
    ("schubert", "chevalley_multiply"),
])
def test_embeddings_read_only_int_root_rows(module, name):
    # orbits are named in simple-root coordinates; epsilon is a view
    node = _function(module, name)
    used = {getattr(n, "id", None) for n in ast.walk(node)}
    used |= {getattr(n, "attr", None) for n in ast.walk(node)}
    assert not used & EPSILON_NAMES, f"{name} uses {sorted(used & EPSILON_NAMES)}"


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "weyl.py"],
                         ids=lambda p: p.name)
def test_only_weyl_reads_its_context(path):
    # root rows live on RootSystem; other layers read them there
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        names = {getattr(node, "id", None), getattr(node, "attr", None)}
        if isinstance(node, ast.alias):
            names |= {node.name, node.asname}
        assert "_ctx" not in names, f"{path.name}:{getattr(node, 'lineno', '?')}"
