"""Source-level rules for the package: no bare asserts and no __debug__,
no numpy, no Fraction on the localization, intersection-number, theta,
index-set and grid-scan hot paths nor anywhere in schubert and isogr, no
epsilon arithmetic in the embedding layer, the B/C projection or the
isotropic Grassmannian checks, no epsilon data in weyl, Weyl's private
context kept inside weyl, and no def that nothing the package runs
reaches."""

import ast
from pathlib import Path

import pytest

import eigencones

SOURCES = sorted(Path(eigencones.__file__).parent.glob("*.py"))


def _is_numpy(name):
    return name is not None and name.split(".")[0] == "numpy"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_and_no_numpy(path):
    # python -O strips assert statements and reads __debug__ as False, so a
    # self-check must raise a VerificationError instead
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        where = f"{path.name}:{getattr(node, 'lineno', '?')}"
        assert not isinstance(node, ast.Assert), f"bare assert at {where}"
        assert getattr(node, "id", None) != "__debug__", f"__debug__ at {where}"
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
    # intersection numbers are one int division, and the chi_w(x_P) table one
    # more per class, built with the variety and read by chi_at_xP
    pytest.param("schubert", "FlagVariety.integral_billey", id="integral_billey"),
    pytest.param("schubert", "FlagVariety.__init__", id="chi_table"),
    pytest.param("schubert", "FlagVariety.chi_at_xP", id="chi_at_xP"),
    # index sets, theta numbers and character differences of IG(k, 2r)
    *(pytest.param("isogr", fn, id=f"isogr.{fn}")
      for fn in ("weyl_index_bijection", "codim_jump_cross_check",
                 "expected_dim_zero_check")),
    # the lambda - w0 lambda box is read off the int inverse Cartan matrix
    pytest.param("oracle", "weight_multiplicities", id="oracle.weight_multiplicities"),
    # the grid kernel scans int value tables as int bitsets
    *(pytest.param("cones", fn, id=f"cones.{fn}")
      for fn in ("_value_tables", "_tail", "_value_sets", "_walls", "_scan",
                 "_cell", "_cells", "_grid_scan")),
    # the set bits that the grid kernel and the integrals walk
    pytest.param("linalg", "set_bits", id="linalg.set_bits"),
])
def test_no_fraction_in_the_int_hot_paths(module, name):
    names = {n.id for n in ast.walk(_function(module, name))
             if isinstance(n, ast.Name)}
    assert "Fraction" not in names, f"Fraction in {module}.{name}"


@pytest.mark.parametrize("module", ["schubert", "isogr"])
def test_no_fraction_import(module):
    # intersection numbers, theta and index sets are ints end to end
    path = Path(eigencones.__file__).parent / f"{module}.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {a.name for a in node.names} | {getattr(node, "module", None)}
    assert not imported & {"Fraction", "fractions"}, f"{module} imports Fraction"


def test_weyl_keeps_no_epsilon_data():
    # weyl reads the root system's int rows and no epsilon coordinates
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
                 "from_fw", "simple_roots", "vadd", "vscale", "fw_to_alpha",
                 "apply_eps",
                 # the epsilon views and the lookup of a root by its vector
                 "positive_roots", "simple_images", "root_index", "reflection"}


@pytest.mark.parametrize("module,name", [
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
    ("schubert", "FlagVariety.covers"),
    ("schubert", "chevalley_multiply"),
    ("isogr", "weyl_index_bijection"),
    ("isogr", "codim_jump_cross_check"),
    ("isogr", "expected_dim_zero_check"),
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


# -- src/ keeps only what it runs ----------------------------------------------

# defs that nothing in src/ calls by name and that stay, each with its reason
KEPT_UNREACHED = {
    # argparse calls it on every rejected command line
    ("cli", "_Parser.error"): "argparse's rejection hook",
    # checks of the paper's criteria, which tests/test_acceptance.py drives
    ("isogr", "bc_delta"): "criterion: B/C character difference",
    ("isogr", "bc_point_products_agree"): "criterion: B/C point products",
    ("isogr", "codim_jump_cross_check"): "criterion: codimension jump",
    ("isogr", "expected_dim_zero_check"): "criterion: expected-dimension lemmas",
    ("isogr", "properness_identity"): "criterion: properness identity",
    ("schubert", "FlagVariety.multiply_classes"): "criterion 8: associativity",
    ("schubert", "CohomClass.is_zero"): "criterion 8: vanishing products",
    ("schubert", "CohomClass.graded_codim"): "criterion 8: grading",
    ("schubert", "CohomClass.point_coefficient"): "criterion 8: point products",
    # the classical Chevalley rule over FlagVariety.covers, which the
    # localization recursion also reads; the tests check both against it
    ("schubert", "chevalley_multiply"): "Chevalley rule over the covers",
    # inequality-system I/O, until a membership --system option reads it
    ("cones", "system_from_json"): "waits on membership --system FILE",
}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


class _Module:
    """One source file: its defs, its roots and how its names resolve."""

    def __init__(self, path):
        self.name = path.stem
        tree = ast.parse(path.read_text(), str(path))
        self.defs = {}       # qualified name -> def node
        self.roots = []      # code that runs on import
        for stmt in tree.body:
            if isinstance(stmt, ast.FunctionDef):
                self.defs[stmt.name] = stmt
            elif isinstance(stmt, ast.ClassDef):
                self.roots += stmt.decorator_list + stmt.bases
                for item in stmt.body:
                    if isinstance(item, ast.FunctionDef):
                        self.defs[f"{stmt.name}.{item.name}"] = item
                    else:
                        self.roots.append(item)
            else:
                self.roots.append(stmt)
        # names bound by sibling imports, and names of outside modules
        self.imported, self.outside = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                for a in node.names:
                    self.imported[a.asname or a.name] = (node.module, a.name)
            elif isinstance(node, ast.Import):
                self.outside |= {(a.asname or a.name).split(".")[0] for a in node.names}


def _package():
    return {m.name: m for m in map(_Module, SOURCES)}


def _targets(modules, module, node):
    """The defs that the code under node names.

    A bare name is a function of its module or one imported from a sibling;
    an attribute names every method of that name, unless it is read off an
    outside module (json.dumps is not IneqSystem.dumps).
    """
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            if n.id in module.defs:
                out.add((module.name, n.id))
            elif n.id in module.imported:
                out.add(module.imported[n.id])
        elif isinstance(n, ast.Attribute):
            if isinstance(n.value, ast.Name) and n.value.id in module.outside:
                continue
            out |= {(m.name, q) for m in modules.values() for q in m.defs
                    if q.rpartition(".")[2] == n.attr}
    return out


def _reached(modules, extra=()):
    """Every def that import-time code, an export, a dunder or extra reaches."""
    todo = set(extra)
    for m in modules.values():
        for node in m.roots:
            todo |= _targets(modules, m, node)
        todo |= {(m.name, q) for q in m.defs if _is_dunder(q.rpartition(".")[2])}
    todo |= {(mod, name) for name, mod in eigencones._EXPORTS.items()}
    seen = set()
    while todo:
        key = todo.pop()
        module = modules.get(key[0])
        if key in seen or module is None or key[1] not in module.defs:
            continue
        seen.add(key)
        todo |= _targets(modules, module, module.defs[key[1]]) - seen
    return seen


def test_src_defines_only_what_it_runs():
    # every def is run by the CLI or the exports, or is kept with a reason;
    # a def that only tests call is a test helper or goes
    modules = _package()
    reached = _reached(modules, KEPT_UNREACHED)
    unreached = sorted(f"{m.name}.{q}" for m in modules.values() for q in m.defs
                       if (m.name, q) not in reached)
    assert not unreached, f"defs that nothing in src/ runs: {unreached}"


def test_kept_unreached_defs_exist_and_are_unreached():
    # an entry whose def is gone, or which src/ now runs, leaves the list
    modules = _package()
    reached = _reached(modules)
    for module, qualname in KEPT_UNREACHED:
        assert qualname in modules[module].defs, f"{module}.{qualname} is gone"
        assert (module, qualname) not in reached, f"{module}.{qualname} is run"
