"""What a fresh process runs of the package, and what the package exports.

Each check runs in a new interpreter, so that the modules pytest and the
other tests have already imported cannot mask what a command loads.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import eigencones

SRC = Path(eigencones.__file__).parents[1]

# the package's exports before they became lazy, submodules included
EXPORTS = [
    "CharacterTable", "CohomClass", "ConfigurationError", "EigenconesError",
    "FlagVariety", "IndexSet", "IneqSystem", "Inequality", "ParabolicSpec",
    "ResourceCapError", "RootSystem", "SubsystemEmbedding", "UsageError",
    "VerificationError", "Weight", "WeylElement", "build_embedding",
    "build_root_system", "cones", "dim_from_index", "dual_rep", "embed_element",
    "errors", "flag_variety", "generate_inequalities", "generate_weyl_group",
    "include_weight_BC", "invariant_dim", "isogr", "lift_index", "linalg",
    "longest_element", "membership", "minimal_coset_reps", "oracle", "orbit_dims",
    "point_product_tuples", "project_weight_BC", "rootsys", "saturated_search",
    "schubert", "tensor_decompose", "verify_projection", "verify_subeigencone",
    "weight_multiplicities", "weyl", "weyl_dim", "weyl_index_bijection",
    "word_str", "word_to_element",
]
LAYERS = ("errors", "linalg", "rootsys", "weyl", "schubert", "isogr", "cones",
          "oracle", "cache")


def fresh(code):
    """The JSON value that code prints on its last stdout line, run in a new
    interpreter with this checkout's package."""
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_a_cosets_process_runs_only_rootsys_and_weyl():
    # a module registered but not yet run is still a lazy module object
    registered, after_import, after_cosets = fresh("""
        import json, sys, types
        import eigencones.cli

        def ran():
            return sorted(n for n, m in sys.modules.items()
                          if n.startswith("eigencones.") and type(m) is types.ModuleType)

        registered = sorted(n for n in sys.modules if n.startswith("eigencones."))
        after_import = ran()
        code = eigencones.cli.main(["cosets", "--group", "A6", "--parabolic", "2"])
        print(json.dumps([registered, after_import, ran() if code == 0 else code]))
    """)
    ran = ["eigencones.cli", "eigencones.errors", "eigencones.linalg",
           "eigencones.rootsys", "eigencones.weyl"]
    assert after_import == ran
    assert after_cosets == ran
    # every layer stays reachable through sys.modules, as the benchmark's
    # tracer reads it right after importing the CLI
    assert registered == sorted(["eigencones.cli"] + [f"eigencones.{m}" for m in LAYERS])


def test_a_registered_layer_runs_on_first_attribute_access():
    ran = fresh("""
        import json, sys, types
        import eigencones.cli

        cones = sys.modules["eigencones.cones"]
        before = type(cones) is types.ModuleType
        cones.generate_inequalities
        print(json.dumps([before, type(cones) is types.ModuleType,
                          type(sys.modules["eigencones.schubert"]) is types.ModuleType]))
    """)
    assert ran == [False, True, True]


def test_every_export_resolves_lazily():
    ran, exported, missing, starred, listed = fresh("""
        import json, sys, types
        import eigencones

        ran = [n for n, m in sys.modules.items()
               if n.startswith("eigencones.") and type(m) is types.ModuleType]
        missing = [n for n in eigencones.__all__ if getattr(eigencones, n, None) is None]
        from eigencones import *
        starred = all(n in globals() for n in eigencones.__all__)
        listed = set(eigencones.__all__) <= set(dir(eigencones))
        print(json.dumps([ran, eigencones.__all__, missing, starred, listed]))
    """)
    assert ran == []
    assert exported == EXPORTS
    assert missing == []
    assert starred and listed
