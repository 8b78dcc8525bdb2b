"""Exact root-system, Schubert-calculus, and eigencone computations.

The package exports lazily, so a process runs only the layers it uses.
Importing it runs no submodule: each is registered in ``sys.modules`` and
runs on its first attribute access, and an exported name runs its submodule
when it is first read.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

# exported name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(("ConfigurationError", "EigenconesError", "ResourceCapError",
                     "UsageError", "VerificationError"), "errors"),
    **dict.fromkeys(("RootSystem", "SubsystemEmbedding", "Weight",
                     "build_embedding", "build_root_system"), "rootsys"),
    **dict.fromkeys(("ParabolicSpec", "WeylElement", "dual_rep", "embed_element",
                     "generate_weyl_group", "longest_element", "minimal_coset_reps",
                     "word_str", "word_to_element"), "weyl"),
    **dict.fromkeys(("CohomClass", "FlagVariety", "flag_variety",
                     "point_product_tuples"), "schubert"),
    **dict.fromkeys(("IndexSet", "dim_from_index", "lift_index", "orbit_dims",
                     "weyl_index_bijection"), "isogr"),
    **dict.fromkeys(("Inequality", "IneqSystem", "generate_inequalities",
                     "include_weight_BC", "membership", "project_weight_BC",
                     "verify_projection", "verify_subeigencone"), "cones"),
    **dict.fromkeys(("CharacterTable", "invariant_dim", "saturated_search",
                     "tensor_decompose", "weight_multiplicities", "weyl_dim"),
                    "oracle"),
}
_SUBMODULES = ("errors", "linalg", "rootsys", "weyl", "schubert", "isogr",
               "cones", "oracle")

__version__ = "0.1.0"

__all__ = sorted([*_EXPORTS, *_SUBMODULES])

# every layer sits in sys.modules unexecuted, so code that looks one up there
# finds it; cli is left out, as ``python -m eigencones.cli`` runs it as __main__
for _name in (*_SUBMODULES, "cache"):
    _spec = find_spec(f"{__name__}.{_name}")
    _spec.loader = LazyLoader(_spec.loader)
    _module = globals()[_name] = sys.modules[_spec.name] = module_from_spec(_spec)
    _spec.loader.exec_module(_module)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[_EXPORTS[name]], name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
