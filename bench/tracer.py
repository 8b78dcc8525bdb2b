"""Run one benchmark job with spans recorded around calls into each layer.

    python3 bench/tracer.py --job NAME --spans FILE --t0 T cli ARGV...
    python3 bench/tracer.py --job NAME --spans FILE --t0 T api JOB --seed N

The launcher wraps the public functions and methods listed in ``LAYERS``
from outside the package, then calls ``eigencones.cli.main(argv)`` or the
API job.  A span has a name, start, end, parent and the job id; spans stay in
memory and are written to FILE as JSON when the job ends.  Names that a
module brought in with ``from .x import y`` are rebound in every module that
holds them, the API jobs' module included, so a call is traced whichever
module makes it.  ``lru_cache`` statistics come from ``cache_info()`` of
the unwrapped function.  Nothing is printed to stdout, so the job's report
stays byte-identical.

``T`` is ``run.py``'s ``time.perf_counter()`` just before it started this
interpreter; on Linux that clock is system-wide, so ``import_s`` covers
interpreter start and the package import.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import sys
import time
from collections import Counter

# layer -> functions of eigencones.<layer>, and class -> methods
LAYERS = {
    "rootsys": (("build_root_system", "build_embedding"), {}),
    "weyl": (
        ("identity", "simple_reflection", "reflection", "word_to_element",
         "word_str", "generate_weyl_group", "longest_element",
         "minimal_coset_reps", "dual_rep", "is_minimal_rep", "minimal_rep",
         "embed_element", "coset_table", "check_embedding_homomorphism",
         "verify_dual_commutes"),
        {"WeylElement": ("__mul__", "inverse", "sends_positive", "apply",
                         "apply_eps")},
    ),
    "schubert": (
        ("flag_variety", "structure_constants", "chevalley_multiply",
         "point_product_tuples"),
        {"FlagVariety": ("__init__", "integral_billey", "point_multiplicity",
                         "cup_product", "multiply_classes", "chi_weight",
                         "theta", "is_levi_movable")},
    ),
    "cones": (
        ("generate_inequalities", "membership", "verify_subeigencone",
         "verify_projection", "project_weight_BC", "include_weight_BC",
         "projection_step_invariance"),
        {"Inequality": ("__post_init__",)},
    ),
    "isogr": (
        ("expected_dim_zero_check", "index_dictionary_rows",
         "orbit_table_rows", "lift_elements", "weyl_index_bijection"),
        {},
    ),
    "oracle": (
        ("invariant_dim", "weight_multiplicities", "saturated_search",
         "tensor_decompose", "weyl_dim"),
        {},
    ),
    "cache": ((), {"JsonlStore": ("load_structure_constants",
                                  "save_structure_constants")}),
}

LOCALIZATION = "schubert.FlagVariety.localization"

# span name -> what a call's result adds to counts[name]
RESULT_COUNTS = {
    "weyl.minimal_coset_reps": len,
    "weyl.generate_weyl_group": len,
    "cones.generate_inequalities": lambda system: len(system.inequalities),
    "cache.JsonlStore.load_structure_constants": lambda table: table is not None,
}


class Tracer:
    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.spans = []          # [name id, start, end, parent span or -1]
        self.stack = [-1]
        self.counts = Counter()  # see RESULT_COUNTS
        self.built = set()       # ids of FlagVarieties whose tables exist
        self.flag_variety = None  # the lru_cache object, for cache_info()

    def _name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _open(self, nid):
        i = len(self.spans)
        self.spans.append([nid, time.perf_counter(), 0.0, self.stack[-1]])
        self.stack.append(i)
        return i

    def _close(self, i):
        self.spans[i][2] = time.perf_counter()
        self.stack.pop()

    def call(self, name, fn, *args, **kwargs):
        return self.wrap(name, fn)(*args, **kwargs)

    def wrap(self, name, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        nid = self._name_id(name)
        count = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if count is not None:
                self.counts[name] += count(result)
            return result

        if name == "schubert.FlagVariety.integral_billey":
            # the first integral on a variety builds its localization tables
            loc_id = self._name_id(LOCALIZATION)
            plain = traced

            @functools.wraps(fn)
            def traced(variety, *args, **kwargs):
                if id(variety) in self.built:
                    return plain(variety, *args, **kwargs)
                self.built.add(id(variety))
                i = self._open(loc_id)
                try:
                    return fn(variety, *args, **kwargs)
                finally:
                    self._close(i)

        return traced

    def _wrap_generator(self, name, fn):
        nid = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # one span per item: the work done to produce it
            it = fn(*args, **kwargs)
            while True:
                i = self._open(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(i)
                self.counts[name] += 1
                yield item

        return traced

    def install(self):
        """Wrap every listed callable and rebind it wherever it is held."""
        modules = [m for n, m in sys.modules.items()
                   if n.split(".")[0] in ("eigencones", "api_jobs")]
        self.flag_variety = getattr(sys.modules["eigencones.schubert"],
                                    "flag_variety", None)
        for layer, (functions, classes) in LAYERS.items():
            home = sys.modules[f"eigencones.{layer}"]
            for fname in functions:
                fn = getattr(home, fname, None)
                if fn is None:
                    continue
                wrapped = self.wrap(f"{layer}.{fname}", fn)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, attr, wrapped)
            for cname, methods in classes.items():
                cls = getattr(home, cname, None)
                for mname in methods if cls is not None else ():
                    fn = cls.__dict__.get(mname)
                    if fn is not None:
                        setattr(cls, mname,
                                self.wrap(f"{layer}.{cname}.{mname}", fn))

    def dump(self, path, job, import_s):
        cache_info = getattr(self.flag_variety, "cache_info", None)
        info = cache_info() if cache_info else None
        doc = {
            "job": job,
            "import_s": import_s,
            "names": self.names,
            "spans": self.spans,
            "counts": dict(self.counts),
            "flag_variety_cache": [info.hits, info.misses] if info else [0, 0],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def main():
    parser = argparse.ArgumentParser(description="run one job with tracing")
    parser.add_argument("--job", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("kind", choices=("cli", "api"))
    parser.add_argument("rest", nargs=argparse.REMAINDER)
    args = parser.parse_args()

    import eigencones.cli
    if args.kind == "api":
        import api_jobs
    import_s = time.perf_counter() - args.t0

    tracer = Tracer()
    tracer.install()
    try:
        if args.kind == "cli":
            rc = tracer.call("cli.main", eigencones.cli.main, args.rest)
        else:
            job = api_jobs.main  # parses "JOB --seed N"
            rc = tracer.call(f"api.{args.rest[0]}", job, args.rest)
    finally:
        sys.stdout.flush()
        tracer.dump(args.spans, args.job, import_s)
    return rc


if __name__ == "__main__":
    sys.exit(main())
