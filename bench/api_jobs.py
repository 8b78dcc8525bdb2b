"""Python-API jobs of the cross-checks workload.

Run as ``python3 bench/api_jobs.py <job> --seed N`` with the package's
``src`` on ``PYTHONPATH``.  A job prints one JSON summary line and exits 0
only if every invariant it checks held.  The seed draws the inputs; the
same seed gives the same inputs and the same summary.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys

from eigencones.cones import generate_inequalities, membership
from eigencones.errors import EigenconesError
from eigencones.isogr import expected_dim_zero_check
from eigencones.oracle import saturated_search
from eigencones.rootsys import build_root_system
from eigencones.schubert import flag_variety

ORACLE_GROUPS = (("A", 2), ("C", 2))
ORACLE_EXTRA = 8      # seeded triples per group beyond the {0,1} grid
ORACLE_N_MAX = 4
IDENTITY_PER_K = 5    # seeded (r, s) = (4, 3) tuples per parabolic k


def oracle_triples(rng, rank):
    """Every triple of {0,1}-coordinate weights in seeded slot order, plus
    seeded triples with coordinates up to 2, in seeded order.

    The grid part keeps the work comparable between seeds: its unordered
    triples are fixed and the seed only permutes slots and order.
    """
    grid = itertools.product(itertools.product(range(2), repeat=rank), repeat=3)
    triples = [rng.sample(t, 3) for t in grid]
    triples += [
        [tuple(rng.randrange(3) for _ in range(rank)) for _ in range(3)]
        for _ in range(ORACLE_EXTRA)
    ]
    rng.shuffle(triples)
    return triples


def oracle_sweep(seed):
    """saturated_search against membership: found => member.

    The second form the checks are stated in, not member => not found, is
    the contrapositive of the first, so one test covers both.
    """
    rng = random.Random(seed)
    summary = {"checked": 0, "members": 0, "found": 0, "violations": []}
    for kind, rank in ORACLE_GROUPS:
        R = build_root_system(kind, rank)
        S = generate_inequalities(R, 3, "levi")
        for lams in oracle_triples(rng, rank):
            member = membership(lams, S)[0]
            found = saturated_search(R, lams, n_max=ORACLE_N_MAX)
            summary["checked"] += 1
            summary["members"] += member
            summary["found"] += found is not None
            if found is not None and not member:
                summary["violations"].append([R.label, lams, found])
    return summary


def identity_sweep(seed):
    """expected_dim_zero_check on seeded tuples, its lemmas re-checked."""
    rng = random.Random(seed)
    r, s = 4, 3
    summary = {"checked": 0, "theta_zero": 0, "violations": []}
    for k in range(1, s + 1):
        FM = flag_variety(build_root_system("C", s), k)
        for _ in range(IDENTITY_PER_K):
            ws = tuple(rng.choice(FM.basis) for _ in range(3))
            words = [w.word for w in ws]
            summary["checked"] += 1
            try:
                rep = expected_dim_zero_check(ws, r, s, k)
            except EigenconesError as e:
                summary["violations"].append([k, words, str(e)])
                continue
            gap = rep["expdim_G"] - rep["expdim_M"]
            if (
                rep["theta"] - rep["theta_M"] != gap
                or gap % (2 * (r - s)) != 0
                or rep["theta_M"] - rep["theta_H"] != gap // (2 * (r - s))
            ):
                summary["violations"].append([k, words, "lemma"])
            summary["theta_zero"] += rep["theta"] == 0
    return summary


API_JOBS = {"oracle-sweep": oracle_sweep, "identity-sweep": identity_sweep}


def run(name, seed):
    """Run one job, print its summary; the exit code says if it held."""
    summary = {"job": name, "seed": seed, **API_JOBS[name](seed)}
    print(json.dumps(summary, sort_keys=True))
    return 0 if not summary["violations"] else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("job", choices=sorted(API_JOBS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    return run(args.job, args.seed)


if __name__ == "__main__":
    sys.exit(main())
