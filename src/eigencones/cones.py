"""Eigencone inequality systems, membership, and the verification drivers.

An inequality sum_i <omega_P, w_i^-1 lambda_i> <= 0 is stored as one
primitive integer normal vector per slot (fundamental-weight coordinates)
plus the single positive rational relating the integers back to the
Killing-form pairing.  Systems are deduplicated up to positive scalars,
which after clearing to primitive integers means exact equality of the
concatenated normals.
"""

from __future__ import annotations

import itertools
import json
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul, or_

from .errors import ConfigurationError, ResourceCapError, UsageError, VerificationError
from .linalg import set_bits
from .rootsys import (
    SCHEMA_VERSION,
    RootSystem,
    Weight,
    build_embedding,
    build_root_system,
    embed_weight,
    restrict_weight_via_embedding,
    weight_coords,
)
from .schubert import check_tuple_work, flag_variety, point_product_tuples
from .weyl import (
    ParabolicSpec,
    embed_element,
    minimal_coset_reps,
    verify_dual_commutes,
    word_str,
)

TIERS = ("nonzero", "point", "levi")
GRID_TOP = 3          # verify_projection scans fw coordinates 0..GRID_TOP
GRID_CAP_EXPONENT = 12  # the grid has (GRID_TOP + 1) ** (r * n) cells
GRID_CAP = (GRID_TOP + 1) ** GRID_CAP_EXPONENT


@dataclass(frozen=True)
class Inequality:
    """One eigencone wall: parabolic node, Weyl words, integer normals.

    The constraint is sum_i normals[i] . lambda_i <= 0 over fundamental
    weight coordinates, and normals[i] . lambda_i = scale * <omega_P,
    w_i^-1 lambda_i> with a single positive scale for all slots.
    """

    parabolic: int
    words: tuple
    normals: tuple
    scale: Fraction
    multiplicity: int

    def __post_init__(self):
        if self.scale <= 0:
            raise UsageError("normal scale must be positive")
        flat = [x for slot in self.normals for x in slot]
        if gcd(*flat) != 1:
            raise UsageError("normals are not jointly primitive")

    def evaluate(self, coord_tuples):
        total = 0
        for slot, lam in zip(self.normals, coord_tuples, strict=True):
            total += sum(a * b for a, b in zip(slot, lam, strict=True))
        return total

    def key(self):
        return tuple(x for slot in self.normals for x in slot)


@dataclass(frozen=True)
class IneqSystem:
    root_system: RootSystem
    n: int
    tier: str
    inequalities: tuple

    def __post_init__(self):
        keys = [q.key() for q in self.inequalities]
        if len(set(keys)) != len(keys):
            raise UsageError("system contains proportional inequalities")

    def to_json(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "group": {"kind": self.root_system.kind, "rank": self.root_system.rank},
            "n": self.n,
            "tier": self.tier,
            "inequalities": [
                {
                    "parabolic": q.parabolic,
                    "words": list(q.words),
                    "normals": [list(slot) for slot in q.normals],
                    "scale": f"{q.scale.numerator}/{q.scale.denominator}",
                    "multiplicity": q.multiplicity,
                }
                for q in self.inequalities
            ],
        }

    def dumps(self):
        return json.dumps(self.to_json(), indent=2, sort_keys=True)


def system_from_json(doc):
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ConfigurationError("unsupported inequality schema version")
    R = build_root_system(doc["group"]["kind"], doc["group"]["rank"])
    ineqs = []
    for rec in doc["inequalities"]:
        num, den = rec["scale"].split("/")
        ineqs.append(
            Inequality(
                parabolic=rec["parabolic"],
                words=tuple(rec["words"]),
                normals=tuple(tuple(int(x) for x in slot) for slot in rec["normals"]),
                scale=Fraction(int(num), int(den)),
                multiplicity=rec["multiplicity"],
            )
        )
    return IneqSystem(R, doc["n"], doc["tier"], tuple(ineqs))


def _raw_normals(F, ws):
    """Per-slot functionals lambda -> <omega_P, w^-1 lambda> over fw coords."""
    R = F.root_system
    omega_p = R.fundamental_weights[F.parabolic.excluded - 1]
    slots = []
    for w in ws:
        u = w.inverse()
        row = []
        for j in range(R.rank):
            unit = tuple(Fraction(1) if t == j else Fraction(0) for t in range(R.rank))
            row.append(R.killing(omega_p, R.from_fw(u.apply_fw(unit))))
        slots.append(tuple(row))
    return tuple(slots)


def _primitive(slots):
    flat = [x for slot in slots for x in slot]
    mult = lcm(*(x.denominator for x in flat))
    ints = [x * mult for x in flat]
    g = gcd(*(int(x) for x in ints))
    scale = Fraction(mult, g)
    cleared = tuple(
        tuple(int(x * scale) for x in slot) for slot in slots
    )
    return cleared, scale


def generate_inequalities(R: RootSystem, n, tier):
    """The tier's inequality system over all maximal parabolics of R.

    tier "nonzero" takes every product m [pt] with m >= 1; "point"
    restricts to m = 1; "levi" additionally requires Levi-movability.
    Deterministic order: parabolic ascending, then tuple enumeration order.
    """
    if tier not in TIERS:
        raise UsageError(f"tier must be one of {TIERS}")
    if n < 1:
        raise UsageError("n must be >= 1")
    filter = "levi" if tier == "levi" else "point"
    varieties = [flag_variety(R, p) for p in range(1, R.rank + 1)]
    check_tuple_work(varieties, n)
    seen = {}
    for p, F in enumerate(varieties, 1):
        for pt in point_product_tuples(F, n, filter=filter):
            if tier in ("point", "levi") and pt.multiplicity != 1:
                continue
            normals, scale = _primitive(_raw_normals(F, pt.elements))
            q = Inequality(
                parabolic=p,
                words=pt.words,
                normals=normals,
                scale=scale,
                multiplicity=pt.multiplicity,
            )
            seen.setdefault(q.key(), q)
    return IneqSystem(R, n, tier, tuple(seen.values()))


def membership(lams, S: IneqSystem):
    """(member?, violated inequalities); exact, on ints for integral weights."""
    if len(lams) != S.n:
        raise UsageError(f"expected {S.n} weights, got {len(lams)}")
    coords = [weight_coords(S.root_system, lam) for lam in lams]
    if any(x < 0 for c in coords for x in c):
        raise UsageError("membership requires dominant weights")
    violated = [q for q in S.inequalities if q.evaluate(coords) > 0]
    return len(violated) == 0, violated


# -- the B/C projection ------------------------------------------------------


def _chain(kind, r, s):
    """The rank-s step of the B/C chain: Sp(2s) in Sp(2r) or SO(2s+1) in SO(2r+1)."""
    return build_embedding("c-in-c" if kind == "C" else "b-in-b", r=r, s=s)


def project_weight_BC(lam: Weight, s) -> Weight:
    """Restrict a dominant weight to the rank-s subgroup of the B/C chain.

    The top sub coroot is e_s in C_r and 2e_s in B_r, so this truncates
    the epsilon vector to its first s coordinates; in type C fundamental
    weight coordinates it is a_1 .. a_{s-1}, sum_{i>=s} a_i.
    """
    R = lam.root_system
    if R.kind not in ("B", "C"):
        raise UsageError("projection is defined for types B and C")
    if not 1 <= s < R.rank:
        raise UsageError("need 1 <= s < r")
    if not lam.is_dominant():
        raise UsageError("projection requires a dominant weight")
    out = restrict_weight_via_embedding(_chain(R.kind, R.rank, s), lam)
    if not out.is_dominant():
        raise VerificationError(f"projection of {lam.coords} is not dominant")
    return out


def include_weight_BC(lam: Weight, r) -> Weight:
    """Zero-pad the epsilon vector up to rank r: the section of the projection."""
    R = lam.root_system
    if R.kind not in ("B", "C"):
        raise UsageError("inclusion is defined for types B and C")
    if not R.rank < r:
        raise UsageError("need s < r")
    return embed_weight(_chain(R.kind, r, R.rank), lam)


def projection_step_invariance(kind, r):
    """<omega_P, w^-1 lambda> is unchanged by the one-step projection.

    Checked exactly on every fundamental weight of the rank-r group, for
    every maximal parabolic of the rank r-1 subgroup and every minimal
    coset representative, with the subgroup element acting through the
    subsystem embedding.  The pairing with omega_P is row P of the
    fundamental-weight Gram matrix.  Returns the number of identities
    checked.
    """
    if kind not in ("B", "C"):
        raise UsageError("the projection chain lives in types B and C")
    E = _chain(kind, r, r - 1)
    amb, sub = E.ambient, E.sub
    diffs = []
    for j in range(r):
        lam = Weight(amb, tuple(int(t == j) for t in range(r)))
        back = include_weight_BC(project_weight_BC(lam, r - 1), r)
        diffs.append(tuple(a - b for a, b in zip(lam.coords, back.coords)))
    checked = 0
    for k in range(1, r):
        P = ParabolicSpec(amb, E.matched_parabolic(k))
        gram_p = amb.weight_gram[P.excluded - 1]
        for w in minimal_coset_reps(sub, ParabolicSpec(sub, k)):
            img_inv = embed_element(E, w).inverse()
            for j, diff in enumerate(diffs):
                if sum(map(mul, gram_p, img_inv.apply_fw(diff))) != 0:
                    raise VerificationError(
                        f"projection invariance fails at P{P.excluded}, "
                        f"w={word_str(w)}, omega_{j+1}"
                    )
                checked += 1
    return checked


# -- verification drivers ----------------------------------------------------


def verify_subeigencone(case, params, n):
    """Check that an embedding case transports Levi-movable walls upward.

    For each matched parabolic pair (Q, P) and every Levi-movable product
    equal to 1 [pt] over M/Q, the embedded tuple's product over G/P must be
    a positive point multiple and Levi-movable; the per-tuple ambient
    multiplicity is reported.  The G2-in-F4 case instead checks that the
    coset map commutes with duals over both pairs.
    """
    if n < 2:
        raise UsageError("need n >= 2")
    E = build_embedding(case, **params)
    report = {
        "schema_version": SCHEMA_VERSION,
        "case": E.case,
        "params": dict(params),
        "n": n,
        "pairs": [],
        "ok": True,
    }
    if E.case == "g2-in-f4":
        report["mode"] = "dual-commutation"
        for q, _p in E.parabolic_map:
            pair = verify_dual_commutes(E, q)
            report["pairs"].append(pair)
            report["ok"] = report["ok"] and pair["all_commute"]
        return report

    report["mode"] = "ambient-products"
    pairs = [(flag_variety(E.sub, q), flag_variety(E.ambient, p)) for q, p in E.parabolic_map]
    check_tuple_work([FM for FM, _ in pairs], n)
    for (q, p), (FM, FG) in zip(E.parabolic_map, pairs):
        rows = []
        pair_ok = True
        for pt in point_product_tuples(FM, n, filter="levi"):
            if pt.multiplicity != 1:
                continue
            ambient = tuple(
                embed_element(E, w, minimize_into=FG.parabolic) for w in pt.elements
            )
            codim_sum = sum(FG.codim(w) for w in ambient)
            if codim_sum != FG.dim:
                rows.append(
                    {"words": pt.words, "ok": False,
                     "reason": f"ambient codim sum {codim_sum} != {FG.dim}"}
                )
                pair_ok = False
                continue
            movable, m = FG.is_levi_movable(ambient)
            ok = m >= 1 and movable
            rows.append(
                {
                    "words": pt.words,
                    "ambient_words": tuple(word_str(w) for w in ambient),
                    "ambient_multiplicity": m,
                    "levi_movable": movable,
                    "ok": ok,
                }
            )
            pair_ok = pair_ok and ok
        report["pairs"].append(
            {"sub_parabolic": q, "ambient_parabolic": p,
             "tuples": rows, "all_ok": pair_ok}
        )
        report["ok"] = report["ok"] and pair_ok
    return report


def verify_projection(r, s, n, kind="C"):
    """Grid-and-facet check of the projection theorem at one (r, s).

    Over all weight tuples with fundamental-weight coordinates in
    {0..GRID_TOP}: every ambient tier=levi member projects into the rank-s
    tier=levi cone; one boundary point per ambient wall is checked too
    (the first grid member tight on it other than the all-zero tuple, which
    is tight on every wall, or that tuple when there is none); pi o iota is
    the identity on the sub grid; the per-step pairing invariance holds.
    """
    if kind not in ("B", "C"):
        raise UsageError("the projection theorem is checked in types B and C, "
                         f"not {kind}")
    if not 1 <= s < r:
        raise UsageError("need 1 <= s < r")
    if r * n > GRID_CAP_EXPONENT:  # compare exponents; r * n may be huge
        raise ResourceCapError(
            f"projection grid has {GRID_TOP + 1}^(r * n) cells, and r * n is over "
            f"the cap exponent {GRID_CAP_EXPONENT}")
    amb = build_root_system(kind, r)
    sub = build_root_system(kind, s)
    SG = generate_inequalities(amb, n, "levi")
    SM = generate_inequalities(sub, n, "levi")

    slot_coords = grid_coords(r, range(GRID_TOP + 1))
    # the restriction pairs int coordinates with int coroot rows: ints in both types
    proj_coords = [project_weight_BC(Weight(amb, c), s).coords for c in slot_coords]

    member_count, violations, boundary = _grid_scan(
        _value_tables(SG, slot_coords), _value_tables(SM, proj_coords),
        n, len(slot_coords), slot_coords.index((0,) * r),
    )

    section_ok = True
    for c in grid_coords(s, range(GRID_TOP + 1)):
        lam = Weight(sub, c)
        back = project_weight_BC(include_weight_BC(lam, r), s)
        if back.coords != lam.coords:
            section_ok = False

    invariance_checked = sum(
        projection_step_invariance(kind, t) for t in range(s + 1, r + 1)
    )

    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "r": r,
        "s": s,
        "n": n,
        "grid_top": GRID_TOP,
        "ambient_inequalities": len(SG.inequalities),
        "sub_inequalities": len(SM.inequalities),
        "grid_members": member_count,
        "boundary_points": len(boundary),
        "violations": violations,
        "section_identity": section_ok,
        "invariance_checks": invariance_checked,
        "ok": not violations and section_ok,
    }


# -- exact grid scans -------------------------------------------------------


def grid_coords(rank, values):
    """Every rank-tuple over values, the first coordinate varying fastest."""
    return [c[::-1] for c in itertools.product(values, repeat=rank)]


def _value_tables(S: IneqSystem, coords):
    """Per inequality, per slot, its integer value on each grid weight."""
    return [
        [[sum(map(mul, slot, c)) for c in coords] for slot in q.normals]
        for q in S.inequalities
    ]


def _tail(n):
    """How many trailing slots share one bitset: the last two once n >= 3."""
    return 2 if n >= 3 else 1


def _value_sets(column):
    """Value -> bitset of the indices where column takes that value."""
    sets = {}
    for j, v in enumerate(column):
        sets[v] = sets.get(v, 0) | 1 << j
    return sets


def _walls(tables, n, n_slots):
    """Each inequality as (head bounds, tail value sets), one at a time.

    tables[q][i][k] is inequality q's integer value on slot i at grid index
    k.  The tail is the last slot, or for n >= 3 the last two slots folded
    into one bitset whose bit k * n_slots + k' stands for the pair (k, k').
    A head row fixes the other slots, in lexicographic order, so head row h
    and tail bit j make position h * n_slots**tail + j of itertools.product
    order.  bounds[h] is minus the inequality's sum over head row h, and
    eq[v] is the bitset of tail cells where its tail value is v: it holds
    at (h, j) exactly when j lies in eq[v] for some v <= bounds[h].
    """
    n_head = n - _tail(n)
    block = (1 << n_slots) - 1
    ones = sum(1 << k * n_slots for k in range(n_slots))
    for t in tables:
        bounds = [0]
        for col in t[:n_head]:
            bounds = [b - v for b in bounds for v in col]
        eq = _value_sets(t[-1])
        if n_head < n - 1:
            # the last slot's sets copied into every block of n_slots bits,
            # cut to the blocks k of each of the second-to-last slot's sets
            copies = [(v2, bits * ones) for v2, bits in eq.items()]
            pairs = {}
            for v, ks in _value_sets(t[-2]).items():
                blocks = sum(block << k * n_slots for k in set_bits(ks))
                for v2, copy in copies:
                    pairs[v + v2] = pairs.get(v + v2, 0) | blocks & copy
            eq = pairs
        yield bounds, eq


def _scan(tables, n, n_slots):
    """Member bitset of each head row: every inequality ANDed in, one by one."""
    rows = [(1 << n_slots ** _tail(n)) - 1] * n_slots ** (n - _tail(n))
    for bounds, eq in _walls(tables, n, n_slots):
        values = sorted(eq)
        le = list(itertools.accumulate((eq[v] for v in values), or_, initial=0))
        holds = {b: le[bisect_right(values, b)] for b in set(bounds)}
        rows = [m and m & holds[b] for m, b in zip(rows, bounds)]
    return rows


def _cell(row, bit, n, n_slots):
    """The index combo of one cell: head row `row`, tail bit `bit`."""
    pos, combo = row * n_slots ** _tail(n) + bit, []
    for _ in range(n):
        pos, k = divmod(pos, n_slots)
        combo.append(k)
    return tuple(combo[::-1])


def _cells(rows, n, n_slots):
    """Every index combo set in the head rows, in itertools.product order."""
    return (_cell(h, j, n, n_slots) for h, m in enumerate(rows) for j in set_bits(m))


def _first_tight(rows, tables, n, n_slots):
    """Per inequality, the first combo set in rows where it is tight, or None."""
    return [
        next((_cell(h, next(set_bits(t)), n, n_slots)
              for h, (m, b) in enumerate(zip(rows, bounds))
              if (t := m & eq.get(b, 0))), None)
        for bounds, eq in _walls(tables, n, n_slots)
    ]


def _grid_scan(tables, sub_tables, n, n_slots, zero_index):
    """Membership scan of the full grid.

    Returns (member count, violation records, boundary witness combos).
    A violation names the offending index combo; the boundary list holds,
    per ambient inequality, the first grid member other than the all-zero
    combo that is tight on it (the all-zero combo when there is none).
    """
    members = _scan(tables, n, n_slots)
    subs = _scan(sub_tables, n, n_slots)
    count = sum(m.bit_count() for m in members)
    violations = [{"tuple": c} for c in _cells(
        (m & ~s for m, s in zip(members, subs)), n, n_slots)]

    # the all-zero combo is tight on every wall, so the witnesses skip it
    zero_combo = (zero_index,) * n
    row, bit = divmod(sum(zero_index * n_slots ** i for i in range(n)),
                      n_slots ** _tail(n))
    members[row] &= ~(1 << bit)
    boundary = [zero_combo if w is None else w
                for w in _first_tight(members, tables, n, n_slots)]
    for qi, w in enumerate(boundary):
        if any(sum(t[i][w[i]] for i in range(n)) > 0 for t in sub_tables):
            violations.append({"facet": qi, "tuple": w})
    return count, violations, boundary
