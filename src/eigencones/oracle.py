"""Representation-theoretic oracle: characters, tensor products, invariants.

Everything is exact: Freudenthal's recursion fills character tables, the
Klimyk alternation multiplies them, and a Steinberg-style alternating sum
reads off a single outer multiplicity from one character table.  The
invariant dimension of a tuple folds the last slot through duality, so an
n = 3 query costs two character tables and |W| reflections per weight.

Weights are int tuples in fundamental-weight (fw) coordinates.  The simple
root alpha_i is row i of the Cartan matrix, so s_i sends lam to
lam - lam_i * C[i], a weight is dominant when no coordinate is negative,
and rho is (1, ..., 1).  Positive roots, their coroot coefficients and the
invariant form are the root system's int rows; the form is the fw Gram
matrix cleared to ints, a positive multiple of the Killing form, which
scales both sides of Freudenthal's formula alike.  A character table is
keyed by dominant fw coordinates.  Fraction is left to the boundary:
parsing input and the lambda - w0 lambda box (its fw coordinates times the
inverse Cartan matrix, once per table).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add, mul, sub

from .errors import ResourceCapError, UsageError, VerificationError
from .rootsys import RootSystem, weight_coords
from .weyl import generate_weyl_group, longest_element

DIM_CAP = 1_000_000

_table_memo = {}


@lru_cache(maxsize=None)
def _forms(R):
    """Per positive root, its height and its row of (x, beta) = x . row."""
    return tuple(
        (sum(a), tuple(sum(map(mul, row, b)) for row in R.weight_gram))
        for a, b in zip(R.root_alpha, R.root_fw)
    )


def _fw_coords(R, lam):
    coords = weight_coords(R, lam)
    if any(x < 0 or type(x) is not int for x in coords):
        raise UsageError("need a dominant integral weight")
    return coords


def _norm(gram, v):
    return sum(x * sum(map(mul, row, v)) for x, row in zip(v, gram))


def _reflect(C, v, i):
    c = v[i]
    return tuple(x - c * a for x, a in zip(v, C[i]))


def _fold_dominant(C, v):
    """(dominant representative, sign); sign = 0 when a wall is hit."""
    sign = 1
    moved = True
    while moved:
        moved = False
        for i, c in enumerate(v):
            if c < 0:
                v = _reflect(C, v, i)
                sign = -sign
                moved = True
    return v, (0 if 0 in v else sign)


def weyl_dim(R: RootSystem, lam):
    """Dimension of the irreducible with highest weight lam."""
    coords = _fw_coords(R, lam)
    num = den = 1
    for c in R.root_coroot:  # <lam, beta^vee> = c . lam
        rho_c = sum(c)
        num *= sum(map(mul, c, coords)) + rho_c
        den *= rho_c
    d, r = divmod(num, den)
    if r or d <= 0:
        raise VerificationError(f"Weyl dimension of {coords} is {Fraction(num, den)}")
    return d


def _orbit(C, v):
    seen = {v}
    frontier = [v]
    while frontier:
        nxt = []
        for u in frontier:
            for i in range(len(u)):
                w = _reflect(C, u, i)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


@dataclass(frozen=True)
class CharacterTable:
    root_system: RootSystem
    highest: tuple                  # fw coordinates, ints
    multiplicities: dict            # dominant fw coordinates -> positive int
    dim: int
    weights: dict                   # every weight's fw coordinates -> its multiplicity


def weight_multiplicities(R: RootSystem, lam) -> CharacterTable:
    coords = _fw_coords(R, lam)
    key = (R.kind, R.rank, coords)
    hit = _table_memo.get(key)
    if hit is not None:
        return hit

    total = weyl_dim(R, coords)
    if total > DIM_CAP:
        raise ResourceCapError(
            f"dim {total} exceeds character table cap {DIM_CAP}", cap=DIM_CAP
        )

    C = R.cartan_matrix
    drop = R.fw_to_alpha(tuple(map(sub, coords, longest_element(R).apply_fw(coords))))
    if any(x < 0 or x.denominator != 1 for x in drop):
        raise VerificationError(f"lambda - w0 lambda = {drop} is not a "
                                "non-negative integer root combination")

    # dominant weights below lam: lam - sum c_i alpha_i over the finite box,
    # each with its depth sum c_i, which is the height of lam - mu
    box = [(coords, 0)]
    for row, b in zip(C, drop):
        box = [(tuple(x - c * a for x, a in zip(v, row)), h + c)
               for v, h in box for c in range(int(b) + 1)]
    dominant = sorted(((v, h) for v, h in box if min(v) >= 0),
                      key=lambda t: t[1])

    lam_rho_sq = _norm(R.weight_gram, tuple(x + 1 for x in coords))
    mult = {}
    for mu, depth in dominant:
        if mu == coords:
            mult[mu] = 1
            continue
        denom = lam_rho_sq - _norm(R.weight_gram, tuple(x + 1 for x in mu))
        if denom <= 0:
            raise VerificationError(f"Freudenthal denominator {denom} at {mu}")
        acc = 0
        for alpha, (height, form) in zip(R.root_fw, _forms(R)):
            base = sum(map(mul, mu, form))
            step = sum(map(mul, alpha, form))
            shifted = mu
            for k in range(1, depth // height + 1):
                shifted = tuple(map(add, shifted, alpha))
                m = mult.get(_fold_dominant(C, shifted)[0], 0)
                if m:
                    acc += 2 * m * (base + k * step)
        m, r = divmod(acc, denom)
        if r or m < 0:
            raise VerificationError(
                f"Freudenthal multiplicity {Fraction(acc, denom)} at {mu}")
        if m:
            mult[mu] = m

    weights = {v: m for mu, m in mult.items() for v in _orbit(C, mu)}
    if sum(weights.values()) != total:
        raise VerificationError(f"character table of {coords} sums to "
                                f"{sum(weights.values())}, expected {total}")
    table = CharacterTable(R, coords, mult, total, weights)
    _table_memo[key] = table
    return table


def tensor_decompose(R: RootSystem, lam, mu):
    """V_lam (x) V_mu as {fw coords: multiplicity}, by Klimyk alternation."""
    lc, mc = _fw_coords(R, lam), _fw_coords(R, mu)
    if weyl_dim(R, lc) * weyl_dim(R, mc) > DIM_CAP:
        raise ResourceCapError("tensor product dimension exceeds cap", cap=DIM_CAP)
    if weyl_dim(R, lc) < weyl_dim(R, mc):
        lc, mc = mc, lc
    table = weight_multiplicities(R, mc)
    C = R.cartan_matrix
    lam_rho = tuple(x + 1 for x in lc)
    out = {}
    for nu, m in table.weights.items():
        folded, sign = _fold_dominant(C, tuple(map(add, lam_rho, nu)))
        if sign == 0:
            continue
        key = tuple(x - 1 for x in folded)
        out[key] = out.get(key, 0) + sign * m
    out = {k: v for k, v in out.items() if v}
    total = sum(v * weyl_dim(R, k) for k, v in out.items())
    if any(v < 0 for v in out.values()) or total != weyl_dim(R, lc) * weyl_dim(R, mc):
        raise VerificationError(f"Klimyk decomposition of {lc} x {mc} fails")
    return out


def dual_weight_coords(R: RootSystem, lam):
    """Highest weight of the dual representation, -w0(lam)."""
    coords = _fw_coords(R, lam)
    return tuple(-x for x in longest_element(R).apply_fw(coords))


def _outer_multiplicity(R, lam, mu, nu):
    """Multiplicity of V_nu inside V_lam (x) V_mu, one alternating sum."""
    weights = weight_multiplicities(R, mu).weights
    lam_rho = tuple(x + 1 for x in lam)
    nu_rho = tuple(x + 1 for x in nu)
    acc = 0
    for w in generate_weyl_group(R):
        m = weights.get(tuple(map(sub, w.apply_fw(nu_rho), lam_rho)))
        if m:
            acc += -m if w.length & 1 else m
    if acc < 0:
        raise VerificationError(f"negative multiplicity of {nu} in {lam} x {mu}")
    return acc


def invariant_dim(R: RootSystem, lams):
    """Dimension of the invariant subspace of V_lam1 (x) ... (x) V_lamn.

    The last factor is folded through duality, so the n = 3 case needs only
    two character tables; longer tuples tensor down the middle first.
    """
    coords = [_fw_coords(R, lam) for lam in lams]
    if len(coords) == 0:
        raise UsageError("need at least one weight")
    if len(coords) == 1:
        return 1 if all(c == 0 for c in coords[0]) else 0
    target = dual_weight_coords(R, coords[-1])
    if len(coords) == 2:
        return 1 if coords[0] == target else 0
    partial = {coords[0]: 1}
    for lam in coords[1:-2]:
        merged = {}
        for k, m in partial.items():
            for k2, m2 in tensor_decompose(R, k, lam).items():
                merged[k2] = merged.get(k2, 0) + m * m2
        partial = merged
    total = 0
    for k, m in partial.items():
        total += m * _outer_multiplicity(R, k, coords[-2], target)
    return total


def saturated_search(R: RootSystem, lams, n_max=6):
    """Smallest N <= n_max with an invariant in V_{N lam1} (x) ..., else None.

    n_max is a heuristic search bound, not a saturation statement; a miss
    says nothing about membership.
    """
    coords = [_fw_coords(R, lam) for lam in lams]
    for N in range(1, n_max + 1):
        scaled = [tuple(N * x for x in c) for c in coords]
        if invariant_dim(R, scaled) > 0:
            return N
    return None
