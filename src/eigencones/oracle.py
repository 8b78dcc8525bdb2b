"""Representation-theoretic oracle: characters, tensor products, invariants.

Everything is exact: Freudenthal's recursion fills character tables, the
Klimyk alternation multiplies them, and a Steinberg-style alternating sum
reads off a single outer multiplicity from one character table.  The
invariant dimension of a tuple folds the last slot through duality, so an
n = 3 query costs two character tables and |W| reflections per weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ResourceCapError, UsageError, VerificationError
from .rootsys import RootSystem, Weight
from .weyl import generate_weyl_group, longest_element

DIM_CAP = 1_000_000

_table_memo = {}


def _fw_coords(R, lam):
    if isinstance(lam, Weight):
        if lam.root_system is not R:
            raise UsageError("weight belongs to a different root system")
        coords = lam.coords
    else:
        coords = tuple(Fraction(x) for x in lam)
    if any(x < 0 or x.denominator != 1 for x in coords):
        raise UsageError("need a dominant integral weight")
    return tuple(int(x) for x in coords)


def _eps(R, coords):
    return R.from_fw(tuple(Fraction(c) for c in coords))


def _pair(R, v, root):
    return R.coroot_pairing(v, root)


def _reflect(R, v, i):
    c = _pair(R, v, R.simple_roots[i])
    return tuple(x - c * a for x, a in zip(v, R.simple_roots[i]))


def _fold_dominant(R, v):
    """(dominant representative, sign); sign = 0 when a wall is hit."""
    sign = 1
    moved = True
    while moved:
        moved = False
        for i in range(R.rank):
            c = _pair(R, v, R.simple_roots[i])
            if c < 0:
                v = tuple(x - c * a for x, a in zip(v, R.simple_roots[i]))
                sign = -sign
                moved = True
    for i in range(R.rank):
        if _pair(R, v, R.simple_roots[i]) == 0:
            return v, 0
    return v, sign


def _fold_weight(R, v):
    """Dominant chamber representative of an arbitrary weight (walls kept)."""
    moved = True
    while moved:
        moved = False
        for i in range(R.rank):
            c = _pair(R, v, R.simple_roots[i])
            if c < 0:
                v = tuple(x - c * a for x, a in zip(v, R.simple_roots[i]))
                moved = True
    return v


def weyl_dim(R: RootSystem, lam):
    """Dimension of the irreducible with highest weight lam."""
    coords = _fw_coords(R, lam)
    lam_eps = _eps(R, coords)
    shifted = tuple(a + b for a, b in zip(lam_eps, R.rho))
    num = den = Fraction(1)
    for alpha in R.positive_roots:
        num *= _pair(R, shifted, alpha)
        den *= _pair(R, R.rho, alpha)
    d = num / den
    if d.denominator != 1 or d <= 0:
        raise VerificationError(f"Weyl dimension of {coords} is {d}")
    return int(d)


def _orbit(R, v):
    seen = {v}
    frontier = [v]
    while frontier:
        nxt = []
        for u in frontier:
            for i in range(R.rank):
                w = _reflect(R, u, i)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


@dataclass(frozen=True)
class CharacterTable:
    root_system: RootSystem
    highest: tuple                  # fw coordinates, ints
    multiplicities: dict            # dominant eps vector -> positive int
    dim: int

    def multiplicity(self, v_eps):
        return self.multiplicities.get(_fold_weight(self.root_system, v_eps), 0)


def weight_multiplicities(R: RootSystem, lam, dim_cap=DIM_CAP) -> CharacterTable:
    coords = _fw_coords(R, lam)
    key = (R.kind, R.rank, coords, dim_cap)
    hit = _table_memo.get(key)
    if hit is not None:
        return hit

    total = weyl_dim(R, coords)
    if total > dim_cap:
        raise ResourceCapError(
            f"dim {total} exceeds character table cap {dim_cap}", cap=dim_cap
        )

    lam_eps = _eps(R, coords)
    w0 = longest_element(R)
    drop = R.alpha_coords(tuple(
        a - b for a, b in zip(lam_eps, w0.apply_eps(lam_eps))
    ))
    bounds = [int(x) for x in drop]
    if any(b != x or b < 0 for b, x in zip(bounds, drop)):
        raise VerificationError(f"lambda - w0 lambda = {drop} is not a "
                                "non-negative integer root combination")

    # dominant weights below lam: lam - sum c_i alpha_i over the finite box
    dominant = []
    def scan(i, v):
        if i == R.rank:
            if all(_pair(R, v, a) >= 0 for a in R.simple_roots):
                dominant.append(v)
            return
        for c in range(bounds[i] + 1):
            scan(i + 1, tuple(
                x - c * a for x, a in zip(v, R.simple_roots[i])
            ))
    scan(0, lam_eps)

    lam_rho = tuple(a + b for a, b in zip(lam_eps, R.rho))
    lam_rho_sq = R.killing(lam_rho, lam_rho)

    def height(v):
        return sum(R.alpha_coords(tuple(a - b for a, b in zip(lam_eps, v))))

    mult = {}
    for mu in sorted(dominant, key=height):
        if mu == lam_eps:
            mult[mu] = 1
            continue
        mu_rho = tuple(a + b for a, b in zip(mu, R.rho))
        denom = lam_rho_sq - R.killing(mu_rho, mu_rho)
        acc = Fraction(0)
        for alpha in R.positive_roots:
            k = 1
            while True:
                shifted = tuple(a + k * b for a, b in zip(mu, alpha))
                m = mult.get(_fold_weight(R, shifted), 0)
                if m == 0 and height(shifted) < 0:
                    break
                if m:
                    acc += 2 * m * R.killing(shifted, alpha)
                k += 1
        if denom == 0:
            raise UsageError("Freudenthal denominator vanished off the top weight")
        m = acc / denom
        if m.denominator != 1 or m < 0:
            raise VerificationError(f"Freudenthal multiplicity {m} at {mu}")
        if m:
            mult[mu] = int(m)

    check = sum(m * len(_orbit(R, mu)) for mu, m in mult.items())
    if check != total:
        raise UsageError(
            f"character table of {coords} sums to {check}, expected {total}"
        )
    table = CharacterTable(R, coords, mult, total)
    _table_memo[key] = table
    return table


def _all_weights(table: CharacterTable):
    R = table.root_system
    for mu, m in table.multiplicities.items():
        for v in _orbit(R, mu):
            yield v, m


def tensor_decompose(R: RootSystem, lam, mu, dim_cap=DIM_CAP):
    """V_lam (x) V_mu as {fw coords: multiplicity}, by Klimyk alternation."""
    lc, mc = _fw_coords(R, lam), _fw_coords(R, mu)
    if weyl_dim(R, lc) * weyl_dim(R, mc) > dim_cap:
        raise ResourceCapError(
            "tensor product dimension exceeds cap", cap=dim_cap
        )
    if weyl_dim(R, lc) < weyl_dim(R, mc):
        lc, mc = mc, lc
    table = weight_multiplicities(R, mc, dim_cap)
    lam_rho = tuple(a + b for a, b in zip(_eps(R, lc), R.rho))
    out = {}
    for nu, m in _all_weights(table):
        shifted = tuple(a + b for a, b in zip(lam_rho, nu))
        folded, sign = _fold_dominant(R, shifted)
        if sign == 0:
            continue
        top = tuple(a - b for a, b in zip(folded, R.rho))
        key = tuple(int(_pair(R, top, a)) for a in R.simple_roots)
        out[key] = out.get(key, 0) + sign * m
    out = {k: v for k, v in out.items() if v}
    total = sum(v * weyl_dim(R, k) for k, v in out.items())
    if any(v < 0 for v in out.values()) or total != weyl_dim(R, lc) * weyl_dim(R, mc):
        raise VerificationError(f"Klimyk decomposition of {lc} x {mc} fails")
    return out


def dual_weight_coords(R: RootSystem, lam):
    """Highest weight of the dual representation, -w0(lam)."""
    coords = _fw_coords(R, lam)
    w0 = longest_element(R)
    neg = tuple(-x for x in w0.apply_eps(_eps(R, coords)))
    out = tuple(int(_pair(R, neg, a)) for a in R.simple_roots)
    return out


def _outer_multiplicity(R, lam, mu, nu, dim_cap):
    """Multiplicity of V_nu inside V_lam (x) V_mu, one alternating sum."""
    table = weight_multiplicities(R, mu, dim_cap)
    lam_rho = tuple(a + b for a, b in zip(_eps(R, lam), R.rho))
    nu_rho = tuple(a + b for a, b in zip(_eps(R, nu), R.rho))
    acc = 0
    for w in generate_weyl_group(R):
        target = tuple(
            a - b for a, b in zip(w.apply_eps(nu_rho), lam_rho)
        )
        m = table.multiplicity(target)
        if m:
            acc += (-1) ** w.length * m
    if acc < 0:
        raise VerificationError(f"negative multiplicity of {nu} in {lam} x {mu}")
    return acc


def invariant_dim(R: RootSystem, lams, dim_cap=DIM_CAP):
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
            for k2, m2 in tensor_decompose(R, k, lam, dim_cap).items():
                merged[k2] = merged.get(k2, 0) + m * m2
        partial = merged
    total = 0
    for k, m in partial.items():
        total += m * _outer_multiplicity(R, k, coords[-2], target, dim_cap)
    return total


def saturated_search(R: RootSystem, lams, n_max=6, dim_cap=DIM_CAP):
    """Smallest N <= n_max with an invariant in V_{N lam1} (x) ..., else None.

    n_max is a heuristic search bound, not a saturation statement; a miss
    says nothing about membership.
    """
    coords = [_fw_coords(R, lam) for lam in lams]
    for N in range(1, n_max + 1):
        scaled = [tuple(N * x for x in c) for c in coords]
        if invariant_dim(R, scaled, dim_cap) > 0:
            return N
    return None
