"""Index-set combinatorics of isotropic Grassmannians IG(k,2r).

A Schubert cell of Sp(2r)/P_k is encoded by a k-subset of {1..2r} with no
two elements summing to 2r+1.  This module houses the Weyl <-> index-set
dictionary, the lift from IG(k,2s) into IG(k,2r), the codimension-jump and
B/C character-difference formulas, the expected-dimension bookkeeping, and
the orbit-dimension calculators for the s = r-1 analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import UsageError, VerificationError
from .rootsys import build_embedding, build_root_system
from .schubert import FlagVariety, flag_variety
from .weyl import ParabolicSpec, identity, word_str, word_to_element


@dataclass(frozen=True)
class IndexSet:
    elems: tuple
    r: int

    def __post_init__(self):
        elems = tuple(sorted(int(i) for i in self.elems))
        object.__setattr__(self, "elems", elems)
        k = len(elems)
        if not 1 <= k <= self.r:
            raise UsageError("need 1 <= k <= r")
        if any(not 1 <= i <= 2 * self.r for i in elems):
            raise UsageError("elements must lie in 1..2r")
        if len(set(elems)) != k:
            raise UsageError("elements must be distinct")
        for i in elems:
            if 2 * self.r + 1 - i in elems:
                raise UsageError(f"{i} and {2*self.r+1-i} sum to 2r+1: not isotropic")

    @property
    def k(self):
        return len(self.elems)

    def bar(self):
        return tuple(sorted(2 * self.r + 1 - i for i in self.elems))

    def tilde(self):
        used = set(self.elems) | set(self.bar())
        return tuple(i for i in range(1, 2 * self.r + 1) if i not in used)

    def count_le(self, m):
        return sum(1 for i in self.elems if i <= m)

    def count_gt(self, m):
        return sum(1 for i in self.elems if i > m)


def _count_gt_pairs(A, B):
    return sum(1 for a in A for b in B if a > b)


def dim_from_index(I: IndexSet):
    """dim of the Schubert cell C_I, by the [BKISO]-style subset formula."""
    half = _count_gt_pairs(I.elems, I.bar()) + I.count_gt(I.r)
    if half % 2 != 0:
        raise VerificationError("dimension half-sum is not integral")
    return _count_gt_pairs(I.elems, I.tilde()) + half // 2


def ig_dim(k, r):
    """dim IG(k,2r) = (k/2)(4r - 3k + 1)."""
    num = k * (4 * r - 3 * k + 1)
    if num % 2 != 0:
        raise VerificationError("non-integral Grassmannian dimension")
    return num // 2


def weyl_index_bijection(F: FlagVariety):
    """Both directions of the W^P <-> IndexSet dictionary for Sp(2r)/P_k.

    w corresponds to the positions of w(e_1), ..., w(e_k) in the ordered
    basis e_1, ..., e_r, e_r', ..., e_1' (a negative sign lands in the
    primed half); the point class e maps to {1..k}.
    """
    R = F.root_system
    if R.kind != "C":
        raise UsageError("index sets are defined for type C flag varieties")
    r, k = R.rank, F.parabolic.excluded
    to_index = {}
    for w in F.basis:
        out = []
        for i in range(1, k + 1):
            e_i = tuple(Fraction(1) if j == i - 1 else Fraction(0) for j in range(r))
            img = w.apply_eps(e_i)
            nz = [j for j, c in enumerate(img) if c != 0]
            if len(nz) != 1 or abs(img[nz[0]]) != 1:
                raise VerificationError("element does not act as a signed permutation")
            j = nz[0]
            out.append(j + 1 if img[j] > 0 else 2 * r - j)
        I = IndexSet(tuple(out), r)
        if dim_from_index(I) != w.length:
            raise VerificationError(f"index dictionary broken at {word_str(w)}")
        to_index[w] = I
    from_index = {I: w for w, I in to_index.items()}
    return to_index, from_index


def lift_index(I_M: IndexSet, r):
    """The IG(k,2s) -> IG(k,2r) lift: add 2(r-s) to every element > s."""
    s = I_M.r
    if not s < r:
        raise UsageError("lift needs s < r")
    return IndexSet(
        tuple(i + 2 * (r - s) if i > s else i for i in I_M.elems), r
    )


def codim_jump(I_M: IndexSet, r, s):
    """codim(C_{lift I}) - codim(C_{I_M}) = 2(r-s) |I_M <= s|."""
    if I_M.r != s:
        raise UsageError("I_M must be an index set over 2s")
    return 2 * (r - s) * I_M.count_le(s)


def codim_jump_cross_check(I_M: IndexSet, r, k):
    """Three-way agreement for the codimension jump of one cell.

    Formula value 2(r-s)|I_M <= s|, the dimension-formula difference, and
    the character difference (chi_w - chi^M_w) against sum_{i<=k} e_i^*
    must coincide; returns the common value.
    """
    s = I_M.r
    if I_M.k != k:
        raise UsageError("index set does not encode a k-plane cell")
    by_formula = codim_jump(I_M, r, s)

    FM = flag_variety(build_root_system("C", s), k)
    FG = flag_variety(build_root_system("C", r), k)
    _, from_index = weyl_index_bijection(FM)
    w = from_index[I_M]
    (lifted,) = lift_elements((w,), r, s, k)
    by_dims = FG.codim(lifted) - FM.codim(w)

    chi_G = FG.chi_weight(lifted).ambient
    chi_M = FM.chi_weight(w).ambient
    by_chi = sum(chi_G[:k]) - sum(chi_M[:k])
    if not by_formula == by_dims == by_chi:
        raise VerificationError(
            f"codim jump mismatch: formula {by_formula}, dims {by_dims}, chi {by_chi}"
        )
    return by_formula


def bc_delta(I_M: IndexSet, s, k):
    """(chi^M_w - chi^H_w)(x_Q) = |I_M <= s|."""
    if I_M.r != s or I_M.k != k:
        raise UsageError("index set does not match (s, k)")
    return I_M.count_le(s)


# -- lifting Weyl tuples through the Sp(2s) x Sp(2(r-s)) embedding -----------


def lift_elements(ws, r, s, k):
    """Embed a W_M^Q tuple into W^P through the first-factor inclusion."""
    E = build_embedding("c-in-c", r=r, s=s)
    from .weyl import embed_element

    P = ParabolicSpec(E.ambient, E.matched_parabolic(k))
    return tuple(embed_element(E, w, minimize_into=P) for w in ws)


def _theta_eps(F: FlagVariety, ws, k):
    # (chi_1 - sum chi_{w_i}) paired against sum_{i<=k} e_i^*.  This is the
    # intrinsic x_P except for Sp(2s)/P_s, where alpha_s = 2 e_s halves the
    # intrinsic functional; the codimension comparisons need the eps form.
    total = F.chi_weight(identity(F.root_system)).ambient
    for w in ws:
        total = tuple(a - b for a, b in zip(total, F.chi_weight(w).ambient))
    val = sum(total[:k])
    if val.denominator != 1:
        raise VerificationError("theta evaluation is not integral")
    return int(val)


def expected_dim_zero_check(ws, r, s, k):
    """The three theta numbers, expected dimensions, and the two lemmas.

    ws is a tuple of minimal representatives of W_M^Q for M = Sp(2s),
    Q = P_k.  theta^H is computed over SO(2s+1)/P_k, whose Coxeter system
    matches M's, so the same words index both sides.  All three thetas are
    evaluated against sum_{i<=k} e_i^*.
    """
    FM = flag_variety(build_root_system("C", s), k)
    FH = flag_variety(build_root_system("B", s), k) if s >= 2 else _b1_variety(k)
    FG = flag_variety(build_root_system("C", r), k)
    for w in ws:
        if w not in FM.index:
            raise UsageError("tuple element is not a minimal rep of M/Q")
    ws_H = tuple(word_to_element(FH.root_system, w.word) for w in ws)
    lifted = lift_elements(ws, r, s, k)

    theta_M = _theta_eps(FM, ws, k)
    theta_H = _theta_eps(FH, ws_H, k)
    theta_G = _theta_eps(FG, lifted, k)
    e_G = FG.dim - sum(FG.codim(w) for w in lifted)
    e_M = FM.dim - sum(FM.codim(w) for w in ws)

    report = {
        "r": r, "s": s, "k": k,
        "words": tuple(word_str(w) for w in ws),
        "theta": theta_G, "theta_M": theta_M, "theta_H": theta_H,
        "expdim_G": e_G, "expdim_M": e_M,
    }
    if theta_G - theta_M != e_G - e_M:
        raise VerificationError(f"first expected-dimension lemma fails: {report}")
    if (e_G - e_M) % (2 * (r - s)) != 0:
        raise VerificationError(f"expected-dimension gap not divisible by 2(r-s): {report}")
    if theta_M - theta_H != (e_G - e_M) // (2 * (r - s)):
        raise VerificationError(f"second expected-dimension lemma fails: {report}")

    movable, m = FM.is_levi_movable(ws) if e_M == 0 else (False, 0)
    report["levi_movable_M"] = movable
    report["multiplicity_M"] = m
    if movable and m == 1:
        if theta_G != 0 or e_G != 0:
            raise VerificationError(f"Levi-movable unit tuple with nonzero ambient data: {report}")
    return report


def _b1_variety(k):
    # SO(3)/P_1; its Coxeter data matches Sp(2)/P_1
    if k != 1:
        raise UsageError("rank-1 case has a single parabolic")
    return flag_variety(build_root_system("B", 1), 1)


# -- orbit dimensions (s = r-1) ---------------------------------------------


def orbit_dims(k, r):
    """(O1, O2, O2', O3) closure dimensions of the Sp(2(r-1)) x SL2 orbits."""
    if not 1 <= k <= r - 1:
        raise UsageError("orbit analysis needs 1 <= k <= r-1 (s = r-1)")
    o1 = ig_dim(k, r - 1)
    o2 = ig_dim(k - 1, r - 1) + 1 + k  # dim Gr(1,2) = 1, dim Gr(k,k+1) = k
    o2p = ig_dim(k - 1, r - 1) + 1
    o3 = ig_dim(k, r)
    return o1, o2, o2p, o3


def schubert_orbit_dims(I: IndexSet, flag):
    """Per-orbit dimensions of C_I against the standard or shifted flag.

    I is an index set over 2r lifted from I_M over 2(r-1); the standard-flag
    rows need an element > r+1, the shifted rows additionally one < r.  The
    open-orbit row reports the formula value with non-emptiness unknown.
    """
    if flag not in ("standard", "shifted"):
        raise UsageError("flag must be 'standard' or 'shifted'")
    r = I.r
    if any(i in (r, r + 1) for i in I.elems):
        raise UsageError("lifted index sets cannot jump at positions r or r+1")
    I_M = IndexSet(
        tuple(i - 2 if i > r + 1 else i for i in I.elems), r - 1
    )
    if I.count_gt(r + 1) == 0:
        raise UsageError("orbit formulas need an element of I larger than r+1")
    if flag == "shifted" and not any(i < r for i in I.elems):
        raise UsageError("the shifted flag needs an element of I smaller than r")
    dim_M = dim_from_index(I_M)
    jump = I_M.count_gt(r - 1)
    out = {
        "O1": dim_M if flag == "standard" else "empty",
        "O2": dim_M + jump + 1 if flag == "standard" else dim_M + jump,
        "O2'": "empty",
        "O3": {"dim": dim_from_index(I), "nonempty_known": False},
    }
    return out


def properness_identity(index_sets, k, r):
    """k - sum_j |I_j^M <= r-1| for a lifted Levi-movable unit point tuple.

    The precondition (the I_j^M encode a Levi-movable product equal to
    1 [pt] over IG(k,2(r-1))) is verified through the Schubert machinery
    before evaluating the identity; the result must be 0.
    """
    s = r - 1
    for I_M in index_sets:
        if I_M.r != s or I_M.k != k:
            raise UsageError("index sets must encode cells of IG(k,2(r-1))")
    FM = flag_variety(build_root_system("C", s), k)
    _, from_index = weyl_index_bijection(FM)
    ws = tuple(from_index[I_M] for I_M in index_sets)
    movable, m = FM.is_levi_movable(ws)
    if not (movable and m == 1):
        raise UsageError(
            "tuple is not a Levi-movable product equal to 1 [pt] over IG(k,2(r-1))"
        )
    value = k - sum(I_M.count_le(s) for I_M in index_sets)
    if value != 0:
        raise VerificationError(f"properness identity is nonzero: {value}")
    return value


# -- B/C transfer ------------------------------------------------------------


def bc_transfer(F_C: FlagVariety):
    """The SO(2r+1) flag variety matched to an Sp(2r) one, plus the basis map.

    Sp(2r) and SO(2r+1) have transposed Cartan matrices, hence identical
    Coxeter systems; a basis class on one side is matched to the class with
    the same reduced word on the other.
    """
    if F_C.root_system.kind != "C":
        raise UsageError("bc_transfer expects a type C flag variety")
    r = F_C.root_system.rank
    F_B = flag_variety(build_root_system("B", r), F_C.parabolic.excluded)
    c_to_b = {}
    for w in F_C.basis:
        wb = word_to_element(F_B.root_system, w.word)
        if wb not in F_B.index:
            raise VerificationError("word correspondence left the coset basis")
        c_to_b[w] = wb
    if len(set(c_to_b.values())) != len(F_B.basis):
        raise VerificationError("basis correspondence is not bijective")
    return F_B, c_to_b


def bc_point_products_agree(F_C: FlagVariety, n=3):
    """Every Levi-movable 1 [pt] product transfers B <-> C (both directions).

    Returns the number of unit Levi tuples checked on each side; raises if
    a matched product fails to be 1 [pt] and Levi-movable, or if the two
    sides disagree as word tuples.
    """
    from .schubert import point_product_tuples

    F_B, c_to_b = bc_transfer(F_C)
    c_units = set()
    for pt in point_product_tuples(F_C, n, filter="levi"):
        if pt.multiplicity == 1:
            c_units.add(pt.words)
            matched = tuple(c_to_b[w] for w in pt.elements)
            movable, m = F_B.is_levi_movable(matched)
            if not (movable and m == 1):
                raise VerificationError(f"B-side product fails at {pt.words}: m={m}")
    b_units = {
        pt.words
        for pt in point_product_tuples(F_B, n, filter="levi")
        if pt.multiplicity == 1
    }
    if c_units != b_units:
        raise VerificationError("unit Levi tuples differ across the B/C correspondence")
    return len(c_units)


# -- emitters ----------------------------------------------------------------


def index_dictionary_rows(F: FlagVariety):
    """One row per basis class: word, index set, dim, codim."""
    to_index, _ = weyl_index_bijection(F)
    rows = []
    for w in F.basis:
        I = to_index[w]
        rows.append(
            {
                "word": word_str(w),
                "index_set": list(I.elems),
                "dim": w.length,
                "codim": F.codim(w),
            }
        )
    return rows


def orbit_table_rows(r):
    """Orbit closure dimensions for every 1 <= k <= r-1 at s = r-1."""
    rows = []
    for k in range(1, r):
        o1, o2, o2p, o3 = orbit_dims(k, r)
        rows.append({"k": k, "r": r, "O1": o1, "O2": o2, "O2'": o2p, "O3": o3})
    return rows
