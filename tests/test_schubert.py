"""Cup products, chi characters, theta, Levi-movability, tuple streams."""

import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from eigencones import schubert
from eigencones.errors import ResourceCapError, UsageError, VerificationError
from eigencones.oracle import invariant_dim
from eigencones.rootsys import build_root_system
from eigencones.schubert import (
    TIERS,
    CohomClass,
    FlagVariety,
    PointTuple,
    _graded_tuples,
    check_tuple_work,
    chevalley_multiply,
    flag_variety,
    graded_counts,
    graded_tuple_count,
    point_product_tuples,
)
from eigencones.weyl import (
    ParabolicSpec,
    WeylElement,
    dual_rep,
    identity,
    word_str,
    word_to_element,
)

from epsilon import alpha_coords, apply_eps, chi_coefficient, chi_root_sum


def F(kind, rank, p):
    return flag_variety(build_root_system(kind, rank), p)


def test_dim_and_codim_basics():
    FA = F("C", 3, 2)  # IG(2,6)
    assert FA.dim == 7
    assert FA.codim(identity(FA.root_system)) == 7
    G2Q1 = F("G2", 2, 1)
    assert G2Q1.dim == 5
    assert G2Q1.codim(word_to_element(G2Q1.root_system, "12121")) == 0


def test_unit_and_point_conventions():
    FA = F("C", 2, 1)
    e = identity(FA.root_system)
    assert FA.point_element() == e
    assert FA.codim(FA.basis[-1]) == 0
    # unit really is the ring unit
    for w in FA.basis:
        prod = FA.cup_product(FA.basis[-1], w)
        assert prod.coeffs == {w: 1}


def test_projective_space_divisor_powers():
    # IG(1,4) = P^3: divisor powers march down the cell list one at a time
    FA = F("C", 2, 1)
    c = CohomClass(FA, {FA.basis[-1]: 1})
    seen = []
    for step in range(FA.dim):
        c = chevalley_multiply(FA, 1, c)
        assert list(c.coeffs.values()) == [1]
        seen.append(c.graded_codim())
    assert seen == [1, 2, 3]
    assert c.point_coefficient() == 1


CHEVALLEY_CASES = [
    *((kind, rank, p) for kind, rank in [("A", 3), ("B", 3), ("C", 3), ("C", 4),
                                         ("D", 4), ("G2", 2)]
      for p in range(1, rank + 1)),
    ("F4", 4, 1), ("F4", 4, 4),
]


@pytest.mark.parametrize("kind,rank,p", CHEVALLEY_CASES)
def test_chevalley_rule_matches_the_divisor_cup_product(kind, rank, p):
    # the classical rule against localization, on every class
    FA = F(kind, rank, p)
    (d,) = FA.by_codim[1]
    for w in FA.basis:
        got = chevalley_multiply(FA, p, CohomClass(FA, {w: 1}))
        assert got.coeffs == FA.cup_product(d, w).coeffs, word_str(w)


def test_gr24_pieri_square():
    FA = flag_variety(build_root_system("A", 3), 2)  # Gr(2,4)
    (d,) = FA.by_codim[1]
    sq = FA.cup_product(d, d)
    assert sorted(sq.coeffs.values()) == [1, 1]
    assert sq.graded_codim() == 2


def test_duality_pairing():
    for kind, rank, p in [("C", 2, 1), ("C", 2, 2), ("G2", 2, 1), ("B", 3, 2)]:
        FA = F(kind, rank, p)
        P = FA.parabolic
        for u in FA.basis:
            for v in FA.basis:
                if FA.codim(u) + FA.codim(v) != FA.dim:
                    continue
                m = FA.cup_product(u, v).point_coefficient()
                assert m == (1 if v == dual_rep(u, P) else 0)


def test_g2_q1_dual_pair_product():
    FA = F("G2", 2, 1)
    R = FA.root_system
    prod = FA.cup_product(word_to_element(R, "1"), word_to_element(R, "2121"))
    assert prod.point_coefficient() == 1


def test_grading():
    FA = F("C", 3, 2)
    for u in FA.basis:
        for v in FA.basis:
            prod = FA.cup_product(u, v)
            total = FA.codim(u) + FA.codim(v)
            if total > FA.dim:
                assert prod.is_zero()
            elif not prod.is_zero():
                assert prod.graded_codim() == total


def test_associativity_random_triples():
    rng = random.Random(7)
    for kind, rank, p in [("C", 2, 1), ("G2", 2, 2), ("B", 3, 1)]:
        FA = F(kind, rank, p)
        basis = FA.basis
        for _ in range(40):
            u, v, w = (rng.choice(basis) for _ in range(3))
            cu = CohomClass(FA, {u: 1})
            cv = CohomClass(FA, {v: 1})
            cw = CohomClass(FA, {w: 1})
            lhs = FA.multiply_classes(FA.multiply_classes(cu, cv), cw)
            rhs = FA.multiply_classes(cu, FA.multiply_classes(cv, cw))
            assert lhs.coeffs == rhs.coeffs


def test_commutativity():
    FA = F("B", 2, 2)
    for u in FA.basis:
        for v in FA.basis:
            assert FA.cup_product(u, v).coeffs == FA.cup_product(v, u).coeffs


def test_structure_constants_are_integers():
    FA = F("G2", 2, 1)
    for u in FA.basis:
        for v in FA.basis:
            for c in FA.cup_product(u, v).coeffs.values():
                assert isinstance(c, int) and c > 0


def test_chi_identity_and_top():
    for kind, rank, p in [("C", 3, 1), ("G2", 2, 2), ("F4", 4, 4)]:
        FA = F(kind, rank, p)
        R = FA.root_system
        e, top = identity(R), FA.basis[-1]
        # chi_e = 2(rho - rho^L) = 2 rho - (the sum of the Levi's positive roots)
        levi = [b for b in R.positive_roots if alpha_coords(R, b)[p - 1] == 0]
        expected = tuple(2 * r - sum(c) for r, *c in zip(R.rho, *levi))
        assert chi_root_sum(FA, e) == expected
        assert FA.chi_at_xP(e) == alpha_coords(R, expected)[p - 1]
        assert all(c == 0 for c in chi_root_sum(FA, top))
        assert FA.chi_at_xP(top) == 0


def test_chi_a2_p1():
    FA = flag_variety(build_root_system("A", 2), 1)
    R = FA.root_system
    w = word_to_element(R, "1")
    a1, a2 = R.simple_roots
    assert chi_root_sum(FA, w) == tuple(x + y for x, y in zip(a1, a2))
    assert FA.chi_at_xP(w) == 1


def test_chi_cross_check_root_sum():
    # chi_w = sum of roots in (R+ \ R_L+) kept positive by w; the table reads
    # the orbit point, the reference the epsilon root sum
    for kind, rank, p in [("C", 2, 1), ("C", 2, 2), ("G2", 2, 1), ("B", 3, 2)]:
        FA = F(kind, rank, p)
        for w in FA.basis:
            assert FA.chi_at_xP(w) == chi_coefficient(FA, w), word_str(w)


CHI_CASES = [
    *((kind, rank, p) for kind, ranks in [("A", range(1, 6)), ("B", range(1, 6)),
                                          ("C", range(1, 6)), ("D", range(3, 6))]
      for rank in ranks for p in range(1, rank + 1)),
    *(("G2", 2, p) for p in (1, 2)), *(("F4", 4, p) for p in range(1, 5)),
]


@pytest.mark.parametrize("kind,rank,p", CHI_CASES)
def test_chi_table_is_the_root_sum_coefficient(kind, rank, p):
    # the orbit-point table against the definition, on every class
    FA = F(kind, rank, p)
    for w in FA.basis:
        value = FA.chi_at_xP(w)
        assert type(value) is int
        assert value == chi_coefficient(FA, w), word_str(w)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_div_exact(a, b):
    # long division by b, whose constant term is 1; the remainder must vanish
    a, q = list(a), [0] * (len(a) - len(b) + 1)
    for k in range(len(q)):
        q[k] = c = a[k]
        for j, y in enumerate(b):
            a[k + j] -= c * y
    assert not any(a), "inexact division"
    return q


@pytest.mark.parametrize("kind,rank,p", CHI_CASES)
def test_graded_counts_are_the_root_height_product(kind, rank, p):
    # Macdonald: sum_c N_c t^c is the product over the positive roots beta
    # outside the Levi of (1 - t^(ht beta + 1)) / (1 - t^(ht beta))
    R = build_root_system(kind, rank)
    num, den = [1], [1]
    for a in R.root_alpha:
        if a[p - 1]:
            h = sum(a)
            num = _poly_mul(num, [1] + [0] * h + [-1])
            den = _poly_mul(den, [1] + [0] * (h - 1) + [-1])
    assert tuple(_poly_div_exact(num, den)) == graded_counts(R, p)


COMINUSCULE_CASES = [
    (kind, rank, p) for kind, ranks in [("A", range(1, 6)), ("B", range(2, 5)),
                                        ("C", range(2, 5)), ("D", range(4, 6))]
    for rank in ranks for p in range(1, rank + 1)
    if build_root_system(kind, rank).root_alpha[-1][p - 1] == 1
]


def test_the_cominuscule_cases_are_the_27_parabolics():
    assert len(COMINUSCULE_CASES) == 27
    assert ("C", 4, 4) in COMINUSCULE_CASES and ("D", 5, 4) in COMINUSCULE_CASES
    assert ("B", 3, 3) not in COMINUSCULE_CASES


@pytest.mark.parametrize("kind,rank,p", COMINUSCULE_CASES)
def test_theta_vanishes_on_every_cominuscule_nonzero_product(kind, rank, p):
    # on a cominuscule G/P the Belkale-Kumar product is the cup product
    # (Belkale-Kumar 2006), so every nonzero point product has theta = 0
    tuples = list(point_product_tuples(F(kind, rank, p), 3, "nonzero"))
    assert tuples
    assert all(pt.theta == 0 for pt in tuples)


@pytest.mark.parametrize("kind,rank,p,moving,total", [
    ("C", 3, 1, 3, 21), ("B", 3, 3, 9, 37), ("D", 4, 2, 195, 381),
])
def test_non_cominuscule_nonzero_products_with_theta_pinned(kind, rank, p, moving, total):
    # the positive control's other side: these parabolics are not cominuscule
    tuples = list(point_product_tuples(F(kind, rank, p), 3, "nonzero"))
    assert (sum(pt.theta != 0 for pt in tuples), len(tuples)) == (moving, total)


def test_chi_at_xP_rejects_a_class_outside_the_basis():
    FA = F("C", 3, 2)
    with pytest.raises(UsageError, match="not a minimal coset representative"):
        FA.chi_at_xP(word_to_element(FA.root_system, "1"))  # s_1 lies in the Levi


def test_theta_trivial_tuples():
    FA = F("C", 3, 2)
    e = identity(FA.root_system)
    top = FA.basis[-1]
    assert FA.theta((e, top, top)) == 0
    movable, m = FA.is_levi_movable((e, top, top))
    assert movable and m == 1


def test_a1_point_tuples():
    FA = F("A", 1, 1)
    tuples = list(point_product_tuples(FA, 3, "point"))
    words = {pt.words for pt in tuples}
    assert words == {("e", "1", "1"), ("1", "e", "1"), ("1", "1", "e")}
    for pt in tuples:
        assert pt.multiplicity == 1 and pt.theta == 0


def test_a2_p1_levi_triple():
    FA = flag_variety(build_root_system("A", 2), 1)
    R = FA.root_system
    ws = (word_to_element(R, "1"), word_to_element(R, "1"),
          word_to_element(R, "21"))
    assert FA.theta(ws) == 0
    movable, m = FA.is_levi_movable(ws)
    assert movable and m == 1


def test_g2_q2_levi_pairs():
    FA = F("G2", 2, 2)
    P = FA.parabolic
    pairs = list(point_product_tuples(FA, 2, "levi"))
    assert len(pairs) == 6
    for pt in pairs:
        u, v = pt.elements
        assert v == dual_rep(u, P)
    # every nonzero theta = 0 pair is already a unit product
    flat = [pt for pt in point_product_tuples(FA, 2, "nonzero") if pt.theta == 0]
    assert flat == pairs


def test_n1_tuple_stream():
    FA = F("C", 2, 2)
    tuples = list(point_product_tuples(FA, 1, "point"))
    assert len(tuples) == 1
    assert tuples[0].words == ("e",)


def test_bk_inequality_on_point_products():
    for kind, rank, p in [("C", 2, 1), ("C", 2, 2), ("G2", 2, 1), ("G2", 2, 2)]:
        FA = F(kind, rank, p)
        for pt in point_product_tuples(FA, 3, "nonzero"):
            assert pt.theta >= 0


def test_levi_tier_refines_point_tier():
    FA = F("C", 2, 1)
    nonzero, point, levi = (
        {pt.elements for pt in point_product_tuples(FA, 3, tier)} for tier in TIERS)
    assert levi <= point <= nonzero <= set(_graded_tuples(FA, 3))


def _no_integral(*args):
    raise AssertionError("an integral ran before the work bound was checked")


def test_tuple_cap(monkeypatch):
    # 123 graded triples, 369 slot evaluations: refused before any integral
    FA = F("C", 3, 2)
    monkeypatch.setattr(FlagVariety, "integral_billey", _no_integral)
    monkeypatch.setattr("eigencones.schubert.WORK_CAP", 368)
    with pytest.raises(ResourceCapError, match=r"^C3/P2 has 123 graded 3-tuples, and "
                                               r"tuples x n is over the cap 368$"):
        next(point_product_tuples(FA, 3, "nonzero"))


def test_graded_piece_cap_comes_before_the_duals(monkeypatch):
    def fail(*args):
        raise AssertionError("duals computed before the graded-piece cap")

    def no_element(*args):
        raise AssertionError("a WeylElement built before the graded-piece cap")

    monkeypatch.setattr("eigencones.schubert.dual_rep", fail)
    monkeypatch.setattr(WeylElement, "__init__", no_element)
    monkeypatch.setattr("eigencones.schubert.GRADED_PIECE_CAP", 1)
    # the uncached pricing, so counts of C3/P2 cached by another test are no answer
    monkeypatch.setattr("eigencones.schubert.graded_counts", graded_counts.__wrapped__)
    with pytest.raises(ResourceCapError, match="graded piece of C3/P2 exceeds 1 classes"):
        FlagVariety(build_root_system("C", 3), 2)


COUNT_CASES = [
    *((kind, rank, p) for kind, ranks in [("A", (1, 2, 3)), ("B", (1, 2, 3)),
                                          ("C", (1, 2, 3)), ("D", (3,))]
      for rank in ranks for p in range(1, rank + 1)),
    ("G2", 2, 1), ("G2", 2, 2),
]


@pytest.mark.parametrize("kind,rank,p", COUNT_CASES)
def test_predicted_tuple_count_is_the_enumerated_count(kind, rank, p):
    FA = F(kind, rank, p)
    for n in range(1, 6):
        walk = list(_graded_tuples(FA, n))
        assert graded_tuple_count(FA.root_system, p, n) == len(walk)
        if n <= 4:  # the walk is the graded part of the lexicographic product
            assert walk == [
                ws for ws in itertools.product(FA.basis, repeat=n)
                if sum(map(FA.codim, ws)) == FA.dim
            ]


@pytest.mark.parametrize("kind,total", [("C", 2178), ("D", 876)])
def test_predicted_tuple_count_of_the_rank_4_triples(kind, total):
    R = build_root_system(kind, 4)
    varieties = [flag_variety(R, p) for p in range(1, 5)]
    assert sum(graded_tuple_count(R, p, 3) for p in range(1, 5)) == total
    assert sum(1 for FA in varieties for _ in _graded_tuples(FA, 3)) == total


def test_walk_has_no_recursion_limit():
    # one slot holds the point class, every other slot the unit
    FA = F("A", 1, 1)
    assert sum(1 for _ in _graded_tuples(FA, 1000)) == 1000
    assert graded_tuple_count(FA.root_system, 1, 1000) == 1000


def test_tuple_count_saturates_at_a_huge_n():
    R = build_root_system("G2", 2)
    assert graded_tuple_count(R, 1, 10**30) == 10**18
    with pytest.raises(ResourceCapError, match=r"has over 1,000,000,000,000,000,000 graded"):
        check_tuple_work(R, [1], 10**30)


def test_tuple_stream_deterministic():
    FA = F("B", 2, 1)
    a = [pt.words for pt in point_product_tuples(FA, 3, "levi")]
    b = [pt.words for pt in point_product_tuples(FA, 3, "levi")]
    assert a == b


def test_bad_tier_and_n():
    FA = F("A", 1, 1)
    with pytest.raises(UsageError):
        list(point_product_tuples(FA, 0, "point"))
    with pytest.raises(UsageError, match=r"^tier must be one of "
                                         r"\('nonzero', 'point', 'levi'\)$"):
        list(point_product_tuples(FA, 2, "bogus"))


def reference_stream(F, n, tier):
    """The stream as it was: m and theta on every graded tuple, kept by the old
    filters (m != 0, and theta = 0 on the levi tier), then m = 1 past nonzero."""
    for ws in _graded_tuples(F, n):
        m, th = F.point_multiplicity(ws), F.theta(ws)
        if m != 0 and (tier != "levi" or th == 0) and (tier == "nonzero" or m == 1):
            yield PointTuple(ws, m, th)


STREAM_CASES = [
    *((label, n, TIERS) for label in ("G2", "A2", "A3", "B2", "B3", "C2", "C3")
      for n in (2, 3, 4) if n < 4 or label.endswith("2")),
    ("D4", 3, ("point",)), ("C4", 3, TIERS), ("B4", 3, TIERS),
]


@pytest.mark.parametrize("label,n,tiers", STREAM_CASES,
                         ids=[f"{label}-n{n}" for label, n, _ in STREAM_CASES])
def test_stream_matches_the_reference_stream(label, n, tiers):
    R = build_root_system(label if label == "G2" else label[0], int(label[1]))
    for p in range(1, R.rank + 1):
        FA = flag_variety(R, p)
        for tier in tiers:
            assert list(point_product_tuples(FA, n, tier)) == \
                list(reference_stream(FA, n, tier)), (FA.label, tier)


def test_levi_stream_integrates_only_where_theta_is_not_positive(monkeypatch):
    # C4 has 2,178 graded triples; 1,061 of them have theta <= 0
    calls = []
    integrate = FlagVariety.point_multiplicity

    def counted(self, ws):
        calls.append(ws)
        return integrate(self, ws)

    monkeypatch.setattr(FlagVariety, "point_multiplicity", counted)
    R = build_root_system("C", 4)
    for p in range(1, 5):
        list(point_product_tuples(flag_variety(R, p), 3, "levi"))
    assert len(calls) == 1061


@pytest.mark.parametrize("tier", TIERS)
def test_negative_theta_on_a_nonzero_product_is_refused(tier, monkeypatch):
    FA = F("C", 2, 1)
    top = FA.basis[-1]
    target = (FA.point_element(), top, top)  # the unit product 1 [pt]
    theta = FlagVariety.theta
    monkeypatch.setattr(FlagVariety, "theta",
                        lambda self, ws: -1 if ws == target else theta(self, ws))
    with pytest.raises(VerificationError, match=r"^C2/P1: theta < 0 on a nonzero "
                                                r"point product \('e', '121', '121'\)$"):
        list(point_product_tuples(FA, 3, tier))


def test_cup_product_rejects_foreign_elements():
    FA = F("C", 2, 1)
    R3 = build_root_system("C", 3)
    with pytest.raises(UsageError):
        FA.cup_product(identity(R3), identity(R3))


def test_non_integral_theta_is_a_verification_error():
    # a fresh root system whose weight Gram matrix is not a multiple of the
    # form: at s_2, 2 (rho, omega_2 - s_2 omega_2) / (alpha_2, alpha_2) is 4 / 12
    R = dataclasses.replace(build_root_system("C", 2), weight_gram=((1, 0), (0, 2)))
    with pytest.raises(VerificationError,
                       match=r"^C2/P2: chi_w\(x_P\) is not an integer at 2$"):
        FlagVariety(R, 2)


def test_chi_table_disagreeing_with_its_definition_is_a_verification_error(monkeypatch):
    # every outside root kept positive: the definition reads chi_e(x_P) at s_2
    monkeypatch.setattr(schubert, "_is_positive", lambda heights, root_fw: True)
    with pytest.raises(VerificationError,
                       match=r"^C2/P2: chi definitions disagree at 2$"):
        FlagVariety(build_root_system("C", 2), 2)


def test_inexact_integral_is_a_verification_error():
    # a Poincare pair integrates to E / E; over 2E it leaves a remainder
    FA = FlagVariety(build_root_system("C", 2), 1)
    rest, support, mult, denom = FA._localization()
    FA._tables = rest, support, mult, 2 * denom
    w = FA.basis[1]
    with pytest.raises(VerificationError, match="C2/P1: non-integer intersection number"):
        FA.integral_billey((w, FA.dual(w)))
    with pytest.raises(VerificationError, match="non-integer intersection number"):
        FA.point_multiplicity((FA.point_element(), FA.basis[-1]))


def _grassmannian_partition(FA, w):
    """The partition of sigma_w on Gr(k, n): w(omega_k) has its top entries
    at positions i_1 < ... < i_k, and the parts are i_j - j, largest first."""
    R = FA.root_system
    k = FA.parabolic.excluded
    v = apply_eps(w, R.fundamental_weights[k - 1])
    positions = [i for i, x in enumerate(v, 1) if x == max(v)]
    return tuple(reversed([i - j for j, i in enumerate(positions, 1)]))


@pytest.mark.parametrize("k,n,multisets", [(2, 4, 7), (2, 5, 19), (3, 6, 84),
                                            (3, 7, 312)])
def test_type_a_point_multiplicity_is_an_sl_k_invariant_dimension(k, n, multisets):
    # a triple intersection number on Gr(k, n) is a Littlewood-Richardson
    # coefficient, i.e. the SL_k invariant dimension of the partitions
    # (Fulton, Young Tableaux); this route shares no code with localization
    FA = flag_variety(build_root_system("A", n - 1), k)
    SLk = build_root_system("A", k - 1)
    seen = []
    for ws in itertools.combinations_with_replacement(FA.basis, 3):
        if sum(FA.codim(w) for w in ws) != FA.dim:
            continue
        parts = [_grassmannian_partition(FA, w) for w in ws]
        fw = [tuple(p[j] - p[j + 1] for j in range(k - 1)) for p in parts]
        m = FA.point_multiplicity(ws)
        assert m == invariant_dim(SLk, fw), (k, n, parts)
        seen.append(m)
    assert len(seen) == multisets
    assert set(seen) == ({0, 1, 2} if k == 3 else {0, 1})


# -- the Fraction localization and theta, kept as references ----------------

GENERIC_BASE = 11


def reference_root_value(FA, v_eps):
    a = alpha_coords(FA.root_system, v_eps)
    val = Fraction(0)
    for j, c in enumerate(a):
        val += c * GENERIC_BASE ** (j + 1)
    assert val != 0, "generic point vanished on a root"
    return val


def reference_localization(FA):
    """Billey restrictions and Euler factors on Fraction epsilon vectors."""
    R = FA.root_system
    rest = {}
    for v in FA.basis:
        word = v.word
        betas = []
        prefix = identity(R)
        for i in word:
            betas.append(reference_root_value(FA, apply_eps(prefix, R.simple_roots[i - 1])))
            prefix = prefix * word_to_element(R, [i])
        states = {identity(R): Fraction(1)}
        for pos, i in enumerate(word):
            bval = betas[pos]
            new = dict(states)
            for u, val in states.items():
                if u.sends_positive(i):
                    u2 = u * word_to_element(R, [i])
                    new[u2] = new.get(u2, Fraction(0)) + val * bval
            states = new
        rest[v] = states
    k = FA.parabolic.excluded
    outside = [b for b in R.positive_roots if alpha_coords(R, b)[k - 1] != 0]
    euler = {}
    for v in FA.basis:
        e = Fraction(1)
        for b in outside:
            e *= -reference_root_value(FA, apply_eps(v, b))
        euler[v] = e
    return rest, euler


def reference_integral(FA, tables, ws):
    if sum(w.length for w in ws) < FA.dim:
        return Fraction(0)
    rest, euler = tables
    acc = Fraction(0)
    for v in FA.basis:
        term = Fraction(1)
        for w in ws:
            r = rest[v].get(w)
            if r is None or r == 0:
                term = Fraction(0)
                break
            term *= r
        if term:
            acc += term / euler[v]
    return acc


def reference_theta(FA, ws):
    """chi_1 minus the slots' chi, each the alpha_P-coefficient of its root sum."""
    return chi_coefficient(FA, FA.point_element()) - sum(chi_coefficient(FA, w) for w in ws)


@pytest.mark.parametrize("kind,rank,p", [("G2", 2, 1), ("B", 3, 1), ("C", 3, 2)])
def test_int_localization_matches_the_fraction_reference(kind, rank, p):
    FA = F(kind, rank, p)
    tables = reference_localization(FA)
    triples = 0
    for ws in itertools.combinations_with_replacement(FA.basis, 3):
        if sum(w.length for w in ws) != FA.dim:
            continue
        got = FA.integral_billey(ws)
        assert got == reference_integral(FA, tables, ws), tuple(map(word_str, ws))
        assert type(got) is int
        assert FA.theta(ws) == reference_theta(FA, ws)
        triples += 1
    assert triples > 0


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_int_theta_scalars_match_the_weight_reference(p):
    FA = F("C", 4, p)
    for w in FA.basis:
        assert FA.theta((w,)) == reference_theta(FA, (w,)), word_str(w)


LOCALIZATION_CASES = [
    *((kind, rank, p) for kind, ranks in [("A", range(1, 5)), ("B", range(1, 5)),
                                          ("C", range(1, 5)), ("D", range(3, 5))]
      for rank in ranks for p in range(1, rank + 1)),
    ("G2", 2, 1), ("G2", 2, 2), ("F4", 4, 1), ("F4", 4, 4),
]


@pytest.mark.parametrize("kind,rank,p", LOCALIZATION_CASES)
def test_chevalley_recursion_equals_the_billey_reference(kind, rank, p):
    # every restriction and its support bit, at basis positions
    FA = F(kind, rank, p)
    rest, support, mult, denom = FA._localization()
    ref, euler = reference_localization(FA)
    for j, v in enumerate(FA.basis):
        assert Fraction(mult[j], denom) == 1 / euler[v]
        for i, w in enumerate(FA.basis):
            expected = ref[v].get(w, 0)
            assert rest[i][j] == expected, (word_str(w), word_str(v))
            assert (support[i] >> j & 1) == (expected != 0), (word_str(w), word_str(v))


@pytest.mark.parametrize("kind,rank,p", [("C", 6, 3), ("A", 9, 3)])
def test_large_varieties_localize(kind, rank, p):
    FA = F(kind, rank, p)
    _, support, _, _ = FA._localization()
    FA._check_localization()
    top = len(FA.basis) - 1
    assert support[0] == (1 << top + 1) - 1  # every class lies above e
    assert support[top] == 1 << top  # the longest class lies above itself only
