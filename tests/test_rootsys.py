"""Root system construction, Killing normalization, and embeddings."""

import json
from dataclasses import replace
from fractions import Fraction
from functools import reduce
from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigencones.errors import ConfigurationError, UsageError
from eigencones.linalg import dot, integer_multiple, mat_inv, vadd, vscale
from eigencones.rootsys import (
    SubsystemEmbedding,
    Weight,
    _build_embedding,
    _make_embedding,
    _simple_root_vectors,
    build_embedding,
    build_root_system,
    embed_weight,
    restrict_weight_via_embedding,
    root_system_to_json,
)
from eigencones.weyl import WeylElement, _generator_images
from epsilon import alpha_coords, ambient, fw_coords, is_positive_root, root_index


def epsilon_views(E):
    """E's orbits and images in epsilon coordinates, and its images over
    the ambient simple roots; each image is its orbit's average."""
    eps = E.ambient.positive_roots

    def vectors(positions):
        return tuple(eps[k] for k in positions)

    def average(rows, positions):
        return tuple(Fraction(sum(col), len(positions))
                     for col in zip(*(rows[k] for k in positions)))

    return SimpleNamespace(
        orbits=tuple(map(vectors, E.members)),
        simple_images=tuple(average(eps, o) for o in E.members),
        image_alpha=tuple(average(E.ambient.root_alpha, o) for o in E.members),
    )


POSITIVE_ROOT_COUNTS = {
    ("A", 3): 6,
    ("B", 3): 9,
    ("C", 3): 9,
    ("D", 4): 12,
    ("G2", 2): 6,
    ("F4", 4): 24,
}

ALL_KINDS = [
    ("A", r) for r in range(1, 7)
] + [
    ("B", r) for r in range(1, 7)
] + [
    ("C", r) for r in range(1, 7)
] + [
    ("D", r) for r in range(3, 7)
] + [("G2", 2), ("F4", 4)]


def count_formula(kind, r):
    return {
        "A": r * (r + 1) // 2,
        "B": r * r,
        "C": r * r,
        "D": r * (r - 1),
        "G2": 6,
        "F4": 24,
    }[kind]


@pytest.mark.parametrize("kind,rank", ALL_KINDS)
def test_positive_root_count(kind, rank):
    R = build_root_system(kind, rank)
    assert len(R.positive_roots) == count_formula(kind, rank)


@pytest.mark.parametrize("kind,rank", ALL_KINDS)
def test_highest_root_normalization(kind, rank):
    R = build_root_system(kind, rank)
    assert R.killing(R.highest_root, R.highest_root) == 2


@pytest.mark.parametrize("kind,rank", ALL_KINDS)
def test_fundamental_weight_pairing(kind, rank):
    R = build_root_system(kind, rank)
    for i, omega in enumerate(R.fundamental_weights):
        for j, alpha in enumerate(R.simple_roots):
            assert R.coroot_pairing(omega, alpha) == (1 if i == j else 0)


@pytest.mark.parametrize("kind,rank", ALL_KINDS)
def test_positive_roots_are_nonneg_simple_combos(kind, rank):
    R = build_root_system(kind, rank)
    for beta in R.positive_roots:
        coords = alpha_coords(R, beta)
        assert all(c >= 0 and c.denominator == 1 for c in coords)


def test_c3_theta():
    R = build_root_system("C", 3)
    assert len(R.positive_roots) == 9
    assert alpha_coords(R, R.highest_root) == (2, 2, 1)


def test_g2_theta():
    R = build_root_system("G2", 2)
    assert len(R.positive_roots) == 6
    assert alpha_coords(R, R.highest_root) == (3, 2)


def test_a1_basics():
    R = build_root_system("A", 1)
    (alpha,) = R.positive_roots
    omega = R.fundamental_weights[0]
    assert tuple(2 * x for x in omega) == tuple(alpha)
    assert R.killing(omega, omega) == Fraction(1, 2)


def test_killing_values_c2():
    R = build_root_system("C", 2)
    a1 = R.simple_roots[0]  # short
    assert R.killing(a1, a1) == 1


def test_killing_values_g2():
    # the Gram matrix forced by the Cartan integers and <theta,theta> = 2:
    # alpha_1 short with <a1,a1> = 2/3, so <a1,a2> = -1
    R = build_root_system("G2", 2)
    a1, a2 = R.simple_roots
    assert R.killing(a2, a2) == 2
    assert R.killing(a1, a1) == Fraction(2, 3)
    assert R.killing(a1, a2) == -1


def test_invalid_kind_rank():
    with pytest.raises(ConfigurationError):
        build_root_system("G2", 3)
    with pytest.raises(ConfigurationError):
        build_root_system("E", 6)
    with pytest.raises(ConfigurationError):
        build_root_system("D", 2)
    with pytest.raises(ConfigurationError):
        build_root_system("F4", 2)


def reference_root_system(kind, rank):
    """The epsilon-coordinate construction the int build replaced: close the
    simple roots and their negatives under Euclidean reflections in Fraction
    arithmetic, then solve for simple-root coordinates through the Gram
    matrix.  Returns the fields that root_system_to_json reads."""
    simples = tuple(_simple_root_vectors(kind, rank))
    n = len(simples[0])
    roots = set(simples) | {tuple(vscale(-1, a)) for a in simples}
    frontier = set(roots)
    while frontier:
        new = set()
        for v in frontier:
            for a in simples:
                w = tuple(x - 2 * dot(v, a) / dot(a, a) * ai for x, ai in zip(v, a))
                if w not in roots:
                    new.add(w)
        roots |= new
        frontier = new
    gram_inv = mat_inv(tuple(tuple(dot(a, b) for b in simples) for a in simples))
    solve = [[dot(row, col) for col in zip(*simples)] for row in gram_inv]
    positives = []
    for v in roots:
        a = tuple(dot(row, v) for row in solve)
        if all(x >= 0 for x in a):
            positives.append((sum(a), a, v))
    positives.sort(key=lambda t: (t[0], t[1]))
    pos_roots = tuple(v for _, _, v in positives)
    theta = pos_roots[-1]
    scale = Fraction(2) / dot(theta, theta)
    cartan = tuple(
        tuple(int(2 * dot(a, b) / dot(b, b)) for b in simples) for a in simples
    )
    cartan_inv = mat_inv(cartan)
    fws = []
    for i in range(rank):
        w = tuple(Fraction(0) for _ in range(n))
        for k in range(rank):
            w = vadd(w, vscale(cartan_inv[i][k], simples[k]))
        fws.append(w)
    rho = tuple(Fraction(0) for _ in range(n))
    for v in pos_roots:
        rho = vadd(rho, v)
    return SimpleNamespace(
        kind=kind,
        rank=rank,
        ambient_dim=n,
        simple_roots=simples,
        positive_roots=pos_roots,
        root_alpha=tuple(a for _, a, _ in positives),
        cartan_matrix=cartan,
        fundamental_weights=tuple(fws),
        killing_scale=scale,
        highest_root=theta,
        rho=vscale(Fraction(1, 2), rho),
        dual_basis=tuple(
            vscale(Fraction(2) / (scale * dot(a, a)), w) for a, w in zip(simples, fws)
        ),
    )


REFERENCE_KINDS = [
    (kind, r) for kind in "ABC" for r in range(1, 8)
] + [("D", r) for r in range(3, 8)] + [("G2", 2), ("F4", 4)]


@pytest.mark.parametrize("kind,rank", REFERENCE_KINDS)
def test_int_build_matches_the_reflection_closure(kind, rank):
    R = build_root_system(kind, rank)
    ref = reference_root_system(kind, rank)
    assert R.positive_roots == ref.positive_roots  # values and order
    assert R.root_alpha == ref.root_alpha
    for name in ("cartan_matrix", "fundamental_weights", "rho", "dual_basis",
                 "highest_root", "killing_scale"):
        assert getattr(R, name) == getattr(ref, name), name
    assert root_system_to_json(R) == root_system_to_json(ref)


@pytest.mark.parametrize("kind,rank", REFERENCE_KINDS)
def test_int_root_rows_match_the_epsilon_pairings(kind, rank):
    R = build_root_system(kind, rank)
    rows = zip(R.positive_roots, R.root_alpha, R.root_fw, R.root_coroot)
    for beta, alpha, fw, coroot in rows:
        assert alpha == alpha_coords(R, beta)
        assert fw == fw_coords(R, beta)
        assert coroot == tuple(
            R.coroot_pairing(omega, beta) for omega in R.fundamental_weights
        )
        assert all(type(x) is int for x in alpha + fw + coroot)
        assert root_index(R, beta) == root_index(R, vscale(-1, beta))
        assert R.positive_roots[root_index(R, beta)] == beta
    fws = R.fundamental_weights
    assert R.weight_gram == integer_multiple([[dot(u, v) for v in fws] for u in fws])[1]
    assert root_index(R, tuple(Fraction(0) for _ in range(R.ambient_dim))) is None


def test_c12_builds_on_ints():
    R = build_root_system("C", 12)
    assert len(R.positive_roots) == 144
    assert R.root_alpha[-1] == (2,) * 11 + (1,)


def test_positive_root_order_deterministic():
    R1 = build_root_system("F4", 4)
    R2 = build_root_system("F4", 4)
    assert R1.positive_roots == R2.positive_roots
    heights = [sum(alpha_coords(R1, b)) for b in R1.positive_roots]
    assert heights == sorted(heights)


@given(st.lists(st.integers(-5, 5), min_size=3, max_size=3))
def test_fw_roundtrip_c3(coords):
    R = build_root_system("C", 3)
    v = R.from_fw(tuple(Fraction(c) for c in coords))
    assert fw_coords(R, v) == tuple(Fraction(c) for c in coords)


@given(
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4),
             min_size=2, max_size=2),
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4),
             min_size=2, max_size=2),
)
@settings(max_examples=50)
def test_killing_symmetry_g2(u, v):
    R = build_root_system("G2", 2)
    a = R.from_fw(tuple(u))
    b = R.from_fw(tuple(v))
    assert R.killing(a, b) == R.killing(b, a)


# -- embeddings --------------------------------------------------------------


def sub_gram_matches(E: SubsystemEmbedding):
    amb, sub = E.ambient, E.sub
    imgs = epsilon_views(E).simple_images
    # single positive global scalar between the two Gram matrices
    scale = None
    for i in range(sub.rank):
        for j in range(sub.rank):
            lhs = amb.killing(imgs[i], imgs[j])
            rhs = sub.killing(sub.simple_roots[i], sub.simple_roots[j])
            if rhs == 0:
                assert lhs == 0
                continue
            ratio = lhs / rhs
            if scale is None:
                scale = ratio
            assert ratio == scale
    assert scale is not None and scale > 0
    return scale


def test_c_in_c_images():
    E = build_embedding("c-in-c", r=3, s=2)
    assert epsilon_views(E).image_alpha[:2] == ((1, 0, 0), (0, 2, 1))
    assert sub_gram_matches(E) == 1


def test_c_in_c_general_rule():
    E = build_embedding("c-in-c", r=5, s=3)
    # beta_s = 2 alpha_s + ... + 2 alpha_{r-1} + alpha_r
    assert epsilon_views(E).image_alpha[2] == (0, 0, 2, 2, 1)
    assert sub_gram_matches(E) == 1


def test_sl2_in_g2_image():
    E = build_embedding("sl2-in-g2")
    assert epsilon_views(E).image_alpha == ((3, 2),)
    assert sub_gram_matches(E) == 1


def test_g2_in_f4_stages():
    E = build_embedding("g2-in-f4")
    assert E.ambient.kind == "F4" and E.sub.kind == "G2"
    # composite of F4 > B4 > D4 > G2: triality folds the three outer nodes
    # of D4, the first of which starts the B4 stage at a2+2a3+2a4, and
    # fixes the center a1, which each outer node meets in a single bond
    outer, (center,) = epsilon_views(E).orbits
    assert [alpha_coords(E.ambient, v) for v in outer] == [
        (0, 1, 2, 2), (0, 1, 0, 0), (0, 1, 2, 0)]
    assert alpha_coords(E.ambient, center) == (1, 0, 0, 0)
    for v in outer:
        assert E.ambient.coroot_pairing(v, center) == E.ambient.coroot_pairing(center, v) == -1
    assert sub_gram_matches(E) == 1


def test_b_in_b_images():
    E = build_embedding("b-in-b", r=3, s=2)
    assert E.ambient.kind == "B" and E.sub.rank == 2
    sub_gram_matches(E)


def test_embedding_images_are_roots():
    for case, params in [
        ("c-in-c", {"r": 4, "s": 2}),
        ("b-in-b", {"r": 4, "s": 3}),
        ("d-chain", {"r": 4}),
        ("sl2-in-g2", {}),
        ("g2-in-f4", {}),
    ]:
        E = build_embedding(case, **params)
        # folded images are orbit averages; every orbit member is a root,
        # and a singleton orbit means the image itself is one
        views = epsilon_views(E)
        for beta, orbit in zip(views.simple_images, views.orbits):
            for member in orbit:
                assert is_positive_root(E.ambient, member)
            if len(orbit) == 1:
                assert is_positive_root(E.ambient, beta)


def test_root_systems_are_shared_objects():
    # WeylElement and the lru_caches compare root systems by identity
    R = build_root_system("C", 4)
    assert build_root_system("C", 4) is R
    assert build_embedding("c-in-c", r=4, s=3).ambient is R


def test_embedding_bad_params():
    with pytest.raises(ConfigurationError):
        build_embedding("c-in-c", r=3, s=3)
    with pytest.raises(ConfigurationError):
        build_embedding("no-such-case")


@pytest.mark.parametrize("case,params,missing", [
    ("c-in-c", {"r": 3}, "s"),
    ("b-in-b", {"s": 1}, "r"),
    ("d-chain", {}, "r"),
])
def test_missing_embedding_parameter_is_a_configuration_error(case, params, missing):
    with pytest.raises(ConfigurationError, match=f"parameter {missing}$"):
        build_embedding(case, **params)


def test_embeddings_are_cached_and_bad_calls_raise_every_time():
    E = build_embedding("c-in-c", r=4, s=2)
    assert build_embedding("c-in-c", r=4, s=2) is E
    assert build_embedding("g2-in-f4") is build_embedding("g2-in-f4")
    # identity, not value, equality: no hash over Fraction tuples
    assert replace(E) != E
    assert type(E).__hash__ is object.__hash__
    for _ in range(2):
        with pytest.raises(ConfigurationError):
            build_embedding("c-in-c", r=3, s=3)
        with pytest.raises(ConfigurationError):
            build_embedding("c-in-c", r=3)


@pytest.mark.parametrize("orbits,sub,needle", [
    ([((3, 0, 0),)], ("A", 1), "not an ambient positive root"),
    ([((1, 0, 0), (0, 1, 0))], ("A", 1), "not orthogonal"),
    ([((1, 0, 0),), ((0, 1, 0),)], ("C", 2), "Cartan integers"),
])
def test_embedding_checks_reject_bad_orbits(orbits, sub, needle):
    # orbit rows over the simple roots of C3
    with pytest.raises(ConfigurationError, match=needle):
        _make_embedding("bad", build_root_system("C", 3), build_root_system(*sub),
                        orbits, [])


def test_one_cache_entry_per_embedding():
    _build_embedding.cache_clear()
    E = build_embedding("c-in-c", r=3, s=2)
    assert build_embedding("c-in-c", s=2, r=3) is E
    assert build_embedding("c-in-c", 3, 2) is E
    info = _build_embedding.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)
    # case names are exact
    with pytest.raises(ConfigurationError, match="unknown embedding case 'C-IN-C'"):
        build_embedding("C-IN-C", r=3, s=2)
    assert _build_embedding.cache_info().currsize == 1


def _eps(n, i, coeff=1):
    return tuple(Fraction(coeff) if j == i - 1 else Fraction(0) for j in range(n))


def reference_embedding(case, r=None, s=None):
    """The epsilon-coordinate construction the int embeddings replaced: orbit
    members as epsilon vectors, images as their averages, Cartan integers
    and the Gram scale from Euclidean dot products and the Killing form, and the
    generator images, restriction and section through epsilon pairings."""
    if case in ("c-in-c", "b-in-b"):
        kind = case[0].upper()
        amb, sub = build_root_system(kind, r), build_root_system(kind, s)
        top = _eps(r, s, 2) if kind == "C" else _eps(r, s)
        orbits = [(amb.simple_roots[i],) for i in range(s - 1)] + [(top,)]
        pmap = [(k, k) for k in range(1, s + 1)]
    elif case == "d-chain":
        amb, sub = build_root_system("D", r), build_root_system("B", r - 2)
        lo, hi = _eps(r, r - 2), _eps(r, r)
        orbits = [(amb.simple_roots[i],) for i in range(r - 3)]
        orbits.append((vadd(lo, vscale(-1, hi)), vadd(lo, hi)))
        pmap = [(k, k) for k in range(1, r - 1)]
    elif case == "sl2-in-g2":
        amb, sub = build_root_system("G2", 2), build_root_system("A", 1)
        orbits, pmap = [(amb.highest_root,)], [(1, 2)]
    else:
        amb, sub = build_root_system("F4", 4), build_root_system("G2", 2)
        a = amb.simple_roots
        b4 = (vadd(a[1], vadd(vscale(2, a[2]), vscale(2, a[3]))), a[0], a[1], a[2])
        d4 = (b4[0], b4[1], b4[2], vadd(b4[2], vscale(2, b4[3])))
        orbits, pmap = [(d4[0], d4[2], d4[3]), (d4[1],)], [(1, 4), (2, 1)]
    images = tuple(vscale(Fraction(1, len(o)), reduce(vadd, o)) for o in orbits)
    for i, bi in enumerate(images):
        for j, bj in enumerate(images):
            assert 2 * dot(bi, bj) / dot(bj, bj) == sub.cartan_matrix[i][j]
    (scale,) = {
        amb.killing(bi, bj) / sub.killing(ai, aj)
        for bi, ai in zip(images, sub.simple_roots)
        for bj, aj in zip(images, sub.simple_roots)
        if sub.killing(ai, aj) != 0
    }

    def reflection_matrix(beta):
        fw = fw_coords(amb, beta)
        cvee = [amb.coroot_pairing(w, beta) for w in amb.fundamental_weights]
        n = amb.rank
        return tuple(
            tuple(int(j == i) - fw[j] * cvee[i] for i in range(n)) for j in range(n)
        )

    def generator(orbit):
        matrices = [reflection_matrix(beta) for beta in orbit]
        g = reduce(lambda x, y: x * y, (WeylElement(amb, m) for m in matrices))
        return g.matrix

    def restrict(lam):
        v = ambient(lam)
        return tuple(amb.coroot_pairing(v, b) for b in images)

    def section(mu):
        acoords = alpha_coords(sub, ambient(mu))
        v = reduce(vadd, (vscale(c, b) for c, b in zip(acoords, images)))
        return fw_coords(amb, v)

    return SimpleNamespace(
        orbits=tuple(tuple(o) for o in orbits),
        simple_images=images,
        image_alpha=tuple(alpha_coords(amb, b) for b in images),
        gram_scale=scale,
        parabolic_map=tuple(pmap),
        generators=tuple(generator(o) for o in orbits),
        restrict=restrict,
        section=section,
    )


EMBEDDING_CASES = [
    (case, r, s) for case in ("c-in-c", "b-in-b") for r in range(2, 7) for s in range(1, r)
] + [("d-chain", r, None) for r in range(3, 8)] + [
    ("sl2-in-g2", None, None), ("g2-in-f4", None, None),
]


@pytest.mark.parametrize("case,r,s", EMBEDDING_CASES)
def test_int_embedding_matches_the_epsilon_construction(case, r, s):
    E = build_embedding(case, r=r, s=s)
    ref = reference_embedding(case, r, s)
    views = epsilon_views(E)
    assert views.orbits == ref.orbits
    assert views.simple_images == ref.simple_images
    assert views.image_alpha == ref.image_alpha
    assert E.parabolic_map == ref.parabolic_map
    assert tuple(g.matrix for g in _generator_images(E)) == ref.generators
    for coords in product(range(3), repeat=E.ambient.rank):
        lam = Weight(E.ambient, coords)
        assert restrict_weight_via_embedding(E, lam).coords == ref.restrict(lam)
    if ref.gram_scale == 1:
        for coords in product(range(3), repeat=E.sub.rank):
            mu = Weight(E.sub, coords)
            assert embed_weight(E, mu).coords == ref.section(mu)


def test_restrict_c_in_c():
    E = build_embedding("c-in-c", r=3, s=2)
    lam = Weight(E.ambient, (Fraction(1), Fraction(2), Fraction(5)))
    res = restrict_weight_via_embedding(E, lam)
    # a_1 nu_1 + (a_2 + a_3) nu_2
    assert res.coords == (Fraction(1), Fraction(7))


def test_restrict_sl2_in_g2():
    E = build_embedding("sl2-in-g2")
    lam = Weight(E.ambient, (Fraction(0), Fraction(4)))
    res = restrict_weight_via_embedding(E, lam)
    assert res.coords == (Fraction(8),)


def test_restrict_g2_in_f4():
    E = build_embedding("g2-in-f4")
    lam = Weight(E.ambient, (Fraction(2), Fraction(5), Fraction(0), Fraction(0)))
    res = restrict_weight_via_embedding(E, lam)
    # a omega_1 + b omega_2 -> 3b nu_1 + a nu_2
    assert res.coords == (Fraction(15), Fraction(2))


def test_restrict_linear():
    E = build_embedding("c-in-c", r=4, s=2)
    u = Weight(E.ambient, (Fraction(1), Fraction(0), Fraction(2), Fraction(1)))
    v = Weight(E.ambient, (Fraction(0), Fraction(3), Fraction(1), Fraction(0)))
    lhs = restrict_weight_via_embedding(E, 2 * u + 3 * v)
    rhs = (2 * restrict_weight_via_embedding(E, u)
           + 3 * restrict_weight_via_embedding(E, v))
    assert lhs.coords == rhs.coords


def test_embed_then_restrict_is_identity():
    E = build_embedding("c-in-c", r=3, s=2)
    mu = Weight(E.sub, (Fraction(2), Fraction(3)))
    assert restrict_weight_via_embedding(E, embed_weight(E, mu)).coords == mu.coords


@pytest.mark.parametrize("case,r,s", EMBEDDING_CASES)
def test_restrict_after_embed_is_identity(case, r, s):
    # the images reproduce the sub's Cartan integers, so embed_weight is a
    # section of the restriction in conformal cases that are not isometric too
    E = build_embedding(case, r=r, s=s)
    for coords in product(range(3), repeat=E.sub.rank):
        mu = Weight(E.sub, coords)
        assert restrict_weight_via_embedding(E, embed_weight(E, mu)).coords == coords


@pytest.mark.parametrize("case,params,unread", [
    ("sl2-in-g2", {"r": 5, "s": 9}, "r"),
    ("sl2-in-g2", {"s": 9}, "s"),
    ("g2-in-f4", {"r": 4}, "r"),
    ("d-chain", {"r": 5, "s": 2}, "s"),
])
def test_unread_embedding_parameter_is_a_configuration_error(case, params, unread):
    _build_embedding.cache_clear()
    with pytest.raises(ConfigurationError, match=f"does not read the parameter {unread}$"):
        build_embedding(case, **params)
    assert _build_embedding.cache_info().currsize == 0


def test_weight_dominance_predicate():
    R = build_root_system("B", 2)
    assert Weight(R, (Fraction(0), Fraction(2))).is_dominant()
    assert not Weight(R, (Fraction(-1), Fraction(2))).is_dominant()
    with pytest.raises(UsageError):
        Weight(R, (Fraction(1),))


def test_json_serialization_roundtrips_values():
    R = build_root_system("C", 3)
    doc = root_system_to_json(R)
    assert (doc["kind"], doc["rank"]) == ("C", 3)
    assert len(doc["positive_roots"]) == 9
    assert json.loads(json.dumps(doc)) == doc
