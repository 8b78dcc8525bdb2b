"""Root system construction, Killing normalization, and embeddings."""

from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigencones.errors import ConfigurationError, UsageError
from eigencones.linalg import dot, integer_multiple, mat_inv, vadd, vscale
from eigencones.rootsys import (
    SubsystemEmbedding,
    Weight,
    _simple_root_vectors,
    build_embedding,
    build_root_system,
    dumps,
    embed_weight,
    embedding_to_json,
    killing_pairing,
    restrict_weight_via_embedding,
    root_system_to_json,
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
        coords = R.alpha_coords(beta)
        assert all(c >= 0 and c.denominator == 1 for c in coords)


def test_c3_theta():
    R = build_root_system("C", 3)
    assert len(R.positive_roots) == 9
    assert R.alpha_coords(R.highest_root) == (2, 2, 1)


def test_g2_theta():
    R = build_root_system("G2", 2)
    assert len(R.positive_roots) == 6
    assert R.alpha_coords(R.highest_root) == (3, 2)


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
    assert dumps(root_system_to_json(R)) == dumps(root_system_to_json(ref))


@pytest.mark.parametrize("kind,rank", REFERENCE_KINDS)
def test_int_root_rows_match_the_epsilon_pairings(kind, rank):
    R = build_root_system(kind, rank)
    rows = zip(R.positive_roots, R.root_alpha, R.root_fw, R.root_coroot)
    for beta, alpha, fw, coroot in rows:
        assert alpha == R.alpha_coords(beta)
        assert fw == R.fw_coords(beta)
        assert coroot == tuple(
            R.coroot_pairing(omega, beta) for omega in R.fundamental_weights
        )
        assert all(type(x) is int for x in alpha + fw + coroot)
        assert R.root_index(beta) == R.root_index(vscale(-1, beta))
        assert R.positive_roots[R.root_index(beta)] == beta
    fws = R.fundamental_weights
    assert R.weight_gram == integer_multiple([[dot(u, v) for v in fws] for u in fws])[1]
    assert R.root_index(tuple(Fraction(0) for _ in range(R.ambient_dim))) is None


def test_c12_builds_on_ints():
    R = build_root_system("C", 12)
    assert len(R.positive_roots) == 144
    assert R.root_alpha[-1] == (2,) * 11 + (1,)


def test_killing_pairing_dimension_mismatch():
    R = build_root_system("C", 2)
    with pytest.raises(UsageError):
        killing_pairing(R, (1, 0, 0), (0, 1))


def test_positive_root_order_deterministic():
    R1 = build_root_system("F4", 4)
    R2 = build_root_system("F4", 4)
    assert R1.positive_roots == R2.positive_roots
    heights = [sum(R1.alpha_coords(b)) for b in R1.positive_roots]
    assert heights == sorted(heights)


@given(st.lists(st.integers(-5, 5), min_size=3, max_size=3))
def test_fw_roundtrip_c3(coords):
    R = build_root_system("C", 3)
    v = R.from_fw(tuple(Fraction(c) for c in coords))
    assert R.fw_coords(v) == tuple(Fraction(c) for c in coords)


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
    imgs = E.simple_images
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
    assert E.image_alpha_coords(0) == (1, 0, 0)
    assert E.image_alpha_coords(1) == (0, 2, 1)
    assert sub_gram_matches(E) == 1


def test_c_in_c_general_rule():
    E = build_embedding("c-in-c", r=5, s=3)
    # beta_s = 2 alpha_s + ... + 2 alpha_{r-1} + alpha_r
    assert E.image_alpha_coords(2) == (0, 0, 2, 2, 1)
    assert sub_gram_matches(E) == 1


def test_sl2_in_g2_image():
    E = build_embedding("sl2-in-g2")
    assert E.image_alpha_coords(0) == (3, 2)
    assert sub_gram_matches(E) == 1


def test_g2_in_f4_stages():
    E = build_embedding("g2-in-f4")
    assert E.ambient.kind == "F4" and E.sub.kind == "G2"
    # composite of F4 > B4 > D4 > G2; the B4 stage starts at a2+2a3+2a4
    label, roots = E.stages[0]
    assert label == "B4"
    assert E.ambient.alpha_coords(roots[0]) == (0, 1, 2, 2)
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
        for beta, orbit in zip(E.simple_images, E.orbits):
            for member in orbit:
                assert E.ambient.is_positive_root(member)
            if len(orbit) == 1:
                assert E.ambient.is_positive_root(beta)


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
    ("identity", {"kind": "C"}, "rank"),
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
    assert isinstance(dumps(doc), str)
    E = build_embedding("sl2-in-g2")
    edoc = embedding_to_json(E)
    assert edoc["case"] == "sl2-in-g2"
    assert edoc["parabolic_map"]
