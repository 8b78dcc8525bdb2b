"""Weyl group generation, coset representatives, duals, and embeddings."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigencones import weyl
from eigencones.errors import ResourceCapError, UsageError, VerificationError
from eigencones.rootsys import build_embedding, build_root_system
from eigencones.schubert import flag_variety, graded_counts
from eigencones.weyl import (
    ParabolicSpec,
    WeylElement,
    _canonical_word,
    coset_images,
    coset_table,
    dual_rep,
    embed_element,
    generate_weyl_group,
    identity,
    longest_element,
    minimal_coset_reps,
    minimal_rep,
    orbit_walk,
    parabolic_walk,
    verify_dual_commutes,
    word_str,
    word_to_element,
)

from epsilon import alpha_coords, apply_eps, fw_coords, is_positive_root


# -- the descent definition of W^P, the reference for the orbit table ---------


def levi_simple(P):
    return tuple(i for i in range(1, P.root_system.rank + 1) if i != P.excluded)


def is_minimal_rep(w, P):
    """w is in W^P: it sends every Levi simple root to a positive root."""
    return all(w.sends_positive(j) for j in levi_simple(P))


def descent_walk(w, P):
    """The minimal representative of w W_P by stripping Levi right descents."""
    while True:
        for j in levi_simple(P):
            if not w.sends_positive(j):
                w = w._times_simple(j)
                break
        else:
            return w


def poincare_counts(elements):
    """Length generating function as a coefficient list."""
    counts = {}
    for w in elements:
        counts[w.length] = counts.get(w.length, 0) + 1
    return [counts.get(l, 0) for l in range(max(counts) + 1)]


def check_embedding_homomorphism(E, elements=None):
    """embed is multiplicative on the sub Weyl group (spot or full check)."""
    if elements is None:
        elements = generate_weyl_group(E.sub)
    elements = list(elements)
    for a in elements:
        for b in elements:
            if embed_element(E, a) * embed_element(E, b) != embed_element(E, a * b):
                raise VerificationError(
                    f"{E.case}: embedding is not a homomorphism at {word_str(a)},{word_str(b)}"
                )
    return True


GROUP_ORDERS = {
    ("A", 1): 2,
    ("A", 2): 6,
    ("B", 2): 8,
    ("C", 2): 8,
    ("C", 3): 48,
    ("D", 4): 192,
    ("G2", 2): 12,
    ("F4", 4): 1152,
}


@pytest.mark.parametrize("kind,rank", sorted(GROUP_ORDERS))
def test_group_order(kind, rank):
    R = build_root_system(kind, rank)
    assert len(generate_weyl_group(R)) == GROUP_ORDERS[(kind, rank)]


def test_group_cap(monkeypatch):
    # the uncached closure, so an F4 group cached by another test is no answer
    monkeypatch.setattr(weyl, "WEYL_SIZE_CAP", 100)
    R = build_root_system("F4", 4)
    with pytest.raises(ResourceCapError, match="exceeds the size cap 100"):
        generate_weyl_group.__wrapped__(R)


def matrix_bfs(R):
    """{matrix: length} of the full group by closure under right products with
    the simple reflections: the reference for the walk of rho."""
    refl = [word_to_element(R, [i]).matrix for i in range(1, R.rank + 1)]
    seen = {identity(R).matrix: 0}
    frontier = list(seen)
    while frontier:
        new = []
        for m in frontier:
            for s in refl:
                p = tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in zip(*s))
                          for row in m)
                if p not in seen:
                    seen[p] = seen[m] + 1
                    new.append(p)
        frontier = new
    return seen


WALK_GROUPS = [(kind, rank) for kind, ranks in (("A", (1, 2, 3, 4)), ("B", (1, 2, 3, 4)),
                                                ("C", (1, 2, 3, 4)), ("D", (3, 4)))
               for rank in ranks] + [("G2", 2), ("F4", 4)]


@pytest.mark.parametrize("kind,rank", WALK_GROUPS)
def test_group_is_the_matrix_closure(kind, rank):
    R = build_root_system(kind, rank)
    assert {w.matrix: w.length for w in generate_weyl_group(R)} == matrix_bfs(R)


@pytest.mark.parametrize("kind,rank", WALK_GROUPS)
def test_walk_lengths_are_element_lengths(kind, rank):
    # the element reaching each point of the walk of rho, from its matrix alone
    R = build_root_system(kind, rank)
    walk = orbit_walk(R.cartan_matrix, (1,) * rank)
    for w in generate_weyl_group(R):
        fresh = WeylElement(R, w.matrix)
        assert walk[fresh.apply_fw((1,) * rank)][0] == fresh.length
    for p in range(1, rank + 1):
        walk = parabolic_walk(R, p)
        for w in minimal_coset_reps(R, ParabolicSpec(R, p)):
            point = tuple(row[p - 1] for row in w.matrix)
            assert walk[point][0] == WeylElement(R, w.matrix).length


def test_walk_parents_are_simple_reflections():
    R = build_root_system("F4", 4)
    walk = orbit_walk(R.cartan_matrix, (2, 0, 1, 0))
    for point, (length, parent, i) in walk.items():
        if parent is None:
            assert (point, length) == ((2, 0, 1, 0), 0)
            continue
        assert walk[parent][0] == length - 1 and parent[i] > 0
        assert point == word_to_element(R, [i + 1]).apply_fw(parent)


GRADED_CASES = [(kind, rank, p) for kind, rank in WALK_GROUPS + [
    ("A", 5), ("B", 5), ("C", 5), ("D", 5)] for p in range(1, rank + 1)]


@pytest.mark.parametrize("kind,rank,p", GRADED_CASES)
def test_graded_counts_are_the_graded_pieces(kind, rank, p):
    R = build_root_system(kind, rank)
    F = flag_variety(R, p)
    assert graded_counts(R, p) == tuple(len(F.by_codim[c]) for c in range(F.dim + 1))


def test_a1_group():
    R = build_root_system("A", 1)
    elements = generate_weyl_group(R)
    assert {w.word for w in elements} == {(), (1,)}


@pytest.mark.parametrize("kind,rank", sorted(GROUP_ORDERS))
def test_longest_element_length(kind, rank):
    R = build_root_system(kind, rank)
    w0 = longest_element(R)
    assert w0.length == len(R.positive_roots)
    assert w0 * w0 == identity(R)


def test_word_reconstruction():
    # the stored word reproduces the action when replayed
    R = build_root_system("F4", 4)
    w = word_to_element(R, "2324321")
    replay = identity(R)
    for i in w.word:
        replay = replay * word_to_element(R, [i])
    assert replay == w
    assert w.length == 7


def test_length_counts_inversions():
    R = build_root_system("G2", 2)
    for w in generate_weyl_group(R):
        inversions = sum(
            1 for beta in R.positive_roots
            if not is_positive_root(R, apply_eps(w, beta))
        )
        assert inversions == w.length


def _reference_length(w):
    # Fraction route from the action matrix alone: w(beta) is negative when
    # its simple-root coordinates are
    R = w.root_system
    return sum(
        1 for beta in R.positive_roots
        if any(c < 0 for c in alpha_coords(R, R.from_fw(w.apply_fw(fw_coords(R, beta)))))
    )


def _reflect_along(R, word, v):
    # w(v) for w = s_i1 ... s_ik, by Euclidean reflections in the simple roots
    for i in reversed(word):
        a = R.simple_roots[i - 1]
        c = R.coroot_pairing(v, a)
        v = tuple(x - c * y for x, y in zip(v, a))
    return v


@pytest.mark.parametrize("kind,rank,p", [("G2", 2, None), ("B", 3, None), ("F4", 4, 1)])
def test_integer_kernel_matches_fraction_reference(kind, rank, p):
    R = build_root_system(kind, rank)
    if p is None:
        elements = generate_weyl_group(R)
    else:
        elements = minimal_coset_reps(R, ParabolicSpec(R, p))
    probes = [R.rho, R.highest_root, *R.simple_roots, *R.fundamental_weights,
              tuple(Fraction(i + 1, 3) for i in range(R.ambient_dim))]
    probes = [R.from_fw(fw_coords(R, v)) for v in probes]  # into the root span
    for w in elements:
        fresh = word_to_element(R, w.word)  # length not handed down by the BFS
        assert fresh.length == w.length == _reference_length(w)
        assert w * w.inverse() == identity(R)
        assert w.inverse() * w == identity(R)
        for v in probes:
            assert apply_eps(w, v) == _reflect_along(R, w.word, v)


def test_canonical_word_rejects_a_non_weyl_matrix():
    # the last three keep the height row of an element of W (A2's diagram
    # flip, A2's -I, D4's swap of nodes 3 and 4), so a descent walk that
    # stepped only the height row would return a word for them
    for kind, rank, matrix in [
        ("C", 2, ((2, 0), (0, 1))),
        ("A", 2, ((0, 1), (1, 0))),
        ("A", 2, ((-1, 0), (0, -1))),
        ("D", 4, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))),
    ]:
        with pytest.raises(VerificationError):
            _canonical_word(build_root_system(kind, rank), matrix)


def reference_word(w):
    """The canonical word by full matrix products: strip the smallest right
    descent until the identity is left."""
    R, word = w.root_system, []
    while w != identity(R):
        i = next(i for i in range(1, R.rank + 1) if not w.sends_positive(i))
        word.append(i)
        w = w * word_to_element(R, [i])
    return tuple(reversed(word))


@pytest.mark.parametrize("kind,rank", [("C", 5), ("F4", 4)])
def test_words_match_the_full_product_reference(kind, rank):
    R = build_root_system(kind, rank)
    for p in range(1, rank + 1):
        P = ParabolicSpec(R, p)
        for w in minimal_coset_reps(R, P):
            assert w.word == reference_word(w)
            u = word_to_element(R, w.word)
            full = identity(R)
            for i in w.word:
                full = full * word_to_element(R, [i])
            assert u == full == w
            # the height row stepped along the word is the one computed afresh
            assert u._height_row() == full._height_row()
            for j in levi_simple(P):
                assert minimal_rep(w * word_to_element(R, [j]), P) == w


def test_word_letters_check_the_index():
    R = build_root_system("C", 3)
    for word in ("0", "4", "120", [1, 0]):
        with pytest.raises(UsageError, match="out of range"):
            word_to_element(R, word)


def test_sends_positive_checks_the_index():
    R = build_root_system("C", 3)
    w = word_to_element(R, [3])
    assert [w.sends_positive(i) for i in (1, 2, 3)] == [True, True, False]
    for i in (0, R.rank + 1):
        with pytest.raises(UsageError):
            w.sends_positive(i)


def test_word_str_digit_format():
    R = build_root_system("C", 3)
    w = word_to_element(R, "121")
    assert word_str(w) == "121"
    assert word_str(identity(R)) == "e"
    assert word_to_element(R, "e") == identity(R)


def test_g2_q1_cosets():
    R = build_root_system("G2", 2)
    reps = minimal_coset_reps(R, ParabolicSpec(R, 1))
    assert [word_str(w) for w in reps] == ["e", "1", "21", "121", "2121", "12121"]


def test_f4_p1_contains_table_words():
    R = build_root_system("F4", 4)
    words = {word_str(w) for w in minimal_coset_reps(R, ParabolicSpec(R, 1))}
    # element-level membership: canonical words of the same elements
    targets = [
        word_to_element(R, "2324321"),
        word_to_element(R, "123214321324321"),
    ]
    for t in targets:
        assert word_str(t) in words


def test_coset_sizes_and_poincare():
    for kind, rank in [("C", 3), ("B", 3), ("G2", 2), ("F4", 4)]:
        R = build_root_system(kind, rank)
        W = generate_weyl_group(R)
        for p in range(1, rank + 1):
            P = ParabolicSpec(R, p)
            reps = minimal_coset_reps(R, P)
            # w lies in W_P iff it fixes omega_P
            unit = tuple(1 if i == p - 1 else 0 for i in range(rank))
            levi_count = sum(1 for w in W if w.apply_fw(unit) == unit)
            assert len(reps) * levi_count == len(W)
            counts = poincare_counts(reps)
            assert sum(counts) == len(reps)
            assert counts[0] == 1 and counts[-1] == 1
            # palindromic length generating function (Poincare duality of W^P)
            assert counts == counts[::-1]


def test_minimal_rep_idempotent_and_criterion():
    R = build_root_system("C", 3)
    P = ParabolicSpec(R, 2)
    for w in generate_weyl_group(R):
        m = minimal_rep(w, P)
        assert minimal_rep(m, P) == m
        assert is_minimal_rep(m, P)
        # minimality criterion: m(alpha) > 0 for every Levi simple root
        for i in levi_simple(P):
            assert is_positive_root(R, apply_eps(m, R.simple_roots[i - 1]))


def test_dual_rep_involution():
    for kind, rank, p in [("G2", 2, 1), ("G2", 2, 2), ("C", 3, 2), ("F4", 4, 4)]:
        R = build_root_system(kind, rank)
        P = ParabolicSpec(R, p)
        reps = minimal_coset_reps(R, P)
        top = max(w.length for w in reps)
        for w in reps:
            d = dual_rep(w, P)
            assert d in set(reps)
            assert w.length + d.length == top
            assert dual_rep(d, P) == w


def test_dual_examples():
    G2 = build_root_system("G2", 2)
    Q1 = ParabolicSpec(G2, 1)
    assert word_str(dual_rep(word_to_element(G2, "1"), Q1)) == "2121"
    F4 = build_root_system("F4", 4)
    P4 = ParabolicSpec(F4, 4)
    lhs = dual_rep(word_to_element(F4, "43234"), P4)
    assert lhs == word_to_element(F4, "1232143234")


def test_dual_of_identity_is_top():
    R = build_root_system("C", 3)
    P = ParabolicSpec(R, 1)
    reps = minimal_coset_reps(R, P)
    top = max(reps, key=lambda w: w.length)
    assert dual_rep(identity(R), P) == top


def test_dual_rejects_non_minimal():
    R = build_root_system("C", 2)
    P = ParabolicSpec(R, 1)
    w0 = longest_element(R)
    if not is_minimal_rep(w0, P):
        with pytest.raises(UsageError):
            dual_rep(w0, P)


ORBIT_CASES = [
    (kind, rank, p)
    for kind, ranks in (("A", (1, 2, 3, 4)), ("B", (2, 3, 4)), ("C", (2, 3, 4)),
                        ("D", (4,)), ("G2", (2,)), ("F4", (4,)))
    for rank in ranks
    for p in range(1, rank + 1)
]


@pytest.mark.parametrize("kind,rank,p", ORBIT_CASES)
def test_orbit_table_matches_the_descent_definition(kind, rank, p):
    R = build_root_system(kind, rank)
    P = ParabolicSpec(R, p)
    W = generate_weyl_group(R)
    reps = minimal_coset_reps(R, P)
    assert len(set(reps)) == len(reps)
    assert set(reps) == {w for w in W if is_minimal_rep(w, P)}
    w0 = longest_element(R)
    for w in reps:
        # the length the BFS stored is the one computed afresh
        assert w.length == WeylElement(R, w.matrix).length
        assert dual_rep(w, P) == descent_walk(w0 * w, P)
    for w in W:
        assert minimal_rep(w, P) == descent_walk(w, P)


def test_a_parabolic_of_another_root_system_is_refused():
    C3, B3 = build_root_system("C", 3), build_root_system("B", 3)
    w, P = word_to_element(C3, "2"), ParabolicSpec(B3, 2)
    with pytest.raises(UsageError, match="not a parabolic of C3"):
        minimal_rep(w, P)
    with pytest.raises(UsageError, match="not a parabolic of C3"):
        dual_rep(w, P)
    E = build_embedding("c-in-c", r=3, s=2)
    with pytest.raises(UsageError, match="not a parabolic of C3"):
        embed_element(E, word_to_element(E.sub, "1"),
                      minimize_into=ParabolicSpec(E.sub, 1))


@given(st.lists(st.integers(1, 4), max_size=8), st.lists(st.integers(1, 4), max_size=8))
@settings(max_examples=60, deadline=None)
def test_inverse_and_products_f4(wa, wb):
    R = build_root_system("F4", 4)
    a = word_to_element(R, "".join(map(str, wa)) or "e")
    b = word_to_element(R, "".join(map(str, wb)) or "e")
    assert (a * b).inverse() == b.inverse() * a.inverse()
    assert a.inverse().length == a.length


# -- embeddings --------------------------------------------------------------


def test_sl2_in_g2_big_cell():
    E = build_embedding("sl2-in-g2")
    s = word_to_element(E.sub, [1])
    img = embed_element(E, s)
    assert img == word_to_element(E.ambient, "21212")


def test_g2_in_f4_table_images():
    E = build_embedding("g2-in-f4")
    G2, F4 = E.sub, E.ambient
    P4 = ParabolicSpec(F4, E.matched_parabolic(1))
    P1 = ParabolicSpec(F4, E.matched_parabolic(2))
    w = word_to_element(G2, "1")
    assert embed_element(E, w, minimize_into=P4) == word_to_element(F4, "43234")
    w = word_to_element(G2, "212")
    assert embed_element(E, w, minimize_into=P1) == word_to_element(F4, "12324321")


def test_embedding_homomorphism_g2_in_f4():
    E = build_embedding("g2-in-f4")
    assert check_embedding_homomorphism(E)


def test_embedding_homomorphism_c_in_c():
    for r, s in [(3, 2), (4, 2)]:
        E = build_embedding("c-in-c", r=r, s=s)
        assert check_embedding_homomorphism(E)
    # rank-3 sub has 48 elements; spot-check the shortest dozen
    E = build_embedding("c-in-c", r=4, s=3)
    sample = sorted(generate_weyl_group(E.sub), key=lambda w: (w.length, w.word))
    assert check_embedding_homomorphism(E, sample[:12])


def test_embedded_minimal_reps_stay_minimal():
    # images of W_M^Q minimal reps land in W^P after minimization, and the
    # lengths shift by a constant on each graded piece boundary check
    E = build_embedding("c-in-c", r=3, s=2)
    Q = ParabolicSpec(E.sub, 1)
    P = ParabolicSpec(E.ambient, E.matched_parabolic(1))
    for w in minimal_coset_reps(E.sub, Q):
        img = embed_element(E, w, minimize_into=P)
        assert is_minimal_rep(img, P)


def test_dual_commutes_g2_in_f4():
    E = build_embedding("g2-in-f4")
    for q in (1, 2):
        report = verify_dual_commutes(E, q)
        assert report["all_commute"]
        assert len(report["rows"]) == 6


@pytest.mark.parametrize("q", [1, 2])
def test_dual_commutes_rows_match_the_coset_images(q):
    # one builder feeds the report: each row's embed(dual_Q w) is the image
    # of the row whose w is dual_Q w, which a second embedding reproduces
    E = build_embedding("g2-in-f4")
    Q = ParabolicSpec(E.sub, q)
    P, rows = coset_images(E, q)
    assert P == ParabolicSpec(E.ambient, E.matched_parabolic(q))
    assert [w for w, *_ in rows] == list(minimal_coset_reps(E.sub, Q))
    expected = []
    for w, dual, img, img_dual in rows:
        assert dual == dual_rep(w, Q)
        assert img == embed_element(E, w, minimize_into=P)
        assert img_dual == dual_rep(img, P)
        lhs = embed_element(E, dual, minimize_into=P)
        expected.append({"w": word_str(w), "embed_dual": word_str(lhs),
                         "dual_embed": word_str(img_dual), "commutes": lhs == img_dual})
    assert verify_dual_commutes(E, q)["rows"] == expected


def test_embed_wrong_root_system():
    E = build_embedding("c-in-c", r=3, s=2)
    other = build_root_system("B", 2)
    with pytest.raises(UsageError):
        embed_element(E, identity(other))


def test_coset_table_layout():
    R = build_root_system("G2", 2)
    rows = coset_table(R, ParabolicSpec(R, 2))
    assert rows[0] == {"word": "e", "length": 0, "dual": "21212"}
    assert {r["word"] for r in rows} == {"e", "2", "12", "212", "1212", "21212"}
