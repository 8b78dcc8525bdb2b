"""Index-set calculus, lifts, codimension jumps, orbit dimensions."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigencones import isogr
from eigencones.errors import UsageError, VerificationError
from eigencones.isogr import (
    IndexSet,
    bc_delta,
    bc_point_products_agree,
    bc_transfer,
    codim_jump,
    codim_jump_cross_check,
    dim_from_index,
    expected_dim_zero_check,
    ig_dim,
    index_dictionary_rows,
    lift_elements,
    lift_index,
    orbit_dims,
    orbit_table_rows,
    properness_identity,
    weyl_index_bijection,
)
from eigencones.rootsys import build_root_system
from eigencones.schubert import _graded_tuples, flag_variety, point_product_tuples
from eigencones.weyl import WeylElement, identity, word_str
from epsilon import apply_eps, chi_coefficient, chi_root_sum
from test_weyl import is_minimal_rep


def FC(r, k):
    return flag_variety(build_root_system("C", r), k)


def all_index_sets(k, r):
    out = []
    for elems in itertools.combinations(range(1, 2 * r + 1), k):
        if any(2 * r + 1 - i in elems for i in elems):
            continue
        out.append(IndexSet(elems, r))
    return out


def test_index_set_validation():
    with pytest.raises(UsageError):
        IndexSet((1, 6), 3)  # 1 + 6 = 7 = 2r + 1
    with pytest.raises(UsageError):
        IndexSet((0, 2), 3)
    with pytest.raises(UsageError):
        IndexSet((2, 2), 3)
    with pytest.raises(UsageError):
        IndexSet((1, 2, 3, 4), 3)  # k > r


def test_index_set_derived_sets():
    I = IndexSet((2, 4), 3)
    assert I.bar() == (3, 5)
    assert I.tilde() == (1, 6)
    assert I.count_le(2) == 1
    assert I.count_gt(3) == 1


def test_dim_examples():
    assert dim_from_index(IndexSet((5, 6), 3)) == 7
    assert dim_from_index(IndexSet((1, 2), 3)) == 0
    assert dim_from_index(IndexSet((2, 4), 2)) == 2


def test_ig_dim():
    assert ig_dim(2, 3) == 7
    assert ig_dim(1, 2) == 3
    assert ig_dim(3, 3) == 6  # Lagrangian Grassmannian LG(3,6)


@given(st.integers(2, 6), st.data())
@settings(max_examples=80)
def test_dim_parity_and_range(r, data):
    # |I > Ibar| + |I > r| is even for every valid index set
    k = data.draw(st.integers(1, r))
    pool = list(range(1, 2 * r + 1))
    elems = []
    for _ in range(k):
        choices = [
            i for i in pool
            if i not in elems and 2 * r + 1 - i not in elems
        ]
        elems.append(data.draw(st.sampled_from(choices)))
    I = IndexSet(tuple(elems), r)
    d = dim_from_index(I)  # raises if the half-sum is odd
    assert 0 <= d <= ig_dim(k, r)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_bijection_coherence(r):
    for k in range(1, r + 1):
        F = FC(r, k)
        to_index, from_index = weyl_index_bijection(F)
        assert len(to_index) == len(F.basis)
        e = identity(F.root_system)
        assert to_index[e].elems == tuple(range(1, k + 1))
        assert to_index[F.basis[-1]].elems == tuple(
            range(2 * r - k + 1, 2 * r + 1)
        )
        for w, I in to_index.items():
            assert dim_from_index(I) == w.length
            assert from_index[I] == w


def test_bijection_rejects_type_b():
    FB = flag_variety(build_root_system("B", 2), 1)
    with pytest.raises(UsageError):
        weyl_index_bijection(FB)


def test_lift_examples():
    assert lift_index(IndexSet((2, 4), 2), 3).elems == (2, 6)
    assert lift_index(IndexSet((1, 2), 2), 3).elems == (1, 2)
    assert lift_index(IndexSet((1, 4, 5), 3), 5).elems == (1, 8, 9)
    with pytest.raises(UsageError):
        lift_index(IndexSet((1, 2), 3), 3)


@pytest.mark.parametrize("r,s", [(3, 2), (4, 2), (4, 3), (5, 3)])
def test_lift_commutes_with_embedding(r, s):
    for k in range(1, s + 1):
        FM = FC(s, k)
        FG = FC(r, k)
        to_M, _ = weyl_index_bijection(FM)
        to_G, _ = weyl_index_bijection(FG)
        lifted = lift_elements(FM.basis, r, s, k)
        for w, img in zip(FM.basis, lifted):
            assert to_G[img] == lift_index(to_M[w], r)


def test_codim_jump_examples():
    assert codim_jump(IndexSet((2, 4), 2), 3, 2) == 2
    assert codim_jump(IndexSet((3, 4), 2), 4, 2) == 0  # all elements > s
    assert codim_jump(IndexSet((1, 2), 2), 4, 2) == 8


@pytest.mark.parametrize("r,s", [(3, 2), (4, 2), (4, 3)])
def test_codim_jump_three_way(r, s):
    for k in range(1, s + 1):
        for I_M in all_index_sets(k, s):
            assert codim_jump_cross_check(I_M, r, k) == codim_jump(I_M, r, s)


def test_bc_delta_examples():
    assert bc_delta(IndexSet((2, 4), 2), 2, 2) == 1
    assert bc_delta(IndexSet((3, 4), 2), 2, 2) == 0
    assert bc_delta(IndexSet((1, 2, 3), 3), 3, 3) == 3
    with pytest.raises(UsageError):
        bc_delta(IndexSet((1, 2), 2), 3, 2)


def test_expected_dim_trivial_tuple():
    FM = FC(2, 2)
    e = identity(FM.root_system)
    top = FM.basis[-1]
    rep = expected_dim_zero_check((e, top, top), 3, 2, 2)
    assert rep["theta"] == rep["theta_M"] == rep["theta_H"] == 0
    assert rep["expdim_G"] == rep["expdim_M"] == 0
    assert rep["levi_movable_M"] and rep["multiplicity_M"] == 1


@pytest.mark.parametrize("r,s,k", [(3, 2, 1), (3, 2, 2), (4, 2, 1), (4, 3, 2)])
def test_expected_dim_lemmas_exhaustive(r, s, k):
    # every graded triple, member or not, must satisfy both lemmas; the
    # checks are assertions inside expected_dim_zero_check
    FM = FC(s, k)
    count = 0
    for ws in _graded_tuples(FM, 3):
        rep = expected_dim_zero_check(ws, r, s, k)
        assert (rep["theta"] - rep["theta_M"]) % (2 * (r - s)) == 0
        count += 1
    assert count > 0


def test_expected_dim_rejects_foreign_words():
    FM = FC(2, 1)
    w0 = FM.basis[-1] * FM.basis[1]  # generally not a minimal rep
    if not is_minimal_rep(w0, FM.parabolic):
        with pytest.raises(UsageError):
            expected_dim_zero_check((w0,), 3, 2, 1)


def test_orbit_dims_example():
    assert orbit_dims(2, 3) == (3, 6, 4, 7)
    assert orbit_dims(1, 2) == (1, 2, 1, 3)
    with pytest.raises(UsageError):
        orbit_dims(3, 3)


def test_orbit_dims_formulas():
    # per-case formula values; the naive chain ordering fails at k = 1,
    # so only the forced comparisons are asserted
    for r in range(2, 7):
        for k in range(1, r):
            o1, o2, o2p, o3 = orbit_dims(k, r)
            assert o1 == ig_dim(k, r - 1)
            assert o2 == ig_dim(k - 1, r - 1) + 1 + k
            assert o2p == ig_dim(k - 1, r - 1) + 1
            assert o3 == ig_dim(k, r)
            assert o2p < o2 <= o3


def test_properness_identity_trivial():
    # (point, top, top) in IG(1,4), r = 3
    Is = (IndexSet((1,), 2), IndexSet((4,), 2), IndexSet((4,), 2))
    assert properness_identity(Is, 1, 3) == 0


@pytest.mark.parametrize("k", [1, 2])
def test_properness_identity_exhaustive(k):
    r = 3
    FM = FC(2, k)
    to_index, _ = weyl_index_bijection(FM)
    checked = 0
    for pt in point_product_tuples(FM, 3, "levi"):
        Is = tuple(to_index[w] for w in pt.elements)
        assert properness_identity(Is, k, r) == 0
        checked += 1
    assert checked > 0


def test_properness_identity_rejects_non_levi():
    # (point, point, ...) cannot be a point product unless dim = 0
    Is = (IndexSet((1,), 2), IndexSet((1,), 2), IndexSet((4,), 2))
    with pytest.raises(UsageError):
        properness_identity(Is, 1, 3)


def test_bc_transfer_sp4_so5():
    F_C = FC(2, 1)
    F_B, c_to_b = bc_transfer(F_C)
    assert F_B.root_system.kind == "B"
    assert len(c_to_b) == len(F_C.basis) == 4
    for w, wb in c_to_b.items():
        assert w.word == wb.word
        assert F_C.codim(w) == F_B.codim(wb)


def test_bc_point_products_rank1():
    F_C = FC(1, 1)
    assert bc_point_products_agree(F_C, 3) == 3


@pytest.mark.parametrize("r,k,n", [(2, 1, 2), (2, 1, 3), (2, 2, 3), (3, 2, 2)])
def test_bc_point_products_agree(r, k, n):
    assert bc_point_products_agree(FC(r, k), n) > 0


def test_index_dictionary_rows():
    rows = index_dictionary_rows(FC(2, 2))
    assert rows[0] == {"word": "e", "index_set": [1, 2], "dim": 0, "codim": 3}
    assert rows[-1]["index_set"] == [3, 4]


def test_orbit_table_rows():
    rows = orbit_table_rows(3)
    assert rows == [
        {"k": 1, "r": 3, "O1": 3, "O2": 2, "O2'": 1, "O3": 5},
        {"k": 2, "r": 3, "O1": 3, "O2": 6, "O2'": 4, "O3": 7},
    ]


def test_broken_index_dictionary_is_a_verification_error(monkeypatch):
    monkeypatch.setattr(isogr, "dim_from_index", lambda I: -1)
    with pytest.raises(VerificationError, match="index dictionary"):
        weyl_index_bijection(FC(2, 1))


def test_codim_jump_disagreement_is_a_verification_error(monkeypatch):
    # the formula, dimension and character routes are an internal self-check
    monkeypatch.setattr(isogr, "codim_jump", lambda I_M, r, s: -1)
    with pytest.raises(VerificationError, match="codim jump mismatch"):
        codim_jump_cross_check(IndexSet((1,), 1), 2, 1)


def test_non_signed_permutation_is_a_verification_error(monkeypatch):
    F = FC(2, 1)
    monkeypatch.setattr(WeylElement, "apply_fw", lambda self, coords: (0,) * len(coords))
    with pytest.raises(VerificationError, match="signed permutation"):
        weyl_index_bijection(F)


# -- the epsilon formulas that the int paths replaced, kept as references ----


@pytest.mark.parametrize("kind,s", [(kind, s) for kind in "BC" for s in range(1, 5)])
def test_eps_form_times_the_chi_scalar_is_the_epsilon_sum(kind, s):
    # sum_{i<=k} e_i^* of chi_w, on every class of every parabolic
    for k in range(1, s + 1):
        F = flag_variety(build_root_system(kind, s), k)
        for w in F.basis:
            eps_sum = sum(chi_root_sum(F, w)[:k])
            assert eps_sum == isogr._eps_form(F) * F.chi_at_xP(w), (k, word_str(w))
            assert F.chi_at_xP(w) == chi_coefficient(F, w), (k, word_str(w))


def reference_index_set(w, k):
    """The positions of w(e_1), ..., w(e_k), by the epsilon action."""
    r = w.root_system.rank
    out = []
    for i in range(k):
        img = apply_eps(w, tuple(Fraction(int(j == i)) for j in range(r)))
        (j,) = [j for j, c in enumerate(img) if c != 0]
        assert abs(img[j]) == 1, "not a signed permutation"
        out.append(j + 1 if img[j] > 0 else 2 * r - j)
    return tuple(sorted(out))


@pytest.mark.parametrize("r", range(1, 6))
def test_index_sets_match_the_epsilon_signed_permutation(r):
    for k in range(1, r + 1):
        F = FC(r, k)
        to_index, _ = weyl_index_bijection(F)
        for w in F.basis:
            assert to_index[w].elems == reference_index_set(w, k), (k, word_str(w))
