"""Inequality systems, membership, the B/C projection, and the drivers."""

import itertools
import json
from fractions import Fraction
from functools import lru_cache
from operator import mul
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigencones.cones import (
    GRID_CAP_EXPONENT,
    GRID_TOP,
    _grid_scan,
    _raw_normals,
    generate_inequalities,
    grid_coords,
    include_weight_BC,
    membership,
    project_weight_BC,
    projection_step_invariance,
    system_from_json,
    verify_projection,
    verify_subeigencone,
)
from eigencones.errors import ResourceCapError, UsageError
from eigencones.linalg import dot
from eigencones.rootsys import Weight, build_root_system, weight_coords
from eigencones.schubert import flag_variety
from eigencones.weyl import WeylElement
from cone_lp import certified_implication
from epsilon import ambient

GOLDEN = Path(__file__).parent / "golden"


def test_a1_triangle_system():
    R = build_root_system("A", 1)
    S = generate_inequalities(R, 3, "levi")
    assert len(S.inequalities) == 3
    normal_sets = {q.normals for q in S.inequalities}
    assert normal_sets == {
        ((1,), (-1,), (-1,)),
        ((-1,), (1,), (-1,)),
        ((-1,), (-1,), (1,)),
    }


def test_n1_system():
    R = build_root_system("C", 2)
    S = generate_inequalities(R, 1, "levi")
    # per parabolic, the single inequality <omega_P, lambda> <= 0
    assert len(S.inequalities) == 2
    for q in S.inequalities:
        assert all(x >= 0 for slot in q.normals for x in slot)


def test_membership_examples():
    R = build_root_system("A", 1)
    S = generate_inequalities(R, 3, "levi")
    member, violated = membership([(1,), (1,), (2,)], S)
    assert member and not violated
    member, violated = membership([(1,), (1,), (3,)], S)
    assert not member and len(violated) == 1
    member, _ = membership([(0,), (0,), (0,)], S)
    assert member


def test_membership_requires_dominant():
    R = build_root_system("A", 1)
    S = generate_inequalities(R, 3, "levi")
    with pytest.raises(UsageError):
        membership([(-1,), (1,), (1,)], S)
    with pytest.raises(UsageError):
        membership([(1,), (1,)], S)


@given(st.fractions(min_value="1/7", max_value=9, max_denominator=12),
       st.lists(st.integers(0, 4), min_size=6, max_size=6))
@settings(max_examples=40, deadline=None)
def test_membership_scaling_invariance(c, flat):
    R = build_root_system("C", 2)
    S = generate_inequalities(R, 3, "levi")
    lams = [tuple(flat[2 * i:2 * i + 2]) for i in range(3)]
    scaled = [tuple(c * x for x in lam) for lam in lams]
    assert membership(lams, S)[0] == membership(scaled, S)[0]


def test_membership_verdicts_do_not_depend_on_the_number_type():
    R = build_root_system("C", 2)
    S = generate_inequalities(R, 3, "levi")
    assert all(type(x) is int for x in weight_coords(R, (Fraction(2), 1)))
    for flat in itertools.product(range(3), repeat=6):
        lams = [flat[0:2], flat[2:4], flat[4:6]]
        as_ints = membership(lams, S)
        assert membership([tuple(map(Fraction, lam)) for lam in lams], S) == as_ints
        assert membership([Weight(R, lam) for lam in lams], S) == as_ints
        # the cone is closed under positive scaling
        halves = [tuple(Fraction(x, 2) for x in lam) for lam in lams]
        assert membership(halves, S) == as_ints


def test_normals_are_primitive():
    for kind, rank in [("C", 2), ("B", 2), ("G2", 2)]:
        R = build_root_system(kind, rank)
        S = generate_inequalities(R, 3, "levi")
        from math import gcd

        for q in S.inequalities:
            flat = [x for slot in q.normals for x in slot]
            assert gcd(*flat) == 1
            assert q.scale > 0


@pytest.mark.parametrize("kind,rank", [("A", 3), ("B", 3), ("C", 4), ("D", 4),
                                       ("G2", 2), ("F4", 4)])
def test_raw_normals_are_gram_rows_of_w_omega_p(kind, rank):
    # <omega_P, w^-1 omega_j> = (w omega_P, omega_j): column P of w.matrix is
    # w omega_P over fw coordinates, and the Killing form is one constant
    # times the integer weight Gram matrix
    R = build_root_system(kind, rank)
    omega_1 = R.fundamental_weights[0]
    c = R.killing_scale * dot(omega_1, omega_1) / R.weight_gram[0][0]
    for p in range(1, rank + 1):
        F = flag_variety(R, p)
        for w in F.basis:
            column = [row[p - 1] for row in w.matrix]
            ints = tuple(sum(map(mul, column, g)) for g in R.weight_gram)
            assert all(type(x) is int for x in ints)
            assert _raw_normals(F, (w,))[0] == tuple(c * x for x in ints)


@pytest.mark.parametrize("kind,rank", [("C", 4), ("F4", 4)])
def test_raw_normals_apply_no_weyl_element(kind, rank, monkeypatch):
    # the normals read w^-1's int columns; no unit vector goes through apply_fw
    R = build_root_system(kind, rank)
    varieties = [flag_variety(R, p) for p in range(1, rank + 1)]

    def fail(self, coords):
        raise AssertionError("_raw_normals applied a Weyl element to a vector")

    monkeypatch.setattr(WeylElement, "apply_fw", fail)
    for F in varieties:
        for w in F.basis:
            assert len(_raw_normals(F, (w,))[0]) == rank


def test_dedup_no_proportional_pairs():
    R = build_root_system("C", 2)
    S = generate_inequalities(R, 3, "nonzero")
    keys = [q.key() for q in S.inequalities]
    assert len(keys) == len(set(keys))


@pytest.mark.parametrize("name,kind,rank,count", [
    ("sp4", "C", 2, 18), ("so5", "B", 2, 18), ("g2", "G2", 2, 30),
])
def test_golden_systems(name, kind, rank, count):
    doc = json.loads((GOLDEN / f"{name}-n3-levi.json").read_text())
    S = system_from_json(doc)
    assert len(S.inequalities) == count
    regenerated = generate_inequalities(build_root_system(kind, rank), 3, "levi")
    text = json.dumps(regenerated.to_json(), indent=2, sort_keys=True)
    assert text == json.dumps(doc, indent=2, sort_keys=True)
    # round trip through the schema preserves every record
    again = system_from_json(json.loads(text)).to_json()
    assert json.dumps(again, indent=2, sort_keys=True) == text


@lru_cache(maxsize=None)
def walls(kind, rank, tier):
    """The tier's n = 3 walls as flat normal rows."""
    S = generate_inequalities(build_root_system(kind, rank), 3, tier)
    return tuple(q.key() for q in S.inequalities)


# the certified cone checks run on these; C3 and B3 pass too, in seconds each
EXACT_GROUPS = [("C", 2), ("B", 2), ("G2", 2), ("A", 2), ("A", 3)]


def test_sp4_so5_systems_match_under_identification():
    # (a_1, a_2)_C <-> (a_1, 2 a_2)_B identifies the two weight lattices
    # epsilon-wise; the two cones must agree point by point
    SC = generate_inequalities(build_root_system("C", 2), 3, "levi")
    SB = generate_inequalities(build_root_system("B", 2), 3, "levi")
    grid = [c for c in itertools.product(range(3), repeat=2)]
    for combo in itertools.product(grid, repeat=3):
        c_side = membership(list(combo), SC)[0]
        b_side = membership([(a, 2 * b) for a, b in combo], SB)[0]
        assert c_side == b_side
    # and exactly, as cones: a B normal u reads u_1 a_1 + 2 u_2 a_2 on C
    # coordinates, and twice a C normal v reads 2 v_1 b_1 + v_2 b_2 on B ones
    c_walls, b_walls = walls("C", 2, "levi"), walls("B", 2, "levi")
    for q in b_walls:
        as_c = tuple(x * (1 + k % 2) for k, x in enumerate(q))
        assert certified_implication(c_walls, as_c)
    for q in c_walls:
        as_b = tuple(x * (2 - k % 2) for k, x in enumerate(q))
        assert certified_implication(b_walls, as_b)


def test_region_equality_nonzero_vs_levi():
    # Thm 2.2 and Thm 2.5 cut out the same cone: the levi walls are among
    # the nonzero ones, and with dominance they imply every nonzero wall
    for kind, rank in EXACT_GROUPS:
        levi, nonzero = walls(kind, rank, "levi"), walls(kind, rank, "nonzero")
        assert set(levi) <= set(nonzero)
        for q in nonzero:
            assert certified_implication(levi, q), (kind, rank, q)


def test_levi_walls_are_facets():
    # irredundancy: each levi wall has a dominant point that keeps every
    # other wall and breaks it, so no wall follows from the others
    for kind, rank in EXACT_GROUPS:
        levi = walls(kind, rank, "levi")
        for i, q in enumerate(levi):
            assert not certified_implication(levi[:i] + levi[i + 1:], q), (kind, rank, q)


def test_grid_coords_first_coordinate_fastest():
    assert grid_coords(2, range(2)) == [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert grid_coords(0, range(5)) == [()]


# -- the grid kernel against plain itertools loops ---------------------------


def reference_grid_scan(tables, sub_tables, n, n_slots):
    """The plain itertools loop the bitset kernel replaced."""
    members = []
    for combo in itertools.product(range(n_slots), repeat=n):
        if all(sum(t[i][combo[i]] for i in range(n)) <= 0 for t in tables):
            members.append(combo)
    violations = [
        {"tuple": combo}
        for combo in members
        if any(sum(t[i][combo[i]] for i in range(n)) > 0 for t in sub_tables)
    ]
    return len(members), violations


@st.composite
def scan_inputs(draw):
    n = draw(st.integers(1, 4))
    n_slots = draw(st.integers(1, 6))
    row = st.lists(st.integers(-3, 3), min_size=n_slots, max_size=n_slots)

    def tables(most):
        return draw(st.lists(st.lists(row, min_size=n, max_size=n),
                             max_size=most))

    return tables(5), tables(3), n, n_slots


@given(scan_inputs())
@settings(max_examples=300, deadline=None)
def test_grid_scan_matches_reference(args):
    assert _grid_scan(*args) == reference_grid_scan(*args)


def wall_witness_records(tables, sub_tables, n, n_slots, zero_index):
    """The boundary pass the grid scan once ran after its member scan.

    Per ambient wall, the first member tight on it other than the all-zero
    combo (that combo when there is none), recorded as a facet violation
    when it breaks a sub wall.
    """
    zero_combo = (zero_index,) * n
    members = [c for c in itertools.product(range(n_slots), repeat=n)
               if all(sum(t[i][c[i]] for i in range(n)) <= 0 for t in tables)]
    records = []
    for qi, t in enumerate(tables):
        witness = next((c for c in members if c != zero_combo
                        and sum(t[i][c[i]] for i in range(n)) == 0), zero_combo)
        if any(sum(u[i][witness[i]] for i in range(n)) > 0 for u in sub_tables):
            records.append({"facet": qi, "tuple": witness})
    return records


@st.composite
def origin_scan_inputs(draw):
    """Scan inputs whose tables all read 0 at one grid index, the zero weight."""
    tables, sub_tables, n, n_slots = draw(scan_inputs())
    zero = draw(st.integers(0, n_slots - 1))

    def at_origin(ts):
        return [[row[:zero] + [0] + row[zero + 1:] for row in t] for t in ts]

    return at_origin(tables), at_origin(sub_tables), n, n_slots, zero


@given(origin_scan_inputs())
@settings(max_examples=300, deadline=None)
def test_wall_witnesses_only_repeat_tuple_violations(args):
    # a value table is linear, so it reads 0 at the all-zero tuple; a wall's
    # witness is then an ambient member, and one that breaks a sub wall is
    # already a tuple violation, which is why the scan runs no boundary pass
    _, violations = _grid_scan(*args[:4])
    for record in wall_witness_records(*args):
        assert {"tuple": record["tuple"]} in violations


# -- projection --------------------------------------------------------------


def test_project_c32_formula():
    R = build_root_system("C", 3)
    lam = Weight(R, (Fraction(1), Fraction(2), Fraction(5)))
    p = project_weight_BC(lam, 2)
    assert p.coords == (Fraction(1), Fraction(7))


def test_project_c41_formula():
    R = build_root_system("C", 4)
    lam = Weight(R, tuple(Fraction(x) for x in (1, 2, 3, 4)))
    p = project_weight_BC(lam, 1)
    assert p.coords == (Fraction(10),)


def test_project_section_property():
    R = build_root_system("C", 3)
    lam = Weight(R, (Fraction(3), Fraction(1), Fraction(0)))
    assert project_weight_BC(lam, 2).coords == (Fraction(3), Fraction(1))


def test_projection_requires_dominant():
    R = build_root_system("C", 3)
    with pytest.raises(UsageError):
        project_weight_BC(Weight(R, (Fraction(-1), Fraction(0), Fraction(0))), 2)
    with pytest.raises(UsageError):
        project_weight_BC(Weight(R, (Fraction(1),) * 3), 3)


def test_include_then_project_identity():
    for kind in ("B", "C"):
        sub = build_root_system(kind, 2)
        for coords in itertools.product(range(4), repeat=2):
            lam = Weight(sub, tuple(Fraction(x) for x in coords))
            back = project_weight_BC(include_weight_BC(lam, 4), 2)
            assert back.coords == lam.coords


def test_integral_embedded_weights_have_int_coordinates():
    R = build_root_system("C", 2)
    coords = include_weight_BC(Weight(R, (1, 2)), 4).coords
    assert coords == (1, 2, 0, 0)
    assert all(type(x) is int for x in coords)
    for kind in ("B", "C"):
        amb, sub = build_root_system(kind, 4), build_root_system(kind, 2)
        for coords in itertools.product(range(3), repeat=2):
            up = include_weight_BC(Weight(sub, coords), 4)
            back = project_weight_BC(up, 2)
            assert back.coords == coords
            assert all(type(x) is int for x in back.coords)
            # B's spin node makes some inclusions half-integral
            assert all(type(x) is int or x.denominator != 1 for x in up.coords)
        for coords in itertools.product(range(3), repeat=4):
            down = project_weight_BC(Weight(amb, coords), 2)
            again = include_weight_BC(down, 4)
            assert all(type(x) is int for x in down.coords)
            assert all(type(x) is int or x.denominator != 1 for x in again.coords)


def reference_project(lam, s):
    """The epsilon projection the embedding restriction replaced: truncate."""
    sub = build_root_system(lam.root_system.kind, s)
    eps = ambient(lam)[:s]
    return tuple(sub.coroot_pairing(eps, a) for a in sub.simple_roots)


def reference_include(lam, r):
    """The epsilon inclusion the embedding section replaced: zero-pad."""
    amb = build_root_system(lam.root_system.kind, r)
    eps = ambient(lam) + (Fraction(0),) * (r - lam.root_system.rank)
    return tuple(amb.coroot_pairing(eps, a) for a in amb.simple_roots)


@pytest.mark.parametrize("kind,r", [(k, r) for k in "BC" for r in range(2, 6)])
def test_projection_and_inclusion_match_the_epsilon_maps(kind, r):
    R = build_root_system(kind, r)
    for s in range(1, r):
        sub = build_root_system(kind, s)
        for coords in itertools.product(range(3), repeat=r):
            lam = Weight(R, coords)
            assert project_weight_BC(lam, s).coords == reference_project(lam, s)
        for coords in itertools.product(range(3), repeat=s):
            mu = Weight(sub, coords)
            assert include_weight_BC(mu, r).coords == reference_include(mu, r)


def test_projection_linear():
    R = build_root_system("B", 3)
    u = Weight(R, (Fraction(1), Fraction(0), Fraction(2)))
    v = Weight(R, (Fraction(0), Fraction(3), Fraction(4)))
    lhs = project_weight_BC(u + v, 2)
    rhs = project_weight_BC(u, 2) + project_weight_BC(v, 2)
    assert lhs.coords == rhs.coords


@pytest.mark.parametrize("kind,r,s", [
    (kind, r, s) for kind in "CB" for r, s in ((2, 1), (3, 1), (3, 2))
])
def test_projection_theorem_as_a_cone_inclusion(kind, r, s):
    # projecting the unit weights gives the projection's matrix; each rank-s
    # levi wall pulled back through it follows from the rank-r levi walls,
    # so the ambient cone projects into the sub cone
    amb = build_root_system(kind, r)
    columns = [project_weight_BC(Weight(amb, tuple(int(t == j) for t in range(r))), s).coords
               for j in range(r)]
    sub = generate_inequalities(build_root_system(kind, s), 3, "levi")
    for q in sub.inequalities:
        pulled = tuple(sum(map(mul, slot, col)) for slot in q.normals for col in columns)
        assert certified_implication(walls(kind, r, "levi"), pulled), q.normals


def test_projection_step_invariance_counts():
    assert projection_step_invariance("C", 3) > 0
    assert projection_step_invariance("B", 3) > 0


def test_verify_projection_c21():
    rep = verify_projection(2, 1, 3, kind="C")
    assert rep["ok"]
    assert rep["violations"] == []
    assert rep["section_identity"]
    assert rep["grid_members"] > 0


def test_verify_projection_bad_ranks():
    with pytest.raises(UsageError):
        verify_projection(2, 2, 3)


@pytest.mark.parametrize("kind", ["A", "D", "G2", "F4"])
def test_verify_projection_rejects_other_types(kind, monkeypatch):
    monkeypatch.setattr("eigencones.cones.build_root_system", None)
    with pytest.raises(UsageError, match="B and C"):
        verify_projection(3, 2, 3, kind=kind)


@pytest.mark.parametrize("r,n,capped", [
    (3, 4, False), (4, 3, False), (3, 5, True), (5, 3, True),
])
def test_verify_projection_grid_cap(r, n, capped, monkeypatch):
    def reached(*args):
        raise RuntimeError("reached generate_inequalities")

    monkeypatch.setattr("eigencones.cones.generate_inequalities", reached)
    assert ((GRID_TOP + 1) ** (r * n) > (GRID_TOP + 1) ** GRID_CAP_EXPONENT) is capped
    expected = ResourceCapError if capped else RuntimeError
    with pytest.raises(expected):
        verify_projection(r, 2, n)


# -- sub-eigencone driver ----------------------------------------------------


def test_verify_subeigencone_sl2_in_g2():
    rep = verify_subeigencone("sl2-in-g2", {}, 3)
    assert rep["ok"]
    assert rep["mode"] == "ambient-products"
    # the sub's big cell maps to the G2/P2 big cell
    words = {
        w for pair in rep["pairs"] for row in pair["tuples"]
        for w in row["ambient_words"]
    }
    assert "21212" in words


def test_verify_subeigencone_c_in_c():
    rep = verify_subeigencone("c-in-c", {"r": 3, "s": 2}, 3)
    assert rep["ok"]
    for pair in rep["pairs"]:
        assert pair["all_ok"]
        for row in pair["tuples"]:
            assert row["levi_movable"]
            assert row["ambient_multiplicity"] >= 1


def test_verify_subeigencone_g2_in_f4_mode():
    rep = verify_subeigencone("g2-in-f4", {}, 3)
    assert rep["ok"]
    assert rep["mode"] == "dual-commutation"
    assert len(rep["pairs"]) == 2


def test_verify_subeigencone_needs_two_slots():
    with pytest.raises(UsageError):
        verify_subeigencone("sl2-in-g2", {}, 1)


def test_system_from_json_rejects_bad_version():
    R = build_root_system("A", 1)
    S = generate_inequalities(R, 3, "levi")
    doc = S.to_json()
    doc["schema_version"] = 99
    from eigencones.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        system_from_json(doc)


def test_generate_rejects_bad_tier():
    R = build_root_system("A", 1)
    with pytest.raises(UsageError):
        generate_inequalities(R, 3, "solid")
    with pytest.raises(UsageError):
        generate_inequalities(R, 0, "levi")
