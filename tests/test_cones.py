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
    GRID_CAP,
    GRID_TOP,
    _grid_scan,
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
from eigencones.rootsys import Weight, build_root_system, weight_coords
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
    assert regenerated.dumps() == json.dumps(doc, indent=2, sort_keys=True)
    # round trip through the schema preserves every record
    assert system_from_json(json.loads(regenerated.dumps())).dumps() == \
        regenerated.dumps()


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


def reference_grid_scan(tables, sub_tables, n, n_slots, zero_index):
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
    zero_combo = (zero_index,) * n
    boundary = []
    for qi, t in enumerate(tables):
        # the first tight member other than the all-zero combo, else that combo
        witness = next(
            (c for c in members
             if c != zero_combo and sum(t[i][c[i]] for i in range(n)) == 0),
            zero_combo,
        )
        boundary.append(witness)
        if any(
            sum(st[i][witness[i]] for i in range(n)) > 0 for st in sub_tables
        ):
            violations.append({"facet": qi, "tuple": witness})
    return len(members), violations, boundary


@st.composite
def scan_inputs(draw):
    n = draw(st.integers(1, 4))
    n_slots = draw(st.integers(1, 6))
    row = st.lists(st.integers(-3, 3), min_size=n_slots, max_size=n_slots)

    def tables(most):
        return draw(st.lists(st.lists(row, min_size=n, max_size=n),
                             max_size=most))

    return (tables(5), tables(3), n, n_slots,
            draw(st.integers(0, n_slots - 1)))


@given(scan_inputs())
@settings(max_examples=300, deadline=None)
def test_grid_scan_matches_reference(args):
    assert _grid_scan(*args) == reference_grid_scan(*args)


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


@pytest.mark.parametrize("r,s,kind", [(3, 2, "C"), (3, 1, "B"), (2, 1, "C")])
def test_projection_boundary_witnesses_skip_the_origin(r, s, kind, monkeypatch):
    # the all-zero tuple is tight on every wall, so as a witness it checks
    # nothing; each wall has a grid member other than it that is tight
    scans = []

    def recording(*args):
        scans.append(_grid_scan(*args))
        return scans[-1]

    monkeypatch.setattr("eigencones.cones._grid_scan", recording)
    rep = verify_projection(r, s, 3, kind=kind)
    ((_, violations, boundary),) = scans
    assert len(boundary) == rep["boundary_points"] == rep["ambient_inequalities"]
    assert (0, 0, 0) not in boundary
    assert violations == [] and rep["ok"]


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
    assert ((GRID_TOP + 1) ** (r * n) > GRID_CAP) is capped
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
