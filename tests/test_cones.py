"""Inequality systems, membership, the B/C projection, and the drivers."""

import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigencones.cones import (
    GRID_CAP,
    GRID_TOP,
    IneqSystem,
    _grid_scan,
    facet_witnesses,
    feasible_on_grid,
    generate_inequalities,
    grid_coords,
    include_weight_BC,
    membership,
    project_weight_BC,
    projection_step_invariance,
    regions_agree_on_grid,
    system_from_json,
    verify_projection,
    verify_subeigencone,
)
from eigencones.errors import ResourceCapError, UsageError
from eigencones.rootsys import Weight, build_root_system, weight_coords
from epsilon import ambient

GOLDEN = Path(__file__).parent / "golden"
HALF_STEPS = [Fraction(k, 2) for k in range(5)]   # 0, 1/2, ..., 2


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


def test_region_equality_nonzero_vs_levi():
    # Thm 2.2 and Thm 2.5 cut out the same cone
    for kind, rank in [("C", 2), ("G2", 2)]:
        R = build_root_system(kind, rank)
        S1 = generate_inequalities(R, 3, "nonzero")
        S2 = generate_inequalities(R, 3, "levi")
        assert len(S2.inequalities) <= len(S1.inequalities)
        assert regions_agree_on_grid(S1, S2, grid_coords(rank, HALF_STEPS))


def test_facet_witnesses_sp4():
    S = generate_inequalities(build_root_system("C", 2), 3, "levi")
    grid = grid_coords(2, HALF_STEPS)
    found = facet_witnesses(S, grid)
    assert len(found) == len(S.inequalities)
    misses = [qi for qi, w in found if w is None]
    # irredundancy: every wall is exposed already at this resolution
    assert misses == []


def test_feasible_on_grid_contains_origin():
    S = generate_inequalities(build_root_system("B", 2), 3, "levi")
    grid = [(0, 0), (1, 0), (0, 1)]
    feas = feasible_on_grid(S, grid)
    assert (0, 0, 0) in feas


def test_grid_coords_first_coordinate_fastest():
    assert grid_coords(2, range(2)) == [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert grid_coords(0, HALF_STEPS) == [()]


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


def brute_force_members(S, grid):
    """Grid member combo -> per-inequality values, in itertools order.

    The half-integer grid is doubled to integers, which scales every value
    by 2 and so keeps every sign.
    """
    doubled = [tuple(int(2 * x) for x in c) for c in grid]
    values = [
        [[sum(a * b for a, b in zip(slot, c)) for c in doubled]
         for slot in q.normals]
        for q in S.inequalities
    ]
    members = {}
    for combo in itertools.product(range(len(grid)), repeat=S.n):
        vals = [sum(t[i][k] for i, k in enumerate(combo)) for t in values]
        if all(v <= 0 for v in vals):
            members[combo] = vals
    return members


# n = 2 keeps the last slot alone as the tail; n = 3 and n = 4 fold the last
# two slots into one bitset, and n = 4 has a two-slot head as well
@pytest.mark.parametrize("kind,n,steps", [
    pytest.param(kind, n, steps, id=f"{kind}{label}")
    for kind in ("C", "G2")
    for n, steps, label in ((3, HALF_STEPS, ""), (2, HALF_STEPS, "-n2"),
                            (4, HALF_STEPS[:3], "-n4"))
])
def test_region_helpers_match_brute_force(kind, n, steps):
    R = build_root_system(kind, 2)
    grid = grid_coords(2, steps)
    levi = generate_inequalities(R, n, "levi")
    nonzero = generate_inequalities(R, n, "nonzero")
    fewer = IneqSystem(R, n, "levi", levi.inequalities[1:])
    members = {S: brute_force_members(S, grid) for S in (levi, nonzero, fewer)}

    assert feasible_on_grid(levi, grid) == set(members[levi])
    for S in (nonzero, fewer):
        expected = members[S].keys() == members[levi].keys()
        assert regions_agree_on_grid(S, levi, grid) is expected
    # dropping a wall of an irredundant system widens the grid region; at
    # n = 2 the cone is not full-dimensional, so its walls need not be facets
    if n >= 3:
        assert not regions_agree_on_grid(fewer, levi, grid)

    expected = [
        (qi, next(
            (c for c, vals in members[levi].items()
             if vals[qi] == 0 and sum(v == 0 for v in vals) == 1),
            None,
        ))
        for qi in range(len(levi.inequalities))
    ]
    assert facet_witnesses(levi, grid) == expected


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
