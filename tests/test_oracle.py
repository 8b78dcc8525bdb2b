"""Character tables, tensor decompositions, and invariant dimensions."""

import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest

from eigencones import oracle
from eigencones.errors import ResourceCapError, UsageError, VerificationError
from eigencones.oracle import (
    dual_weight_coords,
    invariant_dim,
    saturated_search,
    tensor_decompose,
    weight_multiplicities,
    weyl_dim,
)
from eigencones.rootsys import build_root_system
from eigencones.weyl import generate_weyl_group, longest_element
from epsilon import fw_coords

A1 = build_root_system("A", 1)
C2 = build_root_system("C", 2)
G2 = build_root_system("G2", 2)


def multiplicity(table, v_eps):
    """The table's multiplicity of an epsilon vector; 0 off the weight lattice."""
    R = table.root_system
    if len(v_eps) != R.ambient_dim:
        raise UsageError(f"expected {R.ambient_dim} epsilon coordinates, "
                         f"got {len(v_eps)}")
    v = tuple(Fraction(x) for x in v_eps)
    fw = fw_coords(R, v)
    if any(x.denominator != 1 for x in fw) or R.from_fw(fw) != v:
        return 0
    return table.weights.get(tuple(int(x) for x in fw), 0)


def test_weyl_dim_examples():
    assert weyl_dim(A1, (3,)) == 4
    assert weyl_dim(C2, (0, 1)) == 5
    assert weyl_dim(C2, (1, 0)) == 4
    assert weyl_dim(G2, (1, 0)) == 7
    assert weyl_dim(G2, (0, 1)) == 14  # adjoint


def test_a1_string_of_weights():
    table = weight_multiplicities(A1, (3,))
    assert table.dim == 4
    assert len(table.multiplicities) == 2  # dominant reps: 3w and w
    assert all(m == 1 for m in table.multiplicities.values())


def test_c2_omega2_table():
    table = weight_multiplicities(C2, (0, 1))
    assert table.dim == 5
    zero = tuple(0 * x for x in C2.rho)
    assert multiplicity(table, zero) == 1


def test_g2_omega1_table():
    table = weight_multiplicities(G2, (1, 0))
    assert table.dim == 7
    zero = tuple(0 * x for x in G2.rho)
    assert multiplicity(table, zero) == 1


def test_adjoint_zero_multiplicity_is_rank():
    for R in (C2, G2):
        adjoint = tuple(
            int(R.coroot_pairing(R.highest_root, a)) for a in R.simple_roots
        )
        table = weight_multiplicities(R, adjoint)
        zero = tuple(0 * x for x in R.rho)
        assert multiplicity(table, zero) == R.rank


def test_table_top_multiplicity_and_dim_check():
    # the dimension cross-check runs inside weight_multiplicities
    for R, lam in [(C2, (2, 1)), (G2, (1, 1))]:
        table = weight_multiplicities(R, lam)
        assert table.dim == weyl_dim(R, lam)


def test_multiplicities_require_dominant_integral():
    with pytest.raises(UsageError):
        weight_multiplicities(A1, (-1,))
    with pytest.raises(UsageError):
        weight_multiplicities(C2, ("1/2", 0))


def test_dim_cap():
    with pytest.raises(ResourceCapError):
        weight_multiplicities(C2, (40, 40))


def test_clebsch_gordan():
    out = tensor_decompose(A1, (1,), (1,))
    assert out == {(2,): 1, (0,): 1}
    out = tensor_decompose(A1, (3,), (2,))
    assert out == {(5,): 1, (3,): 1, (1,): 1}


def test_tensor_with_trivial():
    for R, lam in [(A1, (4,)), (C2, (1, 2)), (G2, (0, 1))]:
        assert tensor_decompose(R, lam, (0,) * R.rank) == {tuple(lam): 1}


def test_c2_vector_square():
    out = tensor_decompose(C2, (1, 0), (1, 0))
    assert out == {(2, 0): 1, (0, 1): 1, (0, 0): 1}


def test_tensor_commutes():
    assert tensor_decompose(C2, (1, 1), (0, 1)) == \
        tensor_decompose(C2, (0, 1), (1, 1))


def test_tensor_associativity():
    lams = [(1, 0), (0, 1), (1, 1)]

    def expand(partial, lam):
        out = {}
        for k, m in partial.items():
            for k2, m2 in tensor_decompose(C2, k, lam).items():
                out[k2] = out.get(k2, 0) + m * m2
        return out

    left = expand(tensor_decompose(C2, lams[0], lams[1]), lams[2])
    right = expand(tensor_decompose(C2, lams[1], lams[2]), lams[0])
    assert left == right


def test_dual_weights():
    # all listed groups are self-dual on these weights
    assert dual_weight_coords(A1, (5,)) == (5,)
    assert dual_weight_coords(C2, (2, 3)) == (2, 3)
    assert dual_weight_coords(G2, (1, 2)) == (1, 2)


@pytest.mark.parametrize("kind,rank", [("A", 2), ("A", 3), ("C", 3), ("D", 5), ("G2", 2)])
def test_dual_weight_is_minus_w0_lambda(kind, rank):
    R = build_root_system(kind, rank)
    w0 = longest_element(R)
    for lam in itertools.product(range(3), repeat=rank):
        assert dual_weight_coords(R, lam) == tuple(-x for x in w0.apply_fw(lam))


def reference_outer_multiplicity(R, lam, mu, nu):
    """The alternating sum over all of W, element by element."""
    weights = weight_multiplicities(R, mu).weights
    lam_rho = tuple(x + 1 for x in lam)
    acc = 0
    for w in generate_weyl_group(R):
        shifted = w.apply_fw(tuple(x + 1 for x in nu))
        acc += (-1) ** w.length * weights.get(tuple(a - b for a, b in zip(shifted, lam_rho)), 0)
    return acc


@pytest.mark.parametrize("kind,rank,top", [("A", 2, 2), ("C", 2, 2), ("G2", 2, 2), ("B", 3, 1)])
def test_outer_multiplicity_is_the_group_sum(kind, rank, top):
    R = build_root_system(kind, rank)
    box = list(itertools.product(range(top + 1), repeat=rank))
    for lam, mu, nu in itertools.product(box, repeat=3):
        assert (oracle._outer_multiplicity(R, lam, mu, nu)
                == reference_outer_multiplicity(R, lam, mu, nu))


def test_invariant_dim_examples():
    assert invariant_dim(A1, [(1,), (1,), (2,)]) == 1
    assert invariant_dim(A1, [(1,), (1,), (3,)]) == 0
    assert invariant_dim(C2, [(0, 0), (0, 0), (0, 0)]) == 1
    assert invariant_dim(A1, [(0,)]) == 1
    assert invariant_dim(A1, [(2,)]) == 0
    assert invariant_dim(C2, [(1, 0), (1, 0)]) == 1  # self-dual pair


def test_invariant_dim_four_slots():
    assert invariant_dim(A1, [(1,), (1,), (1,), (1,)]) == 2


def test_invariant_dim_empty():
    with pytest.raises(UsageError):
        invariant_dim(A1, [])


def test_invariant_matches_brute_force_a1():
    # dim of the invariant subspace by explicit weight-space counting
    def brute(ks):
        # number of lattice paths summing to zero with steps in each string
        weights = [range(-k, k + 1, 2) for k in ks]
        total = 0
        from itertools import product

        # multiplicity of weight 0 minus multiplicity of weight 2 in the
        # full tensor product counts trivial summands for sl2
        count = {0: 0, 2: 0}
        for combo in product(*weights):
            s = sum(combo)
            if s in count:
                count[s] += 1
        return count[0] - count[2]

    for ks in [(1, 1, 2), (2, 2, 2), (1, 2, 3), (3, 3, 4), (2, 2, 3)]:
        assert invariant_dim(A1, [(k,) for k in ks]) == brute(ks)


def test_saturated_search():
    assert saturated_search(A1, [(1,), (1,), (2,)]) == 1
    assert saturated_search(A1, [(1,), (1,), (3,)]) is None
    # odd total coordinate needs doubling
    assert saturated_search(A1, [(1,), (1,), (1,)]) == 2
    assert saturated_search(C2, [(0, 0)] * 3) == 1


def test_saturated_search_respects_nmax():
    assert saturated_search(A1, [(1,), (1,), (1,)], n_max=1) is None


def test_oracle_positive_implies_membership():
    # one-sided link to the inequality systems at tiny scale
    from eigencones.cones import generate_inequalities, membership

    S = generate_inequalities(C2, 3, "levi")
    for combo in itertools.product(
        itertools.product(range(2), repeat=2), repeat=3
    ):
        n = saturated_search(C2, [tuple(c) for c in combo], n_max=3)
        if n is not None:
            assert membership(list(combo), S)[0]



@pytest.mark.parametrize("rank,top", [(2, 2), (3, 1)])
def test_type_a_oracle_is_two_sided(rank, top):
    # Knutson-Tao saturation: in type A a triple lies in the cone exactly
    # when some V_{N lam1} (x) V_{N lam2} (x) V_{N lam3} has an invariant, and
    # N = rank + 1 (the index of the root lattice) always suffices
    from eigencones.cones import generate_inequalities, membership

    R = build_root_system("A", rank)
    S = generate_inequalities(R, 3, "levi")
    weights = list(itertools.product(range(top + 1), repeat=rank))
    for lams in itertools.product(weights, repeat=3):
        found = saturated_search(R, list(lams), n_max=rank + 1)
        assert membership(list(lams), S)[0] == (found is not None), lams


@pytest.mark.parametrize("rank,top", [(2, 5), (3, 2), (4, 1)])
def test_type_a_oracle_is_exact_on_the_root_lattice(rank, top):
    # a triple whose sum lies in the root lattice (sum of i c_i divisible by
    # rank + 1) needs no search: by saturation N = 1 decides it
    from eigencones.cones import generate_inequalities, membership

    R = build_root_system("A", rank)
    S = generate_inequalities(R, 3, "levi")
    weights = list(itertools.product(range(top + 1), repeat=rank))
    for lams in itertools.product(weights, repeat=3):
        if sum(i * c for lam in lams for i, c in enumerate(lam, 1)) % (rank + 1):
            continue
        assert membership(list(lams), S)[0] == (invariant_dim(R, lams) > 0), lams

# -- recorded snapshot --------------------------------------------------------

GOLDEN = Path(__file__).parent / "golden" / "oracle-small.json"
GOLDEN_GROUPS = (("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 2), ("G2", 2),
                 ("B", 3), ("C", 3))


def oracle_snapshot():
    """Every public oracle answer on small weights, as plain JSON data.

    Weights have coordinates <= 2 at rank <= 2 and <= 1 at rank 3; tensor
    products run over all ordered pairs of them.  Invariant dimensions are
    listed in enumeration order: every 3-slot tuple of {0,1}-coordinate
    weights, then every 4-slot tuple at rank <= 2 and every sorted 4-slot
    multiset at rank 3.
    """
    out = {}
    for kind, rank in GOLDEN_GROUPS:
        R = build_root_system(kind, rank)
        top = 2 if rank <= 2 else 1
        weights = list(itertools.product(range(top + 1), repeat=rank))
        small = list(itertools.product(range(2), repeat=rank))
        tables = [weight_multiplicities(R, lam) for lam in weights]
        slots4 = (itertools.product(small, repeat=4) if rank <= 2
                  else itertools.combinations_with_replacement(small, 4))
        out[R.label] = {
            "weights": weights,
            "weyl_dim": [weyl_dim(R, lam) for lam in weights],
            "dual": [dual_weight_coords(R, lam) for lam in weights],
            "dim": [t.dim for t in tables],
            "mults": [sorted(t.multiplicities.values()) for t in tables],
            "tensor": [sorted(tensor_decompose(R, lam, mu).items())
                       for lam in weights for mu in weights],
            "invariant": [
                invariant_dim(R, t) for t in itertools.chain(
                    itertools.product(small, repeat=3), slots4)
            ],
        }
    return json.loads(json.dumps(out))


def test_oracle_matches_recorded_snapshot():
    assert oracle_snapshot() == json.loads(GOLDEN.read_text())


# -- boundary and self-checks -------------------------------------------------


def test_multiplicity_rejects_a_vector_of_the_wrong_length():
    table = weight_multiplicities(C2, (1, 0))
    with pytest.raises(UsageError):
        multiplicity(table, (0, 0, 0))


def test_multiplicity_off_the_weight_lattice_is_zero():
    table = weight_multiplicities(C2, (0, 1))
    half = Fraction(1, 2)
    assert multiplicity(table, (half, half)) == 0  # fw coordinates (0, 1/2)
    assert multiplicity(table, (half, -half)) == 0  # fw coordinates (1, -1/2)
    # (1, 1, 1) has fw coordinates (0, 0) but lies off the root span of A2
    A2 = build_root_system("A", 2)
    adjoint = weight_multiplicities(A2, (1, 1))
    assert multiplicity(adjoint, (0, 0, 0)) == 2
    assert multiplicity(adjoint, (1, 1, 1)) == 0


def test_failed_dimension_sum_is_a_verification_error(monkeypatch):
    monkeypatch.setattr(oracle, "_table_memo", {})
    real = oracle.weyl_dim
    monkeypatch.setattr(oracle, "weyl_dim", lambda R, lam: real(R, lam) + 1)
    with pytest.raises(VerificationError, match="sums to"):
        weight_multiplicities(C2, (1, 1))


def test_failed_freudenthal_denominator_is_a_verification_error(monkeypatch):
    monkeypatch.setattr(oracle, "_table_memo", {})
    monkeypatch.setattr(oracle, "_norm", lambda gram, v: 0)
    with pytest.raises(VerificationError, match="denominator"):
        weight_multiplicities(G2, (1, 0))
