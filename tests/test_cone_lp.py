"""The exact LP of tests/cone_lp.py and its certificates."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cone_lp import check_implied, check_witness, implication, lp_max


def test_beale_example_ends_at_its_optimum():
    # Beale's example cycles under the largest-coefficient rule
    c = [Fraction(3, 4), -150, Fraction(1, 50), -6]
    A = [[Fraction(1, 4), -60, Fraction(-1, 25), 9],
         [Fraction(1, 2), -90, Fraction(-1, 50), 3],
         [0, 0, 1, 0]]
    b = [0, 0, 1]
    value, x, y = lp_max(c, A, b)
    assert value == Fraction(1, 20)
    assert x == [Fraction(1, 25), 0, 1, 0]
    # the prices are dual feasible and meet the value: strong duality
    assert all(v >= 0 for v in y)
    assert all(sum(v * row[k] for v, row in zip(y, A)) >= ck for k, ck in enumerate(c))
    assert sum(map(Fraction.__mul__, y, b)) == value


def test_negative_bounds_and_unbounded_lps_are_refused():
    with pytest.raises(ValueError, match="nonnegative"):
        lp_max([1], [[1]], [-1])
    with pytest.raises(ValueError, match="unbounded"):
        lp_max([1], [[-1]], [0])


def test_certificates_reject_what_they_do_not_prove():
    A = [(1, -1)]                      # x_1 <= x_2
    implied, y = implication(A, (1, -2))
    assert implied
    check_implied(A, (1, -2), y)
    with pytest.raises(AssertionError):
        check_implied(A, (1, 0), y)    # x_1 <= 0 does not follow
    implied, x = implication(A, (-1, 1))
    assert not implied
    check_witness(A, (-1, 1), x)
    for kept in ((1, -1), (0, 0)):     # x does not break these
        with pytest.raises(AssertionError):
            check_witness(A, kept, x)


@st.composite
def small_systems(draw):
    n = draw(st.integers(1, 3))
    row = st.tuples(*[st.integers(-3, 3)] * n)
    return draw(st.lists(row, max_size=5)), draw(row)


@given(small_systems())
@settings(max_examples=200, deadline=None)
def test_implied_means_no_grid_point_breaks_the_wall(system):
    A, q = system
    implied, cert = implication(A, q)
    if not implied:
        check_witness(A, q, cert)
        return
    check_implied(A, q, cert)
    for x in itertools.product(range(4), repeat=len(q)):
        if all(sum(map(int.__mul__, x, row)) <= 0 for row in A):
            assert sum(map(int.__mul__, x, q)) <= 0, x
