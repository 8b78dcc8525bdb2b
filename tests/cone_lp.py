"""An exact rational LP for cone questions, with certificates checked apart.

lp_max solves max c.x over A x <= b, x >= 0 for b >= 0 by the simplex
method on a Fraction tableau.  x = 0 is feasible, so the slack basis starts
it and no phase 1 is needed; Bland's rule (the smallest eligible index
enters, ties in the ratio test leave by the smallest index) keeps it from
cycling.

A cone question asks whether the walls A x <= 0 and dominance x >= 0 imply
q.x <= 0.  implication() adds the row sum(x) <= 1, so every LP is bounded,
and returns a certificate that check_implied or check_witness verifies
with plain arithmetic, trusting nothing the LP computed:

- implied: prices y >= 0 with y A >= q in every coordinate (Farkas), so
  q.x <= y.(A x) <= 0 for every x >= 0 with A x <= 0;
- not implied: a point x >= 0 with A x <= 0 and q.x > 0, which exposes q
  as a wall that the others do not imply.
"""

from fractions import Fraction


def lp_max(c, A, b):
    """(value, x, y) of max c.x over A x <= b, x >= 0, for b >= 0.

    y holds the optimal price of each row of A.  The tableau keeps one
    column per nonbasic variable: variables 0..n-1 are x, n + i is row i's
    slack.
    """
    n = len(c)
    if any(bi < 0 for bi in b):
        raise ValueError("b must be nonnegative")
    rows = [[Fraction(a) for a in row] + [Fraction(bi)] for row, bi in zip(A, b)]
    cost = [Fraction(-ci) for ci in c] + [Fraction(0)]
    basic = [n + i for i in range(len(rows))]
    nonbasic = list(range(n))
    while True:
        entering = [j for j in range(n) if cost[j] < 0]
        if not entering:
            break
        j = min(entering, key=nonbasic.__getitem__)
        ratios = [(row[-1] / row[j], basic[i], i)
                  for i, row in enumerate(rows) if row[j] > 0]
        if not ratios:
            raise ValueError("unbounded")
        _, _, r = min(ratios)
        pivot_row = rows[r]
        p = pivot_row[j]
        pivot_row[:] = [a / p for a in pivot_row]
        pivot_row[j] = 1 / p
        for row in rows + [cost]:
            f = row[j]
            if row is pivot_row or not f:
                continue
            for k, a in enumerate(pivot_row):
                if a:
                    row[k] -= f * a
            row[j] = -f / p
        basic[r], nonbasic[j] = nonbasic[j], basic[r]
    x = [Fraction(0)] * n
    for var, row in zip(basic, rows):
        if var < n:
            x[var] = row[-1]
    y = [Fraction(0)] * len(rows)
    for var, d in zip(nonbasic, cost):
        if var >= n:
            y[var - n] = d
    return cost[-1], x, y


def implication(A, q):
    """(True, prices) when x >= 0 and A x <= 0 imply q.x <= 0, else
    (False, point).  The prices cover the rows of A and then sum(x) <= 1."""
    n = len(q)
    value, x, y = lp_max(q, [*A, (1,) * n], [0] * len(A) + [1])
    return (True, y) if value == 0 else (False, x)


def check_implied(A, q, y):
    """Verify the Farkas certificate y for the implication A => q."""
    assert len(y) == len(A) + 1
    assert all(v >= 0 for v in y) and y[-1] == 0
    for k, qk in enumerate(q):
        assert sum(v * row[k] for v, row in zip(y, A)) >= qk


def check_witness(A, q, x):
    """Verify that the point x keeps every row of A and breaks q."""
    assert all(v >= 0 for v in x)
    assert all(sum(a * b for a, b in zip(x, row)) <= 0 for row in A)
    assert sum(a * b for a, b in zip(x, q)) > 0


def certified_implication(A, q):
    """Whether A and dominance imply q, its certificate already verified."""
    implied, cert = implication(A, q)
    (check_implied if implied else check_witness)(A, q, cert)
    return implied
