"""Tiny exact linear algebra over Fraction.

Only what the root-system and Weyl machinery needs: vector arithmetic,
inverses of Cartan and Gram matrices, clearing denominators so that the
root rows and the Weyl kernel are ints, and the set bits of an int bitset.
Everything is tuples of Fractions or ints; no floats.
"""

from fractions import Fraction
from math import lcm


def vec(entries):
    return tuple(Fraction(x) for x in entries)


def vadd(a, b):
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vscale(c, a):
    c = Fraction(c)
    return tuple(c * x for x in a)


def dot(a, b):
    return sum((x * y for x, y in zip(a, b, strict=True)), Fraction(0))


def set_bits(x):
    """Positions of the set bits of an int, lowest first."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def mat_inv(m):
    """Gauss-Jordan inverse over Fraction; raises ValueError on a singular input."""
    n = len(m)
    aug = [
        list(map(Fraction, row)) + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(m)
    ]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def integer_multiple(rows):
    """(d, d * rows) for the least positive d making every entry an int."""
    d = lcm(*(x.denominator for row in rows for x in row))
    return d, tuple(
        tuple(x.numerator * (d // x.denominator) for x in row) for row in rows
    )
