"""Epsilon-coordinate references for the tests.

The package reads int root rows and never converts a weight to or from the
epsilon basis.  These helpers keep the epsilon formulas, on Fraction and
on the Fraction inverse of the Cartan matrix, so that the tests can check
the int paths against them.
"""

from functools import lru_cache

from eigencones.linalg import dot, mat_inv


@lru_cache(maxsize=None)
def _inverse_columns(R):
    return tuple(zip(*mat_inv(R.cartan_matrix)))


def fw_to_alpha(R, coords):
    """Fundamental-weight coordinates to coordinates over the simple roots."""
    return tuple(dot(coords, col) for col in _inverse_columns(R))


def fw_coords(R, v):
    """Fundamental-weight coordinates: the j-th entry is v on alpha_j's coroot."""
    return tuple(R.coroot_pairing(v, a) for a in R.simple_roots)


def ambient(weight):
    """A Weight's epsilon coordinates."""
    return weight.root_system.from_fw(weight.coords)


def apply_eps(w, v):
    """w acting on an epsilon vector that lies in the root span."""
    R = w.root_system
    return R.from_fw(w.apply_fw(fw_coords(R, v)))


def alpha_coords(R, v):
    """Coordinates of v over the simple roots (v must lie in their span)."""
    return fw_to_alpha(R, fw_coords(R, v))


@lru_cache(maxsize=None)
def _positions(R):
    return {b: k for k, b in enumerate(R.positive_roots)}


def root_index(R, v):
    """Position in positive_roots of whichever of +-v is there, else None."""
    v = tuple(v)
    i = _positions(R).get(v)
    return _positions(R).get(tuple(-x for x in v)) if i is None else i


def is_positive_root(R, v):
    return tuple(v) in _positions(R)


def chi_root_sum(F, w):
    """chi_w in epsilon coordinates: the sum of the positive roots outside
    the Levi of F's parabolic that w keeps positive."""
    R, p = F.root_system, F.parabolic.excluded - 1
    total = (0,) * R.ambient_dim
    for beta in R.positive_roots:
        if alpha_coords(R, beta)[p] and is_positive_root(R, apply_eps(w, beta)):
            total = tuple(a + b for a, b in zip(total, beta))
    return total


def chi_coefficient(F, w):
    """The alpha_P-coefficient of chi_root_sum(F, w), an int."""
    val = alpha_coords(F.root_system, chi_root_sum(F, w))[F.parabolic.excluded - 1]
    assert val.denominator == 1
    return int(val)
