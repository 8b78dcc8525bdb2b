"""Schubert-basis cohomology of G/P, localized on Python ints.

Basis convention: classes are indexed by W^P with codim(sigma_w) equal to
dim(G/P) - length(w), so sigma_e is the point class and the longest coset
representative is the unit.  This is the convention the eigencone formulas
use (theta of (e, top, ..., top) must vanish).

Products are computed by torus-fixed-point localization: equivariant
restrictions of Schubert classes are evaluated at a generic point of the
Cartan, where an intersection number with matching total degree is a
degree-zero class, i.e. the exact integer.  The generic point gives the j-th
simple root the value 11^j, so every root has a nonzero int value.  The
restrictions follow the equivariant Chevalley rule (Kostant-Kumar 1986),
filled from the longest class down with one exact int division per entry,
and are kept by basis position with a bitset of the fixed points v >= w where
sigma_w is non-zero.  An integral is an int sum over the common support of
terms scaled by E / e_v, for E the lcm of the Euler factors e_v, divided once
by E, and a remainder is a VerificationError.  theta sums one int
chi_w(x_P) per class, tabled when the variety is built and read off the
orbit point x = w omega_P: chi_e(x_P) - 2 (rho, omega_P - x) / (alpha_P,
alpha_P) on the int weight Gram matrix, one exact division checked against
the alpha_P-coefficients of the outside roots that w keeps positive.
Nothing here is a Fraction.
chevalley_multiply reads the recursion's covers; the tests check both
against Billey's formula.  A run is priced before any variety is built:
the graded piece sizes N_c are read off the lengths of the omega_P walk.
The tuple stream yields one tier's walls and reads theta before the
integral; theta >= 0 on every nonzero product (Belkale-Kumar 2006), so
m > 0 with theta < 0 is a VerificationError wherever m is known.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from math import lcm, prod
from operator import and_, mul, or_

from .errors import ResourceCapError, UsageError, VerificationError
from .linalg import set_bits
from .rootsys import RootSystem
from .weyl import (ParabolicSpec, _is_positive, dual_rep, minimal_coset_reps,
                   parabolic_walk, root_reflection, word_str)

TIERS = ("nonzero", "point", "levi")
GRADED_PIECE_CAP = 30
WORK_CAP = 3_000_000  # slot evaluations (graded tuples x n) of one tuple stream
_COUNT_CEILING = 10**18  # graded_tuple_count saturates here
_GENERIC_BASE = 11  # strictly larger than any simple-root coefficient of a root


class FlagVariety:
    """G/P for a maximal parabolic, with cached exact product data."""

    def __init__(self, R: RootSystem, excluded: int):
        self.root_system = R
        self.parabolic = ParabolicSpec(R, excluded)
        graded_counts(R, excluded)  # priced before any element exists
        self.basis = minimal_coset_reps(R, self.parabolic)
        self.index = {w: i for i, w in enumerate(self.basis)}
        self.dim = max(w.length for w in self.basis)
        self.by_codim = by_codim = {}
        for w in self.basis:
            by_codim.setdefault(self.codim(w), []).append(w)
        self._dual = {w: dual_rep(w, self.parabolic) for w in self.basis}
        # positive roots beta outside the Levi: int fw coordinates,
        # <omega_P, beta^vee> and the reflection r_beta
        p = excluded - 1
        outside = [k for k, a in enumerate(R.root_alpha) if a[p]]
        self._outside_fw = tuple(R.root_fw[k] for k in outside)
        self._outside_mult = tuple(R.root_coroot[k][p] for k in outside)
        self._outside_reflections = tuple(root_reflection(R, k) for k in outside)
        # chi_w(x_P) = chi_e(x_P) - 2 (rho, omega_P - x) / (alpha_P, alpha_P) at
        # the orbit point x = w omega_P, checked against its definition: the
        # alpha_P-coefficients of the outside roots that w keeps positive
        G, alpha_P = R.weight_gram, R.cartan_matrix[p]
        rho_G = tuple(map(sum, G))  # (rho, omega_j) for rho = (1, ..., 1)
        norm = sum(a * sum(map(mul, row, alpha_P)) for a, row in zip(alpha_P, G))
        coeffs = [R.root_alpha[k][p] for k in outside]
        chi_e = sum(coeffs)
        self._chi = {}
        for w in self.basis:
            x = (row[p] for row in w.matrix)
            shift, remainder = divmod(2 * (rho_G[p] - sum(map(mul, rho_G, x))), norm)
            h = w._height_row()
            kept = sum(c for c, b in zip(coeffs, self._outside_fw) if _is_positive(h, b))
            if remainder:
                raise VerificationError(f"{self.label}: chi_w(x_P) is not an integer "
                                        f"at {word_str(w)}")
            if chi_e - shift != kept:
                raise VerificationError(f"{self.label}: chi definitions disagree at {word_str(w)}")
            self._chi[w] = kept
        self._covers = {}
        self._tables = None
        self._pair_cache = {}

    # -- plumbing ---------------------------------------------------------

    @property
    def label(self):
        return f"{self.root_system.label}/P{self.parabolic.excluded}"

    def codim(self, w):
        if w not in self.index:
            raise UsageError("not a minimal coset representative of this variety")
        return self.dim - w.length

    def dual(self, w):
        return self._dual[w]

    def point_element(self):
        return self.basis[0]  # identity: codim = dim

    def covers(self, w):
        """(u, <omega_P, beta^vee>) for each u = w r_beta in W^P of length l(w) + 1.

        Only roots outside the Levi qualify: a Levi reflection keeps the coset.
        """
        if w not in self._covers:
            found = []
            for r, mult in zip(self._outside_reflections, self._outside_mult):
                j = self.index.get(w * r)
                if j is not None and self.basis[j].length == w.length + 1:
                    found.append((self.basis[j], mult))
            self._covers[w] = tuple(found)
        return self._covers[w]

    def _localization(self):
        """(restrictions, supports, multipliers E / e_v, E), built on the first call.

        restrictions[i][j] is sigma_w(v) for the basis classes w, v at positions
        i, j; it is non-zero exactly on the set bits of supports[i].
        """
        if self._tables is not None:
            return self._tables
        R = self.root_system
        # the generic point on the fundamental weights, times d: exact on the root lattice
        d = R.inverse_scale
        omega = [sum(c * _GENERIC_BASE ** (j + 1) for j, c in enumerate(row))
                 for row in R.cartan_inverse]

        def value(fw):
            return sum(map(mul, fw, omega)) // d

        if not all(map(value, R.root_fw)):
            raise VerificationError("generic point vanished on a root")
        p = self.parabolic.excluded - 1
        divisor, diagonal, euler = [], [], []
        for v in self.basis:
            # D(v), the value of omega_P - v omega_P
            divisor.append(value([int(i == p) - row[p] for i, row in enumerate(v.matrix)]))
            # v is minimal in its coset, so the roots it inverts lie outside the Levi
            images = [value(v.apply_fw(b)) for b in self._outside_fw]
            diagonal.append(prod(-x for x in images if x < 0))
            euler.append(prod(-x for x in images))
        # the equivariant Chevalley rule at v, longest class first:
        # (D(v) - D(w)) sigma_w(v) = sum over covers u of <omega_P, beta^vee> sigma_u(v)
        n = len(self.basis)
        rest, support = [None] * n, [0] * n
        for i in reversed(range(n)):
            covers = [(self.index[u], mult) for u, mult in self.covers(self.basis[i])]
            above = reduce(or_, (support[k] for k, _ in covers), 0)
            row = [0] * n
            row[i] = diagonal[i]
            for j in set_bits(above):
                total = sum(mult * rest[k][j] for k, mult in covers)
                gap = divisor[j] - divisor[i]
                if gap == 0 or total % gap:
                    raise VerificationError(f"{self.label}: Chevalley recursion is not exact")
                row[j] = total // gap
            rest[i], support[i] = row, above | 1 << i
        # |e_v| divides the product of |value| over the positive roots
        denom = lcm(*euler)
        self._tables = rest, support, [denom // e for e in euler], denom
        self._check_localization()
        return self._tables

    def _check_localization(self):
        # Poincare pairs integrate to 1, non-dual complementary pairs to 0
        for w in self.basis:
            # sigma^B_w has degree length(w); its Poincare dual is dual(w)
            if self.integral_billey((w, self._dual[w])) != 1:
                raise VerificationError(f"{self.label}: localization failed duality check")

    def integral_billey(self, ws):
        """Integral of a product of length-indexed Schubert classes.

        An int when the total length equals dim; zero below; undefined above.
        """
        total = sum(self.dim - self.codim(w) for w in ws)  # codim rejects non-basis w
        if total < self.dim:
            return 0
        if total > self.dim:
            raise UsageError("integral of an over-degree product is not defined")
        rest, support, mult, denom = self._localization()
        rows = [rest[self.index[w]] for w in ws]
        common = reduce(and_, (support[self.index[w]] for w in ws))
        acc = sum(mult[j] * prod(row[j] for row in rows) for j in set_bits(common))
        value, remainder = divmod(acc, denom)
        if remainder:
            raise VerificationError(f"{self.label}: non-integer intersection number")
        return value

    # -- products ---------------------------------------------------------

    def point_multiplicity(self, ws):
        """m with sigma_{w1}...sigma_{wn} = m [pt]; requires codim sum = dim.
        theta >= 0 on a nonzero product, so m > 0 with theta < 0 is refused."""
        if sum(self.codim(w) for w in ws) != self.dim:
            raise UsageError("codimensions do not sum to dim")
        m = self.integral_billey(tuple(self._dual[w] for w in ws))
        if m > 0 and self.theta(ws) < 0:
            raise VerificationError(
                f"{self.label}: theta < 0 on a nonzero point product {tuple(map(word_str, ws))}"
            )
        return m

    def cup_product(self, u, v):
        if u not in self.index or v not in self.index:
            raise UsageError(f"{self.label}: factors must be basis classes")
        key = (u, v) if self.index[u] <= self.index[v] else (v, u)
        if key in self._pair_cache:
            return self._pair_cache[key]
        cu, cv = self.codim(u), self.codim(v)
        coeffs = {}
        if cu + cv <= self.dim:
            a, b = self._dual[u], self._dual[v]
            for w in self.by_codim[cu + cv]:
                n = self.integral_billey((a, b, w))
                if n != 0:
                    coeffs[w] = n
        out = CohomClass(self, coeffs)
        self._pair_cache[key] = out
        return out

    def multiply_classes(self, c1, c2):
        out = {}
        for u, a in c1.coeffs.items():
            for v, b in c2.coeffs.items():
                for w, n in self.cup_product(u, v).coeffs.items():
                    out[w] = out.get(w, 0) + a * b * n
        return CohomClass(self, out)

    # -- chi / theta ------------------------------------------------------

    def chi_at_xP(self, w):
        """chi_w(x_P), an int per class: the alpha_P-coefficient of the root sum chi_w."""
        if w not in self._chi:
            raise UsageError("not a minimal coset representative of this variety")
        return self._chi[w]

    def theta(self, ws):
        # chi_e is the full root sum; chi is additive over the slots
        t = self.chi_at_xP
        return t(self.point_element()) - sum(map(t, ws))

    def is_levi_movable(self, ws):
        """(flag, m): nonzero point multiple with theta = 0."""
        m = self.point_multiplicity(ws)
        return (m > 0 and self.theta(ws) == 0), m


@dataclass(frozen=True)
class CohomClass:
    variety: FlagVariety
    coeffs: dict

    def __post_init__(self):
        clean = {w: c for w, c in self.coeffs.items() if c != 0}
        for w, c in clean.items():
            if w not in self.variety.index:
                raise UsageError("coefficient key outside the Schubert basis")
            if c != int(c):
                raise UsageError("Schubert-basis coefficients are integers")
        object.__setattr__(self, "coeffs", {w: int(c) for w, c in clean.items()})

    def is_zero(self):
        return not self.coeffs

    def graded_codim(self):
        codims = {self.variety.codim(w) for w in self.coeffs}
        if len(codims) > 1:
            raise UsageError("class is not graded")
        return codims.pop() if codims else None

    def point_coefficient(self):
        return self.coeffs.get(self.variety.point_element(), 0)


# -- module-level op surface -------------------------------------------------


@lru_cache(maxsize=None)
def flag_variety(R, excluded):
    return FlagVariety(R, excluded)


def chevalley_multiply(F, i, c: CohomClass):
    """Divisor times a class by the classical Chevalley rule.

    Reads the covers of the length-indexed avatar, transported to the
    point-indexed basis through the dual involution.  i must name the
    excluded node (the unique divisor slot of a maximal parabolic).
    """
    if i != F.parabolic.excluded:
        raise UsageError("divisor slot must be the excluded simple root")
    if c.variety is not F:
        raise UsageError("class is over a different variety")
    out = {}
    for w_spec, coeff in c.coeffs.items():
        for u, mult in F.covers(F.dual(w_spec)):
            tgt = F.dual(u)
            out[tgt] = out.get(tgt, 0) + coeff * mult
    return CohomClass(F, out)


@dataclass(frozen=True)
class PointTuple:
    elements: tuple
    multiplicity: int
    theta: int

    @property
    def words(self):
        return tuple(word_str(w) for w in self.elements)


def point_product_tuples(F, n, tier):
    """The tier's walls: tuples (w1..wn) in (W^P)^n with codim sum dim and
    sigma_{w1}...sigma_{wn} = m [pt], in lexicographic order of basis index.

    tier "nonzero" keeps m != 0, "point" m = 1 and "levi" m = 1 with theta = 0.
    theta, a sum of cached per-class ints, is read first, and the levi tier
    runs the integral only where theta <= 0.
    """
    if n < 1:
        raise UsageError("n must be >= 1")
    if tier not in TIERS:
        raise UsageError(f"tier must be one of {TIERS}")
    check_tuple_work(F.root_system, [F.parabolic.excluded], n)
    levi = tier == "levi"
    for ws in _graded_tuples(F, n):
        th = F.theta(ws)
        if levi and th > 0:
            continue
        m = F.point_multiplicity(ws)
        if (m != 0 if tier == "nonzero" else m == 1) and not (levi and th):
            yield PointTuple(ws, m, th)


@lru_cache(maxsize=None)
def graded_counts(R, p):
    """N_c, the classes of codimension c in H*(G/P) for c = 0..dim, read off
    the lengths of the omega_P walk; a piece over GRADED_PIECE_CAP is refused."""
    lengths = [length for length, _, _ in parabolic_walk(R, p).values()]
    counts = [0] * (lengths[-1] + 1)  # the walk is breadth-first
    for length in lengths:
        counts[-1 - length] += 1
    if max(counts) > GRADED_PIECE_CAP:
        raise ResourceCapError(f"graded piece of {R.label}/P{p} exceeds "
                               f"{GRADED_PIECE_CAP} classes")
    return tuple(counts)


def graded_tuple_count(R, p, n):
    """The number of graded n-tuples over G/P, or _COUNT_CEILING if larger: the
    t^dim coefficient of (sum_c N_c t^c)^n, by repeated squaring truncated at
    degree dim, saturating (no term is < 0)."""
    base = graded_counts(R, p)
    dim = len(base) - 1

    def times(a, b):
        return [min(sum(a[i] * b[k - i] for i in range(k + 1)), _COUNT_CEILING)
                for k in range(dim + 1)]

    power = [1] + [0] * dim
    for bit in bin(n)[2:]:
        power = times(power, power)
        if bit == "1":
            power = times(power, base)
    return power[dim]


def check_tuple_work(R, parabolics, n):
    """Price the parabolics of R: every graded piece first, then raise
    ResourceCapError on the first whose graded tuples x n exceed WORK_CAP."""
    for p, count in zip(parabolics, [graded_tuple_count(R, p, n) for p in parabolics]):
        if count * n > WORK_CAP:
            shown = f"{count:,}" if count < _COUNT_CEILING else f"over {_COUNT_CEILING:,}"
            raise ResourceCapError(f"{R.label}/P{p} has {shown} graded {n}-tuples, and "
                                   f"tuples x n is over the cap {WORK_CAP:,}")


def _graded_tuples(F, n):
    """Basis tuples with codim sum dim in lexicographic order of basis index,
    walked on an explicit stack so that n never meets the recursion limit."""
    basis, dim, last = F.basis, F.dim, n - 1
    codims = [F.codim(w) for w in basis]
    partial, sums, i = [], [0], 0  # the chosen prefix and its running codim sums
    while True:
        if i < len(basis):
            s = sums[-1] + codims[i]
            if len(partial) < last and s <= dim:
                partial.append(basis[i])
                sums.append(s)
                i = 0
                continue
            if len(partial) == last and s == dim:
                yield (*partial, basis[i])
            i += 1
        elif partial:
            i = F.index[partial.pop()] + 1
            sums.pop()
        else:
            return
