"""Schubert-basis cohomology of G/P in exact rational arithmetic.

Basis convention: classes are indexed by W^P with codim(sigma_w) equal to
dim(G/P) - length(w), so sigma_e is the point class and the longest coset
representative is the unit.  This is the convention the eigencone formulas
use (theta of (e, top, ..., top) must vanish).

Products are computed by torus-fixed-point localization: equivariant
restrictions of Schubert classes (Billey's subword formula) are evaluated at
a generic rational point of the Cartan, where an intersection number with
matching total degree is a degree-zero class, i.e. the exact integer.  The
generic point assigns value 11^j to the j-th simple root, which can vanish
on no root since simple-root coefficients of roots never exceed 4.  The
classical Chevalley rule is implemented independently and used to
cross-check divisor products; the two routes share no code.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import ResourceCapError, UsageError, VerificationError
from .linalg import vadd, vscale
from .rootsys import RootSystem, Weight
from .weyl import (
    ParabolicSpec,
    dual_rep,
    identity,
    minimal_coset_reps,
    simple_reflection,
    word_str,
)

GRADED_PIECE_CAP = 30
TUPLE_CAP = 1_000_000
_GENERIC_BASE = 11  # strictly larger than any simple-root coefficient of a root


class FlagVariety:
    """G/P for a maximal parabolic, with cached exact product data."""

    def __init__(self, R: RootSystem, excluded: int, graded_cap=GRADED_PIECE_CAP):
        self.root_system = R
        self.parabolic = ParabolicSpec(R, excluded)
        self.basis = minimal_coset_reps(R, self.parabolic)
        self.index = {w: i for i, w in enumerate(self.basis)}
        self.dim = max(w.length for w in self.basis)
        self._dual = {w: dual_rep(w, self.parabolic) for w in self.basis}
        by_codim = {}
        for w in self.basis:
            by_codim.setdefault(self.codim(w), []).append(w)
        if max(len(v) for v in by_codim.values()) > graded_cap:
            raise ResourceCapError(
                f"graded piece of {self.label} exceeds {graded_cap} classes",
                cap=graded_cap,
            )
        self.by_codim = by_codim
        self._levi_pos = tuple(
            b
            for b in R.positive_roots
            if R.alpha_coords(b)[excluded - 1] == 0
        )
        self._outside = tuple(
            b for b in R.positive_roots if b not in set(self._levi_pos)
        )
        self.rho_L = vscale(Fraction(1, 2), _vsum(R, self._levi_pos))
        self.x_P = R.dual_basis[excluded - 1]
        self._rest = None
        self._euler = None
        self._chi = {}
        self._pair_cache = {}
        self._chev_cache = None

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

    def unit_element(self):
        return self.basis[-1]  # longest rep: codim 0

    def point_element(self):
        return self.basis[0]  # identity: codim = dim

    def _root_value(self, v_eps):
        a = self.root_system.alpha_coords(v_eps)
        val = Fraction(0)
        for j, c in enumerate(a):
            val += c * _GENERIC_BASE ** (j + 1)
        if val == 0:
            raise VerificationError("generic point vanished on a root")
        return val

    def _localization(self):
        if self._rest is not None:
            return self._rest, self._euler
        R = self.root_system
        simples_eps = R.simple_roots
        rest = {}
        for v in self.basis:
            word = v.word
            betas = []
            prefix = identity(R)
            for i in word:
                betas.append(self._root_value(prefix.apply_eps(simples_eps[i - 1])))
                prefix = prefix * simple_reflection(R, i)
            # Billey subword sum as a DP over positions; states are the
            # subword products, extended only when the length goes up
            states = {identity(R): Fraction(1)}
            for pos, i in enumerate(word):
                bval = betas[pos]
                new = dict(states)
                for u, val in states.items():
                    if u.sends_positive(i):
                        u2 = u * simple_reflection(R, i)
                        new[u2] = new.get(u2, Fraction(0)) + val * bval
                states = new
            rest[v] = states
        euler = {}
        for v in self.basis:
            e = Fraction(1)
            for b in self._outside:
                e *= -self._root_value(v.apply_eps(b))
            euler[v] = e
        self._rest, self._euler = rest, euler
        self._check_localization()
        return rest, euler

    def _check_localization(self):
        # Poincare pairs integrate to 1, non-dual complementary pairs to 0
        for w in self.basis:
            # sigma^B_w has degree length(w); its Poincare dual is dual(w)
            if self.integral_billey((w, self._dual[w])) != 1:
                raise VerificationError(f"{self.label}: localization failed duality check")

    def integral_billey(self, ws):
        """Integral of a product of length-indexed Schubert classes.

        Exact when the total length equals dim; zero below; undefined above.
        """
        total = sum(w.length for w in ws)
        if total < self.dim:
            return Fraction(0)
        if total > self.dim:
            raise UsageError("integral of an over-degree product is not defined")
        rest, euler = self._localization()
        acc = Fraction(0)
        for v in self.basis:
            term = Fraction(1)
            for w in ws:
                r = rest[v].get(w)
                if r is None or r == 0:
                    term = Fraction(0)
                    break
                term *= r
            if term:
                acc += term / euler[v]
        return acc

    # -- products ---------------------------------------------------------

    def point_multiplicity(self, ws):
        """m with sigma_{w1}...sigma_{wn} = m [pt]; requires codim sum = dim."""
        if sum(self.codim(w) for w in ws) != self.dim:
            raise UsageError("codimensions do not sum to dim")
        m = self.integral_billey(tuple(self._dual[w] for w in ws))
        if m.denominator != 1:
            raise VerificationError(f"{self.label}: non-integer intersection number")
        return int(m)

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
                if n.denominator != 1:
                    raise VerificationError(f"{self.label}: non-integer structure constant")
                if n != 0:
                    coeffs[w] = int(n)
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

    def chi_weight(self, w) -> Weight:
        if w in self._chi:
            return self._chi[w]
        if w not in self.index:
            raise UsageError("not a minimal coset representative of this variety")
        R = self.root_system
        total = tuple(Fraction(0) for _ in range(R.ambient_dim))
        for b in self._outside:
            if _is_positive(R, w.apply_eps(b)):
                total = vadd(total, b)
        # cross-check against rho - 2 rho^L + w^{-1} rho
        alt = vadd(
            vadd(R.rho, vscale(-2, self.rho_L)), w.inverse().apply_eps(R.rho)
        )
        if total != alt:
            raise VerificationError(f"{self.label}: chi definitions disagree at {word_str(w)}")
        out = Weight(R, R.fw_coords(total))
        self._chi[w] = out
        return out

    def eval_xP(self, weight: Weight):
        """Evaluation at the dual basis element of the excluded node."""
        a = self.root_system.alpha_coords(weight.ambient)
        return a[self.parabolic.excluded - 1]

    def theta(self, ws):
        chi1 = self.chi_weight(self.point_element())  # w = e: the full root sum
        s = chi1
        for w in ws:
            s = s - self.chi_weight(w)
        val = self.eval_xP(s)
        if val.denominator != 1:
            raise VerificationError("theta must be an integer")
        return int(val)

    def is_levi_movable(self, ws):
        """(flag, m): nonzero point multiple with theta = 0."""
        m = self.point_multiplicity(ws)
        th = self.theta(ws)
        if m > 0 and th < 0:
            raise VerificationError(
                f"{self.label}: theta < 0 on a nonzero point product {tuple(map(word_str, ws))}"
            )
        return (m > 0 and th == 0), m


def _vsum(R, vecs):
    total = tuple(Fraction(0) for _ in range(R.ambient_dim))
    for v in vecs:
        total = vadd(total, v)
    return total


def _is_positive(R, v_eps):
    for c in R.alpha_coords(v_eps):
        if c != 0:
            return c > 0
    raise VerificationError("zero vector has no sign")


@dataclass(frozen=True)
class CohomClass:
    variety: FlagVariety
    coeffs: dict

    def __post_init__(self):
        clean = {w: Fraction(c) for w, c in self.coeffs.items() if c != 0}
        for w in clean:
            if w not in self.variety.index:
                raise UsageError("coefficient key outside the Schubert basis")
        object.__setattr__(self, "coeffs", clean)

    def is_zero(self):
        return not self.coeffs

    def graded_codim(self):
        codims = {self.variety.codim(w) for w in self.coeffs}
        if len(codims) > 1:
            raise UsageError("class is not graded")
        return codims.pop() if codims else None

    def point_coefficient(self):
        return self.coeffs.get(self.variety.point_element(), Fraction(0))

    def __add__(self, other):
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            out[w] = out.get(w, 0) + c
        return CohomClass(self.variety, out)

    def __rmul__(self, c):
        return CohomClass(self.variety, {w: c * x for w, x in self.coeffs.items()})


# -- module-level op surface -------------------------------------------------


@lru_cache(maxsize=None)
def flag_variety(R, excluded):
    return FlagVariety(R, excluded)


def structure_constants(F):
    """Full table: (u, v) -> {w: integer coefficient}, words as digit strings."""
    table = {}
    for u in F.basis:
        for v in F.basis:
            prod = F.cup_product(u, v)
            table[(word_str(u), word_str(v))] = {
                word_str(w): int(c) for w, c in prod.coeffs.items()
            }
    return table


def divisor_element(F):
    """The unique codim-1 basis class."""
    (w,) = F.by_codim[1]
    return w


def chevalley_multiply(F, i, c: CohomClass):
    """Divisor times a class by the classical Chevalley rule.

    Independent of the localization route; transported to the point-indexed
    basis through the dual involution.  i must name the excluded node (the
    unique divisor slot of a maximal parabolic).
    """
    if i != F.parabolic.excluded:
        raise UsageError("divisor slot must be the excluded simple root")
    if c.variety is not F:
        raise UsageError("class is over a different variety")
    R = F.root_system
    omega = R.fundamental_weights[i - 1]
    out = {}
    for w_spec, coeff in c.coeffs.items():
        wb = F.dual(w_spec)  # length-indexed avatar
        for b in F._outside:
            u = wb * _reflection_cached(R, b)
            if u.length == wb.length + 1 and u in F.index:
                mult = R.coroot_pairing(omega, b)
                if mult:
                    tgt = F.dual(u)
                    out[tgt] = out.get(tgt, 0) + coeff * mult
    return CohomClass(F, out)


@lru_cache(maxsize=None)
def _reflection_cached(R, beta):
    from .weyl import reflection

    return reflection(R, beta)


@dataclass(frozen=True)
class PointTuple:
    elements: tuple
    multiplicity: int
    theta: int

    @property
    def words(self):
        return tuple(word_str(w) for w in self.elements)


def point_product_tuples(F, n, filter="point", tuple_cap=TUPLE_CAP):
    """Ordered tuples (w1..wn) in (W^P)^n with codim sum = dim, filtered.

    filter: "all" emits every grading-compatible tuple; "point" keeps
    nonzero products m [pt]; "levi" additionally keeps theta = 0.
    Canonical lexicographic order over the basis index.
    """
    if n < 1:
        raise UsageError("n must be >= 1")
    if filter not in ("all", "point", "levi"):
        raise UsageError(f"unknown filter {filter!r}")
    count = 0
    for ws in _graded_tuples(F, n, tuple_cap):
        count += 1
        if count > tuple_cap:
            raise ResourceCapError(
                f"tuple enumeration over {F.label} exceeds cap {tuple_cap}",
                cap=tuple_cap,
            )
        m = F.point_multiplicity(ws)
        th = F.theta(ws)
        if filter in ("point", "levi") and m == 0:
            continue
        if filter == "levi" and th != 0:
            continue
        yield PointTuple(ws, m, th)


def _graded_tuples(F, n, cap):
    dim = F.dim
    partial = []

    def rec(start_from_codim_sum, slots_left):
        if slots_left == 0:
            if start_from_codim_sum == dim:
                yield tuple(partial)
            return
        remaining_max = slots_left * dim
        for w in F.basis:
            c = F.codim(w)
            s = start_from_codim_sum + c
            if s > dim:
                continue
            if s + (slots_left - 1) * dim < dim:
                continue
            partial.append(w)
            yield from rec(s, slots_left - 1)
            partial.pop()

    yield from rec(0, n)
