"""Schubert-basis cohomology of G/P, localized on Python ints.

Basis convention: classes are indexed by W^P with codim(sigma_w) equal to
dim(G/P) - length(w), so sigma_e is the point class and the longest coset
representative is the unit.  This is the convention the eigencone formulas
use (theta of (e, top, ..., top) must vanish).

Products are computed by torus-fixed-point localization: equivariant
restrictions of Schubert classes (Billey's subword formula) are evaluated at
a generic point of the Cartan, where an intersection number with matching
total degree is a degree-zero class, i.e. the exact integer.  The generic
point gives the j-th simple root the value 11^j, so every root (looked up by
its int fundamental-weight coordinates) has a nonzero int value: restrictions
and Euler factors e_v are ints, and an integral is an int sum over the fixed
points v of terms scaled by E / e_v, for E the lcm of the e_v, divided once
by E.  theta sums one cached int chi_w(x_P) per class.  The classical
Chevalley rule is implemented independently and used to cross-check divisor
products; the two routes share no code.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .errors import ResourceCapError, UsageError, VerificationError
from .rootsys import RootSystem, Weight
from .weyl import (
    ParabolicSpec,
    dual_rep,
    identity,
    minimal_coset_reps,
    root_reflection,
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
        # positive roots outside the Levi, in int fw coordinates
        outside = [a[excluded - 1] != 0 for a in R.root_alpha]
        levi = [fw for fw, out in zip(R.root_fw, outside) if not out]
        self._outside_fw = tuple(fw for fw, out in zip(R.root_fw, outside) if out)
        self._positive_fw = frozenset(R.root_fw)
        self._levi_sum = tuple(map(sum, zip((0,) * R.rank, *levi)))  # 2 rho^L
        self._tables = None
        self._chi = {}
        self._chi_xP = {}
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

    def unit_element(self):
        return self.basis[-1]  # longest rep: codim 0

    def point_element(self):
        return self.basis[0]  # identity: codim = dim

    def _localization(self):
        """(restrictions, multipliers E / e_v, E), built on the first call."""
        if self._tables is not None:
            return self._tables
        R = self.root_system
        values = {}  # fw coordinates of a root -> its value at the generic point
        for a, fw in zip(R.root_alpha, R.root_fw):
            val = sum(c * _GENERIC_BASE ** (j + 1) for j, c in enumerate(a))
            if val == 0:
                raise VerificationError("generic point vanished on a root")
            values[fw] = val
            values[tuple(-x for x in fw)] = -val
        rest = {}
        for v in self.basis:
            word = v.word
            betas = []
            prefix = identity(R)
            for i in word:
                betas.append(values[prefix.apply_fw(R.cartan_matrix[i - 1])])
                prefix = prefix * simple_reflection(R, i)
            # Billey subword sum as a DP over positions; states are the
            # subword products, extended only when the length goes up
            states = {identity(R): 1}
            for i, bval in zip(word, betas):
                new = dict(states)
                for u, val in states.items():
                    if u.sends_positive(i):
                        u2 = u * simple_reflection(R, i)
                        new[u2] = new.get(u2, 0) + val * bval
                states = new
            rest[v] = states
        euler = {}
        for v in self.basis:
            e = 1
            for b in self._outside_fw:
                e *= -values[v.apply_fw(b)]
            euler[v] = e
        # |e_v| divides the product of |value| over the positive roots
        denom = lcm(*euler.values())
        self._tables = rest, {v: denom // e for v, e in euler.items()}, denom
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

        Exact when the total length equals dim; zero below; undefined above.
        """
        total = sum(w.length for w in ws)
        if total < self.dim:
            return Fraction(0)
        if total > self.dim:
            raise UsageError("integral of an over-degree product is not defined")
        rest, mult, denom = self._localization()
        acc = 0
        for v in self.basis:
            at_v = rest[v]
            term = mult[v]
            for w in ws:
                r = at_v.get(w)
                if not r:
                    break
                term *= r
            else:
                acc += term
        return Fraction(acc, denom)

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
        kept = [b for b in self._outside_fw if w.apply_fw(b) in self._positive_fw]
        total = tuple(map(sum, zip((0,) * R.rank, *kept)))
        # cross-check against rho - 2 rho^L + w^{-1} rho, with rho = (1, ..., 1)
        w_rho = w.inverse().apply_fw((1,) * R.rank)
        if total != tuple(1 - l + x for l, x in zip(self._levi_sum, w_rho)):
            raise VerificationError(f"{self.label}: chi definitions disagree at {word_str(w)}")
        out = Weight(R, total)
        self._chi[w] = out
        return out

    def eval_xP(self, weight: Weight):
        """Evaluation at the dual basis element of the excluded node."""
        a = self.root_system.fw_to_alpha(weight.coords)
        return a[self.parabolic.excluded - 1]

    def _chi_at_xP(self, w):
        """chi_w(x_P), an int per class: the x_P-coefficient of a root sum."""
        if w not in self._chi_xP:
            val = self.eval_xP(self.chi_weight(w))
            if val.denominator != 1:
                raise VerificationError("theta must be an integer")
            self._chi_xP[w] = int(val)
        return self._chi_xP[w]

    def theta(self, ws):
        # chi_e is the full root sum; chi is additive over the slots
        t = self._chi_at_xP
        return t(self.point_element()) - sum(map(t, ws))

    def is_levi_movable(self, ws):
        """(flag, m): nonzero point multiple with theta = 0."""
        m = self.point_multiplicity(ws)
        th = self.theta(ws)
        if m > 0 and th < 0:
            raise VerificationError(
                f"{self.label}: theta < 0 on a nonzero point product {tuple(map(word_str, ws))}"
            )
        return (m > 0 and th == 0), m


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
                word_str(w): c for w, c in prod.coeffs.items()
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
    outside = [k for k, a in enumerate(R.root_alpha) if a[i - 1]]
    out = {}
    for w_spec, coeff in c.coeffs.items():
        wb = F.dual(w_spec)  # length-indexed avatar
        for k in outside:
            u = wb * root_reflection(R, k)
            if u.length == wb.length + 1 and u in F.index:
                mult = R.root_coroot[k][i - 1]  # <omega_i, beta_k^vee>
                if mult:
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
    for ws in _graded_tuples(F, n):
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


def _graded_tuples(F, n):
    dim = F.dim
    partial = []

    def rec(start_from_codim_sum, slots_left):
        if slots_left == 0:
            if start_from_codim_sum == dim:
                yield tuple(partial)
            return
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
