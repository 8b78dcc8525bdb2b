"""Exact root-system data in Bourbaki coordinates.

The positive roots are built on ints from the Cartan matrix, in simple-root
coordinates, and each carries int rows that every layer reads: its
fundamental-weight coordinates and its coroot over the simple coroots.
Types A, B, C, D, G2, F4 are also realized by explicit rational simple-root
vectors in an ambient Euclidean space (the epsilon-basis); epsilon
coordinates of roots and weights are a view for reports and the epsilon
API.  The invariant form is the Euclidean one rescaled so that the highest
root theta has squared length 2; with that normalization all pairings
appearing in the eigencone inequalities are exact rationals.

Also houses the sub-root-system embeddings: the Sp(2s) x Sp(2(r-s)) family
inside Sp(2r), the odd-orthogonal chain, the long-root SL2 inside G2, and
the G2 inside F4 obtained by folding a D4 subsystem.  For folded embeddings
a sub simple root is represented by the *orbit* of pairwise orthogonal
ambient roots it restricts from; the corresponding Weyl generator image is
the product of the orbit's reflections (module weyl).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .errors import ConfigurationError, UsageError
from .linalg import dot, integer_multiple, mat_inv, vadd, vec, vscale

SCHEMA_VERSION = 1

_COUNTS = {
    "A": lambda r: r * (r + 1) // 2,
    "B": lambda r: r * r,
    "C": lambda r: r * r,
    "D": lambda r: r * (r - 1),
    "G2": lambda r: 6,
    "F4": lambda r: 24,
}


def _simple_root_vectors(kind, rank):
    F = Fraction
    e = lambda i, n: tuple(F(1) if j == i else F(0) for j in range(n))
    if kind == "A":
        n = rank + 1
        return [vec(vadd(e(i, n), vscale(-1, e(i + 1, n)))) for i in range(rank)]
    if kind == "B":
        n = rank
        roots = [vadd(e(i, n), vscale(-1, e(i + 1, n))) for i in range(rank - 1)]
        roots.append(e(rank - 1, n))
        return roots
    if kind == "C":
        n = rank
        roots = [vadd(e(i, n), vscale(-1, e(i + 1, n))) for i in range(rank - 1)]
        roots.append(vscale(2, e(rank - 1, n)))
        return roots
    if kind == "D":
        n = rank
        roots = [vadd(e(i, n), vscale(-1, e(i + 1, n))) for i in range(rank - 1)]
        roots.append(vadd(e(rank - 2, n), e(rank - 1, n)))
        return roots
    if kind == "G2":
        return [vec([1, -1, 0]), vec([-2, 1, 1])]
    if kind == "F4":
        return [
            vec([0, 1, -1, 0]),
            vec([0, 0, 1, -1]),
            vec([0, 0, 0, 1]),
            vec([F(1, 2), F(-1, 2), F(-1, 2), F(-1, 2)]),
        ]
    raise ConfigurationError(f"unknown Cartan type {kind!r}")


def _validate_kind_rank(kind, rank):
    if kind not in _COUNTS:
        raise ConfigurationError(f"unknown Cartan type {kind!r}")
    if kind == "G2" and rank != 2:
        raise ConfigurationError("G2 has rank 2")
    if kind == "F4" and rank != 4:
        raise ConfigurationError("F4 has rank 4")
    if kind == "D" and rank < 3:
        raise ConfigurationError("type D needs rank >= 3")
    if kind in ("A", "B", "C") and rank < 1:
        raise ConfigurationError("rank must be positive")


# equality and hashing by identity: build_root_system is cached, and every
# lru_cache keyed on a root system would otherwise hash all its Fractions
@dataclass(frozen=True, eq=False)
class RootSystem:
    kind: str
    rank: int
    ambient_dim: int
    simple_roots: tuple            # epsilon coordinates
    positive_roots: tuple          # epsilon view of root_alpha
    cartan_matrix: tuple           # C[i][j] = <alpha_i, alpha_j^vee>
    fundamental_weights: tuple     # epsilon coordinates
    killing_scale: Fraction        # <u,v> = scale * (u . v)
    highest_root: tuple
    rho: tuple
    dual_basis: tuple              # x_i, Killing-identified, epsilon coords
    cartan_inverse: tuple          # Fractions; row i is omega_i over the simple roots
    # int rows, one per positive root in positive_roots order
    root_alpha: tuple              # over the simple roots, height-then-lex order
    root_fw: tuple                 # fundamental-weight coordinates, a . C
    root_coroot: tuple             # the coroot over the simple coroots
    weight_gram: tuple             # ints: a positive multiple of (omega_i, omega_j)
    _index: dict = field(repr=False)  # epsilon positive root -> its position

    # -- pairings ---------------------------------------------------------

    def killing(self, u, v):
        """Normalized invariant form on epsilon vectors."""
        return self.killing_scale * dot(u, v)

    def coroot_pairing(self, v, beta):
        """2<v, beta> / <beta, beta>; the evaluation of v on beta's coroot."""
        return 2 * dot(v, beta) / dot(beta, beta)

    # -- coordinate changes ----------------------------------------------

    def alpha_coords(self, v):
        """Coordinates of v over the simple roots (v must lie in their span)."""
        fw = self.fw_coords(v)
        return tuple(dot(fw, col) for col in zip(*self.cartan_inverse))

    def fw_coords(self, v):
        """Fundamental-weight coordinates: j-th entry is v on alpha_j's coroot."""
        return tuple(self.coroot_pairing(v, a) for a in self.simple_roots)

    def from_fw(self, coords):
        if len(coords) != self.rank:
            raise UsageError("coordinate length does not match rank")
        out = tuple(Fraction(0) for _ in range(self.ambient_dim))
        for c, w in zip(coords, self.fundamental_weights):
            out = vadd(out, vscale(c, w))
        return out

    def root_index(self, v):
        """Position in positive_roots of whichever of +-v is there, else None."""
        v = tuple(v)
        i = self._index.get(v)
        return self._index.get(tuple(-x for x in v)) if i is None else i

    def is_root(self, v):
        return self.root_index(v) is not None

    def is_positive_root(self, v):
        return tuple(v) in self._index

    @property
    def label(self):
        return f"{self.kind}{self.rank}" if self.kind in "ABCD" else self.kind


@dataclass(frozen=True)
class Weight:
    """A weight in fundamental-weight coordinates of a fixed root system."""

    root_system: RootSystem
    coords: tuple

    def __post_init__(self):
        if len(self.coords) != self.root_system.rank:
            raise UsageError("coordinate length does not match rank")

    @property
    def ambient(self):
        return self.root_system.from_fw(self.coords)

    def is_dominant(self):
        return all(c >= 0 for c in self.coords)

    def __add__(self, other):
        if other.root_system is not self.root_system:
            raise UsageError("weights over different root systems")
        return Weight(self.root_system, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, c):
        c = Fraction(c)
        return Weight(self.root_system, tuple(c * x for x in self.coords))

    def __hash__(self):
        return hash((self.root_system.kind, self.root_system.rank, self.coords))


def _as_epsilon(R, x):
    if isinstance(x, Weight):
        if x.root_system.label != R.label:
            raise UsageError("weight belongs to a different root system")
        return x.ambient
    v = tuple(Fraction(c) for c in x)
    if len(v) != R.ambient_dim:
        raise UsageError("dimension mismatch")
    return v


def killing_pairing(R, a, b):
    """Normalized invariant form; accepts Weight objects or epsilon vectors."""
    return R.killing(_as_epsilon(R, a), _as_epsilon(R, b))


def _positive_alpha_coords(C):
    """Positive roots over the simple roots, in height-then-lex order.

    s_i a = a - <a, alpha_i^vee> alpha_i with <a, alpha_i^vee> = sum_j a_j
    C[j][i] permutes the positive roots other than alpha_i, and every
    positive root of height h > 1 is s_i of one of height < h, so closing the
    simple roots under these moves reaches them all (Bourbaki, Ch. VI §1).
    """
    r = len(C)
    simples = [tuple(int(j == i) for j in range(r)) for i in range(r)]
    roots = set(simples)
    frontier = simples
    while frontier:
        new = []
        for a in frontier:
            for i in range(r):
                p = sum(a[j] * C[j][i] for j in range(r))
                if p and a != simples[i]:
                    b = a[:i] + (a[i] - p,) + a[i + 1:]
                    if b not in roots:
                        roots.add(b)
                        new.append(b)
        frontier = new
    return tuple(sorted(roots, key=lambda a: (sum(a), a)))


@lru_cache(maxsize=None)
def build_root_system(kind, rank):
    _validate_kind_rank(kind, rank)
    simples = tuple(_simple_root_vectors(kind, rank))
    n = len(simples[0])
    cartan = tuple(
        tuple(int(2 * dot(a, b) / dot(b, b)) for b in simples) for a in simples
    )
    alphas = _positive_alpha_coords(cartan)
    expected = _COUNTS[kind](rank)
    if len(alphas) != expected:
        raise ConfigurationError(
            f"{kind}{rank}: found {len(alphas)} positive roots, expected {expected}"
        )
    # epsilon coordinates are a view: row . (alpha_1, ..., alpha_r) / d
    d_eps, eps_int = integer_multiple(simples)
    eps_cols = tuple(zip(*eps_int))

    def view(rows, d):
        return tuple(
            tuple(Fraction(sum(map(mul, row, col)), d) for col in eps_cols)
            for row in rows
        )

    pos_roots = view(alphas, d_eps)
    theta = pos_roots[-1]  # unique maximal height
    scale = Fraction(2) / dot(theta, theta)

    cartan_inv = mat_inv(cartan)
    d_inv, inv_int = integer_multiple(cartan_inv)
    fws = view(inv_int, d_inv * d_eps)
    rho = view([tuple(map(sum, zip(*alphas)))], 2 * d_eps)[0]

    # x_i: the Killing-dual of the functional with alpha_j(x_i) = delta_ij
    dual_basis = tuple(
        vscale(Fraction(2) / (scale * dot(a, a)), w) for a, w in zip(simples, fws)
    )

    # <a, alpha_j^vee> = sum_k a_k C[k][j]; with |alpha_k|^2 = norms[k] up to
    # one scale, 2 |beta|^2 = sum_j a_j fw_j norms[j] and the coroot of beta
    # is sum_k (2 a_k norms[k] / 2 |beta|^2) alpha_k^vee
    root_fw = tuple(tuple(sum(map(mul, a, col)) for col in zip(*cartan)) for a in alphas)
    _, (norms,) = integer_multiple([[dot(a, a) for a in simples]])
    root_coroot = []
    for a, fw in zip(alphas, root_fw):
        sq = sum(map(mul, map(mul, a, fw), norms))
        root_coroot.append(tuple(2 * x * m // sq for x, m in zip(a, norms)))
    _, weight_gram = integer_multiple([[dot(u, v) for v in fws] for u in fws])

    R = RootSystem(
        kind=kind,
        rank=rank,
        ambient_dim=n,
        simple_roots=simples,
        positive_roots=pos_roots,
        cartan_matrix=cartan,
        fundamental_weights=fws,
        killing_scale=scale,
        highest_root=theta,
        rho=rho,
        dual_basis=dual_basis,
        cartan_inverse=cartan_inv,
        root_alpha=alphas,
        root_fw=root_fw,
        root_coroot=tuple(root_coroot),
        weight_gram=weight_gram,
        _index={b: k for k, b in enumerate(pos_roots)},
    )
    _check_root_system(R)
    return R


def _check_root_system(R):
    if R.killing(R.highest_root, R.highest_root) != 2:
        raise ConfigurationError("highest root not normalized to length 2")
    for i, w in enumerate(R.fundamental_weights):
        for j, a in enumerate(R.simple_roots):
            if R.coroot_pairing(w, a) != (1 if i == j else 0):
                raise ConfigurationError("fundamental weight pairing failed")
    for i, x in enumerate(R.dual_basis):
        for j, a in enumerate(R.simple_roots):
            # alpha_j(x_i) via the Killing identification
            if R.killing(a, x) != (1 if i == j else 0):
                raise ConfigurationError("dual basis pairing failed")


# ---------------------------------------------------------------------------
# Sub-root-system embeddings
# ---------------------------------------------------------------------------


# equality and hashing by identity, as for RootSystem: build_embedding is cached
@dataclass(frozen=True, eq=False)
class SubsystemEmbedding:
    """An isometric embedding of root data, sub into ambient.

    orbits[i] is the tuple of pairwise orthogonal ambient roots whose
    reflections multiply to the Weyl image of the i-th sub generator; for a
    genuine sub-root-system the orbit is a singleton and its member is an
    actual ambient root.  simple_images[i] is the orbit average, i.e. the
    restricted root direction, with the sub's exact root length when the
    embedding is isometric.
    """

    case: str
    ambient: RootSystem
    sub: RootSystem
    orbits: tuple
    simple_images: tuple
    parabolic_map: tuple            # pairs (sub node, ambient node), 1-based
    gram_scale: Fraction
    second: "SubsystemEmbedding | None" = None
    stages: tuple = ()

    def matched_parabolic(self, q):
        for a, b in self.parabolic_map:
            if a == q:
                return b
        raise UsageError(f"no ambient parabolic matched to sub node {q}")

    def image_alpha_coords(self, i):
        """The i-th image direction over the ambient simple roots."""
        return self.ambient.alpha_coords(self.simple_images[i])


def _make_embedding(case, ambient, sub, orbits, parabolic_map, second=None, stages=()):
    images = []
    for orbit in orbits:
        for b in orbit:
            if not ambient.is_root(b):
                raise ConfigurationError(f"{case}: orbit member is not an ambient root")
        for i in range(len(orbit)):
            for j in range(i + 1, len(orbit)):
                if dot(orbit[i], orbit[j]) != 0:
                    raise ConfigurationError(f"{case}: orbit members not orthogonal")
        s = orbit[0]
        for b in orbit[1:]:
            s = vadd(s, b)
        images.append(vscale(Fraction(1, len(orbit)), s))
    images = tuple(images)

    # the images must reproduce the sub's Cartan matrix ...
    for i, bi in enumerate(images):
        for j, bj in enumerate(images):
            cij = 2 * dot(bi, bj) / dot(bj, bj)
            if cij != sub.cartan_matrix[i][j]:
                raise ConfigurationError(f"{case}: Cartan integers of images do not match sub")
    # ... and the Gram matrix up to one global positive scalar
    scale = None
    for i, bi in enumerate(images):
        for j, bj in enumerate(images):
            amb = ambient.killing(bi, bj)
            ref = sub.killing(sub.simple_roots[i], sub.simple_roots[j])
            if ref != 0:
                s = amb / ref
                if scale is None:
                    scale = s
                elif s != scale:
                    raise ConfigurationError(f"{case}: images are not conformal to sub")
            elif amb != 0:
                raise ConfigurationError(f"{case}: images are not conformal to sub")
    if scale is None or scale <= 0:
        raise ConfigurationError(f"{case}: degenerate image Gram matrix")
    return SubsystemEmbedding(
        case=case,
        ambient=ambient,
        sub=sub,
        orbits=tuple(tuple(tuple(b) for b in o) for o in orbits),
        simple_images=images,
        parabolic_map=tuple(parabolic_map),
        gram_scale=scale,
        second=second,
        stages=tuple(stages),
    )


def _eps(n, i, coeff=1):
    return tuple(Fraction(coeff) if j == i - 1 else Fraction(0) for j in range(n))


def _params(case, params, *names):
    missing = [k for k in names if k not in params]
    if missing:
        raise ConfigurationError(f"{case} needs the parameter {missing[0]}")
    return tuple(params[k] for k in names)


@lru_cache(maxsize=None)
def build_embedding(case, **params):
    case = case.lower()
    if case == "c-in-c":
        r, s = _params(case, params, "r", "s")
        if not 1 <= s < r:
            raise ConfigurationError("c-in-c needs 1 <= s < r")
        amb = build_root_system("C", r)
        sub = build_root_system("C", s)
        orbits = [(amb.simple_roots[i],) for i in range(s - 1)]
        orbits.append((_eps(r, s, 2),))  # 2 alpha_s + ... + 2 alpha_{r-1} + alpha_r
        second = None
        sub2 = build_root_system("C", r - s)
        orbits2 = [(amb.simple_roots[i],) for i in range(s, r)]
        second = _make_embedding(
            "c-in-c-second", amb, sub2, orbits2,
            [(k, s + k) for k in range(1, r - s + 1)],
        )
        return _make_embedding(
            case, amb, sub, orbits, [(k, k) for k in range(1, s + 1)], second=second
        )
    if case == "b-in-b":
        r, s = _params(case, params, "r", "s")
        if not 1 <= s < r:
            raise ConfigurationError("b-in-b needs 1 <= s < r")
        amb = build_root_system("B", r)
        sub = build_root_system("B", s) if s >= 2 else build_root_system("B", 1)
        orbits = [(amb.simple_roots[i],) for i in range(s - 1)]
        orbits.append((_eps(r, s),))  # the short root e_s = alpha_s + ... + alpha_r
        return _make_embedding(case, amb, sub, orbits, [(k, k) for k in range(1, s + 1)])
    if case == "sl2-in-g2":
        amb = build_root_system("G2", 2)
        sub = build_root_system("A", 1)
        theta = amb.highest_root  # 3 alpha_1 + 2 alpha_2, long
        second = _make_embedding(
            "sl2-in-g2-second", amb, build_root_system("A", 1),
            [(amb.simple_roots[0],)], [(1, 1)],
        )
        return _make_embedding(case, amb, sub, [(theta,)], [(1, 2)], second=second)
    if case == "g2-in-f4":
        return _build_g2_in_f4()
    if case == "d-chain":
        (r,) = _params(case, params, "r")
        if r < 3:
            raise ConfigurationError("d-chain needs r >= 3")
        amb = build_root_system("D", r)
        sub = build_root_system("B", r - 2) if r - 2 >= 2 else build_root_system("B", 1)
        orbits = [(amb.simple_roots[i],) for i in range(r - 3)]
        # the folded short generator: orthogonal pair e_{r-2} -+ e_r
        orbits.append(
            (
                tuple(x - y for x, y in zip(_eps(r, r - 2), _eps(r, r))),
                tuple(x + y for x, y in zip(_eps(r, r - 2), _eps(r, r))),
            )
        )
        return _make_embedding(case, amb, sub, orbits, [(k, k) for k in range(1, r - 1)])
    if case == "identity":
        amb = build_root_system(*_params(case, params, "kind", "rank"))
        orbits = [(a,) for a in amb.simple_roots]
        return _make_embedding(case, amb, amb, orbits, [(k, k) for k in range(1, amb.rank + 1)])
    raise ConfigurationError(f"unknown embedding case {case!r}")


def _build_g2_in_f4():
    amb = build_root_system("F4", 4)
    sub = build_root_system("G2", 2)
    a = amb.simple_roots
    # B4 subsystem: beta_1 = alpha_2 + 2 alpha_3 + 2 alpha_4, then alpha_1, alpha_2, alpha_3
    b4 = (
        vadd(a[1], vadd(vscale(2, a[2]), vscale(2, a[3]))),
        a[0],
        a[1],
        a[2],
    )
    # D4 inside it: the long roots; last node is beta_3 + 2 beta_4
    d4 = (b4[0], b4[1], b4[2], vadd(b4[2], vscale(2, b4[3])))
    # triality permutes the three outer nodes of D4; the center is fixed
    outer = (d4[0], d4[2], d4[3])
    center = d4[1]
    orbits = [outer, (center,)]  # G2: node 1 short (folded), node 2 long
    return _make_embedding(
        "g2-in-f4", amb, sub, orbits, [(1, 4), (2, 1)],
        stages=(("B4", b4), ("D4", d4)),
    )


def restrict_weight_via_embedding(E, lam):
    """Restrict an ambient weight to the sub Cartan (coroot pairings)."""
    v = _as_epsilon(E.ambient, lam)
    coords = tuple(E.ambient.coroot_pairing(v, b) for b in E.simple_images)
    return Weight(E.sub, coords)


def embed_weight(E, mu):
    """The isometric section: a sub weight as an ambient weight.

    Only defined for isometric embeddings (gram_scale == 1); inverts
    restrict_weight_via_embedding on its image.
    """
    if E.gram_scale != 1:
        raise UsageError(f"{E.case}: weight embedding requires an isometric case")
    if mu.root_system.label != E.sub.label:
        raise UsageError("weight is not over the sub root system")
    acoords = E.sub.alpha_coords(mu.ambient)
    v = tuple(Fraction(0) for _ in range(E.ambient.ambient_dim))
    for c, b in zip(acoords, E.simple_images):
        v = vadd(v, vscale(c, b))
    return Weight(E.ambient, E.ambient.fw_coords(v))


# ---------------------------------------------------------------------------
# JSON serialization (rationals as "p/q" strings)
# ---------------------------------------------------------------------------


def _frac_str(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _vec_json(v):
    return [_frac_str(x) for x in v]


def root_system_to_json(R):
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": R.kind,
        "rank": R.rank,
        "simple_roots": [_vec_json(v) for v in R.simple_roots],
        "positive_roots": [_vec_json(v) for v in R.positive_roots],
        "cartan_matrix": [list(row) for row in R.cartan_matrix],
        "fundamental_weights": [_vec_json(v) for v in R.fundamental_weights],
        "killing": [
            [_frac_str(R.killing_scale if i == j else 0) for j in range(R.ambient_dim)]
            for i in range(R.ambient_dim)
        ],
        "highest_root": _vec_json(R.highest_root),
        "rho": _vec_json(R.rho),
        "dual_basis": [_vec_json(v) for v in R.dual_basis],
    }


def embedding_to_json(E):
    doc = {
        "schema_version": SCHEMA_VERSION,
        "case": E.case,
        "ambient": {"kind": E.ambient.kind, "rank": E.ambient.rank},
        "sub": {"kind": E.sub.kind, "rank": E.sub.rank},
        "orbits": [[_vec_json(b) for b in orbit] for orbit in E.orbits],
        "simple_images": [_vec_json(v) for v in E.simple_images],
        "simple_images_alpha": [
            _vec_json(E.image_alpha_coords(i)) for i in range(E.sub.rank)
        ],
        "parabolic_map": [list(p) for p in E.parabolic_map],
        "gram_scale": _frac_str(E.gram_scale),
    }
    if E.second is not None:
        doc["second_factor"] = embedding_to_json(E.second)
    if E.stages:
        doc["stages"] = [
            {"label": label, "roots": [_vec_json(b) for b in roots]}
            for label, roots in E.stages
        ]
    return doc


def dumps(obj):
    return json.dumps(obj, indent=2, sort_keys=True)
