"""Exact root-system data in Bourbaki coordinates.

The positive roots are built on ints from the Cartan matrix, in simple-root
coordinates, and each carries int rows that every layer reads: its
fundamental-weight coordinates and its coroot over the simple coroots.
Types A, B, C, D, G2, F4 are also realized by explicit rational simple-root
vectors in an ambient Euclidean space (the epsilon-basis); epsilon
coordinates of roots and weights are a view for reports and for the
normals.  The inverse Cartan matrix is cleared to ints here, once per root
system, and every layer reads that int matrix and its scale.  The
invariant form is the Euclidean one rescaled so that the highest root
theta has squared length 2; with that normalization all pairings
appearing in the eigencone inequalities are exact rationals.

Also houses the sub-root-system embeddings: Sp(2s) in Sp(2r), SO(2s+1) in
SO(2r+1), SO(2r-3) in SO(2r) by folding, the long-root SL2 in G2, and G2 in
F4 by folding a D4 subsystem.  A sub simple root is the *orbit* of pairwise
orthogonal ambient positive roots it restricts from, each named by its
simple-root row; the Weyl generator image is the product of the orbit's
reflections (module weyl).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from operator import mul

from .errors import ConfigurationError, UsageError
from .linalg import dot, integer_multiple, mat_inv, vadd, vec, vscale

SCHEMA_VERSION = 1  # of every JSON document the package writes

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
    cartan_inverse: tuple          # ints d C^-1; row i is d omega_i over the simple roots
    inverse_scale: int             # the least such d
    # int rows, one per positive root in positive_roots order
    root_alpha: tuple              # over the simple roots, height-then-lex order
    root_fw: tuple                 # fundamental-weight coordinates, a . C
    root_coroot: tuple             # the coroot over the simple coroots
    weight_gram: tuple             # ints: a positive multiple of (omega_i, omega_j)

    # -- pairings ---------------------------------------------------------

    def killing(self, u, v):
        """Normalized invariant form on epsilon vectors."""
        return self.killing_scale * dot(u, v)

    def coroot_pairing(self, v, beta):
        """2<v, beta> / <beta, beta>; the evaluation of v on beta's coroot."""
        return 2 * dot(v, beta) / dot(beta, beta)

    # -- coordinate changes ----------------------------------------------

    def from_fw(self, coords):
        if len(coords) != self.rank:
            raise UsageError("coordinate length does not match rank")
        out = tuple(Fraction(0) for _ in range(self.ambient_dim))
        for c, w in zip(coords, self.fundamental_weights):
            out = vadd(out, vscale(c, w))
        return out

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
        # exact coordinates, and ints wherever they are integral
        exact = map(Fraction, self.coords)
        object.__setattr__(self, "coords", tuple(
            x.numerator if x.denominator == 1 else x for x in exact))

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


def weight_coords(R, lam):
    """The coordinates of a Weight over R, or of a plain tuple read as one."""
    if not isinstance(lam, Weight):
        return Weight(R, tuple(lam)).coords
    if lam.root_system is not R:
        raise UsageError("weight belongs to a different root system")
    return lam.coords


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

    d_inv, inv_int = integer_multiple(mat_inv(cartan))
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
        cartan_inverse=inv_int,
        inverse_scale=d_inv,
        root_alpha=alphas,
        root_fw=root_fw,
        root_coroot=tuple(root_coroot),
        weight_gram=weight_gram,
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
    """A conformal embedding of root data, sub into ambient.

    members[i] holds the positions in ambient.root_alpha of the pairwise
    orthogonal positive roots whose reflections multiply to the Weyl image
    of the i-th sub generator: one root, or a folded orbit.  The i-th image
    direction is their average.  The images' Gram matrix is gram_scale
    times the sub's: 1 (isometric) except where a sub long root lands on an
    ambient short one, 1/2 for b-in-b with s = 1 and d-chain with r = 3.
    """

    case: str
    ambient: RootSystem
    sub: RootSystem
    members: tuple
    parabolic_map: tuple            # pairs (sub node, ambient node), 1-based
    gram_scale: Fraction
    stage_members: tuple = ()       # (label, positions) of intermediate subsystems

    def matched_parabolic(self, q):
        for a, b in self.parabolic_map:
            if a == q:
                return b
        raise UsageError(f"no ambient parabolic matched to sub node {q}")


def _average(rows, positions):
    return tuple(Fraction(sum(col), len(positions)) for col in zip(*(rows[k] for k in positions)))


def _gram(R, rows):
    """The invariant form on fw rows, normalized so theta has squared length 2."""
    G = R.weight_gram

    def form(u, v):
        return sum(x * sum(map(mul, g, v)) for x, g in zip(u, G))

    theta = R.root_fw[-1]
    return [[Fraction(2 * form(u, v)) / form(theta, theta) for v in rows] for u in rows]


def _make_embedding(case, ambient, sub, orbits, parabolic_map, stages=()):
    """Check and store an embedding whose orbits are simple-root rows."""
    rows = ambient.root_alpha
    try:
        members = tuple(tuple(rows.index(a) for a in orbit) for orbit in orbits)
        stage_members = tuple(
            (label, tuple(rows.index(a) for a in roots)) for label, roots in stages
        )
    except ValueError:
        raise ConfigurationError(f"{case}: a member is not an ambient positive root") from None
    fw, coroot = ambient.root_fw, ambient.root_coroot
    for orbit in members:
        for a, b in combinations(orbit, 2):
            if sum(map(mul, fw[a], coroot[b])) != 0:
                raise ConfigurationError(f"{case}: orbit members not orthogonal")
    images = [_average(fw, orbit) for orbit in members]

    # the images must reproduce the sub's Cartan matrix: image i against the
    # coroot of image j, which is the sum of orbit j's coroots ...
    for i, image in enumerate(images):
        for j, orbit in enumerate(members):
            cij = sum(sum(map(mul, image, coroot[b])) for b in orbit)
            if cij != sub.cartan_matrix[i][j]:
                raise ConfigurationError(f"{case}: Cartan integers of images do not match sub")
    # ... and the Gram matrix up to one global positive scalar
    pairs = [
        (amb, ref)
        for amb_row, ref_row in zip(_gram(ambient, images), _gram(sub, sub.cartan_matrix))
        for amb, ref in zip(amb_row, ref_row)
    ]
    ratios = {amb / ref for amb, ref in pairs if ref != 0}
    if len(ratios) != 1 or any(amb != 0 for amb, ref in pairs if ref == 0):
        raise ConfigurationError(f"{case}: images are not conformal to sub")
    (scale,) = ratios
    if scale <= 0:
        raise ConfigurationError(f"{case}: degenerate image Gram matrix")
    return SubsystemEmbedding(
        case=case,
        ambient=ambient,
        sub=sub,
        members=members,
        parabolic_map=tuple(parabolic_map),
        gram_scale=scale,
        stage_members=stage_members,
    )


def _simple(r, i):
    """alpha_{i+1} over the simple roots of a rank-r system."""
    return tuple(int(j == i) for j in range(r))


def _params(case, read, **params):
    """Each parameter in read must be given, and no other one."""
    for name, value in params.items():
        if name in read and value is None:
            raise ConfigurationError(f"{case} needs the parameter {name}")
        if name not in read and value is not None:
            raise ConfigurationError(f"{case} does not read the parameter {name}")


def build_embedding(case, r=None, s=None):
    """The named embedding; one cached object per (case, r, s)."""
    return _build_embedding(case, r, s)


@lru_cache(maxsize=None)
def _build_embedding(case, r, s):
    if case in ("c-in-c", "b-in-b"):
        _params(case, "rs", r=r, s=s)
        if not 1 <= s < r:
            raise ConfigurationError(f"{case} needs 1 <= s < r")
        kind = case[0].upper()
        amb = build_root_system(kind, r)
        # the top sub simple root: 2e_s = 2 alpha_s + ... + 2 alpha_{r-1} +
        # alpha_r in C_r, the short root e_s = alpha_s + ... + alpha_r in B_r
        top = (0,) * (s - 1) + (2 if kind == "C" else 1,) * (r - s) + (1,)
        orbits = [(_simple(r, i),) for i in range(s - 1)] + [(top,)]
        return _make_embedding(
            case, amb, build_root_system(kind, s), orbits, [(k, k) for k in range(1, s + 1)]
        )
    if case in ("sl2-in-g2", "g2-in-f4"):
        _params(case, "", r=r, s=s)
        if case == "g2-in-f4":
            return _build_g2_in_f4()
        # the long highest root theta = 3 alpha_1 + 2 alpha_2
        amb = build_root_system("G2", 2)
        return _make_embedding(case, amb, build_root_system("A", 1), [((3, 2),)], [(1, 2)])
    if case == "d-chain":
        _params(case, "r", r=r, s=s)
        if r < 3:
            raise ConfigurationError("d-chain needs r >= 3")
        # the folded short generator: the orthogonal pair e_{r-2} -+ e_r,
        # that is alpha_{r-2} + alpha_{r-1} and alpha_{r-2} + alpha_r
        head = (0,) * (r - 3) + (1,)
        orbits = [(_simple(r, i),) for i in range(r - 3)] + [(head + (1, 0), head + (0, 1))]
        return _make_embedding(
            case, build_root_system("D", r), build_root_system("B", r - 2), orbits,
            [(k, k) for k in range(1, r - 1)],
        )
    raise ConfigurationError(f"unknown embedding case {case!r}")


def _build_g2_in_f4():
    amb = build_root_system("F4", 4)
    sub = build_root_system("G2", 2)
    # B4 subsystem: beta_1 = alpha_2 + 2 alpha_3 + 2 alpha_4, then alpha_1, alpha_2, alpha_3
    b4 = ((0, 1, 2, 2), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
    # D4 inside it: the long roots; last node is beta_3 + 2 beta_4 = alpha_2 + 2 alpha_3
    d4 = b4[:3] + ((0, 1, 2, 0),)
    # triality permutes the three outer nodes of D4; the center is fixed
    orbits = [(d4[0], d4[2], d4[3]), (d4[1],)]  # G2: node 1 short (folded), node 2 long
    return _make_embedding(
        "g2-in-f4", amb, sub, orbits, [(1, 4), (2, 1)],
        stages=(("B4", b4), ("D4", d4)),
    )


def restrict_weight_via_embedding(E, lam):
    """Restrict an ambient weight to the sub Cartan.

    The i-th coordinate is lam on the i-th image coroot, the sum of the
    coroots of the i-th orbit.
    """
    if not isinstance(lam, Weight) or lam.root_system.label != E.ambient.label:
        raise UsageError("weight is not over the ambient root system")
    coroot = E.ambient.root_coroot
    return Weight(E.sub, tuple(
        sum(sum(map(mul, lam.coords, coroot[k])) for k in orbit) for orbit in E.members
    ))


def embed_weight(E, mu):
    """A sub weight as an ambient weight: the section of the restriction.

    mu's coordinates over the sub simple roots become the coefficients of
    the image directions.  The images reproduce the sub's Cartan integers
    (_make_embedding checks it), so restricting gives mu back in every
    case, conformal (gram_scale != 1) ones included.
    """
    if mu.root_system.label != E.sub.label:
        raise UsageError("weight is not over the sub root system")
    # d times mu over the sub simple roots, divided by d once at the end
    acoords = [sum(map(mul, mu.coords, col)) for col in zip(*E.sub.cartan_inverse)]
    images = [_average(E.ambient.root_fw, orbit) for orbit in E.members]
    d = E.sub.inverse_scale
    return Weight(E.ambient, tuple(
        Fraction(sum(map(mul, acoords, col)), d) for col in zip(*images)))


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
