"""Weyl groups, minimal parabolic coset representatives, duals, embeddings.

An element is identified by its integer action matrix on the weight lattice
in fundamental-weight coordinates; reduced words are witnesses recovered by
descent stripping (smallest index first), so the digit strings we print are
canonical but element comparison never goes through words.

Every orbit is one walk: the W-orbit of a dominant fw point lam is W/W_lam,
searched breadth-first by s_i, which steps up exactly where coordinate i is
positive (Bourbaki VI.1).  The walk of rho is W and that of omega_P is W^P:
the minimal representative of w is the entry at w omega_P (column P of its
matrix), and the dual of a representative is the entry at w0 w omega_P.

Element operations work on Python ints.  A root is positive exactly when
its height is, so one int row per element (a positive multiple of the
height functional pulled back through the matrix, applied to a root's
fundamental-weight coordinates) decides sends_positive, the descents of the
canonical word and the length, which is computed only when read.  Root
rows come from the root system.  The inverse is K^-1 w^T K for the root
system's int fundamental-weight Gram matrix K, whose inverse (the
simple-coroot Gram matrix, up to scale) is cleared to ints once per root
system.  The height functional is the row sums of the root system's int
inverse Cartan matrix; weyl reads no epsilon coordinates.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import mul

from .errors import ConfigurationError, ResourceCapError, UsageError, VerificationError
from .linalg import integer_multiple, mat_inv

WEYL_SIZE_CAP = 1_200_000


class WeylElement:
    """Immutable Weyl group element; identity = the integer action matrix."""

    __slots__ = ("root_system", "matrix", "_length", "_heights", "_word", "_hash")

    def __init__(self, root_system, matrix, length=None):
        self.root_system = root_system
        self.matrix = matrix
        self._length = length
        self._heights = None
        self._word = None
        self._hash = hash(matrix)

    @property
    def length(self):
        if self._length is None:
            h = self._height_row()
            self._length = sum(not _is_positive(h, b) for b in self.root_system.root_fw)
        return self._length

    @property
    def word(self):
        if self._word is None:
            self._word = _canonical_word(self.root_system, self.matrix)
        return self._word

    def __eq__(self, other):
        return (
            isinstance(other, WeylElement)
            and self.root_system is other.root_system
            and self.matrix == other.matrix
        )

    def __hash__(self):
        return self._hash

    def __mul__(self, other):
        if other.root_system is not self.root_system:
            raise UsageError("elements of different Weyl groups")
        return WeylElement(self.root_system, _mat_mul_int(self.matrix, other.matrix))

    def inverse(self):
        ctx = _ctx(self.root_system)
        m = _mat_mul_int(ctx.coroot_gram, tuple(zip(*self.matrix)))
        m = _mat_mul_int(m, self.root_system.weight_gram)
        m = tuple(tuple(x // ctx.gram_scale for x in row) for row in m)
        return WeylElement(self.root_system, m, self._length)

    def apply_fw(self, coords):
        return tuple(sum(map(mul, row, coords)) for row in self.matrix)

    def sends_positive(self, i):
        """True iff w(alpha_i) is a positive root (1-based i)."""
        if not 1 <= i <= self.root_system.rank:
            raise UsageError(f"simple root index {i} out of range")
        return _is_positive(self._height_row(), self.root_system.cartan_matrix[i - 1])

    def _height_row(self):
        if self._heights is None:
            self._heights = _height_row(_ctx(self.root_system), self.matrix)
        return self._heights

    def _times_simple(self, i):
        """w s_i (1-based i) without a full product.

        Only column i of the matrix changes, to w applied to column i of
        s_i, and only entry i of the height row, which drops by the height
        row's value on alpha_i.
        """
        R = self.root_system
        if not 1 <= i <= R.rank:
            raise UsageError(f"simple reflection index {i} out of range")
        k = i - 1
        col = tuple(int(j == k) - a for j, a in enumerate(R.cartan_matrix[k]))
        out = WeylElement(R, tuple(
            row[:k] + (sum(map(mul, row, col)),) + row[k + 1:] for row in self.matrix))
        h = self._height_row()
        out._heights = h[:k] + (h[k] - sum(map(mul, h, R.cartan_matrix[k])),) + h[k + 1:]
        return out

    def __repr__(self):
        return f"WeylElement({self.root_system.label}, {word_str(self)})"


class _Context:
    """Per-root-system integer data used by every element operation."""

    def __init__(self, R):
        r = R.rank
        # a positive multiple of the height, over fw coordinates
        self.height = tuple(map(sum, R.cartan_inverse))
        # the simple-coroot Gram matrix inverts the fw one
        self.gram_scale, self.coroot_gram = integer_multiple(mat_inv(R.weight_gram))
        self.id_matrix = tuple(tuple(int(i == j) for j in range(r)) for i in range(r))


@lru_cache(maxsize=None)
def _ctx(R):
    return _Context(R)


def _mat_mul_int(a, b):
    bt = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a)


def _height_row(ctx, matrix):
    return tuple(sum(map(mul, ctx.height, col)) for col in zip(*matrix))


def _is_positive(heights, root_fw):
    """w(beta) > 0, from the height row of w; beta by its fw coordinates."""
    h = sum(map(mul, heights, root_fw))
    if h == 0:
        raise VerificationError("zero vector has no sign")
    return h > 0


def _canonical_word(R, matrix):
    """Reduced word by repeatedly stripping the smallest right descent."""
    id_matrix = _ctx(R).id_matrix
    word = []
    w = WeylElement(R, matrix)
    while w.matrix != id_matrix:
        for i in range(1, R.rank + 1):
            if not w.sends_positive(i):
                word.append(i)
                w = w._times_simple(i)
                break
        else:
            raise VerificationError("matrix is not a Weyl group element")
    return tuple(reversed(word))


# -- constructors -----------------------------------------------------------


def identity(R):
    return WeylElement(R, _ctx(R).id_matrix, 0)


def root_reflection(R, k):
    """The reflection through the k-th positive root (and its negative)."""
    fw, cvee = R.root_fw[k], R.root_coroot[k]
    r = R.rank
    m = tuple(
        tuple((1 if j == i else 0) - fw[j] * cvee[i] for i in range(r))
        for j in range(r)
    )
    return WeylElement(R, m)


def word_to_element(R, word):
    """Parse a digit string like "43234" (or an index iterable)."""
    if isinstance(word, str):
        if word in ("", "e"):
            return identity(R)
        if not word.isdigit():
            raise UsageError(f"word {word!r} is not a digit string")
        word = [int(ch) for ch in word]
    w = identity(R)
    for i in word:
        w = w._times_simple(i)
    return w


def check_digit_words(rank):
    if rank > 9:
        raise UsageError("digit-string words are defined for rank <= 9")


def word_str(w):
    check_digit_words(w.root_system.rank)
    return "".join(str(i) for i in w.word) if w.word else "e"


# -- group and coset enumeration -------------------------------------------


def orbit_walk(C, start):
    """The W-orbit of a dominant fw point by breadth-first search.

    Maps each point to (length, parent point, i), the point being s_i of its
    parent: s_i steps up exactly where coordinate i is positive, so the
    length is that of the minimal w sending start to the point.
    """
    # s_i subtracts c alpha_i, and alpha_i is row i of C: only its non-zero entries move
    rows = [[(j, a) for j, a in enumerate(row) if a] for row in C]
    walk = {start: (0, None, None)}
    points = [start]
    for lam in points:  # grows as new points are found
        length = walk[lam][0] + 1
        for i, c in enumerate(lam):
            if c > 0:
                mu = list(lam)
                for j, a in rows[i]:
                    mu[j] -= c * a
                mu = tuple(mu)
                if mu not in walk:
                    walk[mu] = (length, lam, i)
                    points.append(mu)
        if len(walk) > WEYL_SIZE_CAP:
            raise ResourceCapError(f"W-orbit of {start} exceeds the size cap {WEYL_SIZE_CAP}")
    return walk


def _walk_elements(R, walk):
    """point -> the minimal w reaching it; row j of s_i m is m_j - C[i][j] m_i."""
    C, mats = R.cartan_matrix, {None: _ctx(R).id_matrix}
    for point, (_, parent, i) in walk.items():  # parents come first
        m = mats[parent]
        mats[point] = m if i is None else tuple(
            tuple(x - C[i][j] * y for x, y in zip(row, m[i])) for j, row in enumerate(m))
    return {point: WeylElement(R, mats[point], length)
            for point, (length, _, _) in walk.items()}


@lru_cache(maxsize=None)
def generate_weyl_group(R):
    """The full Weyl group: the walk of the regular point rho = (1, ..., 1)."""
    return frozenset(_walk_elements(R, orbit_walk(R.cartan_matrix, (1,) * R.rank)).values())


@lru_cache(maxsize=None)
def longest_element(R):
    """w0 by greedy ascent; never materializes the full group."""
    w = identity(R)
    while True:
        for i in range(1, R.rank + 1):
            if w.sends_positive(i):
                w = w._times_simple(i)
                break
        else:
            return w


class ParabolicSpec:
    """A maximal parabolic: one excluded simple root, 1-based."""

    __slots__ = ("root_system", "excluded")

    def __init__(self, root_system, excluded):
        if not 1 <= excluded <= root_system.rank:
            raise ConfigurationError(f"excluded index {excluded} out of range")
        self.root_system = root_system
        self.excluded = excluded

    def __eq__(self, other):
        return (
            isinstance(other, ParabolicSpec)
            and self.root_system.label == other.root_system.label
            and self.excluded == other.excluded
        )

    def __hash__(self):
        return hash((self.root_system.label, self.excluded))

    def __repr__(self):
        return f"ParabolicSpec({self.root_system.label}, P{self.excluded})"


@lru_cache(maxsize=None)
def parabolic_walk(R, excluded):
    """The walk of omega_P, shared by W^P and the pricing of G/P."""
    ParabolicSpec(R, excluded)  # range check
    return orbit_walk(R.cartan_matrix, tuple(int(j == excluded - 1) for j in range(R.rank)))


@lru_cache(maxsize=None)
def _orbit_table(R, excluded):
    """W^P sorted by (length, word), and the dict from w omega_P to w."""
    table = _walk_elements(R, parabolic_walk(R, excluded))
    return tuple(sorted(table.values(), key=lambda w: (w.length, w.word))), table


def minimal_coset_reps(R, P):
    return _orbit_table(R, P.excluded)[0]


def _orbit_point(w, P):
    """The orbit table of P and w omega_P, which is column P of w."""
    if P.root_system is not w.root_system:
        raise UsageError(f"{P!r} is not a parabolic of {w.root_system.label}")
    table = _orbit_table(w.root_system, P.excluded)[1]
    return table, tuple(row[P.excluded - 1] for row in w.matrix)


def minimal_rep(w, P):
    """The minimal representative of the coset w W_P."""
    table, point = _orbit_point(w, P)
    return table[point]


def dual_rep(w, P):
    """Minimal representative of w0 w W_P; pairs complementary dimensions."""
    table, point = _orbit_point(w, P)
    if table[point] != w:
        raise UsageError("dual_rep requires a minimal coset representative")
    return table[longest_element(w.root_system).apply_fw(point)]


# -- embeddings -------------------------------------------------------------


@lru_cache(maxsize=None)
def _generator_images(E):
    return tuple(
        reduce(mul, (root_reflection(E.ambient, k) for k in orbit)) for orbit in E.members
    )


def embed_element(E, w, minimize_into=None):
    """Image of a sub Weyl element in the ambient group.

    The homomorphism sends the i-th sub generator to the product of the
    reflections of its orbit (a single root reflection in the sub-root-system
    cases).  With minimize_into=P the image is replaced by the minimal
    representative of its W_P coset — that is the map the coset tables use;
    for folded embeddings the raw image need not itself be minimal.
    """
    if w.root_system is not E.sub:
        raise UsageError("element is not over the sub root system")
    gens = _generator_images(E)
    img = identity(E.ambient)
    for i in w.word:
        img = img * gens[i - 1]
    if minimize_into is not None:
        img = minimal_rep(img, minimize_into)
    return img


def coset_images(E, q):
    """P matched to Q, and per w in W_M^Q: (w, dual_Q w, image in W^P, its dual_P)."""
    Q = ParabolicSpec(E.sub, q)
    P = ParabolicSpec(E.ambient, E.matched_parabolic(q))
    rows = []
    for w in minimal_coset_reps(E.sub, Q):
        img = embed_element(E, w, minimize_into=P)
        rows.append((w, dual_rep(w, Q), img, dual_rep(img, P)))
    return P, rows


def verify_dual_commutes(E, q):
    """Per element of W_M^Q: embed(dual_Q(w)) == dual_P(embed(w)), minimized."""
    P, rows = coset_images(E, q)
    image = {w: img for w, _, img, _ in rows}  # dual_Q w is itself a row's w
    checks = []
    for w, dual, _, rhs in rows:
        lhs = image[dual]
        checks.append({"w": word_str(w), "embed_dual": word_str(lhs),
                       "dual_embed": word_str(rhs), "commutes": lhs == rhs})
    return {"case": E.case, "sub_parabolic": q, "ambient_parabolic": P.excluded,
            "all_commute": all(c["commutes"] for c in checks), "rows": checks}


# -- table export -----------------------------------------------------------


def coset_table(R, P):
    """W^P with the dual involution, in the layout of the paper's tables."""
    check_digit_words(R.rank)  # before the coset BFS, not after it
    reps = minimal_coset_reps(R, P)
    return [
        {"word": word_str(w), "length": w.length, "dual": word_str(dual_rep(w, P))}
        for w in reps
    ]
