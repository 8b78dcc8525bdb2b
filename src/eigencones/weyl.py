"""Weyl groups, minimal parabolic coset representatives, duals, embeddings.

An element is identified by its integer action matrix on the weight lattice
in fundamental-weight coordinates; reduced words are witnesses recovered by
descent stripping (smallest index first), so the digit strings we print are
canonical but element comparison never goes through words.

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
        col = tuple(row[k] for row in _ctx(R).refl[k])
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
        self.refl = tuple(_simple_matrix(R.cartan_matrix, i) for i in range(r))
        # a positive multiple of the height, over fw coordinates
        self.height = tuple(map(sum, R.cartan_inverse))
        # the simple-coroot Gram matrix inverts the fw one
        self.gram_scale, self.coroot_gram = integer_multiple(mat_inv(R.weight_gram))
        self.id_matrix = tuple(
            tuple(1 if i == j else 0 for j in range(r)) for i in range(r)
        )


def _simple_matrix(C, i):
    r = len(C)
    return tuple(
        tuple((1 if j == k else 0) - (C[i][j] if k == i else 0) for k in range(r))
        for j in range(r)
    )


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


def simple_reflection(R, i):
    if not 1 <= i <= R.rank:
        raise UsageError(f"simple reflection index {i} out of range")
    return WeylElement(R, _ctx(R).refl[i - 1], 1)


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


@lru_cache(maxsize=None)
def generate_weyl_group(R):
    """The full Weyl group by breadth-first closure under the generators."""
    ctx = _ctx(R)
    seen = {ctx.id_matrix: 0}
    frontier = [ctx.id_matrix]
    while frontier:
        new = []
        for m in frontier:
            for s in ctx.refl:
                p = _mat_mul_int(m, s)
                if p not in seen:
                    seen[p] = seen[m] + 1
                    new.append(p)
        if len(seen) > WEYL_SIZE_CAP:
            raise ResourceCapError(
                f"Weyl group of {R.label} exceeds the size cap {WEYL_SIZE_CAP}")
        frontier = new
    return frozenset(WeylElement(R, m, l) for m, l in seen.items())


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

    @property
    def levi_simple(self):
        return tuple(
            i for i in range(1, self.root_system.rank + 1) if i != self.excluded
        )

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


def is_minimal_rep(w, P):
    return all(w.sends_positive(j) for j in P.levi_simple)


def minimal_rep(w, P):
    """The minimal representative of the coset w W_P."""
    while True:
        for j in P.levi_simple:
            if not w.sends_positive(j):
                w = w._times_simple(j)
                break
        else:
            return w


@lru_cache(maxsize=None)
def _coset_reps_cached(R, excluded):
    P = ParabolicSpec(R, excluded)
    # W^P is closed under suffixes of reduced words, so every minimal
    # representative of length l+1 is s_i * (minimal rep of length l) for
    # some simple i; a left-multiplication BFS over minimal reps is complete.
    reps = {identity(R)}
    frontier = list(reps)
    while frontier:
        new = []
        for w in frontier:
            for i in range(1, R.rank + 1):
                u = simple_reflection(R, i) * w
                if u.length == w.length + 1 and is_minimal_rep(u, P) and u not in reps:
                    reps.add(u)
                    new.append(u)
        frontier = new
    return tuple(sorted(reps, key=lambda w: (w.length, w.word)))


def minimal_coset_reps(R, P):
    return _coset_reps_cached(R, P.excluded)


def dual_rep(w, P):
    """Minimal representative of w0 w W_P; pairs complementary dimensions."""
    if not is_minimal_rep(w, P):
        raise UsageError("dual_rep requires a minimal coset representative")
    return minimal_rep(longest_element(w.root_system) * w, P)


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


def verify_dual_commutes(E, q):
    """Per element of W_M^Q: embed(dual_Q(w)) == dual_P(embed(w)), minimized."""
    Q = ParabolicSpec(E.sub, q)
    P = ParabolicSpec(E.ambient, E.matched_parabolic(q))
    rows = []
    ok = True
    for w in minimal_coset_reps(E.sub, Q):
        lhs = embed_element(E, dual_rep(w, Q), minimize_into=P)
        rhs = dual_rep(embed_element(E, w, minimize_into=P), P)
        rows.append(
            {
                "w": word_str(w),
                "embed_dual": word_str(lhs),
                "dual_embed": word_str(rhs),
                "commutes": lhs == rhs,
            }
        )
        ok = ok and lhs == rhs
    return {"case": E.case, "sub_parabolic": q, "ambient_parabolic": P.excluded,
            "all_commute": ok, "rows": rows}


# -- table export -----------------------------------------------------------


def coset_table(R, P):
    """W^P with the dual involution, in the layout of the paper's tables."""
    check_digit_words(R.rank)  # before the coset BFS, not after it
    reps = minimal_coset_reps(R, P)
    return [
        {"word": word_str(w), "length": w.length, "dual": word_str(dual_rep(w, P))}
        for w in reps
    ]
