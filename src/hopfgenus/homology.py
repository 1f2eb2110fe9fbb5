"""Bar-complex Tor over finite graded algebra presentations.

A presentation carries an explicit basis with degrees (index 0 is the
unit) and a multiplication table, truncated above degree D.  Tor of the
augmentation Q over such an algebra is computed from the reduced bar
complex: chains in homological degree s are words of length s in the
positive-degree basis, the differential contracts adjacent letters with
the usual bar sign, and dimensions come from exact ranks over Q.  Each
level of the complex is built from the one below it: the words of length
s are x.u for a letter x and a word u of length s - 1, and
d(x.u) = (-1)^(|x| + 1) (x.u_0 . u[1:] + x . d(u)) reuses the
differential of u.  Each rank is taken one connected block at a time:
the source words that share a target word, directly or through a chain
of others, form one block.

Grading convention: homological degree s adds +s to the total degree
(one suspension per bar stage), so the exterior generator y_5 produces a
polynomial generator in total degree 6.

Also houses the dimension tables of the named coefficient rings:
sOmega (exterior on degrees 4i+1, i > 0), KTheoryFiber (augmentation
ideal of the polynomial algebra on degrees 4i+2, i >= 0) and THH (their
tensor product).
"""

from dataclasses import dataclass, field

from .core import InvariantError, add_into
from .linalg import rank_rational
from .qsymm import polynomial_hilbert, word_series


class TruncationError(ValueError):
    """Requested bound exceeds what the algebra truncation supports."""


class BarDifferentialError(InvariantError):
    """The bar differential does not square to zero (non-associative input)."""


@dataclass(frozen=True)
class GradedAlgebraPresentation:
    """Connected graded augmented algebra with explicit basis.

    degrees[0] == 0 is the unit; mult maps (i, j) with both indices
    positive to a tuple of (index, coefficient) pairs.  Products landing
    above the truncation are omitted from the table (truncated to 0).
    """

    labels: tuple
    degrees: tuple
    mult: dict = field(hash=False)
    truncation: int

    def __post_init__(self):
        if not self.degrees or self.degrees[0] != 0:
            raise ValueError("basis must start with the unit in degree 0")
        if any(d <= 0 for d in self.degrees[1:]):
            raise ValueError("non-unit basis elements need positive degree")
        n = len(self.degrees)
        for (i, j), prods in self.mult.items():
            for k, _ in prods:
                if not (0 < i < n and 0 < j < n and 0 < k < n) or (
                    self.degrees[k] != self.degrees[i] + self.degrees[j]
                ):
                    raise ValueError(
                        "product (%r, %r) has a term %r that is not a basis "
                        "element of their total degree" % (i, j, k)
                    )

    def positive_indices(self):
        return list(range(1, len(self.degrees)))

    def multiply(self, i, j):
        """Product of two positive basis elements, as (index, coeff) pairs."""
        if i == 0:
            return ((j, 1),)
        if j == 0:
            return ((i, 1),)
        return self.mult.get((i, j), ())


def exterior_algebra(gen_degrees, truncation):
    """Exterior algebra on odd-degree generators, truncated at D."""
    gen_degrees = list(gen_degrees)
    if any(d <= 0 or d % 2 == 0 for d in gen_degrees):
        raise ValueError(
            "exterior generators must have odd positive degree: %r" % (gen_degrees,)
        )
    ngen = len(gen_degrees)
    # basis: subsets of generators, by sorted index tuple
    subsets = [()]
    for g in range(ngen):
        subsets += [s + (g,) for s in subsets]
    subsets = [s for s in subsets if sum(gen_degrees[g] for g in s) <= truncation]
    subsets.sort(key=lambda s: (sum(gen_degrees[g] for g in s), s))
    index = {s: i for i, s in enumerate(subsets)}
    labels, degrees = [], []
    for s in subsets:
        labels.append("".join("y%d" % gen_degrees[g] for g in s) or "1")
        degrees.append(sum(gen_degrees[g] for g in s))
    mult = {}
    for i, si in enumerate(subsets):
        for j, sj in enumerate(subsets):
            if i == 0 or j == 0:
                continue
            if set(si) & set(sj):
                continue  # exterior square
            merged = tuple(sorted(si + sj))
            if merged not in index:
                continue  # above truncation
            # Koszul sign: all generators odd, so count inversions
            inv = sum(1 for a in si for b in sj if a > b)
            mult[(i, j)] = ((index[merged], -1 if inv % 2 else 1),)
    return GradedAlgebraPresentation(tuple(labels), tuple(degrees), mult, truncation)


def square_zero_extension(gen_degrees, truncation):
    """Q + V with V in the given degrees and V.V = 0."""
    gen_degrees = sorted(gen_degrees)
    if any(d <= 0 for d in gen_degrees):
        raise ValueError("degrees must be positive: %r" % (gen_degrees,))
    kept = [d for d in gen_degrees if d <= truncation]
    labels = ("1",) + tuple("y%d" % d for d in kept)
    degrees = (0,) + tuple(kept)
    return GradedAlgebraPresentation(labels, degrees, {}, truncation)


@dataclass(frozen=True)
class TorTable:
    """Dimensions of Tor_{s,t}; total degree = s + t."""

    dims: dict = field(hash=False)
    bound: int

    def total_series(self):
        out = [0] * (self.bound + 1)
        for (s, t), d in self.dims.items():
            out[s + t] += d
        return out

    def nonzero(self):
        return sorted((s, t, d) for (s, t), d in self.dims.items() if d)


def _bar_level(A, below, top):
    """The bar words one letter longer than those of ``below``, by internal
    degree through ``top``, each with its differential.

    ``below`` and the result map internal degree t to {word: {target word:
    coeff}}.  The words of degree t are (x,) + u for x in index order and u
    in the order of ``below[t - |x|]``, and the bar differential is
    d(x.u) = (-1)^(|x| + 1) (x.u_0 . u[1:] + x . d(u)), zero for u empty.
    """
    level = {}
    for x in A.positive_indices():
        dx = A.degrees[x]
        sign = None if dx % 2 else -1  # (-1)^(|x| + 1)
        for t, words in below.items():
            if t + dx > top:
                continue
            out = level.setdefault(t + dx, {})
            for u, du in words.items():
                row = {}
                if u:
                    add_into(row, (((k,) + u[1:], c) for k, c in A.multiply(x, u[0])), sign)
                    add_into(row, (((x,) + v, c) for v, c in du.items()), sign)
                out[(x,) + u] = row
    return level


def _find(parent, x):
    # union-find root with path halving; a new key is its own root
    parent.setdefault(x, x)
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def _diff_rank(diff):
    """Rank of a differential given as {source word: {target word: coeff}}.

    Rows that share no target word lie in different connected blocks of
    the bipartite row/column graph; the matrix is block diagonal up to
    permutation, so its rank is the sum of the blocks' ranks.  Each block
    goes to ``rank_rational`` as dense rows over its own columns (zero
    rows dropped), whose kernel ranks it by sparse elimination over Z.
    """
    parent = {}
    rows = [row for row in diff.values() if row]
    for row in rows:
        it = iter(row)
        root = _find(parent, next(it))
        for tgt in it:
            other = _find(parent, tgt)
            if other != root:
                parent[other] = root
    blocks = {}
    for row in rows:
        blocks.setdefault(_find(parent, next(iter(row))), []).append(row)
    rank = 0
    for block in blocks.values():
        col = {}
        for row in block:
            for tgt in row:
                col.setdefault(tgt, len(col))
        dense = []
        for row in block:
            line = [0] * len(col)
            for tgt, c in row.items():
                line[col[tgt]] = c
            dense.append(line)
        rank += rank_rational(dense)
    return rank


def tor_via_bar(A, bound):
    """TorTable of Q over A through total degree ``bound``.

    Every contributing bar word has internal degree <= bound, so the
    computation is sound exactly when bound <= A.truncation; larger
    bounds raise rather than silently truncating.
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    if bound > A.truncation:
        raise TruncationError(
            "bound %d exceeds algebra truncation %d" % (bound, A.truncation)
        )
    min_deg = min((A.degrees[i] for i in A.positive_indices()), default=None)
    dims = {(0, 0): 1}
    if min_deg is None:
        return TorTable(dims, bound)
    # below, level, above: the bar words of lengths s - 1, s and s + 1 by
    # internal degree, each word with its differential; each level is built
    # from the one below it, through the internal degree the ranks read
    below = {0: {(): {}}}
    level = _bar_level(A, below, bound)
    s = 1
    while s * (min_deg + 1) <= bound:
        above = _bar_level(A, level, bound - s)
        for t in range(s * min_deg, bound - s + 1):
            diff = level.get(t)
            if not diff:
                continue
            # d^2 = 0 on every computed word
            targets = below.get(t, {})
            for w, dw in diff.items():
                dd = {}
                for mid, c in dw.items():
                    add_into(dd, targets[mid], c)
                if dd:
                    raise BarDifferentialError(
                        "bar differential d^2 != 0 on word %r" % (w,)
                    )
            r_out = _diff_rank(diff)
            r_in = _diff_rank(above.get(t, {}))
            d = len(diff) - r_out - r_in
            if d:
                dims[(s, t)] = d
        below, level = level, above
        s += 1
    return TorTable(dims, bound)


def exterior_series(gen_degrees, bound):
    """Coefficients of prod (1 + t^d)."""
    out = [0] * (bound + 1)
    out[0] = 1
    for d in gen_degrees:
        if d <= 0:
            raise ValueError("degrees must be positive")
        for n in range(bound, d - 1, -1):
            out[n] += out[n - d]
    return out


SOMEGA = "sOmega"
THH = "THH"
K_THEORY_FIBER = "KTheoryFiber"


def _degrees_mod_4(bound, start):
    return list(range(start, bound + 1, 4))


def coefficient_ring_series(which, bound, exterior_start=5, polynomial_start=2):
    """Dimension table of a named coefficient ring through ``bound``.

    sOmega = Lambda[y_{4i+1}, i>0]; KTheoryFiber = positive part of
    Q[y_{4i+2}, i>=0]; THH = sOmega (x) Q[y_{4i+2}].  The start degrees
    are the model knobs: exterior_start=1 or polynomial_start=6 select
    the variants with/without the bottom class.
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    if exterior_start % 4 != 1:
        raise ValueError("exterior generators live in degrees 4i+1")
    if polynomial_start % 4 != 2:
        raise ValueError("polynomial generators live in degrees 4i+2")
    if which == SOMEGA:
        return exterior_series(_degrees_mod_4(bound, exterior_start), bound)
    if which == K_THEORY_FIBER:
        out = polynomial_hilbert(_degrees_mod_4(bound, polynomial_start), bound)
        out[0] = 0  # augmentation ideal
        return out
    if which == THH:
        ext = exterior_series(_degrees_mod_4(bound, exterior_start), bound)
        pol = polynomial_hilbert(_degrees_mod_4(bound, polynomial_start), bound)
        return [
            sum(ext[i] * pol[n - i] for i in range(n + 1)) for n in range(bound + 1)
        ]
    raise ValueError("unknown series %r" % (which,))
