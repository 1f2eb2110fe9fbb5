"""Pure-Python kernels.

Monomials are tuples of ``(gid, exponent)`` pairs sorted by ``gid``.
A generator id packs ``(degree, family, index)`` into one integer:

    gid = degree << 32 | ord(family) << 24 | index

so sorting by gid sorts by (degree, family, index) and the degree of a
monomial is recoverable without any side table.  Coefficients are opaque
Python objects (int, Fraction, float, complex); the kernels only add,
multiply and compare them with zero.

``mul_terms`` multiplies ``GradedPolynomial``s and ``monomial_mul`` merges
the monomials of coproduct terms.  The truncated-series recurrences in
``core`` do not use them: they multiply packed exponent vectors, where a
monomial product is an integer addition (``core._PackedLayout``).

``rank_bareiss`` is the exact integer rank: sparse elimination over Z
with unit pivots first, which is how the bar differentials' blocks are
shaped (few nonzeros, mostly +-1).  It replaced a dense fraction-free
Bareiss kernel; the name stays until the benchmark, whose tracer binds
it, is next changed.
"""

from itertools import compress
from math import gcd

BACKEND = "pure"


def monomial_degree(mon):
    d = 0
    for gid, e in mon:
        d += (gid >> 32) * e
    return d


def monomial_mul(m1, m2):
    """Merge two sorted (gid, exp) tuples."""
    if not m1:
        return m2
    if not m2:
        return m1
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        g1, e1 = m1[i]
        g2, e2 = m2[j]
        if g1 == g2:
            out.append((g1, e1 + e2))
            i += 1
            j += 1
        elif g1 < g2:
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return tuple(out)


def mul_terms(a, b):
    """Convolve two term dicts, dropping zero coefficients."""
    if len(a) > len(b):
        a, b = b, a
    b_items = list(b.items())
    out = {}
    for ma, ca in a.items():
        for mb, cb in b_items:
            m = monomial_mul(ma, mb)
            prev = out.get(m)
            if prev is None:
                out[m] = ca * cb
            else:
                out[m] = prev + ca * cb
    return {m: c for m, c in out.items() if c != 0}


def rank_bareiss(rows):
    """Exact rank of an integer matrix by sparse elimination over Z.

    ``rows`` is a list of dense rows of Python ints; it is not modified.
    Each row becomes a dict of its nonzero entries, with an index from
    each column to the rows that use it.  The pivot is taken in the
    shortest live row: a +-1 entry in its sparsest column if there is
    one, else the entry in its sparsest column.  Every other row with an
    entry f in the pivot column becomes (p/g) row - (f/g) pivot row,
    g = gcd(p, f), so a unit pivot costs one subtraction; a row scaled
    by p/g != 1 is divided by its content.  The rank is the number of
    pivots.  This is structured Gaussian elimination (LaMacchia and
    Odlyzko, CRYPTO '90) over Z; the Bareiss name is kept for the
    benchmark's tracer (see the module docstring).
    """
    live = {}
    cols = {}
    for i, row in enumerate(rows):
        entries = dict(compress(enumerate(row), row))
        if entries:
            live[i] = entries
            for j in entries:
                cols.setdefault(j, set()).add(i)
    rank = 0
    while live:
        _, i = min(zip(map(len, live.values()), live))
        prow = live.pop(i)
        pcol = min(prow, key=lambda j: (prow[j] not in (1, -1), len(cols[j])))
        for j in prow:
            cols[j].discard(i)
        p = prow.pop(pcol)
        rank += 1
        for k in cols.pop(pcol):
            row = live[k]
            f = row.pop(pcol)
            g = gcd(p, f)
            if p < 0:  # so that a -1 pivot, like +1, needs no scaling
                g = -g
            a, b = p // g, f // g
            if a != 1:
                for j in row:
                    row[j] *= a
            for j, x in prow.items():
                v = row.get(j)
                if v is None:
                    row[j] = -b * x
                    cols[j].add(k)
                else:
                    v -= b * x
                    if v:
                        row[j] = v
                    else:
                        del row[j]
                        cols[j].discard(k)
            if not row:
                del live[k]
            elif a != 1:
                c = gcd(*row.values())
                if c != 1:
                    for j in row:
                        row[j] //= c
    return rank
