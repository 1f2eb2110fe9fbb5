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
"""

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
    """Exact rank of an integer matrix by fraction-free elimination.

    ``rows`` is a list of lists of Python ints; it is not modified.
    """
    m = [list(r) for r in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev = 1
    row = 0
    for col in range(ncols):
        piv = -1
        for r in range(row, nrows):
            if m[r][col]:
                piv = r
                break
        if piv < 0:
            continue
        if piv != row:
            m[row], m[piv] = m[piv], m[row]
        pivot = m[row][col]
        for r in range(row + 1, nrows):
            mr = m[r]
            mrow = m[row]
            f = mr[col]
            for c in range(col + 1, ncols):
                mr[c] = (pivot * mr[c] - f * mrow[c]) // prev
            mr[col] = 0
        prev = pivot
        row += 1
        rank += 1
        if row == nrows:
            break
    return rank
