"""Test-only frozen copy of the dense rational Gauss-Jordan elimination.

This was the package's second exact elimination, behind the m-basis
inverse and the primitive subspace, before a triangular back
substitution and the zero-defect primitives replaced it; the tests keep
it as an independent oracle for the rank kernel and for those two paths.
"""

from hopfgenus.rational import Q, canonical


def rref(rows):
    """Reduced row echelon form; returns (rref_rows, pivot_columns)."""
    m = [[Q(x) for x in row] for row in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return [[canonical(x) for x in row] for row in m[:r]], pivots


def nullspace(rows, ncols):
    """Basis of the right nullspace of the matrix, as lists of rationals."""
    if not rows:
        return [[1 if j == i else 0 for j in range(ncols)] for i in range(ncols)]
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis
