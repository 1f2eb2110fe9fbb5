"""Exact linear algebra over the rationals.

Rank goes through the fraction-free integer kernel; rref and nullspace
use rational Gauss-Jordan (the matrices here have at most a few hundred
rows) and return canonical coefficients: ``int`` where integral.
"""

from math import lcm

from ._kernels import rank_bareiss
from .rational import Q, canonical


def rank_rational(rows):
    """Exact rank of a matrix with int or Fraction entries.

    Each row is scaled by the lcm of its denominators; a row whose lcm is
    1 (every row of an integral matrix) goes to the kernel as it is.
    """
    scaled = []
    for row in rows:
        den = lcm(*(x.denominator for x in row))
        if den != 1:
            row = [x.numerator * (den // x.denominator) for x in row]
        scaled.append(row)
    return rank_bareiss(scaled)


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

