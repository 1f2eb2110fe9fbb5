"""Exact rank of matrices over the rationals.

Rank is the package's only elimination: rows are scaled to integers and
ranked by the sparse integer kernel ``rank_bareiss``.
"""

from math import lcm

from ._kernels import rank_bareiss


def rank_rational(rows):
    """Exact rank of a matrix with int or Fraction entries.

    The kernel takes int rows only.  A row of ints (every row of an
    integral matrix) goes to it as it is; any other row is scaled by the
    lcm of its denominators, which turns ``Fraction(2)`` into ``2`` too.
    """
    scaled = []
    for row in rows:
        if not set(map(type, row)) <= {int}:
            den = lcm(*[x.denominator for x in row])
            row = [x.numerator * (den // x.denominator) for x in row]
        scaled.append(row)
    return rank_bareiss(scaled)
