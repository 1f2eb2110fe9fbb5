"""Exact rational coefficients: ``Q`` is ``fractions.Fraction``."""

from fractions import Fraction

Q = Fraction


def is_exact(x):
    """True for values that support exact rational arithmetic."""
    return isinstance(x, (int, Fraction))


def rational_from_string(s):
    """Parse ``p`` or ``p/q`` into an exact rational."""
    s = s.strip()
    if "/" in s:
        num, den = s.split("/", 1)
        return Q(int(num), int(den))
    return Q(int(s))
