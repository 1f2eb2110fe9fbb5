"""Exact rational coefficients.

gmpy2.mpq is used when available (it is much faster for the dense
convolutions in the weight-30 identity checks); fractions.Fraction is a
drop-in fallback.  Both normalize to lowest terms with positive
denominator, and both print as ``p/q`` or ``p``.
"""

try:
    from gmpy2 import mpq as Q
except ImportError:  # pragma: no cover
    from fractions import Fraction as Q

import fractions

_EXACT_TYPES = (int, Q, fractions.Fraction)


def is_exact(x):
    """True for values that support exact rational arithmetic."""
    return isinstance(x, _EXACT_TYPES)


def rational_from_string(s):
    """Parse ``p`` or ``p/q`` into an exact rational."""
    s = s.strip()
    if "/" in s:
        num, den = s.split("/", 1)
        return Q(int(num), int(den))
    return Q(int(s))


def rational_to_string(q):
    return str(q)
