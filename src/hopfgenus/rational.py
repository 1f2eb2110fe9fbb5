"""Exact rational coefficients and the one rule for their type.

An exact coefficient whose value is an integer is a Python ``int``; it
is a ``fractions.Fraction`` (``Q``) only when its denominator is greater
than 1.  Integral algebra (Newton's identities, the d- and a-classes,
the stuffle product, the bar differential) therefore runs in integers,
and only a division makes a ``Fraction``.  ``canonical`` and ``divide``
keep the rule where coefficients are created and where they are
combined (``core.add_into``, ``mul_terms`` and the series products);
float and complex coefficients pass through both unchanged.
"""

from fractions import Fraction

Q = Fraction


def is_exact(x):
    """True for values that support exact rational arithmetic."""
    return isinstance(x, (int, Fraction))


def canonical(x):
    """``x`` with an integral ``Fraction`` replaced by its ``int`` value."""
    if type(x) is Fraction and x.denominator == 1:
        return x.numerator
    return x


def divide(a, b):
    """``a / b``, exact when both are exact, and canonical.

    ``int / int`` is a float in Python, so two ints divide as ``a // b``
    when ``b`` divides ``a`` and as a ``Fraction`` otherwise.
    """
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return canonical(a / b)


def rational_from_string(s):
    """Parse ``p`` or ``p/q`` into an exact rational; ValueError if q is 0."""
    s = s.strip()
    if "/" in s:
        num, den = map(int, s.split("/", 1))
        if den == 0:
            raise ValueError("zero denominator in %r" % s)
        return divide(num, den)
    return int(s)
