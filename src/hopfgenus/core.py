"""Sparse exact-rational graded polynomials and truncated series.

Generators are identified by a family letter and a positive index and
carry a positive integer degree; all three are packed into a single
integer id (see ``_kernels.pure``).  The canonical text format is
``3*c[1]^2 - 2*c[2]`` with integer or ``p/q`` coefficients; parser and
printer round-trip bit-exactly.

Exact coefficients follow the rule of ``rational``: an integral value is
an ``int`` and a ``Fraction`` has denominator > 1.  Units, generators,
parsed coefficients, scalar products, exact divisions and the series
``exp``, ``log`` and ``inverse`` all produce canonical coefficients, so
integral algebra never leaves the integers; the kernels multiply and
add whatever coefficients they are given.

Everything here is immutable-by-convention and pure: operations return
new values and never mutate their inputs.  The one exception is
``add_into``, the package's single sparse accumulation, which mutates
only the accumulator dict its caller created.
"""

import re

from ._kernels import monomial_degree, monomial_mul, mul_terms
from .rational import Q, canonical, divide, rational_from_string

_FAM_SHIFT = 24
_DEG_SHIFT = 32
_IDX_MASK = (1 << 24) - 1


class BoundMismatchError(ValueError):
    """Two truncated series with different bounds were combined."""


class ConstantTermError(ValueError):
    """A series operation's constant-term precondition failed."""


class ParseError(ValueError):
    pass


class InvariantError(ArithmeticError):
    """An internal algebraic identity (d^2 = 0, an integral dimension) failed."""


def add_into(acc, terms, scale=None):
    """Add ``scale * terms`` into the coefficient dict ``acc``; drop zeros.

    ``terms`` is a dict or an iterable of (key, coefficient) pairs and is
    only read; ``acc`` is mutated in place and returned, so pass only a
    dict the caller created.  ``scale=None`` adds the coefficients as
    they are, ``scale=-1`` negates them (for complex coefficients
    ``-c`` and ``c * -1`` can differ in the sign of a zero part) and any
    other scale multiplies them on the right.  Each key's coefficients
    are summed in arrival order starting from ``0``, as the written-out
    sum would be, so float and complex results are bit-identical to it.
    """
    items = terms.items() if isinstance(terms, dict) else terms
    negate = scale is not None and scale == -1
    get = acc.get
    for k, c in items:
        if negate:
            c = -c
        elif scale is not None:
            c = c * scale
        s = get(k, 0) + c
        if s == 0:
            acc.pop(k, None)
        else:
            acc[k] = s
    return acc


class LinearCombination:
    """Finite linear combination: a dict from basis keys to nonzero coefficients.

    Subclasses fix what the keys mean (monomials, compositions, words,
    pairs of monomials) and add their own products.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = terms if terms is not None else {}

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, type(self)):
            return self.terms == other.terms
        return NotImplemented

    def _coerce(self, other):
        return other

    def __add__(self, other):
        other = self._coerce(other)
        return type(self)(add_into(dict(self.terms), other.terms))

    def __sub__(self, other):
        other = self._coerce(other)
        return type(self)(add_into(dict(self.terms), other.terms, -1))

    def __neg__(self):
        return type(self)({k: -c for k, c in self.terms.items()})


def gen_id(family, index, degree=None):
    """Pack (family, index, degree) into a generator id.

    By default the degree equals the index, which is the weight
    convention used by all the symmetric-function families.
    """
    if degree is None:
        degree = index
    if len(family) != 1 or not family.isalpha():
        raise ValueError("generator family must be a single letter: %r" % family)
    if index < 0 or index > _IDX_MASK:
        raise ValueError("generator index out of range: %d" % index)
    if degree <= 0:
        raise ValueError("generator degree must be positive: %d" % degree)
    return (degree << _DEG_SHIFT) | (ord(family) << _FAM_SHIFT) | index


def gid_degree(gid):
    return gid >> _DEG_SHIFT


def gid_family(gid):
    return chr((gid >> _FAM_SHIFT) & 0xFF)


def gid_index(gid):
    return gid & _IDX_MASK


class GradedPolynomial(LinearCombination):
    """Finite map from monomials to exact rational coefficients.

    The term dict maps sorted (gid, exponent) tuples to nonzero
    coefficients.  Exact coefficients are ``int`` when integral and
    ``Fraction`` otherwise (see ``rational``); the arithmetic is
    coefficient-agnostic, and float/complex coefficients are used by the
    numerical genus deformations.  Scalars added to or subtracted from a
    polynomial act as constants.
    """

    __slots__ = ()

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def constant(cls, c):
        if c == 0:
            return cls({})
        return cls({(): canonical(c)})

    @classmethod
    def one(cls):
        return cls({(): 1})

    @classmethod
    def generator(cls, family, index, degree=None, coeff=None):
        g = gen_id(family, index, degree)
        return cls({((g, 1),): 1 if coeff is None else canonical(coeff)})

    def constant_term(self):
        return self.terms.get((), 0)

    def coefficient(self, mon):
        return self.terms.get(tuple(mon), 0)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def _coerce(self, other):
        if isinstance(other, GradedPolynomial):
            return other
        return GradedPolynomial.constant(other)

    __radd__ = LinearCombination.__add__

    def __rsub__(self, other):
        return GradedPolynomial.constant(other) - self

    def __mul__(self, other):
        if isinstance(other, GradedPolynomial):
            return GradedPolynomial(mul_terms(self.terms, other.terms))
        if other == 0:
            return GradedPolynomial.zero()
        return GradedPolynomial({m: canonical(c * other) for m, c in self.terms.items()})

    def __rmul__(self, other):
        if other == 0:
            return GradedPolynomial.zero()
        return GradedPolynomial({m: canonical(other * c) for m, c in self.terms.items()})

    def __truediv__(self, scalar):
        """Divide every coefficient by ``scalar``, exactly when both are exact."""
        return GradedPolynomial({m: divide(c, scalar) for m, c in self.terms.items()})

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = GradedPolynomial.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def truncate(self, cap):
        return GradedPolynomial(
            {m: c for m, c in self.terms.items() if monomial_degree(m) <= cap}
        )

    def homogeneous_part(self, d):
        return GradedPolynomial(
            {m: c for m, c in self.terms.items() if monomial_degree(m) == d}
        )

    def max_degree(self):
        """Largest total degree of a term; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(monomial_degree(m) for m in self.terms)

    def degrees(self):
        return sorted({monomial_degree(m) for m in self.terms})

    def map_coefficients(self, fn):
        out = {}
        for m, c in self.terms.items():
            v = fn(c)
            if v != 0:
                out[m] = v
        return GradedPolynomial(out)

    def substitute(self, images, cache=None):
        """Replace generators by polynomials.

        ``images`` maps gid -> GradedPolynomial; generators without an
        image are kept.  A shared power ``cache`` dict may be supplied
        by callers doing many related substitutions.
        """
        if cache is None:
            cache = {}
        result = {}
        for mon, coeff in self.terms.items():
            prod = GradedPolynomial.constant(coeff)
            for gid, e in mon:
                img = images.get(gid)
                if img is None:
                    prod = prod * GradedPolynomial({((gid, e),): 1})
                    continue
                key = (gid, e)
                p = cache.get(key)
                if p is None:
                    p = img**e
                    cache[key] = p
                prod = prod * p
            add_into(result, prod.terms)
        return GradedPolynomial({m: canonical(c) for m, c in result.items()})

    def __repr__(self):
        return "GradedPolynomial(%s)" % format_polynomial(self)


class TruncatedSeries:
    """Graded-polynomial coefficients per total degree up to a bound D.

    Stored as one homogeneous component per degree 0..D; terms above D
    are absent by construction.  Mismatched bounds raise rather than
    silently re-truncating.
    """

    __slots__ = ("comps",)

    def __init__(self, comps):
        self.comps = list(comps)
        if not self.comps:
            raise ValueError("series needs at least the degree-0 component")

    @property
    def bound(self):
        return len(self.comps) - 1

    @classmethod
    def from_polynomial(cls, poly, bound):
        return cls([poly.homogeneous_part(d) for d in range(bound + 1)])

    @classmethod
    def one(cls, bound):
        comps = [GradedPolynomial.zero() for _ in range(bound + 1)]
        comps[0] = GradedPolynomial.one()
        return cls(comps)

    @classmethod
    def zero(cls, bound):
        return cls([GradedPolynomial.zero() for _ in range(bound + 1)])

    def component(self, d):
        return self.comps[d]

    def polynomial(self):
        total = {}
        for c in self.comps:
            add_into(total, c.terms)
        return GradedPolynomial(total)

    def _check(self, other):
        if self.bound != other.bound:
            raise BoundMismatchError(
                "series bounds differ: %d vs %d" % (self.bound, other.bound)
            )

    def __eq__(self, other):
        if isinstance(other, TruncatedSeries):
            return self.bound == other.bound and all(
                a == b for a, b in zip(self.comps, other.comps)
            )
        return NotImplemented

    def __add__(self, other):
        self._check(other)
        return TruncatedSeries([a + b for a, b in zip(self.comps, other.comps)])

    def __sub__(self, other):
        self._check(other)
        return TruncatedSeries([a - b for a, b in zip(self.comps, other.comps)])

    def __neg__(self):
        return TruncatedSeries([-a for a in self.comps])

    def scale(self, scalar):
        return TruncatedSeries([c * scalar for c in self.comps])

    def __mul__(self, other):
        self._check(other)
        D = self.bound
        out = []
        for k in range(D + 1):
            acc = {}
            for i in range(k + 1):
                a = self.comps[i]
                b = other.comps[k - i]
                if a.terms and b.terms:
                    add_into(acc, mul_terms(a.terms, b.terms))
            out.append(GradedPolynomial(acc))
        return TruncatedSeries(out)

    def inverse(self):
        """Multiplicative inverse; requires constant term 1."""
        if self.comps[0] != GradedPolynomial.one():
            raise ConstantTermError("series inverse needs constant term 1")
        D = self.bound
        inv = [GradedPolynomial.one()]
        for k in range(1, D + 1):
            acc = {}
            for j in range(1, k + 1):
                a = self.comps[j]
                if a.terms and inv[k - j].terms:
                    add_into(acc, mul_terms(a.terms, inv[k - j].terms))
            inv.append(GradedPolynomial({m: canonical(-c) for m, c in acc.items()}))
        return TruncatedSeries(inv)

    def exp(self):
        """Exponential; requires zero constant term and exact coefficients.

        k out_k = sum_j (j a_j) out_{k-j}: the j a_j are formed once, the
        sum is taken in the coefficients' own type and each coefficient
        is divided exactly by k.
        """
        if self.comps[0].terms:
            raise ConstantTermError("series exp needs zero constant term")
        D = self.bound
        scaled = [a * j for j, a in enumerate(self.comps)]
        out = [GradedPolynomial.one()]
        for k in range(1, D + 1):
            acc = {}
            for j in range(1, k + 1):
                b = scaled[j]
                if b.terms and out[k - j].terms:
                    add_into(acc, mul_terms(b.terms, out[k - j].terms))
            out.append(GradedPolynomial(acc) / k)
        return TruncatedSeries(out)

    def log(self):
        """Logarithm; requires constant term 1.

        k out_k = k a_k - sum_{0<j<k} (j out_j) a_{k-j}, divided exactly
        by k as in ``exp``.
        """
        if self.comps[0] != GradedPolynomial.one():
            raise ConstantTermError("series log needs constant term 1")
        D = self.bound
        out = [GradedPolynomial.zero()]
        scaled = [GradedPolynomial.zero()]  # j out_j
        for k in range(1, D + 1):
            acc = dict((self.comps[k] * k).terms)
            for j in range(1, k):
                if scaled[j].terms and self.comps[k - j].terms:
                    add_into(acc, mul_terms(scaled[j].terms, self.comps[k - j].terms), -1)
            scaled.append(GradedPolynomial(acc))
            out.append(scaled[k] / k)
        return TruncatedSeries(out)

    def __repr__(self):
        return "TruncatedSeries(bound=%d, %s)" % (
            self.bound,
            format_polynomial(self.polynomial()),
        )


class PowerSeries1:
    """Univariate truncated power series with arbitrary numeric coefficients.

    Used for characteristic series, formal-group logarithms and the
    Gamma-function exponential.  Coefficient index = power of x.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = list(coeffs)

    @property
    def bound(self):
        return len(self.coeffs) - 1

    @classmethod
    def zero(cls, bound):
        return cls([0] * (bound + 1))

    @classmethod
    def one(cls, bound):
        c = [0] * (bound + 1)
        c[0] = 1
        return cls(c)

    @classmethod
    def x(cls, bound):
        c = [0] * (bound + 1)
        c[1] = 1
        return cls(c)

    def _check(self, other):
        if self.bound != other.bound:
            raise BoundMismatchError(
                "series bounds differ: %d vs %d" % (self.bound, other.bound)
            )

    def __eq__(self, other):
        if isinstance(other, PowerSeries1):
            return self.bound == other.bound and all(
                a == b for a, b in zip(self.coeffs, other.coeffs)
            )
        return NotImplemented

    def __add__(self, other):
        self._check(other)
        return PowerSeries1([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        self._check(other)
        return PowerSeries1([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def scale(self, s):
        return PowerSeries1([c * s for c in self.coeffs])

    def __mul__(self, other):
        self._check(other)
        D = self.bound
        out = [0] * (D + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j in range(D + 1 - i):
                b = other.coeffs[j]
                if b != 0:
                    out[i + j] = out[i + j] + a * b
        return PowerSeries1(out)

    def inverse(self):
        if self.coeffs[0] != 1:
            raise ConstantTermError("series inverse needs constant term 1")
        D = self.bound
        inv = [canonical(self.coeffs[0] ** 0)]  # int 1, or 1 in a numeric type
        for k in range(1, D + 1):
            acc = 0
            for j in range(1, k + 1):
                acc = acc + self.coeffs[j] * inv[k - j]
            inv.append(canonical(-acc))
        return PowerSeries1(inv)

    def exp(self):
        if self.coeffs[0] != 0:
            raise ConstantTermError("series exp needs zero constant term")
        D = self.bound
        out = [canonical(self.coeffs[1] ** 0) if D >= 1 else 1]
        for k in range(1, D + 1):
            acc = 0
            for j in range(1, k + 1):
                acc = acc + j * self.coeffs[j] * out[k - j]
            out.append(divide(acc, k))
        return PowerSeries1(out)

    def log(self):
        if self.coeffs[0] != 1:
            raise ConstantTermError("series log needs constant term 1")
        D = self.bound
        out = [canonical(0 * self.coeffs[0])]
        for k in range(1, D + 1):
            acc = self.coeffs[k]
            for j in range(1, k):
                acc = acc - Q(j, k) * out[j] * self.coeffs[k - j]
            out.append(canonical(acc))
        return PowerSeries1(out)

    def compose(self, inner):
        """self(inner(x)); inner must have zero constant term."""
        self._check(inner)
        if inner.coeffs[0] != 0:
            raise ConstantTermError("composition needs zero inner constant term")
        D = self.bound
        result = PowerSeries1.zero(D)
        power = PowerSeries1.one(D)
        for k, a in enumerate(self.coeffs):
            if a != 0:
                result = result + power.scale(a)
            if k < D:
                power = power * inner
        return result

    def compose_inverse(self):
        """Compositional inverse g with self(g(x)) = x up to the bound.

        Requires the series to be x + higher order.
        """
        if self.coeffs[0] != 0 or self.coeffs[1] != 1:
            raise ConstantTermError("compositional inverse needs f = x + O(x^2)")
        D = self.bound
        g = PowerSeries1.x(D)
        # f(g) = x + e_n x^n + ... ; correcting g_n by -e_n clears degree n
        # because f = x + higher order.
        for n in range(2, D + 1):
            err = self.compose(g).coeffs[n]
            if err != 0:
                g.coeffs[n] = g.coeffs[n] - err
        return PowerSeries1(g.coeffs)

    def __repr__(self):
        return "PowerSeries1(%r)" % (self.coeffs,)


# ---------------------------------------------------------------------------
# canonical text format


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<sign>[+-])|(?P<coeff>\d+(?:/\d+)?)|(?P<gen>[A-Za-z]\[\d+\](?:\^\d+)?)|(?P<star>\*))"
)
_GEN_RE = re.compile(r"([A-Za-z])\[(\d+)\](?:\^(\d+))?$")


def parse_polynomial(text, degree_of=None):
    """Parse the canonical text format into a GradedPolynomial.

    ``degree_of(family, index)`` supplies generator degrees; by default
    the degree is the index (the weight convention).
    """
    if degree_of is None:
        degree_of = lambda fam, idx: idx
    pos = 0
    n = len(text)
    terms = {}
    # state per term
    sign = 1
    coeff = None
    gens = {}
    started = False

    def flush():
        nonlocal sign, coeff, gens, started
        if not started:
            return
        c = 1 if coeff is None else coeff
        if sign < 0:
            c = -c
        add_into(terms, ((tuple(sorted(gens.items())), c),))
        sign, coeff, gens, started = 1, None, {}, False

    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip() == "":
                break
            raise ParseError("cannot parse polynomial at: %r" % text[pos:])
        pos = m.end()
        if m.group("sign"):
            flush()
            sign = -1 if m.group("sign") == "-" else 1
            started = True
        elif m.group("coeff"):
            if coeff is not None:
                raise ParseError("two coefficients in one term: %r" % text)
            coeff = rational_from_string(m.group("coeff"))
            started = True
        elif m.group("gen"):
            gm = _GEN_RE.match(m.group("gen"))
            fam, idx, exp = gm.group(1), int(gm.group(2)), gm.group(3)
            e = int(exp) if exp else 1
            gid = gen_id(fam, idx, degree_of(fam, idx))
            gens[gid] = gens.get(gid, 0) + e
            started = True
        # '*' separators carry no content
    flush()
    return GradedPolynomial(terms)


def _format_monomial(mon):
    parts = []
    for gid, e in mon:
        s = "%s[%d]" % (gid_family(gid), gid_index(gid))
        if e != 1:
            s += "^%d" % e
        parts.append(s)
    return "*".join(parts)


def format_polynomial(poly):
    """Canonical printer; inverse of parse_polynomial on its own output."""
    if not poly.terms:
        return "0"
    items = sorted(poly.terms.items(), key=lambda mc: (monomial_degree(mc[0]), mc[0]))
    pieces = []
    for mon, c in items:
        neg = c < 0
        mag = -c if neg else c
        coeff_s = str(mag)
        if mon == ():
            body = coeff_s
        elif mag == 1:
            body = _format_monomial(mon)
        else:
            body = coeff_s + "*" + _format_monomial(mon)
        if not pieces:
            pieces.append(("-" if neg else "") + body)
        else:
            pieces.append(("- " if neg else "+ ") + body)
    return " ".join(pieces)
