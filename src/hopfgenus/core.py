"""Sparse exact-rational graded polynomials and truncated series.

Generators are identified by a family letter and a positive index and
carry a positive integer degree; all three are packed into a single
integer id (see ``_kernels.pure``).  The canonical text format is
``3*c[1]^2 - 2*c[2]`` with integer or ``p/q`` coefficients; parser and
printer round-trip bit-exactly.

Exact coefficients follow the rule of ``rational``: an integral value is
an ``int`` and a ``Fraction`` has denominator > 1.  The arithmetic keeps
it: constructors, scalar products and exact divisions make canonical
coefficients, and every sum or product stores ``canonical`` of its
result (``add_into``, ``mul_terms``, the series operations), so no
caller has to canonicalise what it reads.

Monomials are gid-sorted tuples of ``(gid, exponent)`` pairs with
positive exponents; the parser sums a generator's exponents and drops
zero ones, so equal monomials have equal keys.  ``GradedPolynomial``
products go through the kernel ``mul_terms``.  The four series
recurrences are written once, on packed exponent vectors, one integer
per monomial, in which a monomial product is an integer sum: ``*``
(``_series_mul``), ``/`` (``_series_div``; ``inverse`` is 1/b),
``exp_scaled`` and ``log_scaled`` (t a'/a).  ``exp`` and ``log`` are
thin scalings of the last two: ``exp`` feeds k a_k to ``exp_scaled``,
and ``log`` divides component k of ``log_scaled`` by k.  The scaled
forms keep Newton's identities integral, with no rational round trip.
One base class, ``_Series``, carries the series operators and their
bound and constant-term preconditions for both series classes:
``TruncatedSeries`` packs its monomials with a ``_PackedLayout`` and
``PowerSeries1`` packs x^k as the integer k.

Everything here is immutable-by-convention and pure: operations return
new values and never mutate their inputs.  The one exception is
``add_into``, the package's single sparse accumulation, which mutates
only the accumulator dict its caller created.
"""

import re

from ._kernels import monomial_degree, mul_terms
from .rational import canonical, divide, rational_from_string

_FAM_SHIFT = 24
_DEG_SHIFT = 32
_IDX_MASK = (1 << 24) - 1


class BoundMismatchError(ValueError):
    """Two truncated series with different bounds were combined."""


class ConstantTermError(ValueError):
    """A series operation's constant-term precondition failed."""


class HomogeneityError(ValueError):
    """A term of a series' degree-k component has a degree other than k."""


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
    sum would be, so float and complex results are bit-identical to it;
    a stored sum is ``canonical``.
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
            acc[k] = canonical(s)
    return acc


class LinearCombination:
    """Finite linear combination: a dict from basis keys to nonzero coefficients.

    Subclasses fix what the keys mean (monomials, compositions, words)
    and add their own products; ``symm.coproduct`` returns a plain one
    keyed by pairs of monomials.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = terms if terms is not None else {}

    @classmethod
    def one(cls):
        """The unit: the empty key with coefficient 1."""
        return cls({(): 1})

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

    def scale(self, s):
        """The scalar multiple s * self: each coefficient becomes canonical(c * s)."""
        if s == 0:
            return type(self)()
        return type(self)({k: canonical(c * s) for k, c in self.terms.items()})


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
    def generator(cls, family, index, degree=None, coeff=None):
        g = gen_id(family, index, degree)
        return cls({((g, 1),): 1 if coeff is None else canonical(coeff)})

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
        return self.scale(other)

    __rmul__ = LinearCombination.scale

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

    def map_coefficients(self, fn):
        out = {}
        for m, c in self.terms.items():
            v = fn(c)
            if v != 0:
                out[m] = v
        return GradedPolynomial(out)

    def substitute(self, images):
        """Replace generators by polynomials.

        ``images`` maps gid -> GradedPolynomial; generators without an
        image are kept.  Each power of an image is formed once per call.
        """
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
        return GradedPolynomial(result)

    def __repr__(self):
        return "GradedPolynomial(%s)" % format_polynomial(self)


def _convolve_into(acc, a, b):
    """Add the product of two packed term dicts into ``acc``.

    A packed monomial product is the sum of its factors' keys (see
    ``_PackedLayout``).  Zero sums are kept; the caller drops them once
    its step is complete.
    """
    if len(a) > len(b):
        a, b = b, a
    b_items = list(b.items())
    get = acc.get
    for ka, ca in a.items():
        for kb, cb in b_items:
            k = ka + kb
            prev = get(k)
            acc[k] = ca * cb if prev is None else prev + ca * cb


# The series recurrences, written once for ``TruncatedSeries`` and
# ``PowerSeries1``.  A series is a list of packed term dicts, one per
# degree 0..D; every key of the dict of degree k is a monomial of degree
# k, and the preconditions on the constant term are the callers'.


def _series_mul(a, b):
    """The Cauchy product of two packed series of one bound."""
    out = []
    for k in range(len(a)):
        acc = {}
        for i in range(k + 1):
            if a[i] and b[k - i]:
                _convolve_into(acc, a[i], b[k - i])
        out.append({m: canonical(c) for m, c in acc.items() if c})
    return out


def _series_div(a, b):
    """a/b for packed series of one bound; b has constant term 1 (b[0] is not read).

    q_k = a_k - sum_{j>=1} b_j q_{k-j}.  The step starts its accumulator
    at -a_k, adds every product and stores canonical(-sum), so that 1/b
    adds the products in the order of the written-out sum and float
    results are bit-identical to it.
    """
    q = [dict(a[0])]
    for k in range(1, len(a)):
        acc = {m: -c for m, c in a[k].items()}
        for j in range(1, k + 1):
            if b[j] and q[k - j]:
                _convolve_into(acc, b[j], q[k - j])
        q.append({m: canonical(-c) for m, c in acc.items() if c})
    return q


def _series_exp_scaled(s):
    """exp(sum_k s_k t^k / k) for a packed series s (s[0] is not read).

    k out_k = sum_{j=1..k} s_j out_{k-j}: the sum is taken in the
    coefficients' own type and each coefficient is divided exactly by k.
    """
    out = [{0: 1}]
    for k in range(1, len(s)):
        acc = {}
        for j in range(1, k + 1):
            if s[j] and out[k - j]:
                _convolve_into(acc, s[j], out[k - j])
        out.append({m: divide(c, k) for m, c in acc.items() if c})
    return out


def _series_log_scaled(a):
    """[k log(a)_k] = t a'/a for a packed series with constant term 1 (a[0] is not read).

    L_k = k a_k - sum_{0<j<k} L_j a_{k-j}.  The step sums
    -L_k = -k a_k + sum_{0<j<k} L_j a_{k-j}, so that every product is
    added, and stores canonical(-sum).  There is no division: integral
    input gives integral output.
    """
    out = [{}]
    for k in range(1, len(a)):
        acc = {m: canonical(-k * c) for m, c in a[k].items()}
        for j in range(1, k):
            if out[j] and a[k - j]:
                _convolve_into(acc, out[j], a[k - j])
        out.append({m: canonical(-c) for m, c in acc.items() if c})
    return out


def _series_exp(a):
    """exp(a) for a packed series with zero constant term: s_k = k a_k."""
    return _series_exp_scaled(
        [{m: canonical(c * k) for m, c in t.items()} for k, t in enumerate(a)]
    )


def _series_log(a):
    """log(a) for a packed series with constant term 1: L_k / k."""
    scaled = _series_log_scaled(a)
    return [{}] + [{m: divide(c, k) for m, c in t.items()} for k, t in enumerate(scaled[1:], 1)]


class _PackedLayout:
    """Packed exponent vectors for one truncated-series operation.

    Every generator in the operands gets a bit field of width
    ``(D // gid_degree(g)).bit_length()``, in increasing gid order from
    the low bit, and a monomial packs to ``sum(e << shift[g])``
    (Monagan and Pearce, *Polynomial division using dynamic arrays,
    heaps, and packed exponent vectors*, CASC 2007).  The series
    operations form only homogeneous products of degree <= D, in which
    the exponent of ``g`` is at most ``D // gid_degree(g)``: no field
    overflows and no carry crosses into the next one, so a monomial
    product is one integer addition.  Unpacking takes the fields from
    the top bit down and reverses them, so a monomial comes back
    gid-sorted, built from one shared ``(gid, e)`` pair per field value
    of this layout.
    """

    __slots__ = ("shift", "_mask_at", "_pair")

    def __init__(self, operands, bound):
        gids = sorted(
            {g for s in operands for comp in s.comps for m in comp.terms for g, _ in m}
        )
        self.shift = {}
        self._mask_at = [0]  # bit_length of a key -> mask of its top field
        self._pair = {}  # e << shift[g] -> (g, e)
        pos = 0
        for g in gids:
            top = bound // gid_degree(g)
            width = top.bit_length()
            self.shift[g] = pos
            self._mask_at.extend([((1 << width) - 1) << pos] * width)
            for e in range(1, top + 1):
                self._pair[e << pos] = (g, e)
            pos += width

    def pack(self, series):
        """One packed term dict per component of ``series``.

        Raises ``HomogeneityError`` for a term of component k whose
        degree is not k: only homogeneous terms are sure to fit.
        """
        shift = self.shift
        out = []
        for k, comp in enumerate(series.comps):
            packed = {}
            for mon, c in comp.terms.items():
                key = deg = 0
                for g, e in mon:
                    key += e << shift[g]
                    deg += (g >> _DEG_SHIFT) * e
                if deg != k:
                    raise HomogeneityError(
                        "series component %d has a term of degree %d: %s"
                        % (k, deg, _format_monomial(mon))
                    )
                packed[key] = c
            out.append(packed)
        return out

    def unpack(self, packed):
        """The GradedPolynomial of a packed term dict."""
        mask_at, pair = self._mask_at, self._pair
        terms = {}
        for key, c in packed.items():
            mon = []
            while key:
                part = key & mask_at[key.bit_length()]
                mon.append(pair[part])
                key ^= part
            mon.reverse()
            terms[tuple(mon)] = c
        return GradedPolynomial(terms)

    def series(self, packed_comps):
        return TruncatedSeries([self.unpack(t) for t in packed_comps])


class _Series:
    """The operators of both truncated-series classes, written once.

    A series holds one part per degree 0..D in ``_parts``: a homogeneous
    ``GradedPolynomial`` or a number.  A subclass gives its storage,
    ``_constant(c)`` (a new part of value c) and ``_run``, which packs
    its operands, runs a recurrence and unpacks the result.  Operators on
    two series raise ``BoundMismatchError`` for unequal bounds rather
    than re-truncate; a failed constant-term precondition raises
    ``ConstantTermError``.
    """

    __slots__ = ()

    @property
    def bound(self):
        return len(self._parts) - 1

    @classmethod
    def zero(cls, bound):
        return cls([cls._constant(0) for _ in range(bound + 1)])

    @classmethod
    def one(cls, bound):
        series = cls.zero(bound)
        series._parts[0] = cls._constant(1)
        return series

    def _check(self, other):
        if self.bound != other.bound:
            raise BoundMismatchError(
                "series bounds differ: %d vs %d" % (self.bound, other.bound)
            )

    def _require_constant(self, value, message):
        if self._parts[0] != self._constant(value):
            raise ConstantTermError(message)

    def __eq__(self, other):
        if isinstance(other, type(self)):
            return self.bound == other.bound and all(
                a == b for a, b in zip(self._parts, other._parts)
            )
        return NotImplemented

    def __add__(self, other):
        self._check(other)
        return type(self)([canonical(a + b) for a, b in zip(self._parts, other._parts)])

    def __sub__(self, other):
        self._check(other)
        return type(self)([canonical(a - b) for a, b in zip(self._parts, other._parts)])

    def scale(self, s):
        return type(self)([canonical(c * s) for c in self._parts])

    def __mul__(self, other):
        """Cauchy product; the products of each degree share one accumulator."""
        self._check(other)
        return self._run(_series_mul, other)

    def inverse(self):
        """Multiplicative inverse 1 / self; requires constant term 1."""
        self._require_constant(1, "series inverse needs constant term 1")
        return self.one(self.bound)._run(_series_div, self)

    def exp(self):
        """Exponential; requires zero constant term."""
        self._require_constant(0, "series exp needs zero constant term")
        return self._run(_series_exp)

    def log_scaled(self):
        """Part k is k times that of log(self): t a'/a, for a = self.

        Requires constant term 1; integral coefficients give integral
        results (Newton's identities).
        """
        self._require_constant(1, "series log needs constant term 1")
        return self._run(_series_log_scaled)

    def log(self):
        """Logarithm; requires constant term 1.  Part k is that of
        ``log_scaled`` divided exactly by k."""
        self._require_constant(1, "series log needs constant term 1")
        return self._run(_series_log)


class TruncatedSeries(_Series):
    """Graded-polynomial coefficients per total degree up to a bound D.

    Stored as one homogeneous component per degree 0..D; terms above D
    are absent by construction.

    The series operations are the recurrences ``*``, ``/`` (``inverse``
    is 1/self), ``exp_scaled`` and ``log_scaled``; ``exp`` and ``log``
    are their thin scalings (see the module docstring).  Precondition of
    all of them: every term of component k has degree k.  They check it
    and raise ``HomogeneityError`` naming k and the degree found.  They
    pack each input component once into integer keys (``_PackedLayout``),
    run their recurrence on those keys and unpack each output component
    once.
    """

    __slots__ = ("comps",)

    _constant = staticmethod(GradedPolynomial.constant)

    def __init__(self, comps):
        self.comps = list(comps)
        if not self.comps:
            raise ValueError("series needs at least the degree-0 component")

    @property
    def _parts(self):
        return self.comps

    @classmethod
    def from_polynomial(cls, poly, bound):
        """Bucket the terms of ``poly`` by degree; terms above ``bound`` are dropped."""
        comps = [{} for _ in range(bound + 1)]
        for m, c in poly.terms.items():
            d = monomial_degree(m)
            if d <= bound:
                comps[d][m] = c
        return cls([GradedPolynomial(t) for t in comps])

    def polynomial(self):
        total = {}
        for c in self.comps:
            add_into(total, c.terms)
        return GradedPolynomial(total)

    def _run(self, recurrence, *others):
        """Pack self and ``others`` on one layout, run ``recurrence`` on the
        packed series and unpack its result."""
        operands = (self,) + others
        layout = _PackedLayout(operands, self.bound)
        return layout.series(recurrence(*[layout.pack(s) for s in operands]))

    # perfbench's tracer wraps the product through this class's own
    # attribute and its restore test reads it from the class __dict__.
    __mul__ = _Series.__mul__

    def __truediv__(self, other):
        """Quotient self / other in one pass; requires ``other`` to have constant term 1."""
        self._check(other)
        other._require_constant(1, "series division needs a divisor with constant term 1")
        return self._run(_series_div, other)

    def exp_scaled(self):
        """exp(sum_k s_k / k), s_k component k of self; requires zero constant term.

        ``exp(a)`` is ``exp_scaled`` of the components k a_k.  With
        integral s_k no coefficient is a fraction until the recurrence's
        own exact division by k.
        """
        self._require_constant(0, "series exp needs zero constant term")
        return self._run(_series_exp_scaled)

    def __repr__(self):
        return "TruncatedSeries(bound=%d, %s)" % (
            self.bound,
            format_polynomial(self.polynomial()),
        )


class PowerSeries1(_Series):
    """Univariate truncated power series with arbitrary numeric coefficients.

    Used for characteristic series, formal-group logarithms and the
    Gamma-function exponential.  Coefficient index = power of x.  One
    base class, ``_Series``, carries the operators and their
    preconditions for this class and ``TruncatedSeries``; the
    recurrences run with x^k packed as the key k.
    """

    __slots__ = ("coeffs",)

    _constant = staticmethod(canonical)

    def __init__(self, coeffs):
        self.coeffs = list(coeffs)

    @property
    def _parts(self):
        return self.coeffs

    @classmethod
    def x(cls, bound):
        series = cls.zero(bound)
        series.coeffs[1] = 1
        return series

    def _run(self, recurrence, *others):
        """Run ``recurrence`` on self and ``others`` packed, x^k as the key k."""
        packed = [[{k: c} if c else {} for k, c in enumerate(s.coeffs)] for s in (self,) + others]
        return PowerSeries1([t.get(k, 0) for k, t in enumerate(recurrence(*packed))])

    def compose(self, inner):
        """self(inner(x)); inner must have zero constant term."""
        self._check(inner)
        inner._require_constant(0, "composition needs zero inner constant term")
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
        mon = tuple(sorted((g, e) for g, e in gens.items() if e))
        add_into(terms, ((mon, c),))
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
