"""The packed-exponent series recurrences against the tuple-monomial ones.

``TruncatedSeries`` runs ``*``, ``inverse``, ``exp`` and ``log`` on packed
exponent vectors.  The ``_tuple_*`` functions below are copies of the
recurrences it ran before on sorted ``(gid, e)`` tuples through
``mul_terms``; on seeded random homogeneous series both must give equal
term dicts with equal coefficient types.  The boundary cases put an
exponent of every generator at the top of its bit field, where a field
one bit too narrow would carry into its neighbour.
"""

import math
import random
from fractions import Fraction

import pytest

from hopfgenus._kernels import monomial_degree, mul_terms
from hopfgenus.core import (
    GradedPolynomial,
    HomogeneityError,
    TruncatedSeries,
    add_into,
    gen_id,
)
from hopfgenus.rational import canonical

# ---------------------------------------------------------------------------
# the tuple-monomial recurrences


def _tuple_mul(x, y):
    out = []
    for k in range(x.bound + 1):
        acc = {}
        for i in range(k + 1):
            a = x.comps[i]
            b = y.comps[k - i]
            if a.terms and b.terms:
                add_into(acc, mul_terms(a.terms, b.terms))
        out.append(acc)
    return out


def _tuple_inverse(s):
    inv = [GradedPolynomial.one()]
    for k in range(1, s.bound + 1):
        acc = {}
        for j in range(1, k + 1):
            a = s.comps[j]
            if a.terms and inv[k - j].terms:
                add_into(acc, mul_terms(a.terms, inv[k - j].terms))
        inv.append(GradedPolynomial({m: canonical(-c) for m, c in acc.items()}))
    return [p.terms for p in inv]


def _tuple_exp(s):
    scaled = [a * j for j, a in enumerate(s.comps)]
    out = [GradedPolynomial.one()]
    for k in range(1, s.bound + 1):
        acc = {}
        for j in range(1, k + 1):
            b = scaled[j]
            if b.terms and out[k - j].terms:
                add_into(acc, mul_terms(b.terms, out[k - j].terms))
        out.append(GradedPolynomial(acc) / k)
    return [p.terms for p in out]


def _tuple_log(s):
    out = [GradedPolynomial.zero()]
    scaled = [GradedPolynomial.zero()]  # j out_j
    for k in range(1, s.bound + 1):
        acc = dict((s.comps[k] * k).terms)
        for j in range(1, k):
            if scaled[j].terms and s.comps[k - j].terms:
                add_into(acc, mul_terms(scaled[j].terms, s.comps[k - j].terms), -1)
        scaled.append(GradedPolynomial(acc))
        out.append(scaled[k] / k)
    return [p.terms for p in out]


# ---------------------------------------------------------------------------
# comparison


def _typed(terms):
    return {m: (c, type(c)) for m, c in terms.items()}


def _assert_canonical_keys(series):
    for k, comp in enumerate(series.comps):
        for mon in comp.terms:
            gids = [g for g, _ in mon]
            assert gids == sorted(set(gids)), mon
            assert all(e > 0 for _, e in mon), mon
            assert monomial_degree(mon) == k, mon


def _check(op, *args):
    got = {
        "mul": lambda: args[0] * args[1],
        "inverse": lambda: args[0].inverse(),
        "exp": lambda: args[0].exp(),
        "log": lambda: args[0].log(),
    }[op]()
    want = {
        "mul": _tuple_mul,
        "inverse": _tuple_inverse,
        "exp": _tuple_exp,
        "log": _tuple_log,
    }[op](*args)
    assert len(got.comps) == len(want)
    for k, (g, w) in enumerate(zip(got.comps, want)):
        assert _typed(g.terms) == _typed(w), (op, k)
    _assert_canonical_keys(got)
    return got


# ---------------------------------------------------------------------------
# seeded random homogeneous series

# three families with mixed degrees; every series can reach any degree
# through the degree-1 generators
GENERATORS = (
    [gen_id("c", k) for k in range(1, 5)]
    + [gen_id("x", 1, 1), gen_id("x", 2, 2), gen_id("x", 3, 5)]
    + [gen_id("y", 1, 3), gen_id("y", 2, 3)]
)


def _random_monomial(rng, k):
    exps = {}
    left = k
    while left:
        g = rng.choice([g for g in GENERATORS if g >> 32 <= left])
        exps[g] = exps.get(g, 0) + 1
        left -= g >> 32
    return tuple(sorted(exps.items()))


def _random_coeff(rng, kind):
    if kind == "fraction" and rng.random() < 0.5:
        return canonical(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(2, 6)))
    return rng.choice([-3, -2, -1, 1, 1, 2, 3])


def _random_series(rng, D, kind, constant):
    comps = [GradedPolynomial.constant(constant)]
    for k in range(1, D + 1):
        terms = {}
        for _ in range(rng.randint(0, 3)):
            add_into(terms, [(_random_monomial(rng, k), _random_coeff(rng, kind))])
        comps.append(GradedPolynomial(terms))
    return TruncatedSeries(comps)


@pytest.mark.parametrize("kind", ["int", "fraction"])
@pytest.mark.parametrize("seed", range(6))
class TestAgainstTupleRecurrences:
    def test_mul(self, seed, kind):
        rng = random.Random(seed)
        D = rng.randint(3, 8)
        a = _random_series(rng, D, kind, _random_coeff(rng, kind))
        b = _random_series(rng, D, kind, rng.choice([0, 1, 2]))
        _check("mul", a, b)
        _check("mul", b, a)

    def test_inverse(self, seed, kind):
        rng = random.Random(seed)
        _check("inverse", _random_series(rng, rng.randint(3, 8), kind, 1))

    def test_exp(self, seed, kind):
        rng = random.Random(seed)
        _check("exp", _random_series(rng, rng.randint(3, 8), kind, 0))

    def test_log(self, seed, kind):
        rng = random.Random(seed)
        _check("log", _random_series(rng, rng.randint(3, 8), kind, 1))


def test_mul_cancellation_is_canonical_in_both_orders():
    # [c1^3] of a * b adds -1, Fraction(1) and 5, in an order that
    # depends on the operand order; either way the coefficient is int 5
    c1 = GradedPolynomial.generator("c", 1)
    a = TruncatedSeries([GradedPolynomial.one(), c1 * Fraction(1, 2), c1 * c1 * 5, c1 * 0])
    b = TruncatedSeries([GradedPolynomial.one(), c1, c1 * c1 * 2, c1 * c1 * c1 * -1])
    cube = ((gen_id("c", 1), 3),)
    for x, y in ((a, b), (b, a)):
        got = _check("mul", x, y).comps[3].coefficient(cube)
        assert type(got) is int and got == 5


# ---------------------------------------------------------------------------
# exponents at the top of their fields


def _polynomial_series(D, parts):
    """1 + sum of parts, each a (generator, coefficient) at its degree."""
    comps = [GradedPolynomial.one()] + [GradedPolynomial.zero() for _ in range(D)]
    for g, c in parts:
        d = g >> 32
        if d <= D:
            comps[d] = comps[d] + GradedPolynomial({((g, 1),): c})
    return TruncatedSeries(comps)


C1, X1, C3 = gen_id("c", 1), gen_id("x", 1, 2), gen_id("c", 3)


@pytest.mark.parametrize("D", [7, 8, 15, 16, 31, 32])
class TestFieldBoundaries:
    """g^(D // deg g) fills the field of g: D = 2^n - 1 sets every bit of
    the c[1] field and D = 2^n its top bit alone."""

    def test_inverse(self, D):
        got = _check("inverse", _polynomial_series(D, [(C1, -1), (X1, -1), (C3, -1)]))
        assert got.comps[D].coefficient(((C1, D),)) == 1
        assert got.comps[2 * (D // 2)].coefficient(((X1, D // 2),)) == 1
        assert got.comps[3 * (D // 3)].coefficient(((C3, D // 3),)) == 1

    def test_mul(self, D):
        a = _polynomial_series(D, [(C1, -1), (C3, -1)]).inverse()
        b = _polynomial_series(D, [(C1, -1), (X1, -1)]).inverse()
        got = _check("mul", a, b)
        assert got.comps[D].coefficient(((C1, D),)) == D + 1

    def test_exp(self, D):
        arg = _polynomial_series(D, [(C1, 1), (X1, 1), (C3, 2)]) - TruncatedSeries.one(D)
        got = _check("exp", arg)
        assert got.comps[D].coefficient(((C1, D),)) == Fraction(1, math.factorial(D))

    def test_log(self, D):
        s = _polynomial_series(D, [(C1, -1), (X1, -1), (C3, -1)])
        got = _check("log", s.inverse())
        assert got.comps[D].coefficient(((C1, D),)) == Fraction(1, D)


# ---------------------------------------------------------------------------
# the homogeneity precondition


class TestHomogeneity:
    def _bad(self):
        # component 2 holds c[1], a term of degree 1
        return TruncatedSeries(
            [GradedPolynomial.one(), GradedPolynomial.zero(), GradedPolynomial.generator("c", 1)]
        )

    @pytest.mark.parametrize("op", ["mul", "rmul", "inverse", "log"])
    def test_named_error(self, op):
        bad = self._bad()
        call = {
            "mul": lambda: bad * TruncatedSeries.one(2),
            "rmul": lambda: TruncatedSeries.one(2) * bad,
            "inverse": bad.inverse,
            "log": bad.log,
        }[op]
        with pytest.raises(HomogeneityError, match=r"component 2 has a term of degree 1"):
            call()

    def test_exp(self):
        bad = TruncatedSeries([GradedPolynomial.zero(), GradedPolynomial.generator("c", 3)])
        with pytest.raises(HomogeneityError, match=r"component 1 has a term of degree 3"):
            bad.exp()

    def test_is_a_value_error(self):
        with pytest.raises(ValueError):
            self._bad().inverse()


def test_from_polynomial_buckets_by_degree():
    rng = random.Random(5)
    for _ in range(20):
        terms = {}
        for _ in range(rng.randint(0, 12)):
            k = rng.randint(0, 9)
            add_into(terms, [(_random_monomial(rng, k), _random_coeff(rng, "fraction"))])
        poly = GradedPolynomial(terms)
        bound = rng.randint(0, 9)
        s = TruncatedSeries.from_polynomial(poly, bound)
        assert s.comps == [poly.homogeneous_part(d) for d in range(bound + 1)]
        assert s.polynomial() == poly.truncate(bound)
