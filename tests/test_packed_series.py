"""The packed-exponent series recurrences against the tuple-monomial ones.

``TruncatedSeries`` runs ``*``, ``inverse``, ``exp`` and ``log`` on packed
exponent vectors.  The ``_tuple_*`` functions below are copies of the
recurrences it ran before on sorted ``(gid, e)`` tuples through
``mul_terms``; on seeded random homogeneous series both must give equal
term dicts with equal coefficient types.  The boundary cases put an
exponent of every generator at the top of its bit field, where a field
one bit too narrow would carry into its neighbour.  ``/``,
``exp_scaled`` and ``log_scaled`` are checked against ``*``, ``inverse``,
``exp`` and ``log``: (a/b) b = a, exp_scaled(log_scaled(a)) = a and
log_scaled = k log, term for term.  The last section checks the contract
of the series base on both classes: bound and constant-term errors with
their messages, equality across bounds, and parts shared with no other
series.
"""

import math
import operator
import random
from fractions import Fraction

import pytest

from hopfgenus._kernels import monomial_degree, mul_terms
from hopfgenus.core import (
    BoundMismatchError,
    ConstantTermError,
    GradedPolynomial,
    HomogeneityError,
    PowerSeries1,
    TruncatedSeries,
    add_into,
    gen_id,
)
from hopfgenus.rational import canonical, divide

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


# ---------------------------------------------------------------------------
# the one-pass recurrences: a/b, exp_scaled and log_scaled


def _typed_series(series):
    return [_typed(c.terms) for c in series.comps]


@pytest.mark.parametrize("kind", ["int", "fraction"])
@pytest.mark.parametrize("seed", range(6))
class TestOnePassRecurrences:
    def test_quotient_times_divisor(self, seed, kind):
        rng = random.Random(seed)
        D = rng.randint(3, 8)
        a = _random_series(rng, D, kind, _random_coeff(rng, kind))
        b = _random_series(rng, D, kind, 1)
        q = a / b
        _assert_canonical_keys(q)
        assert _typed_series(q * b) == _typed_series(a)
        assert _typed_series(q) == _typed_series(a * b.inverse())

    def test_exp_scaled_inverts_log_scaled(self, seed, kind):
        rng = random.Random(seed)
        a = _random_series(rng, rng.randint(3, 8), kind, 1)
        assert _typed_series(a.log_scaled().exp_scaled()) == _typed_series(a)

    def test_log_scaled_is_k_times_log(self, seed, kind):
        # term for term: the same keys in the same order, values and types
        rng = random.Random(seed)
        a = _random_series(rng, rng.randint(3, 8), kind, 1)
        got = a.log_scaled()
        _assert_canonical_keys(got)
        want = [c * k for k, c in enumerate(a.log().comps)]
        assert [list(g.terms.items()) for g in got.comps] == [list(w.terms.items()) for w in want]
        assert _typed_series(got) == [_typed(w.terms) for w in want]

    def test_exp_scaled_is_exp_of_the_fractions(self, seed, kind):
        rng = random.Random(seed)
        s = _random_series(rng, rng.randint(3, 8), kind, 0)
        arg = TruncatedSeries([c / k if k else c for k, c in enumerate(s.comps)])
        assert _typed_series(s.exp_scaled()) == _typed_series(arg.exp())

    def test_power_series_log_scaled(self, seed, kind):
        rng = random.Random(seed)
        b = PowerSeries1(_random_coeffs(rng, rng.randint(0, 12), kind, 1))
        assert _typed_list(b.log_scaled().coeffs) == _typed_list(
            [canonical(c * k) for k, c in enumerate(b.log().coeffs)]
        )


def test_integral_log_scaled_stays_integral():
    # t E'(t)/E(t) of E(t) = 1 + c1 t + ... + c6 t^6: the Newton classes,
    # every coefficient an int, where log itself has fractions
    gens = [GradedPolynomial.generator("c", k) for k in range(1, 7)]
    e = TruncatedSeries([GradedPolynomial.one()] + gens)
    assert any(type(c) is Fraction for p in e.log().comps for c in p.terms.values())
    assert all(type(c) is int for p in e.log_scaled().comps for c in p.terms.values())


class TestDivisionPreconditions:
    def test_divisor_constant_term(self):
        c1 = GradedPolynomial.generator("c", 1)
        a = TruncatedSeries([GradedPolynomial.one(), c1])
        with pytest.raises(ConstantTermError, match="divisor with constant term 1"):
            a / TruncatedSeries([GradedPolynomial.constant(2), c1])

    def test_bounds(self):
        with pytest.raises(BoundMismatchError):
            TruncatedSeries.one(3) / TruncatedSeries.one(4)

    def test_scaled_constant_terms(self):
        with pytest.raises(ConstantTermError):
            TruncatedSeries.one(3).exp_scaled()
        with pytest.raises(ConstantTermError):
            TruncatedSeries.zero(3).log_scaled()
        with pytest.raises(ConstantTermError):
            PowerSeries1.zero(3).log_scaled()


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

    @pytest.mark.parametrize("op", ["mul", "rmul", "div", "rdiv", "inverse", "log", "log_scaled"])
    def test_named_error(self, op):
        bad = self._bad()
        call = {
            "mul": lambda: bad * TruncatedSeries.one(2),
            "rmul": lambda: TruncatedSeries.one(2) * bad,
            "div": lambda: bad / TruncatedSeries.one(2),
            "rdiv": lambda: TruncatedSeries.one(2) / bad,
            "inverse": bad.inverse,
            "log": bad.log,
            "log_scaled": bad.log_scaled,
        }[op]
        with pytest.raises(HomogeneityError, match=r"component 2 has a term of degree 1"):
            call()

    def test_exp(self):
        bad = TruncatedSeries([GradedPolynomial.zero(), GradedPolynomial.generator("c", 3)])
        with pytest.raises(HomogeneityError, match=r"component 1 has a term of degree 3"):
            bad.exp()

    def test_exp_scaled(self):
        bad = TruncatedSeries([GradedPolynomial.zero(), GradedPolynomial.generator("c", 3)])
        with pytest.raises(HomogeneityError, match=r"component 1 has a term of degree 3"):
            bad.exp_scaled()

    def test_is_a_value_error(self):
        with pytest.raises(ValueError):
            self._bad().inverse()


def _part(poly, keep):
    return GradedPolynomial({m: c for m, c in poly.terms.items() if keep(monomial_degree(m))})


def homogeneous_part(poly, d):
    """The terms of ``poly`` of total degree d: the oracle for a series' components."""
    return _part(poly, lambda deg: deg == d)


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
        assert s.comps == [homogeneous_part(poly, d) for d in range(bound + 1)]
        assert s.polynomial() == _part(poly, lambda deg: deg <= bound)


# ---------------------------------------------------------------------------
# PowerSeries1 on the shared recurrences
#
# The _scalar_* functions are copies of the loops PowerSeries1 ran on its
# coefficient lists before it called the packed recurrences of
# TruncatedSeries.


def _scalar_mul(x, y):
    D = len(x) - 1
    out = [0] * (D + 1)
    for i, a in enumerate(x):
        if a == 0:
            continue
        for j in range(D + 1 - i):
            b = y[j]
            if b != 0:
                out[i + j] = out[i + j] + a * b
    return [canonical(c) for c in out]


def _scalar_inverse(x):
    inv = [canonical(x[0] ** 0)]
    for k in range(1, len(x)):
        acc = 0
        for j in range(1, k + 1):
            acc = acc + x[j] * inv[k - j]
        inv.append(canonical(-acc))
    return inv


def _scalar_exp(x):
    D = len(x) - 1
    out = [canonical(x[1] ** 0) if D >= 1 else 1]
    for k in range(1, D + 1):
        acc = 0
        for j in range(1, k + 1):
            acc = acc + j * x[j] * out[k - j]
        out.append(divide(acc, k))
    return out


def _scalar_log(x):
    out = [canonical(0 * x[0])]
    for k in range(1, len(x)):
        acc = x[k]
        for j in range(1, k):
            acc = acc - Fraction(j, k) * out[j] * x[k - j]
        out.append(canonical(acc))
    return out


_SCALAR = {"mul": _scalar_mul, "inverse": _scalar_inverse, "exp": _scalar_exp, "log": _scalar_log}
_CONSTANT = {"mul": None, "inverse": 1, "exp": 0, "log": 1}


def _random_coeffs(rng, D, kind, constant):
    if kind == "float":
        draw = lambda: rng.choice([0.0, rng.uniform(-2, 2)])  # noqa: E731
        constant = None if constant is None else float(constant)
    else:
        draw = lambda: rng.choice([0, _random_coeff(rng, kind)])  # noqa: E731
    coeffs = [draw() for _ in range(D + 1)]
    if constant is not None:
        coeffs[0] = constant
    return coeffs


def _operands(rng, op, D, kind):
    n = 2 if op == "mul" else 1
    return [_random_coeffs(rng, D, kind, _CONSTANT[op]) for _ in range(n)]


def _apply(op, series):
    return series[0] * series[1] if op == "mul" else getattr(series[0], op)()


def _typed_list(coeffs):
    return [(c, type(c)) for c in coeffs]


@pytest.mark.parametrize("op", ["mul", "inverse", "exp", "log"])
@pytest.mark.parametrize("kind", ["int", "fraction"])
def test_power_series_against_scalar_loops(op, kind):
    rng = random.Random(7)
    for D in range(13):
        for _ in range(4):
            args = _operands(rng, op, D, kind)
            got = _apply(op, [PowerSeries1(x) for x in args]).coeffs
            assert _typed_list(got) == _typed_list(_SCALAR[op](*args)), (D, args)


@pytest.mark.parametrize("op", ["mul", "inverse", "exp"])
def test_power_series_floats_are_bit_equal(op):
    # The shared recurrences start inverse and exp from the int 1 and drop
    # a zero sum, which then reads back as the int 0; the scalar loops
    # kept the float type there.  Every other coefficient has the same
    # bits and the same type.
    rng = random.Random(11)
    for D in range(13):
        for _ in range(4):
            args = _operands(rng, op, D, "float")
            got = _apply(op, [PowerSeries1(x) for x in args]).coeffs
            want = _SCALAR[op](*args)
            assert len(got) == len(want)
            for k, (g, w) in enumerate(zip(got, want)):
                if type(g) is type(w):
                    assert g.hex() == w.hex() if type(g) is float else g == w, (D, k, args)
                elif k == 0 and op in ("inverse", "exp"):
                    assert (g, type(g), w, type(w)) == (1, int, 1.0, float)
                else:
                    assert (g, type(g), type(w)) == (0, int, float) and w == 0, (D, k, args)


T = gen_id("t", 1, 1)


def _one_generator(coeffs):
    mon = lambda k: ((T, k),) if k else ()  # noqa: E731
    return TruncatedSeries([GradedPolynomial({mon(k): c} if c else {}) for k, c in enumerate(coeffs)])


@pytest.mark.parametrize("op", ["mul", "inverse", "exp", "log"])
@pytest.mark.parametrize("kind", ["int", "fraction", "float"])
def test_power_series_equals_one_generator_series(op, kind):
    rng = random.Random(13)
    for D in range(13):
        args = _operands(rng, op, D, kind)
        got = _one_generator(_apply(op, [PowerSeries1(x) for x in args]).coeffs)
        want = _apply(op, [_one_generator(x) for x in args])
        assert [_typed(c.terms) for c in got.comps] == [_typed(c.terms) for c in want.comps], D


# ---------------------------------------------------------------------------
# the contract of the shared series base, on both classes


def _series(cls, coeffs):
    return _one_generator(coeffs) if cls is TruncatedSeries else PowerSeries1(coeffs)


def _state(series):
    """A copy of what a caller can mutate: the parts, and each component's terms."""
    if type(series) is TruncatedSeries:
        return [dict(p.terms) for p in series.comps]
    return list(series.coeffs)


def _poke(series, k):
    """Mutate part k in place, as a caller that edits what it got back does."""
    if type(series) is TruncatedSeries:
        series.comps[k].terms[((T, k),) if k else ()] = 7
    else:
        series.coeffs[k] = 7


@pytest.mark.parametrize("cls", [TruncatedSeries, PowerSeries1])
class TestSeriesContract:
    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
    def test_mismatched_bounds(self, cls, op):
        a, b = _series(cls, [1, 2, 3, 4]), _series(cls, [1, 2, 3, 4, 5])
        for x, y, msg in ((a, b, "3 vs 4"), (b, a, "4 vs 3")):
            with pytest.raises(BoundMismatchError, match="^series bounds differ: %s$" % msg):
                op(x, y)

    @pytest.mark.parametrize(
        "op, constant, message",
        [
            ("inverse", 0, "series inverse needs constant term 1"),
            ("log", 0, "series log needs constant term 1"),
            ("log_scaled", 0, "series log needs constant term 1"),
            ("exp", 1, "series exp needs zero constant term"),
        ],
    )
    def test_constant_term(self, cls, op, constant, message):
        for coeffs in ([constant], [constant, 1, 2]):
            with pytest.raises(ConstantTermError, match="^%s$" % message):
                getattr(_series(cls, coeffs), op)()

    def test_equality_needs_equal_bounds(self, cls):
        assert cls.zero(3) == cls.zero(3) and cls.one(3) == _series(cls, [1, 0, 0, 0])
        assert cls.zero(3) != cls.zero(4)
        assert not cls.one(4) == cls.one(3)
        assert _series(cls, [1, 2]) != _series(cls, [1, 2, 0])

    @pytest.mark.parametrize("b", [0, 1, 5])
    def test_zero_and_one_have_fresh_parts(self, cls, b):
        for make in (cls.zero, cls.one):
            assert make(b).bound == b and len(_state(make(b))) == b + 1
            for k in range(b + 1):
                s, other = make(b), make(b)
                before = _state(s)
                _poke(s, k)
                after = _state(s)
                assert [i for i in range(b + 1) if after[i] != before[i]] == [k]
                assert _state(other) == _state(make(b)) == before

    def test_results_share_no_part(self, cls):
        # with an operand, with a class attribute, or with the result of
        # the same operation run again
        one, zero, s = cls.one(3), cls.zero(3), _series(cls, [1, 2, 0, 5])

        def results():
            return [
                one + zero, zero + one, one - zero, one * one, one.scale(1), zero.scale(0),
                one.inverse(), zero.exp(), one.log(), one.log_scaled(), s * one, s.inverse(),
            ]

        poked, again = results(), results()
        before = [_state(x) for x in [one, zero, s] + again]
        for r in poked:
            for k in range(4):
                _poke(r, k)
        assert [_state(x) for x in [one, zero, s] + again] == before
        assert _state(cls.one(3)) == before[0] and _state(cls.zero(3)) == before[1]
