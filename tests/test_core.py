import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfgenus.core import (
    BoundMismatchError,
    ConstantTermError,
    GradedPolynomial,
    ParseError,
    PowerSeries1,
    TruncatedSeries,
    add_into,
    format_polynomial,
    gen_id,
    gid_degree,
    gid_family,
    gid_index,
    parse_polynomial,
)
from hopfgenus.qsymm import NSymmElement, QSymmElement
from hopfgenus.rational import Q, canonical


def poly(text):
    return parse_polynomial(text)


class TestGeneratorIds:
    def test_roundtrip(self):
        g = gen_id("c", 7)
        assert gid_family(g) == "c"
        assert gid_index(g) == 7
        assert gid_degree(g) == 7

    def test_explicit_degree(self):
        g = gen_id("x", 1, 2)
        assert gid_degree(g) == 2

    def test_ordering_by_degree(self):
        assert gen_id("c", 2) > gen_id("c", 1)
        assert gen_id("x", 1, 5) > gen_id("c", 3)

    def test_bad_family(self):
        with pytest.raises(ValueError):
            gen_id("cc", 1)

    def test_bad_degree(self):
        with pytest.raises(ValueError):
            gen_id("c", 1, 0)

    @pytest.mark.parametrize("index", [-1, 1 << 24])
    def test_index_out_of_range(self, index):
        with pytest.raises(ValueError, match="generator index out of range: %d" % index):
            gen_id("c", index, 1)


coeffs = st.builds(
    Q, st.integers(-50, 50), st.integers(1, 9)
)


@st.composite
def polynomials(draw, maxgens=3, maxdeg=4):
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        mon = []
        for i in range(draw(st.integers(0, maxgens))):
            idx = draw(st.integers(1, maxdeg))
            mon.append((gen_id("c", idx), draw(st.integers(1, 2))))
        c = draw(coeffs)
        if c != 0:
            key = tuple(sorted(dict(mon).items()))
            terms[key] = c
    return GradedPolynomial(terms)


class TestGradedPolynomial:
    def test_example_product(self):
        a = poly("c[1] + c[2]")
        b = poly("c[1] - c[2]")
        assert a * b == poly("c[1]^2 - c[2]^2")

    @given(polynomials(), polynomials(), polynomials())
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + GradedPolynomial.zero() == a
        assert a * GradedPolynomial.one() == a

    @given(polynomials())
    @settings(max_examples=40, deadline=None)
    def test_sub_is_additive_inverse(self, a):
        assert a - a == GradedPolynomial.zero()

    def test_truncate_and_parts(self):
        p = poly("c[1] + c[1]*c[2] + c[4]")
        assert p.truncate(2) == poly("c[1]")
        assert p.homogeneous_part(3) == poly("c[1]*c[2]")
        assert p.max_degree() == 4
        assert GradedPolynomial.zero().max_degree() == -1

    def test_truncate_drops_terms_above_cap(self):
        p = poly("1 + c[1] + c[2] + c[1]*c[2] + c[3] + c[1]*c[3]")
        assert p.truncate(-1) == GradedPolynomial.zero()
        assert p.truncate(0) == GradedPolynomial.one()
        assert p.truncate(2) == poly("1 + c[1] + c[2]")
        assert p.truncate(3) == poly("1 + c[1] + c[2] + c[1]*c[2] + c[3]")
        assert p.truncate(4) == p

    def test_substitute(self):
        p = poly("c[2]^2 + c[1]")
        images = {gen_id("c", 2): poly("c[1]^2")}
        assert p.substitute(images) == poly("c[1]^4 + c[1]")

    def test_pow(self):
        p = poly("1 + c[1]")
        assert p**3 == poly("1 + 3*c[1] + 3*c[1]^2 + c[1]^3")


class TestTextFormat:
    def test_example(self):
        p = poly("3*c[1]^2 - 2*c[2]")
        assert p.coefficient(((gen_id("c", 1), 2),)) == 3
        assert p.coefficient(((gen_id("c", 2), 1),)) == -2

    def test_rational_coefficients(self):
        p = poly("1/2*c[1] + 5")
        assert p.coefficient(((gen_id("c", 1), 1),)) == Q(1, 2)
        assert p.coefficient(()) == 5

    def test_zero_exponents_are_dropped(self):
        assert poly("c[1]^0") == GradedPolynomial.one()
        assert poly("c[1]^0").terms == {(): 1}
        assert format_polynomial(poly("c[1]^0")) == "1"
        assert poly("c[1]^0*c[2]") == poly("c[2]")
        assert poly("c[2]*c[1]^0 + 3*c[3]^0") == poly("c[2] + 3")
        assert poly("2*c[1]^0 - 2") == GradedPolynomial.zero()
        assert format_polynomial(poly("c[1]^0*c[2]^2")) == "c[2]^2"

    def test_repeated_generators_are_summed(self):
        assert poly("c[1]*c[2]*c[1]^2") == poly("c[1]^3*c[2]")
        assert poly("c[1]^2*c[1]^0") == poly("c[1]^2")

    @given(polynomials())
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_bit_exact(self, p):
        text = format_polynomial(p)
        assert parse_polynomial(text) == p
        assert format_polynomial(parse_polynomial(text)) == text

    def test_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_polynomial("c[1] @ c[2]")

    @pytest.mark.parametrize(
        "text",
        ["x[1] -", "-", "- - c[1]", "1 + -x[1]", "c[1]*-1", "c[1]**2", "c[1]*", "*c[1]"],
    )
    def test_sign_or_star_out_of_place_rejected(self, text):
        # a sign must start a term and a '*' must join two factors
        with pytest.raises(ParseError):
            parse_polynomial(text)

    @pytest.mark.parametrize("text", ["1/0", "0/0", "c[1] + 3/0*c[2]"])
    def test_zero_denominator_rejected(self, text):
        with pytest.raises(ParseError, match="zero denominator"):
            parse_polynomial(text)

    @pytest.mark.parametrize(
        "text",
        ["c[0]", "c[99999999]", "1 + c[%s]" % ("9" * 5000)],
        ids=["degree-zero", "index-past-the-id", "index-past-the-digit-limit"],
    )
    def test_generator_without_an_id_rejected(self, text):
        # the grammar reads the generator, but no generator id can hold it
        with pytest.raises(ParseError, match=r"bad generator c\["):
            parse_polynomial(text)

    def test_two_coefficients_rejected(self):
        with pytest.raises(ParseError, match="two coefficients"):
            parse_polynomial("2 3*c[1]")

    def test_lenient_forms_keep_their_values(self):
        c1 = gen_id("c", 1)
        assert poly("2 c[1]").terms == {((c1, 1),): 2}
        assert poly("c[1] c[1]").terms == {((c1, 2),): 1}
        assert poly("+c[1]").terms == {((c1, 1),): 1}
        assert poly("").terms == poly("  ").terms == {}

    @given(polynomials(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_stray_sign_or_star_in_canonical_text_rejected(self, p, data):
        # the canonical text alternates terms and signs, one space apart;
        # a sign anywhere after the start, or a '*' anywhere, starts no
        # term or joins no two factors
        parts = format_polynomial(p).split(" ")
        stray = data.draw(st.sampled_from("+-*"))
        parts.insert(data.draw(st.integers(int(stray != "*"), len(parts))), stray)
        with pytest.raises(ParseError):
            parse_polynomial(" ".join(parts))


class TestTruncatedSeries:
    def test_inverse_example(self):
        # degree-3 term of 1/(1 + c1 + c2 + c3) is 2 c1 c2 - c1^3 - c3
        comps = [poly("1"), poly("c[1]"), poly("c[2]"), poly("c[3]")]
        inv = TruncatedSeries(comps).inverse()
        assert inv.comps[3] == poly("2*c[1]*c[2] - c[1]^3 - c[3]")

    def test_exp_log_roundtrip(self):
        comps = [GradedPolynomial.zero(), poly("c[1]"), poly("2*c[2]"), poly("c[3]")]
        s = TruncatedSeries(comps)
        back = s.exp().log()
        assert all(a == b for a, b in zip(back.comps, s.comps))

    def test_mul_inverse_is_one(self):
        comps = [poly("1"), poly("c[1]"), poly("c[1]^2 + c[2]")]
        s = TruncatedSeries(comps)
        prod = s * s.inverse()
        assert prod.comps[0] == poly("1")
        assert not prod.comps[1].terms and not prod.comps[2].terms

    def test_bound_mismatch(self):
        a = TruncatedSeries.one(3)
        b = TruncatedSeries.one(4)
        with pytest.raises(BoundMismatchError):
            a * b

    def test_exp_needs_zero_constant(self):
        with pytest.raises(ConstantTermError):
            TruncatedSeries.one(2).exp()


class TestPowerSeries1:
    def test_lagrange_inverse_example(self):
        f = PowerSeries1([Q(0), Q(1), Q(1), Q(0), Q(0)])
        g = f.compose_inverse()
        assert g.coeffs[:5] == [Q(0), Q(1), Q(-1), Q(2), Q(-5)]

    def test_compose_inverse_identity(self):
        f = PowerSeries1([Q(0), Q(1), Q(2), Q(-1), Q(3)])
        g = f.compose_inverse()
        assert f.compose(g).coeffs == PowerSeries1.x(4).coeffs

    def test_exp_log(self):
        s = PowerSeries1([Q(0), Q(1), Q(1, 2), Q(0)])
        assert s.exp().log().coeffs == s.coeffs

    def test_float_coefficients(self):
        s = PowerSeries1([0.0, 0.5, -0.25])
        e = s.exp()
        assert e.coeffs[0] == 1.0
        assert abs(e.coeffs[1] - 0.5) < 1e-15

    def test_inverse(self):
        s = PowerSeries1([Q(1), Q(1), Q(0)])
        assert s.inverse().coeffs == [Q(1), Q(-1), Q(1)]


class TestAddInto:
    def test_drops_zeros_and_returns_the_accumulator(self):
        acc = {"a": Q(1), "b": Q(2)}
        out = add_into(acc, {"a": Q(-1), "c": Q(3)})
        assert out is acc
        assert acc == {"b": Q(2), "c": Q(3)}

    def test_scales(self):
        assert add_into({}, {"a": Q(1, 2), "b": Q(3)}, Q(4)) == {"a": Q(2), "b": Q(12)}
        assert add_into({"a": Q(1)}, {"a": Q(1), "b": Q(2)}, -1) == {"b": Q(-2)}

    def test_pairs_with_repeated_keys_cancel(self):
        assert add_into({}, [("a", Q(1)), ("b", Q(0)), ("a", Q(-1))]) == {}

    def test_mutates_only_its_accumulator(self):
        terms = {"a": Q(1), "b": Q(-2)}
        before = dict(terms)
        acc = {"b": Q(2)}
        add_into(acc, terms, Q(3))
        add_into(acc, terms, -1)
        assert terms == before
        assert acc == {"a": Q(2), "b": Q(-2)}

    def test_float_sums_in_arrival_order(self):
        out = add_into({}, [("k", 0.1), ("k", 0.2), ("k", 0.3)])
        assert out["k"] == (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)

    def test_linear_combinations_share_add_and_sub(self):
        a = QSymmElement({(1, 2): Q(1), (3,): Q(2)})
        b = QSymmElement({(3,): Q(2)})
        assert (a - b) == QSymmElement({(1, 2): Q(1)})
        assert (a - a).is_zero() and not (a - a)
        assert -a + a == QSymmElement()
        assert NSymmElement(dict(a.terms)) != a
        p = poly("c[1] + 2*c[2]")
        assert p + 1 == 1 + p == poly("1 + c[1] + 2*c[2]")
        assert 1 - p == poly("1 - c[1] - 2*c[2]")
        assert type(a + b) is QSymmElement and type(p - p) is GradedPolynomial

    @pytest.mark.parametrize("cls", [GradedPolynomial, QSymmElement, NSymmElement])
    def test_one_is_the_empty_key(self, cls):
        one = cls.one()
        assert type(one) is cls and _bits(one.terms) == {(): (int, 1)}


def _bits(terms):
    """Term dict with coefficient types and float bits, so that 2 and
    Fraction(2), and 0.0 and -0.0, differ."""

    def bits(c):
        if type(c) is float:
            return c.hex()
        if type(c) is complex:
            return c.real.hex(), c.imag.hex()
        return c

    return {k: (type(c), bits(c)) for k, c in terms.items()}


def _random_scaling_coeff(rng, kind):
    if kind == "int":
        return rng.choice([-1, 1]) * rng.randint(1, 9)
    if kind == "fraction":
        return canonical(Q(rng.randint(-9, 9) or 1, rng.randint(2, 7)))
    x, y = rng.uniform(-3, 3), rng.uniform(-3, 3)
    if kind == "float":
        return rng.choice([x, -0.0, 1e-300])
    return rng.choice([complex(x, y), complex(x, 0.0), complex(-0.0, y), complex(x, -0.0)])


@pytest.mark.parametrize("kind", ["int", "fraction", "float", "complex"])
@pytest.mark.parametrize("s", [0, -1, Q(1, 2), 0.5, 1j])
def test_scaling_keeps_the_bits(kind, s):
    # The oracle is the former per-class code: GradedPolynomial's * and
    # QSymmElement.scale formed canonical(c * s), GradedPolynomial's
    # __rmul__ canonical(s * c), and each returned zero for s == 0.
    rng = random.Random(22)
    for _ in range(20):
        coeffs = [_random_scaling_coeff(rng, kind) for _ in range(rng.randint(1, 6))]
        p = GradedPolynomial({((gen_id("c", k + 1), 1),): c for k, c in enumerate(coeffs)})
        a = QSymmElement({(k + 1,): c for k, c in enumerate(coeffs)})
        right = {} if s == 0 else {m: canonical(c * s) for m, c in p.terms.items()}
        left = {} if s == 0 else {m: canonical(s * c) for m, c in p.terms.items()}
        qsymm = {} if s == 0 else {w: canonical(c * s) for w, c in a.terms.items()}
        assert _bits((p * s).terms) == _bits(right), coeffs
        assert _bits((s * p).terms) == _bits(left), coeffs
        assert _bits(a.scale(s).terms) == _bits(qsymm), coeffs
        assert type(p * s) is GradedPolynomial and type(a.scale(s)) is QSymmElement


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: poly("c[1]") ** -1, ValueError, "negative power"),
        (lambda: TruncatedSeries([]), ValueError, "at least the degree-0 component"),
        (lambda: PowerSeries1([0, 2, 1]).compose_inverse(), ConstantTermError, r"f = x \+ O\(x\^2\)"),
        (lambda: PowerSeries1([1, 1, 1]).compose_inverse(), ConstantTermError, r"f = x \+ O\(x\^2\)"),
    ],
    ids=["negative-power", "empty-series", "inverse-linear-term", "inverse-constant-term"],
)
def test_input_checks(call, error, message):
    with pytest.raises(error, match=message):
        call()
