"""The coefficient rule: an exact coefficient with an integral value is an
``int``, a ``Fraction`` has denominator > 1, and no exact operation makes
a float.

Values are pinned to the all-``Fraction`` arithmetic the package used
before the rule: sha256 digests of Fraction-normalised term dicts
recorded from that tree, and test-only copies of its series recurrences.
"""

import hashlib
from fractions import Fraction

import pytest

from hopfgenus import qsymm, symm
from hopfgenus.core import (
    GradedPolynomial,
    PowerSeries1,
    TruncatedSeries,
    add_into,
    gen_id,
    parse_polynomial,
)
from hopfgenus._kernels import mul_terms
from hopfgenus.rational import canonical, divide, rational_from_string


def assert_canonical(coeffs):
    for c in coeffs:
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), repr(c)


def series_coeffs(series):
    return [c for comp in series.comps for c in comp.terms.values()]


def digest(term_dicts):
    h = hashlib.sha256()
    for terms in term_dicts:
        h.update(repr(sorted((k, Fraction(c)) for k, c in terms.items())).encode())
    return h.hexdigest()


class TestRule:
    def test_divide(self):
        assert type(divide(6, 3)) is int and divide(6, 3) == 2
        assert divide(-6, 4) == Fraction(-3, 2)
        assert type(divide(Fraction(4, 3), Fraction(2, 3))) is int
        assert divide(Fraction(1, 2), 3) == Fraction(1, 6)
        assert type(divide(1.0, 4)) is float and divide(1.0, 4) == 0.25
        with pytest.raises(ZeroDivisionError):
            divide(1, 0)

    def test_canonical(self):
        assert type(canonical(Fraction(6, 2))) is int
        assert canonical(Fraction(1, 2)) == Fraction(1, 2)
        assert type(canonical(2.0)) is float

    def test_parse(self):
        assert type(rational_from_string("6/3")) is int
        assert rational_from_string("-3/6") == Fraction(-1, 2)
        p = parse_polynomial("3*c[1] - 4/2*c[2] + 1/2")
        assert_canonical(p.terms.values())

    def test_constructors(self):
        assert_canonical(GradedPolynomial.one().terms.values())
        assert_canonical(GradedPolynomial.constant(Fraction(4, 2)).terms.values())
        assert_canonical(GradedPolynomial.generator("c", 2, coeff=Fraction(3, 1)).terms.values())
        assert_canonical(qsymm.QSymmElement.monomial((1, 2)).terms.values())
        assert_canonical(qsymm.NSymmElement.word((1, 2)).terms.values())
        assert type(qsymm.pairing((3,), qsymm.QSymmElement.one())) is int

    def test_scalar_product(self):
        p = parse_polynomial("1/2*c[1] + 3/4*c[2]") * Fraction(4)
        assert p == parse_polynomial("2*c[1] + 3*c[2]")
        assert_canonical(p.terms.values())


# ---------------------------------------------------------------------------
# exactness guard: all-int inputs, no float out, values as the Fraction path


def _int_series(D):
    """1 + sum_k (k c_k + c_1^k) t^k: integer coefficients."""
    comps = [GradedPolynomial.one()]
    for k in range(1, D + 1):
        ck = GradedPolynomial.generator("c", k, coeff=k)
        comps.append(ck + GradedPolynomial.generator("c", 1) ** k)
    return TruncatedSeries(comps)


def _fraction_terms(poly):
    return {m: Fraction(c) for m, c in poly.terms.items()}


def _old_exp(series):
    """The former recurrence: Fraction scale j per product, then 1/k."""
    out = [{(): Fraction(1)}]
    for k in range(1, series.bound + 1):
        acc = {}
        for j in range(1, k + 1):
            a = _fraction_terms(series.comps[j])
            if a and out[k - j]:
                add_into(acc, mul_terms(a, out[k - j]), Fraction(j))
        out.append({m: c * Fraction(1, k) for m, c in acc.items()})
    return out


def _old_log(series):
    out = [{}]
    for k in range(1, series.bound + 1):
        acc = _fraction_terms(series.comps[k])
        for j in range(1, k):
            a = _fraction_terms(series.comps[k - j])
            if out[j] and a:
                add_into(acc, mul_terms(out[j], a), -Fraction(j, k))
        out.append(acc)
    return out


class TestExactnessGuard:
    D = 7

    def test_series_exp(self):
        s = _int_series(self.D)
        arg = TruncatedSeries([GradedPolynomial.zero()] + s.comps[1:])
        got = arg.exp()
        assert_canonical(series_coeffs(got))
        assert [c.terms for c in got.comps] == _old_exp(arg)

    def test_series_log(self):
        s = _int_series(self.D)
        got = s.log()
        assert_canonical(series_coeffs(got))
        assert [c.terms for c in got.comps] == _old_log(s)
        assert got.exp() == s

    def test_series_inverse(self):
        s = _int_series(self.D)
        got = s.inverse()
        assert_canonical(series_coeffs(got))
        assert s * got == TruncatedSeries.one(self.D)

    def test_polynomial_division(self):
        p = parse_polynomial("4*c[1]^2 - 6*c[2] + 3")
        for k in (1, 2, 3, -4, 7):
            q = p / k
            assert_canonical(q.terms.values())
            assert q.terms == {m: Fraction(c, k) for m, c in p.terms.items()}

    def test_substitute(self):
        p = parse_polynomial("2*c[1]^2 - 3*c[2] + c[1]*c[2]")
        images = {
            gen_id("c", 1): parse_polynomial("N[1] + 2*N[2]"),
            gen_id("c", 2): parse_polynomial("3*N[1]^2 - N[2]"),
        }
        got = p.substitute(images)
        assert_canonical(got.terms.values())
        halves = p.substitute({g: img / 2 for g, img in images.items()})
        assert_canonical(halves.terms.values())
        assert (halves * 4).homogeneous_part(4) == got.homogeneous_part(4)

    @pytest.mark.parametrize("op", ["exp", "log", "inverse", "compose_inverse"])
    def test_power_series(self, op):
        ints = {
            "exp": [0, 1, -2, 3, 0, 5, -1, 2],
            "log": [1, 2, -1, 3, 4, 0, 7, -3],
            "inverse": [1, 2, -1, 3, 4, 0, 7, -3],
            "compose_inverse": [0, 1, 2, -1, 3, 4, 0, 7],
        }[op]
        got = getattr(PowerSeries1(ints), op)()
        want = getattr(PowerSeries1([Fraction(c) for c in ints]), op)()
        assert_canonical(got.coeffs)
        assert got == want

    def test_power_series_exp_divides_exactly(self):
        # [x^2] exp(x) = 1/2: an int / int that must not become 0.5
        got = PowerSeries1([0, 1, 0, 0]).exp()
        assert got.coeffs == [1, 1, Fraction(1, 2), Fraction(1, 6)]
        assert_canonical(got.coeffs)


# ---------------------------------------------------------------------------
# the integral identities come out in ints, with the former values

D_CLASSES_24 = "fa8b91cd63e3332ed766c6f5127ddfad92ea7a5dde078b7f60bb88dcdec47017"
A_CLASSES_24 = "3f1735598a92eb5c13fd85a35ec51bd08ff1d9899ff1b7d568dd7e2406a6b904"
TABLES_12 = {
    ("P", "E"): "0c6fb2c73a2383c5b1d087ae7a4d864a34a4405f50c5de3544c28094faf2488b",
    ("P", "H"): "c5ebd6e9e6731a9486ce9fb52dab9a4bf2c395e6c26eae973864a5e0e65933eb",
    ("E", "H"): "d6e238ee41f04a8e9b376b6a7ea945db6e30453a87dd49a384db5f7aa2d10a3f",
    ("H", "E"): "5d3fa82b511d83353e6d46225f59008230945e1fb41a07b051e12a7b01a9ed4a",
    ("E", "P"): "9ffc0f22621ab1d32dcf4d85dd9a66db5e5138fd37020b9a7c318a7695494f29",
    ("H", "P"): "08f763e99338c483bc2da1bb0ad40493559296b736c4ccace8dd506dc0d66113",
}
STUFFLE = "d6b53b866d54e6587e266d9ec1de4aed9111ec03bb9fd164f0c18fc6841f5efa"


class TestIntegralIdentities:
    @pytest.mark.parametrize(
        "fn,want",
        [
            (symm.d_classes, D_CLASSES_24),
            (symm.d_classes_exp_form, D_CLASSES_24),
            (symm.a_classes, A_CLASSES_24),
        ],
        ids=["d_classes", "d_classes_exp_form", "a_classes"],
    )
    def test_classes_at_weight_24(self, fn, want):
        series = fn(24)
        assert {type(c) for c in series_coeffs(series)} == {int}
        assert digest(c.terms for c in series.comps) == want

    @pytest.mark.parametrize("src,tgt", sorted(TABLES_12))
    def test_generator_tables(self, src, tgt):
        table = symm._gen_table(src, tgt, 12)
        coeffs = [c for img in table for c in img.terms.values()]
        if tgt == "P":
            # e_k and h_k in power sums carry 1/z_lambda
            assert_canonical(coeffs)
        else:
            assert {type(c) for c in coeffs} == {int}
        assert digest(img.terms for img in table) == TABLES_12[(src, tgt)]

    def test_triple_stuffle(self):
        x, y, z = (qsymm.QSymmElement.monomial(w) for w in ((1, 2, 3, 4), (2, 3, 1, 4), (4, 1, 3, 2)))
        prod = x * y * z
        assert len(prod.terms) == 216064
        assert {type(c) for c in prod.terms.values()} == {int}
        assert digest([prod.terms]) == STUFFLE
