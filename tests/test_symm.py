from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfgenus import symm
from hopfgenus.core import (
    GradedPolynomial,
    InvariantError,
    TruncatedSeries,
    add_into,
    gen_id,
    parse_polynomial,
)
from hopfgenus.qsymm import polynomial_hilbert
from hopfgenus.rational import Q, divide

import former_series
import former_symm
from gauss_jordan import nullspace, rref


def epoly(text):
    return symm.SymmFn(symm.E, parse_polynomial(text))


class TestConversions:
    def test_newton_two(self):
        n2 = symm.convert(
            symm.SymmFn(symm.P, GradedPolynomial.generator("N", 2)), symm.E
        )
        assert n2.value == parse_polynomial("c[1]^2 - 2*c[2]")

    def test_newton_three(self):
        n3 = symm.convert(
            symm.SymmFn(symm.P, GradedPolynomial.generator("N", 3)), symm.E
        )
        assert n3.value == parse_polynomial("c[1]^3 - 3*c[1]*c[2] + 3*c[3]")

    @pytest.mark.parametrize("src", [symm.E, symm.P, symm.H, symm.M])
    @pytest.mark.parametrize("tgt", [symm.E, symm.P, symm.H, symm.M])
    def test_roundtrips(self, src, tgt):
        if src == tgt:
            return
        for k in range(1, 8):
            if src == symm.M:
                f = symm.SymmFn(
                    symm.M, GradedPolynomial({symm.partition_monomial(symm.M, (k,)): Q(1)})
                )
            else:
                f = symm.SymmFn(src, symm.sym_gen(src, k))
            back = symm.convert(symm.convert(f, tgt), src)
            assert back == f, (src, tgt, k)

    @pytest.mark.parametrize("src", [symm.E, symm.P, symm.H])
    @pytest.mark.parametrize("mid", [symm.E, symm.P, symm.H, symm.M])
    @pytest.mark.parametrize("tgt", [symm.E, symm.P, symm.H, symm.M])
    def test_conversions_commute(self, src, mid, tgt):
        for k in range(1, 8):
            f = symm.SymmFn(src, symm.sym_gen(src, k))
            assert symm.convert(symm.convert(f, mid), tgt) == symm.convert(f, tgt), k

    def test_h3_in_chern_classes(self):
        h3 = symm.convert(symm.SymmFn(symm.H, symm.sym_gen(symm.H, 3)), symm.E)
        assert h3.value == parse_polynomial("c[1]^3 - 2*c[1]*c[2] + c[3]")

    def test_m_roundtrip_weight_10(self):
        for lam in symm.partitions(10):
            f = symm.SymmFn(symm.M, GradedPolynomial({symm.partition_monomial(symm.M, lam): Q(1)}))
            assert symm.convert(symm.convert(f, symm.P), symm.M) == f, lam

    def test_m_basis_sum_is_h(self):
        # h_2 = m_(2) + m_(1,1)
        h2 = symm.SymmFn(symm.H, symm.sym_gen(symm.H, 2))
        m = symm.convert(h2, symm.M)
        assert m.value == GradedPolynomial(
            {
                symm.partition_monomial(symm.M, (2,)): Q(1),
                symm.partition_monomial(symm.M, (1, 1)): Q(1),
            }
        )

    @pytest.mark.parametrize("const", [3, Q(3, 2), 3.5, 3 - 2j], ids=lambda c: type(c).__name__)
    def test_constant_term_through_m(self, const):
        # weight 0 runs the general code: m_() = p_() = 1
        m21 = symm.partition_monomial(symm.M, (2, 1))
        f = symm.SymmFn(symm.M, GradedPolynomial({(): const, m21: 1}))
        in_p = symm.convert(f, symm.P)
        assert in_p.value == parse_polynomial("N[1]*N[2] - N[3]") + const
        assert type(in_p.value.terms[()]) is type(const)
        back = symm.convert(in_p, symm.M)
        assert _typed_terms(back.value) == _typed_terms(f.value)

    def test_e_to_m(self):
        e2 = symm.SymmFn(symm.E, symm.sym_gen(symm.E, 2))
        m = symm.convert(e2, symm.M)
        assert m.value == GradedPolynomial(
            {symm.partition_monomial(symm.M, (1, 1)): Q(1)}
        )


def _m_in_p_by_gauss_jordan(w):
    """Test-only copy of the former ``_m_in_p_weight``: rref of [A | I]."""
    lams = sorted(symm.partitions(w))
    index = {lam: i for i, lam in enumerate(lams)}
    n = len(lams)
    A = [[0] * n for _ in range(n)]
    for i, lam in enumerate(lams):
        for nu, c in symm._p_lambda_in_m(lam):
            A[i][index[nu]] += c
    red, pivots = rref([row + [1 if j == i else 0 for j in range(n)] for i, row in enumerate(A)])
    assert pivots == list(range(n))
    return {lam: {mu: x for mu, x in zip(lams, row[n:]) if x != 0} for lam, row in zip(lams, red)}


def _typed(table):
    # values, coefficient types and the order of rows and entries
    return [(lam, [(mu, type(x), x) for mu, x in row.items()]) for lam, row in table.items()]


class TestMonomialInverse:
    def test_matches_gauss_jordan(self):
        for w in range(1, 11):
            assert _typed(symm._m_in_p_weight(w)) == _typed(_m_in_p_by_gauss_jordan(w)), w

    def test_is_the_inverse_of_p_to_m(self):
        # sum_mu A[lambda][mu] A^-1[mu] = e_lambda, A read off _p_lambda_in_m
        for w in range(1, 13):
            inverse = symm._m_in_p_weight(w)
            for lam in symm.partitions(w):
                product = {}
                for mu, c in symm._p_lambda_in_m(lam):
                    add_into(product, inverse[mu], c)
                assert product == {lam: 1}, (w, lam)

    @pytest.mark.parametrize("defect", ["below", "no-diagonal"])
    def test_non_triangular_matrix_is_rejected(self, defect, monkeypatch):
        expand = symm._p_lambda_in_m

        def broken(lam):
            terms = expand(lam)
            if lam != (2, 1, 1):
                return terms
            if defect == "below":
                # m_(1,1,1,1) sorts before (2,1,1)
                return terms + (((1, 1, 1, 1), 1),)
            return tuple(t for t in terms if t[0] != lam)

        caches = (symm._m_in_p_weight, expand)
        for cache in caches:
            cache.cache_clear()
        monkeypatch.setattr(symm, "_p_lambda_in_m", broken)
        try:
            with pytest.raises(InvariantError, match="weight 4"):
                symm._m_in_p_weight(4)
        finally:
            for cache in caches:
                cache.cache_clear()


class TestGeneratingFunctions:
    def test_d1(self):
        d = symm.d_classes(3)
        assert d.comps[1] == parse_polynomial("-2*c[1]")

    def test_d3(self):
        d = symm.d_classes(3)
        assert d.comps[3] == parse_polynomial("2*c[1]*c[2] - 2*c[1]^3 - 2*c[3]")

    def test_exp_form_matches_exp_in_p_then_convert(self):
        # reference: expand the exponential in P, convert each component
        for D in range(17):
            arg = [GradedPolynomial.zero()] + [
                GradedPolynomial.generator("N", k, coeff=Q(-2, k))
                if k % 2
                else GradedPolynomial.zero()
                for k in range(1, D + 1)
            ]
            in_p = TruncatedSeries(arg).exp()
            want = [symm.convert(symm.SymmFn(symm.P, c), symm.E).value for c in in_p.comps]
            assert symm.d_classes_exp_form(D).comps == want, D

    def test_d_even_weights_decomposable_of_odd(self):
        # the exp form shows d is generated by odd-weight primitives
        lhs = symm.d_classes(8)
        rhs = symm.d_classes_exp_form(8)
        for k in range(9):
            assert lhs.comps[k] == rhs.comps[k], k

    def test_a2(self):
        a = symm.a_classes(4)
        assert a.comps[2] == parse_polynomial("2*b[2] - b[1]^2")

    def test_a_odd_no_linear_part(self):
        a = symm.a_classes(13)
        for k in range(3, 14, 2):
            assert not any(
                len(m) == 1 and m[0][1] == 1 for m in a.comps[k].terms
            ), k

    def test_a_even_linear_part(self):
        a = symm.a_classes(12)
        for k in range(2, 13, 2):
            assert a.comps[k].coefficient(((gen_id("b", k), 1),)) == 2, k


# ---------------------------------------------------------------------------
# the one-pass recurrences against the former paths
#
# The _former_* functions are the d-class and table code as it ran before
# ``/``, ``exp_scaled`` and ``log_scaled``: an inverse and then ``*``, a
# rational log multiplied back by k, and an exp of the fractions s_k / k,
# on the frozen recurrences of ``former_series``.


def _former_gen_table(src, tgt, D):
    if src in (symm.E, symm.H) and tgt == symm.P:
        sign = -1 if src == symm.E else 1
        arg = [GradedPolynomial.zero()] + [
            GradedPolynomial.generator("N", k, coeff=divide(sign ** (k - 1), k))
            for k in range(1, D + 1)
        ]
        return tuple(former_series.exp(TruncatedSeries(arg)).comps[1:])
    if src == symm.P and tgt in (symm.E, symm.H):
        sign = -1 if tgt == symm.E else 1
        log = former_series.log(symm._generating_series(symm.FAMILY[tgt], D))
        return tuple(c * (sign ** (k - 1) * k) for k, c in enumerate(log.comps[1:], 1))
    inv = former_series.inverse(symm._generating_series(symm.FAMILY[tgt], D))
    return tuple(c * (-1) ** k for k, c in enumerate(inv.comps[1:], 1))


def _former_d_classes(D):
    num = [GradedPolynomial.one()]
    den = [GradedPolynomial.one()]
    for k in range(1, D + 1):
        num.append(GradedPolynomial.generator("c", k, coeff=(-1) ** k))
        den.append(GradedPolynomial.generator("c", k))
    return TruncatedSeries(num) * former_series.inverse(TruncatedSeries(den))


def _former_d_classes_exp_form(D):
    arg = GradedPolynomial(
        {((gen_id("N", k), 1),): divide(-2, k) for k in range(1, D + 1, 2)}
    )
    table = _former_gen_table(symm.P, symm.E, D)
    in_e = arg.substitute({gen_id("N", k): img for k, img in enumerate(table, 1)})
    return former_series.exp(TruncatedSeries.from_polynomial(in_e, D))


def _typed_terms(poly):
    return {m: (c, type(c)) for m, c in poly.terms.items()}


def _typed_series(series):
    return [_typed_terms(c) for c in series.comps]


def _ordered(poly):
    return [(m, c, type(c)) for m, c in poly.terms.items()]


_DIRECTIONS = [
    (symm.E, symm.P),
    (symm.H, symm.P),
    (symm.P, symm.E),
    (symm.P, symm.H),
    (symm.E, symm.H),
    (symm.H, symm.E),
]


class TestAgainstFormerPaths:
    def test_d_classes(self):
        for D in range(25):
            assert _typed_series(symm.d_classes(D)) == _typed_series(_former_d_classes(D)), D

    def test_d_classes_exp_form(self):
        for D in range(25):
            got = symm.d_classes_exp_form(D)
            assert _typed_series(got) == _typed_series(_former_d_classes_exp_form(D)), D

    @pytest.mark.parametrize("src,tgt", _DIRECTIONS)
    def test_gen_table_with_term_order(self, src, tgt):
        for D in range(1, 15):
            got = symm._gen_table.__wrapped__(src, tgt, D)
            want = _former_gen_table(src, tgt, D)
            assert [_ordered(p) for p in got] == [_ordered(p) for p in want], D

    @pytest.mark.parametrize(
        "basis,closed_forms",
        [
            (
                symm.E,
                [
                    "c[1]",
                    "c[1]^2 - 2*c[2]",
                    "c[1]^3 - 3*c[1]*c[2] + 3*c[3]",
                    "c[1]^4 - 4*c[1]^2*c[2] + 2*c[2]^2 + 4*c[1]*c[3] - 4*c[4]",
                ],
            ),
            (
                symm.H,
                [
                    "h[1]",
                    "2*h[2] - h[1]^2",
                    "3*h[3] - 3*h[1]*h[2] + h[1]^3",
                    "4*h[4] - 4*h[1]*h[3] - 2*h[2]^2 + 4*h[1]^2*h[2] - h[1]^4",
                ],
            ),
        ],
    )
    def test_newton_classes_closed_forms(self, basis, closed_forms):
        table = symm._gen_table.__wrapped__(symm.P, basis, 4)
        for k, (got, text) in enumerate(zip(table, closed_forms), 1):
            want = parse_polynomial(text)
            assert _typed_terms(got) == _typed_terms(want), k
            assert all(type(c) is int for c in got.terms.values()), k

    def test_d_classes_neither_inverts_nor_multiplies(self, monkeypatch):
        want = symm.d_classes(9)

        def forbidden(*args):
            raise AssertionError("d_classes called a series inverse or product")

        monkeypatch.setattr(TruncatedSeries, "inverse", forbidden)
        monkeypatch.setattr(TruncatedSeries, "__mul__", forbidden)
        assert symm.d_classes(9) == want


def _primitive_combinations(mons, defects):
    """Test-only copy of the former nullspace path: a basis, as polynomials
    over ``mons``, of the combinations whose coproduct defects cancel."""
    rows_index = {}
    cols = []
    for defect in defects:
        col = {}
        for key, c in defect.items():
            col[rows_index.setdefault(key, len(rows_index))] = c
        cols.append(col)
    matrix = [[0] * len(mons) for _ in range(len(rows_index))]
    for j, col in enumerate(cols):
        for i, c in col.items():
            matrix[i][j] = c
    # dropping repeated rows leaves the nullspace as it is; the coproduct
    # is cocommutative, so the keys (l, r) and (r, l) give one row twice
    rows = list(dict.fromkeys(map(tuple, matrix)))
    return [
        GradedPolynomial(add_into({}, zip(mons, vec)))
        for vec in nullspace(rows, len(mons))
    ]


class TestHopf:
    def test_coproduct_c2(self):
        f = epoly("c[2]")
        delta = symm.coproduct(f)
        c1 = symm.partition_monomial(symm.E, (1,))
        c2 = symm.partition_monomial(symm.E, (2,))
        assert delta.terms == {
            (c2, ()): Q(1),
            (c1, c1): Q(1),
            ((), c2): Q(1),
        }

    def test_newton_classes_primitive(self):
        for k in range(1, 7):
            nk = symm.convert(
                symm.SymmFn(symm.P, GradedPolynomial.generator("N", k)), symm.E
            )
            assert symm.is_primitive(nk), k

    def test_nonprimitive(self):
        assert not symm.is_primitive(epoly("c[2]"))

    def test_constants_are_not_primitive(self):
        # Delta(1) = 1 (x) 1, not 2 (1 (x) 1)
        assert not symm.is_primitive(symm.SymmFn(symm.E, GradedPolynomial.one()))
        assert not symm.is_primitive(symm.SymmFn(symm.P, parse_polynomial("3 + N[1]")))
        assert symm.is_primitive(symm.SymmFn(symm.P, parse_polynomial("N[4]")))
        assert symm.is_primitive(symm.SymmFn(symm.E, GradedPolynomial.zero()))

    def test_coassociativity(self):
        for k in range(1, 6):
            f = symm.SymmFn(symm.E, symm.sym_gen(symm.E, k))
            assert symm.coassociativity_defect(f) == {}

    @pytest.mark.parametrize("k,dim", [(1, 1), (2, 0), (3, 1), (4, 0), (5, 1), (6, 0)])
    def test_primitive_space_odd_model(self, k, dim):
        basis = symm.primitive_space(k, symm.BU_MOD_SO)
        assert len(basis) == dim
        if dim:
            nk = symm.convert(
                symm.SymmFn(symm.P, GradedPolynomial.generator("N", k)), symm.E
            ).value
            v = basis[0].value
            mon = next(iter(nk.terms))
            ratio = divide(v.coefficient(mon), nk.coefficient(mon))
            assert v == nk * ratio

    def test_primitive_space_bu(self):
        for k in range(1, 7):
            assert len(symm.primitive_space(k, symm.BU)) == 1

    def test_primitive_space_bu_is_newton_class(self):
        for k in range(1, 11):
            nk = symm.convert(symm.SymmFn(symm.P, GradedPolynomial.generator("N", k)), symm.E)
            assert symm.primitive_space(k, symm.BU) == [nk], k

    def test_primitive_space_bu_spans_the_e_basis_solution(self):
        # test-only copy of the former path: nullspace of the coproduct
        # defects of the E-basis monomials, which came out as (-1)^(k-1) N_k / k
        for k in range(1, 8):
            mons = [symm.partition_monomial(symm.E, lam) for lam in sorted(symm.partitions(k))]
            defects = [
                symm._primitive_defect(
                    symm.coproduct(symm.SymmFn(symm.E, GradedPolynomial({mon: Q(1)}))).terms,
                    {mon: Q(1)},
                )
                for mon in mons
            ]
            (old,) = _primitive_combinations(mons, defects)
            (new,) = symm.primitive_space(k, symm.BU)
            assert new.value == old * Q((-1) ** (k - 1) * k), k

    @pytest.mark.parametrize("model", [symm.BU, symm.BU_MOD_SO])
    def test_primitive_space_matches_the_p_basis_nullspace(self, model):
        for k in range(1, 13):
            lams = [
                lam
                for lam in sorted(symm.partitions(k))
                if model == symm.BU or all(p % 2 for p in lam)
            ]
            mons = [symm.partition_monomial(symm.P, lam) for lam in lams]
            defects = [
                symm._primitive_defect(symm._coproduct_p_monomial(mon), {mon: 1})
                for mon in mons
            ]
            old = [
                symm.convert(symm.SymmFn(symm.P, poly), symm.E)
                for poly in _primitive_combinations(mons, defects)
            ]
            new = symm.primitive_space(k, model)
            # term order included
            assert [(f.basis, list(f.value.terms.items())) for f in new] == [
                (f.basis, list(f.value.terms.items())) for f in old
            ], (model, k)


class TestCoproductAgainstFormerPath:
    """``coproduct`` against the frozen ``HopfTensor`` path, coefficient types included."""

    def assert_same(self, f):
        assert _typed_terms(symm.coproduct(f)) == _typed_terms(former_symm.coproduct(f))

    def test_e_monomials_to_weight_8(self):
        for w in range(9):
            for lam in symm.partitions(w):
                self.assert_same(
                    symm.SymmFn(symm.E, GradedPolynomial({symm.partition_monomial(symm.E, lam): 1}))
                )

    @pytest.mark.parametrize("scale", [Q(2, 3), 0.1, 1.5 - 0.25j], ids=lambda c: type(c).__name__)
    def test_multiples_of_c2_c3(self, scale):
        self.assert_same(symm.SymmFn(symm.E, parse_polynomial("c[2]*c[3]") * scale))

    @pytest.mark.parametrize("basis", [symm.P, symm.H])
    def test_given_in_another_basis(self, basis):
        self.assert_same(symm.convert(epoly("c[4] + c[2]^2"), basis))


class TestDimensionCounts:
    def test_monomial_dimensions_all_weights(self):
        # monomials in one generator per weight: partitions of n
        dims = polynomial_hilbert(range(1, 9), 8)
        assert dims == [1, 1, 2, 3, 5, 7, 11, 15, 22]

    def test_indecomposables(self):
        dim, reps = symm.indecomposables(4, [1, 2, 3, 4])
        assert dim == 1 and len(reps) == 1
        assert symm.indecomposables(5, [1, 2, 3, 4])[0] == 0

    def test_indecomposables_repeated_weight(self):
        # two generators of weight 3: dimension 2, one representative c[3]
        c3 = symm.SymmFn(symm.E, symm.sym_gen(symm.E, 3))
        assert symm.indecomposables(3, [2, 3, 3, 5]) == (2, [c3])
        assert symm.indecomposables(4, [2, 3, 3, 5]) == (0, [])

    def test_indecomposables_count_generators(self):
        # dim I/I^2 in weight w = all monomials minus those with >= 2 factors
        for gens in ([1, 2, 3, 4, 5, 6], [2, 3, 3, 5], [1, 3, 5]):
            total = polynomial_hilbert(gens, 6)
            gens_indexed = list(enumerate(gens))
            for w in range(1, 7):
                decomposable = sum(
                    1
                    for r in range(2, w + 1)
                    for mon in combinations_with_replacement(gens_indexed, r)
                    if sum(g for _, g in mon) == w
                )
                assert symm.indecomposables(w, gens)[0] == total[w] - decomposable
        assert symm.indecomposables(5) == (1, [symm.SymmFn(symm.E, symm.sym_gen(symm.E, 5))])

    def test_is_decomposable(self):
        assert symm.is_decomposable(parse_polynomial("c[1]*c[2]"))
        assert not symm.is_decomposable(parse_polynomial("c[3]"))


class TestArithmetic:
    @given(st.integers(1, 6), st.integers(1, 6))
    @settings(max_examples=20, deadline=None)
    def test_product_consistency_across_bases(self, i, j):
        # (e_i * e_j) converted to P equals (convert then multiply)
        a = symm.SymmFn(symm.E, symm.sym_gen(symm.E, i))
        b = symm.SymmFn(symm.E, symm.sym_gen(symm.E, j))
        direct = symm.convert(a * b, symm.P)
        indirect = symm.convert(a, symm.P) * symm.convert(b, symm.P)
        assert direct == indirect

    def test_operators_across_bases(self):
        # each operator against converting its operands first; a product
        # with an M operand is taken in P, as M is not multiplicative
        f, g = epoly("c[2] + 3*c[1]^2"), epoly("c[3] - 2*c[1]*c[2]")
        for a in (symm.convert(f, basis) for basis in symm.BASES):
            for b in (symm.convert(g, basis) for basis in symm.BASES):
                b_in_a = symm.convert(b, a.basis).value
                assert a + b == symm.SymmFn(a.basis, a.value + b_in_a), (a.basis, b.basis)
                assert a - b == symm.SymmFn(a.basis, a.value - b_in_a), (a.basis, b.basis)
                ring = symm.P if a.basis == symm.M else a.basis
                want = symm.convert(a, ring).value * symm.convert(b, ring).value
                assert a * b == symm.SymmFn(ring, want), (a.basis, b.basis)
            assert a * Q(2, 3) == symm.SymmFn(a.basis, a.value * Q(2, 3)), a.basis


def _snapshot_caches():
    return (
        [dict(p.terms) for p in symm._gen_table(symm.P, symm.E, 5)],
        dict(symm._coproduct_c(4).terms),
    )


class TestNoAliasing:
    """Accumulation mutates only dicts the operation created itself."""

    def test_series_inputs_and_shared_tables_are_untouched(self):
        series = TruncatedSeries(
            [GradedPolynomial.one()]
            + [GradedPolynomial.generator("c", k, coeff=Q(k, 3)) for k in range(1, 7)]
        )
        comps = [dict(c.terms) for c in series.comps]
        f = symm.SymmFn(symm.P, parse_polynomial("N[5] + 2*N[2]*N[3] - N[1]^4"))
        symm.convert(f, symm.E)
        symm.coproduct(symm.SymmFn(symm.E, parse_polynomial("c[4] + c[2]^2")))
        before = _snapshot_caches()

        log = series.log()
        log.exp()
        series.log_scaled().exp_scaled()
        series.inverse()
        series / series
        series * series
        series.polynomial()
        images = {gen_id("c", k): series.comps[k] for k in range(1, 7)}
        parse_polynomial("c[1]^2 + 3*c[2]*c[4] - c[6]").substitute(images)
        for basis in (symm.E, symm.H, symm.M):
            symm.convert(symm.convert(f, basis), symm.P)
        g = symm.SymmFn(symm.E, parse_polynomial("c[4] - 2*c[1]*c[3] + c[2]^2"))
        symm.coproduct(g)
        symm.is_primitive(g)
        symm.coassociativity_defect(g)
        symm.primitive_space(4, symm.BU)

        assert [dict(c.terms) for c in series.comps] == comps
        assert log.comps[1].terms is not series.comps[1].terms
        assert _snapshot_caches() == before


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: symm.SymmFn("Z", GradedPolynomial.one()), "unknown basis 'Z'"),
        (lambda: symm.sym_gen(symm.M, 2), "the monomial basis is not multiplicative"),
        (lambda: symm._gen_table(symm.M, symm.E, 3), "no conversion M -> E"),
        (lambda: symm.primitive_space(3, "BO"), "unknown model 'BO'"),
        (lambda: symm.indecomposables(3, [0, 3]), "generator weights must be positive"),
    ],
    ids=["symmfn-basis", "sym-gen-monomial", "gen-table-monomial", "primitive-model", "indecomposable-weight"],
)
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_weight_zero_is_empty():
    assert symm.primitive_space(0) == [] and symm.primitive_space(-1, symm.BU) == []
    assert symm.indecomposables(0) == (0, [])
