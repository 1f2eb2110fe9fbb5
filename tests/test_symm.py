from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfgenus import symm
from hopfgenus.core import GradedPolynomial, TruncatedSeries, gen_id, parse_polynomial
from hopfgenus.qsymm import polynomial_hilbert
from hopfgenus.rational import Q, divide


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

    def test_e_to_m(self):
        e2 = symm.SymmFn(symm.E, symm.sym_gen(symm.E, 2))
        m = symm.convert(e2, symm.M)
        assert m.value == GradedPolynomial(
            {symm.partition_monomial(symm.M, (1, 1)): Q(1)}
        )


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
            (old,) = symm._primitive_combinations(mons, defects)
            (new,) = symm.primitive_space(k, symm.BU)
            assert new.value == old * Q((-1) ** (k - 1) * k), k


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
        series.inverse()
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
