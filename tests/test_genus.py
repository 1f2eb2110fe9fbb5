import itertools
import math
import random
from pathlib import Path

import pytest

import former_genus
from hopfgenus import core, symm
from hopfgenus import genus as G
from hopfgenus.core import (
    GradedPolynomial,
    ParseError,
    PowerSeries1,
    TruncatedSeries,
    add_into,
    gen_id,
    parse_polynomial,
)
from hopfgenus.rational import Q


@pytest.fixture(scope="module")
def cp1():
    return G.cp(1)


@pytest.fixture(scope="module")
def cp2():
    return G.cp(2)


class TestManifoldModels:
    def test_cp_chern_class(self, cp2):
        # c(T CP^2) = 1 + 3x + 3x^2
        x = G.GradedPolynomial.generator("x", 1, degree=2)
        assert cp2.total_chern == GradedPolynomial.one() + x * 3 + (x * x) * 3

    @pytest.mark.parametrize("n", range(1, 13))
    def test_cp_chern_class_is_the_truncated_binomial(self, n):
        # the former construction: (1 + x)^(n+1) with x^(n+1) dropped
        x = G.GradedPolynomial.generator("x", 1, degree=2)
        power = ((GradedPolynomial.one() + x) ** (n + 1)).terms
        top = ((gen_id("x", 1, 2), n + 1),)
        terms = G.cp(n).total_chern.terms
        assert terms == {m: c for m, c in power.items() if m != top}
        assert all(type(c) is int for c in terms.values())

    def test_pairing_top_degree_only(self, cp2):
        x = G.GradedPolynomial.generator("x", 1, degree=2)
        assert cp2.pairing(x * x) == 1
        assert cp2.pairing(x) == 0

    def test_nilpotency(self, cp1):
        x = G.GradedPolynomial.generator("x", 1, degree=2)
        assert cp1.reduce(x * x).terms == {}

    def test_betti(self, cp2):
        assert cp2.betti_numbers() == [1, 0, 1, 0, 1]

    def test_product(self, cp1, cp2):
        m = G.product(cp1, cp2)
        assert m.dim_c == 3
        assert m.betti_numbers() == [1, 0, 2, 0, 2, 0, 1]

    def test_catalog(self):
        assert G.catalog_model("CP3").dim_c == 3
        assert G.catalog_model("CP1xCP1").dim_c == 2
        with pytest.raises(KeyError):
            G.catalog_model("K3")

    def test_catalog_n_fold_products(self):
        m = G.catalog_model("CP1xCP1xCP1")
        assert m.dim_c == 3
        assert m.betti_numbers() == [1, 0, 3, 0, 3, 0, 1]
        assert G.genus(m, G.todd_series(4)) == 1
        assert G.genus(m, G.a_hat_series(4)) == G.genus(G.cp(1), G.a_hat_series(4)) ** 3
        cube = G.catalog_model("CP2xCP2xCP2")
        assert G.genus(cube, G.a_hat_series(7)) == Q(-1, 8) ** 3
        for name in ("CP1xCP1xK3", "CP1xxCP1", "CP1x"):
            with pytest.raises(KeyError):
                G.catalog_model(name)

    def test_product_out_of_symbols(self):
        thirteen = G.catalog_model("x".join(["CP1"] * 13))
        assert len({core.gid_family(g) for g, _ in thirteen.generators}) == 13
        with pytest.raises(ValueError, match="13 letters 'xyzuvwabcdefg'"):
            G.catalog_model("x".join(["CP1"] * 14))
        with pytest.raises(ValueError, match="13 letters"):
            G.product(thirteen, G.cp(2))

    def test_generator_degrees(self):
        degree_of = G.generator_degrees(G.catalog_model("CP1xCP2").generators)
        assert degree_of("x", 1) == degree_of("y", 1) == 2
        for fam, idx in (("c", 1), ("x", 2), ("z", 1)):
            with pytest.raises(ParseError, match=r"unknown generator %s\[%d\]" % (fam, idx)):
                degree_of(fam, idx)

    def test_json_roundtrip(self):
        js = {
            "name": "myCP1",
            "dim_c": 1,
            "generators": [{"sym": "x", "deg": 2, "nilpotency": 1}],
            "total_chern": "1 + 2*x[1]",
            "volume_monomial": "x[1]",
        }
        m = G.manifold_from_json(js)
        assert G.genus(m, G.todd_series(4)) == 1


class TestChernCharacter:
    def test_ch0_is_rank(self, cp1):
        assert G.chern_character(cp1, 0) == GradedPolynomial.constant(Q(1))

    def test_ch1_cp1(self, cp1):
        x = G.GradedPolynomial.generator("x", 1, degree=2)
        assert G.chern_character(cp1, 1) == x * 2

    def test_ch2_cp2(self, cp2):
        x = G.GradedPolynomial.generator("x", 1, degree=2)
        assert G.chern_character(cp2, 2) == (x * x) * Q(3, 2)

    def test_ch_above_dimension_vanishes(self, cp1):
        assert G.chern_character(cp1, 3).terms == {}


class TestGenera:
    def test_ahat_cp1_cp2(self, cp1, cp2):
        ahat = G.a_hat_series(6)
        assert G.genus(cp1, ahat) == 0
        assert G.genus(cp2, ahat) == Q(-1, 8)

    def test_todd_cpn(self):
        todd = G.todd_series(8)
        for n in range(1, 7):
            assert G.genus(G.cp(n), todd) == 1

    def test_integral_genus_is_int(self, cp2):
        assert type(G.genus(G.cp(3), G.todd_series(4))) is int
        assert type(G.genus(cp2, G.a_hat_series(6))) is Q
        t = G.DeformationParameters.from_dict({1: 2})
        value = G.deform_genus(G.cp(3), G.todd_series(4), t)
        assert type(value) is int and value == 165

    def test_todd_products(self, cp1, cp2):
        todd = G.todd_series(8)
        assert G.genus(G.product(cp1, cp2), todd) == 1

    def test_exponential_additive(self):
        f = PowerSeries1([Q(0), Q(1)] + [Q(0)] * 4)
        assert G.genus_from_exponential(f, 0) == 1
        for n in range(1, 5):
            assert G.genus_from_exponential(f, n) == 0

    def test_exponential_x_plus_x2(self):
        f = PowerSeries1([Q(0), Q(1), Q(1), Q(0)])
        assert G.genus_from_exponential(f, 1) == -2

    def test_cross_path_todd_pair(self):
        f = PowerSeries1([Q(0)] + [Q(1, math.factorial(k)) for k in range(1, 7)])
        qf = G.series_from_exponential(f)
        for n in range(1, 5):
            assert G.genus_from_exponential(f, n) == G.genus(G.cp(n), qf)

    def test_exponential_inverts_only_what_it_reads(self, monkeypatch):
        # the Todd exponential 1 - e^{-x} to x^14: Todd(CP^n) = 1
        f = PowerSeries1([0] + [Q((-1) ** (k + 1), math.factorial(k)) for k in range(1, 15)])
        full = [(n + 1) * f.compose_inverse().coeffs[n + 1] for n in range(1, 6)]
        bounds = []
        compose_inverse = PowerSeries1.compose_inverse

        def spy(self):
            bounds.append(self.bound)
            return compose_inverse(self)

        monkeypatch.setattr(PowerSeries1, "compose_inverse", spy)
        got = [G.genus_from_exponential(f, n) for n in range(1, 6)]
        assert got == full == [1] * 5
        assert bounds == [n + 1 for n in range(1, 6)]

    def test_multiplicative_class_rejects_floats(self, cp1):
        with pytest.raises(ValueError):
            G.multiplicative_class(cp1, PowerSeries1([1.0, 0.5]))


def _chern_images(model, conjugate=False, upto=None):
    """Test-only copy of the former Chern-image map c_i -> c_i(tau),
    c_i negated for odd i when ``conjugate``."""
    if upto is None:
        upto = model.dim_c
    images = {}
    for i in range(1, upto + 1):
        cls = model.total_chern.homogeneous_part(2 * i)
        if conjugate and i % 2 == 1:
            cls = cls * Q(-1)
        images[gen_id("c", i)] = cls
    return images


def _newton_class_via_e(model, k, conjugate=False):
    """Test-only copy of the former N_k(tau): N_k converted to the Chern
    basis, specialized to the model's Chern data and reduced."""
    in_e = symm.convert(symm.SymmFn(symm.P, GradedPolynomial.generator("N", k)), symm.E).value
    return model.reduce(in_e.substitute(_chern_images(model, conjugate, upto=k)))


def _chern_character_via_e(model, k, conjugate=False):
    if k == 0:
        return GradedPolynomial.constant(model.dim_c)
    return _newton_class_via_e(model, k, conjugate) * Q(1, math.factorial(k))


def _d_class_images_via_e(model):
    """Test-only copy of the former odd d-classes: ``symm.d_classes``
    specialized to the model's Chern data."""
    n = model.dim_c
    if n == 0:
        return {}
    dd = symm.d_classes(n)
    images = _chern_images(model)
    return {j: model.reduce(dd.comps[j].substitute(images)) for j in range(1, n + 1, 2)}


def _typed(poly):
    """Term dict with coefficient types, so that 2 and Fraction(2) differ."""
    return {m: (type(c), c) for m, c in poly.terms.items()}


def _class_via_p_series(model, q_series):
    """Reference multiplicative class: exp(sum l_m N_m) expanded in P,
    each component converted to c and specialized to the Chern data."""
    n = model.dim_c
    if n == 0:
        return GradedPolynomial.one()
    l = PowerSeries1(q_series.coeffs[: n + 1]).log().coeffs
    arg = [GradedPolynomial.zero()] + [
        GradedPolynomial.generator("N", m, coeff=l[m]) for m in range(1, n + 1)
    ]
    images = _chern_images(model)
    total = {}
    for comp in TruncatedSeries(arg).exp().comps:
        in_e = symm.convert(symm.SymmFn(symm.P, comp), symm.E).value
        add_into(total, model.reduce(in_e.substitute(images)).terms)
    return model.reduce(GradedPolynomial(total))


_REFERENCE_MODELS = (
    ["pt"]
    + ["CP%d" % n for n in range(1, 7)]
    + ["CP%dxCP%d" % (a, b) for a in range(1, 4) for b in range(1, 4)]
    + ["CP1xCP1xCP1"]
)


_MY_MANIFOLD = Path(__file__).parent / "golden" / "my_manifold.json"


def _reference_model(name):
    if name == "my_manifold.json":
        return G.manifold_from_json(_MY_MANIFOLD.read_text())
    return G.catalog_model(name)


_CATALOG_MODELS = [
    "x".join(f)
    for k in (1, 2, 3)
    for f in itertools.product(["pt"] + ["CP%d" % n for n in range(1, 7)], repeat=k)
]


class TestModelFields:
    """A model stores its generators and Chern class; dim_c, the volume
    monomial and the Betti numbers follow from the generators."""

    def test_every_model_hashes(self):
        for name in _CATALOG_MODELS + ["my_manifold.json"]:
            m, again = _reference_model(name), _reference_model(name)
            assert m == again and hash(m) == hash(again), name

    def test_derived_fields_match_the_former_stored_ones(self):
        for name in _CATALOG_MODELS:
            m = G.catalog_model(name)
            dim_c, volume, betti = former_genus.catalog_fields(name)
            assert (m.dim_c, m.betti_numbers()) == (dim_c, betti), name
            poly = GradedPolynomial({volume: Q(3, 2)}) + 5
            assert m.pairing(poly) == poly.coefficient(volume), name
        m = _reference_model("my_manifold.json")
        x = GradedPolynomial.generator("x", 1, degree=2)
        assert (m.dim_c, m.betti_numbers(), m.pairing(x * 4 + 1)) == (1, [1, 0, 1], 4)

    def test_file_generator_order_does_not_matter(self):
        gens = [{"sym": "x", "deg": 4, "nilpotency": 1}, {"sym": "y", "deg": 2, "nilpotency": 2}]
        js = {
            "name": "m",
            "dim_c": 4,
            "generators": gens,
            "total_chern": "1 + 3*y[1] + x[1]",
            "volume_monomial": "x[1]*y[1]^2",
        }
        m = G.manifold_from_json(js)
        swapped = G.manifold_from_json(dict(js, generators=gens[::-1]))
        assert m == swapped and hash(m) == hash(swapped)
        assert m.generators == ((gen_id("y", 1, 2), 2), (gen_id("x", 1, 4), 1))

    def test_unsorted_generators_are_refused(self):
        x, y = gen_id("x", 1, 2), gen_id("y", 1, 2)
        G.ManifoldModel("ok", ((x, 1), (y, 1)), GradedPolynomial.one())
        for gens in (((y, 1), (x, 1)), ((x, 1), (x, 2))):
            with pytest.raises(ValueError, match="increasing gid order"):
                G.ManifoldModel("bad", gens, GradedPolynomial.one())


class TestAgainstChernBasisPath:
    """The series operations on c(tau) against conversion to the Chern
    basis and substitution of the Chern classes (the former path)."""

    @pytest.mark.parametrize("name", _REFERENCE_MODELS + ["my_manifold.json"])
    def test_newton_classes_and_chern_character(self, name):
        m = _reference_model(name)
        for conjugate in (False, True):
            newton = G._newton_classes(m, conjugate)
            assert len(newton) == m.dim_c
            for k, nk in enumerate(newton, 1):
                assert _typed(nk) == _typed(_newton_class_via_e(m, k, conjugate)), (k, conjugate)
            for k in range(m.dim_c + 3):
                ch = G.chern_character(m, k, conjugate)
                assert _typed(ch) == _typed(_chern_character_via_e(m, k, conjugate)), (k, conjugate)

    @pytest.mark.parametrize("name", _REFERENCE_MODELS + ["my_manifold.json"])
    def test_d_class_images(self, name):
        m = _reference_model(name)
        got = G._d_class_images(m)
        want = _d_class_images_via_e(m)
        assert sorted(got) == sorted(want)
        assert all(_typed(got[j]) == _typed(want[j]) for j in want)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_chern_character_of_cpn_closed_form(self, n):
        # T CP^n + 1 = (n+1) O(1), so ch_k = (n+1) x^k / k! for k >= 1
        m = G.cp(n)
        x = G.GradedPolynomial.generator("x", 1, degree=2)
        assert G.chern_character(m, 0) == GradedPolynomial.constant(n)
        for k in range(1, n + 3):
            want = (x**k) * Q(n + 1, math.factorial(k)) if k <= n else GradedPolynomial.zero()
            assert G.chern_character(m, k) == want, k

    def test_genus_uses_no_basis_tables(self):
        m = G.catalog_model("CP2xCP3")
        q = G.a_hat_series(m.dim_c + 1)
        t = G.DeformationParameters.from_dict({1: Q(1, 2), 3: 2})
        before = symm._gen_table.cache_info()
        G.genus(m, q)
        G.deform_genus(m, q, t)
        G.chern_character(m, 3)
        G.chern_character(m, 3, conjugate=True)
        G.coaction(m, GradedPolynomial.one(), 12)
        assert symm._gen_table.cache_info() == before


class TestAgainstPSeriesPath:
    @pytest.mark.parametrize("name", _REFERENCE_MODELS)
    def test_multiplicative_class(self, name):
        m = G.catalog_model(name)
        for series in (G.a_hat_series, G.todd_series):
            q = series(max(m.dim_c, 1) + 1)
            assert G.multiplicative_class(m, q) == _class_via_p_series(m, q)

    @pytest.mark.parametrize("name", ["CP1", "CP2", "CP5", "CP2xCP3", "CP1xCP1xCP1"])
    def test_deform_genus(self, name):
        m = G.catalog_model(name)
        q = G.a_hat_series(m.dim_c + 1)
        exact = _class_via_p_series(m, q)
        for t in ({1: Q(1, 3)}, {1: Q(1, 2), 3: Q(2)}):
            params = G.DeformationParameters.from_dict(t)
            expo = G.deformation_exponential(m, params)
            assert G.deform_genus(m, q, params) == m.pairing(m.reduce(expo * exact)), t
        # one ring exp of the summed arguments rounds differently from the
        # product of two: float and complex values agree to 1e-12 relative
        t = {1: 0.25, 3: 1.5}
        got = G.deform_genus(m, q, G.DeformationParameters.from_dict(t))
        rational = G.DeformationParameters.from_dict({k: Q(v) for k, v in t.items()})
        want = m.pairing(m.reduce(G.deformation_exponential(m, rational) * exact))
        assert isinstance(got, float) and got == pytest.approx(want, rel=1e-12)
        params = G.DeformationParameters.from_dict({1: 0.3j, 3: 0.7 + 0.1j})
        got = G.deform_genus(m, q, params)
        want = m.pairing(m.reduce(G.deformation_exponential(m, params) * former_genus.map_coefficients(exact, complex)))
        assert isinstance(got, complex) and got == pytest.approx(want, rel=1e-12)


_FORMER_MODELS = _REFERENCE_MODELS + ["CP1xCP1xCP1xCP1", "CP2xCP2xCP2", "my_manifold.json"]

_EXACT_T = ({1: Q(1, 3)}, {1: Q(-1, 2), 3: 2}, {3: Q(5, 7), 5: -3})


class TestAgainstFormerPath:
    """The series ``exp`` reduced once, and each coaction component built
    from its parent, against the former power loop and per-alpha products
    (``tests/former_genus.py``), in values and coefficient types."""

    @pytest.mark.parametrize("name", _FORMER_MODELS)
    def test_classes_and_deformations(self, name):
        m = _reference_model(name)
        for series in (G.a_hat_series, G.todd_series):
            q = series(m.dim_c + 1)
            assert _typed(G.multiplicative_class(m, q)) == _typed(
                former_genus.multiplicative_class(m, q)
            )
            for t in _EXACT_T:
                params = G.DeformationParameters.from_dict(t)
                for include in (True, False):
                    assert _typed(G.deformation_exponential(m, params, include)) == _typed(
                        former_genus.deformation_exponential(m, params, include)
                    ), (t, include)
                    got = G.deform_genus(m, q, params, include)
                    want = former_genus.deform_genus(m, q, params, include)
                    assert (type(got), got) == (type(want), want), (t, include)

    @pytest.mark.parametrize("name", _FORMER_MODELS)
    def test_coaction(self, name):
        m = _reference_model(name)
        x = GradedPolynomial({((g, 1),): 1 for g, _ in m.generators})
        for cls in (GradedPolynomial.one(), x, G.chern_character(m, 1) + Q(1, 2)):
            for bound in range(2 * m.dim_c + 5):
                got = G.coaction(m, cls, bound)
                want = former_genus.coaction(m, cls, bound)
                assert [(a, _typed(p)) for a, p in got.items()] == [
                    (a, _typed(p)) for a, p in want.items()
                ], bound

    def test_multiplicative_class_runs_no_polynomial_product(self, monkeypatch):
        def refuse(a, b):
            raise AssertionError("mul_terms called")

        m = G.catalog_model("CP2xCP3")
        q = G.a_hat_series(m.dim_c + 1)
        want = G.multiplicative_class(m, q)
        monkeypatch.setattr(core, "mul_terms", refuse)
        assert G.multiplicative_class(m, q) == want
        with pytest.raises(AssertionError):
            want * want


class TestCoactionStopsAtTheRing:
    @pytest.fixture
    def weights(self, monkeypatch):
        """Weights asked of ``symm.partitions``; one past 6 = dim CP6 fails
        at once rather than enumerating up to the bound."""
        asked = []
        partitions = symm.partitions

        def spy(w, top):
            if w > 6:
                raise AssertionError("partitions of weight %d requested" % w)
            asked.append(w)
            return partitions(w, top)

        monkeypatch.setattr(symm, "partitions", spy)
        return asked

    def test_far_bound_enumerates_no_weight_past_the_dimension(self, weights):
        m = G.cp(6)
        one = GradedPolynomial.one()
        far = G.coaction(m, one, 10**4)
        assert max(weights) == m.dim_c
        near = G.coaction(m, one, 2 * m.dim_c)
        assert list(far.items()) == list(near.items())
        assert len(far) == 14

    def test_coassociativity_at_a_far_bound(self, weights):
        m = G.cp(6)
        assert G.coassociativity_check(m, GradedPolynomial.one(), 10**4)
        assert G.coassociativity_check(m, G.chern_character(m, 1), 10**4)


class TestFloatDeformations:
    def test_seeded_sweep_against_exact(self):
        # t is a float, so Fraction(t) is the same dyadic value exactly;
        # a value below 1 in size is held to 1e-12 absolute, since the
        # sweep has values down to 2e-6 from cancellation
        rng = random.Random(5)
        names = ["CP%d" % n for n in range(1, 7)] + ["CP1xCP2", "CP2xCP3", "CP1xCP1xCP1"]
        for trial in range(90):
            m = G.catalog_model(names[trial % len(names)])
            q = (G.todd_series, G.a_hat_series)[trial % 2](m.dim_c + 1)
            t = {k: rng.uniform(-2, 2) for k in (1, 3, 5) if rng.random() < 0.8}
            got = G.deform_genus(m, q, G.DeformationParameters.from_dict(t))
            exact = G.deform_genus(
                m, q, G.DeformationParameters.from_dict({k: Q(v) for k, v in t.items()})
            )
            assert isinstance(got, float), t
            assert abs(got - exact) <= 1e-12 * max(abs(exact), 1), (m.name, t)

    @pytest.mark.parametrize("name", ["CP1", "CP3", "CP1xCP2"])
    def test_complex_against_former_path(self, name):
        m = G.catalog_model(name)
        q = G.todd_series(m.dim_c + 1)
        for t in ({1: 0.3j}, {1: 0.25, 3: 0.7 + 0.1j}, {3: -1.5j}):
            params = G.DeformationParameters.from_dict(t)
            got = G.deform_genus(m, q, params)
            assert isinstance(got, complex)
            assert got == pytest.approx(former_genus.deform_genus(m, q, params), rel=1e-12)

    def test_excluded_float_ch1_keeps_the_float_kind(self):
        # t_1 is left out of the exponential, but its kind still makes
        # the value a float
        m = G.cp(3)
        q = G.a_hat_series(m.dim_c + 1)
        params = G.DeformationParameters.from_dict({1: 0.5, 3: Q(1, 3)})
        got = G.deform_genus(m, q, params, include_ch1=False)
        exact = G.deform_genus(m, q, G.DeformationParameters.from_dict({3: Q(1, 3)}))
        assert type(got) is float and exact != G.genus(m, q)
        assert got == pytest.approx(exact, rel=1e-15)

    @pytest.mark.parametrize("t, want", [({5: -0.0027}, 0.0), ({5: 0.5j}, 0j)])
    def test_absent_volume_term_keeps_the_kind(self, t, want):
        # exp(t_5 ch_5) is 1 on CP1 and A-hat has no degree-2 term there
        got = G.deform_genus(G.cp(1), G.a_hat_series(2), G.DeformationParameters.from_dict(t))
        assert (type(got), got) == (type(want), want)
        exact = G.deform_genus(G.cp(1), G.a_hat_series(2), G.DeformationParameters.from_dict({5: Q(-27, 10000)}))
        assert (type(exact), exact) == (int, 0)

    @pytest.mark.parametrize("kind", [float, complex])
    def test_inexact_model_shares_no_cached_classes(self, kind):
        # 1 == 1.0 == 1+0j, so the models compare and hash equal; the
        # exact model's cached classes must not reach the inexact one
        exact = G.catalog_model("CP1xCP2")
        chern = former_genus.map_coefficients(exact.total_chern, kind)
        m = G.ManifoldModel(exact.name, exact.generators, chern, exact.embeddings)
        assert m == exact and hash(m) == hash(exact)
        q = G.todd_series(exact.dim_c + 1)
        assert (type(G.genus(exact, q)), G.genus(exact, q)) == (int, 1)
        G.coaction(exact, GradedPolynomial.one(), 8)
        classes = list(G._newton_classes(m)) + list(G._d_class_images(m).values())
        assert classes and all(type(c) is kind for p in classes for c in p.terms.values())
        got = G.genus(m, q)
        assert type(got) is kind and got == pytest.approx(1, rel=1e-12)

    def test_exponential_constant_term_is_int_one(self, cp2):
        for t in ({1: 0.5}, {1: 0.5j, 3: 2}, {3: Q(1, 3)}):
            expo = G.deformation_exponential(cp2, G.DeformationParameters.from_dict(t))
            const = expo.coefficient(())
            assert (type(const), const) == (int, 1), t


class TestGammaExponential:
    def test_coefficients(self):
        src = G.NumericZetaSource(1e-13)
        ge = G.gamma_exponential(5, src)
        g = G.EULER_GAMMA
        z2 = math.pi**2 / 6
        z3 = 1.2020569031595942854
        assert ge.coeffs[1] == 1.0
        assert abs(ge.coeffs[2] - g) < 1e-10
        assert abs(ge.coeffs[3] - (g * g / 2 - z2 / 2)) < 1e-10
        assert abs(ge.coeffs[4] - (g**3 / 6 - g * z2 / 2 + z3 / 3)) < 1e-10


class TestDeformations:
    def test_zero_recovers_genus(self, cp2):
        ahat = G.a_hat_series(6)
        t0 = G.DeformationParameters.zero()
        assert G.deform_genus(cp2, ahat, t0) == G.genus(cp2, ahat)

    def test_integral_parameters_are_int(self):
        t = G.DeformationParameters.from_dict({1: 2, 3: "4/2", 5: Q(6, 3), 7: "1/2"})
        assert [(k, type(v)) for k, v in t.entries] == [(1, int), (3, int), (5, int), (7, Q)]
        assert t.as_dict() == {1: 2, 3: 2, 5: 2, 7: Q(1, 2)}
        half = G.DeformationParameters.from_dict({1: Q(1, 2)})
        assert type((half + half).as_dict()[1]) is int

    def test_cp1_t1(self, cp1):
        ahat = G.a_hat_series(6)
        t = G.DeformationParameters.from_dict({1: Q(1, 3)})
        assert G.deform_genus(cp1, ahat, t) == Q(2, 3)

    def test_imaginary_parameter(self, cp1):
        ahat = G.a_hat_series(6)
        t = G.DeformationParameters.from_dict({1: 0.5j})
        v = G.deform_genus(cp1, ahat, t)
        assert v.real == 0.0 and v.imag == 1.0

    def test_even_index_rejected(self):
        with pytest.raises(ValueError):
            G.DeformationParameters.from_dict({2: Q(1)})

    @pytest.mark.parametrize("d", [{2: 0}, {0: 0}, {-1: 0}, {1: 1, 2: 0}, {3: Q(0), 4: 0.0}])
    def test_bad_index_rejected_when_its_value_is_zero(self, d):
        # every index is checked before the zero values are dropped
        with pytest.raises(ValueError, match="deformation indices must be odd >= 1"):
            G.DeformationParameters.from_dict(d)

    def test_zero_values_are_dropped(self):
        assert G.DeformationParameters.from_dict({1: 0, 3: Q(1, 2), 5: 0.0}).entries == ((3, Q(1, 2)),)

    def test_exclude_ch1_flag(self, cp1):
        ahat = G.a_hat_series(6)
        t = G.DeformationParameters.from_dict({1: Q(1)})
        assert G.deform_genus(cp1, ahat, t, include_ch1=False) == 0

    def test_torsor_law_exact(self, cp1, cp2):
        rng = random.Random(11)
        ahat = G.a_hat_series(6)
        models = [cp1, cp2, G.product(G.cp(1), G.cp(1))]
        for trial in range(6):
            m = models[trial % 3]
            t = G.DeformationParameters.from_dict(
                {1: Q(rng.randint(-5, 5), rng.randint(1, 7)), 3: Q(rng.randint(-5, 5), 3)}
            )
            s = G.DeformationParameters.from_dict({1: Q(rng.randint(-5, 5), 2)})
            k = G.multiplicative_class(m, ahat)
            seq = m.pairing(
                m.reduce(
                    G.deformation_exponential(m, t)
                    * G.deformation_exponential(m, s)
                    * k
                )
            )
            assert seq == G.deform_genus(m, ahat, t + s)

    def test_deformed_genus_object(self, cp1):
        ahat = G.a_hat_series(6)
        t = G.DeformationParameters.from_dict({1: Q(1, 2)})
        s = G.DeformationParameters.from_dict({1: Q(1, 2)})
        d = G.DeformedGenus(ahat).deform(t).deform(s)
        assert d.evaluate(cp1) == G.deform_genus(cp1, ahat, t + s)


class TestTheoremChecks:
    def test_diagonal_vanishing_odd(self):
        for n in range(1, 7):
            m = G.cp(n)
            for k in range(1, 2 * n, 2):
                assert G.diagonal_vanishing_check(m, k)

    def test_diagonal_nonvacuous_even(self, cp2):
        assert not G.diagonal_vanishing_check(cp2, 2)

    def test_primitivity(self, cp1, cp2):
        assert G.primitivity_check(cp1, cp1, 1)
        assert G.primitivity_check(cp1, cp2, 3)
        assert G.primitivity_check(cp2, cp2, 3)

    def test_primitivity_even_k_rejected(self, cp1):
        with pytest.raises(ValueError):
            G.primitivity_check(cp1, cp1, 0)


class TestModuleSeriesAndCoaction:
    def test_point_series(self):
        from hopfgenus.homology import SOMEGA, coefficient_ring_series

        assert G.morphism_module_series(G.point(), 9) == coefficient_ring_series(
            SOMEGA, 9
        )

    def test_cp1_series(self, cp1):
        assert G.morphism_module_series(cp1, 5) == [1, 0, 1, 0, 0, 1]

    def test_cp2_degree5(self, cp2):
        assert G.morphism_module_series(cp2, 5)[5] == 1

    def test_point_coaction_trivial(self):
        one = GradedPolynomial.one()
        assert G.coaction(G.point(), one, 8) == {(): one}

    def test_cp1_degree2_component(self, cp1):
        psi = G.coaction(cp1, GradedPolynomial.one(), 4)
        x = G.GradedPolynomial.generator("x", 1, degree=2)
        assert psi[((1, 1),)] == x * (-4)

    def test_class_is_reduced_into_the_ring(self, cp2):
        # x^3 = 0 on CP2: the coaction starts from the class in the ring
        x = G.GradedPolynomial.generator("x", 1, degree=2)
        one = GradedPolynomial.one()
        assert G.coaction(cp2, x**3, 12) == {(): GradedPolynomial.zero()}
        assert G.coaction(cp2, x**5 + one, 12) == G.coaction(cp2, one, 12)
        assert G.counit_check(cp2, x**3 + x, 12)

    def test_counit(self, cp2):
        for cls in [GradedPolynomial.one(), G.chern_character(cp2, 1)]:
            assert G.counit_check(cp2, cls, 12)

    def test_coassociativity(self, cp2):
        for cls in [GradedPolynomial.one(), G.chern_character(cp2, 1)]:
            assert G.coassociativity_check(cp2, cls, 12)

    def test_alpha_partitions_match_exponent_vectors(self):
        for dim_c in range(7):
            dvals = dict.fromkeys(range(1, dim_c + 1, 2))
            assert sorted(G._d_class_images(G.cp(dim_c)) if dim_c else {}) == list(dvals)
            for bound in range(25):
                assert G._alpha_partitions(bound, dvals) == _alpha_exponent_vectors(
                    bound, dvals
                ), (dim_c, bound)


def _alpha_exponent_vectors(max_tag, dvals):
    """Test-only copy of the former enumerator: exponent vectors over the
    odd indices with 2*sum(j*m_j) <= max_tag, sorted by (tag, alpha)."""
    odds = sorted(dvals)
    out = []

    def rec(prefix, pos, budget):
        if pos == len(odds):
            out.append(tuple(prefix))
            return
        j = odds[pos]
        m = 0
        while 2 * j * m <= budget:
            rec(prefix + ([(j, m)] if m else []), pos + 1, budget - 2 * j * m)
            m += 1

    rec([], 0, max_tag)
    return sorted(out, key=lambda a: (sum(2 * j * m for j, m in a), a))


_CP1_JSON = {
    "name": "myCP1",
    "dim_c": 1,
    "generators": [{"sym": "x", "deg": 2, "nilpotency": 1}],
    "total_chern": "1 + 2*x[1]",
    "volume_monomial": "x[1]",
}


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: G.manifold_from_json(dict(_CP1_JSON, total_chern="2 + 2*x[1]")), "constant term 1"),
        (lambda: G.cp(-1), "dimension must be nonnegative"),
        (lambda: G.embed_factor(G.cp(2), 0, GradedPolynomial.one()), "CP2 is not a product model"),
        (lambda: G.manifold_from_json({k: v for k, v in _CP1_JSON.items() if k != "dim_c"}), "missing key 'dim_c'"),
        (lambda: G.manifold_from_json(dict(_CP1_JSON, generators=["x"])), "a generator must be a JSON object"),
        (lambda: G.chern_character(G.cp(1), -1), "k must be nonnegative"),
        (lambda: G.series_from_exponential(PowerSeries1([1, 1, 0])), r"exponential must start x \+"),
        (lambda: G.genus_from_exponential(PowerSeries1([0, 1, 0]), 2), "truncated below degree 3"),
        (lambda: G.gamma_exponential(0, None), "bound must be at least 1"),
        (lambda: G.multiplicative_class(G.cp(3), G.todd_series(2)), "series truncated below the dimension"),
    ],
    ids=[
        "chern-constant-term", "cp-negative", "embed-not-product", "json-missing-key",
        "json-generator-not-object", "ch-negative", "exponential-start", "exponential-truncated",
        "gamma-bound", "series-truncated",
    ],
)
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_cp0_is_the_point():
    assert G.cp(0) == G.point()
