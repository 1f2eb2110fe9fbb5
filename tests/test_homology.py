from itertools import combinations

import pytest

from hopfgenus import homology as H
from hopfgenus.rational import Q


class TestPresentations:
    def test_exterior_basis(self):
        e = H.exterior_algebra([5], 12)
        assert e.labels == ("1", "y5")
        e2 = H.exterior_algebra([5, 9], 15)
        assert e2.labels == ("1", "y5", "y9", "y5y9")

    def test_exterior_square_zero(self):
        e = H.exterior_algebra([5], 12)
        assert e.multiply(1, 1) == ()

    def test_exterior_anticommutes(self):
        e = H.exterior_algebra([5, 9], 15)
        ((i, c),) = e.multiply(1, 2)
        ((j, d),) = e.multiply(2, 1)
        assert i == j and c == -d

    def test_exterior_even_degree_rejected(self):
        with pytest.raises(ValueError):
            H.exterior_algebra([4], 10)

    def test_exterior_associative(self):
        assert H.exterior_algebra([5, 9], 15).is_associative()

    def test_square_zero(self):
        a = H.square_zero_extension([5, 9], 22)
        assert a.multiply(1, 2) == () and a.multiply(1, 1) == ()
        assert a.degrees == (0, 5, 9)

    def test_connectedness_enforced(self):
        with pytest.raises(ValueError):
            H.GradedAlgebraPresentation(("1", "bad"), (0, 0), {}, 10)


class TestTorViaBar:
    def test_ground_field(self):
        a = H.GradedAlgebraPresentation(("1",), (0,), {}, 20)
        assert H.tor_via_bar(a, 12).nonzero() == [(0, 0, 1)]

    def test_single_exterior_generator(self):
        table = H.tor_via_bar(H.exterior_algebra([5], 24), 24)
        # one class per power of the degree-6 polynomial generator
        assert table.total_series() == [
            1 if n % 6 == 0 else 0 for n in range(25)
        ]

    def test_koszul_duality_two_generators(self):
        table = H.tor_via_bar(H.exterior_algebra([5, 9], 24), 24)
        assert table.total_series() == H.polynomial_hilbert([6, 10], 24)

    def test_koszul_duality_three_generators(self):
        table = H.tor_via_bar(H.exterior_algebra([5, 9, 13], 24), 24)
        assert table.total_series() == H.polynomial_hilbert([6, 10, 14], 24)

    def test_square_zero_gives_word_counts(self):
        table = H.tor_via_bar(H.square_zero_extension([5, 9], 22), 22)
        words = H.word_series([6, 10], 22)
        assert table.total_series() == words
        assert table.total_series()[16] == 2  # (6,10) and (10,6)

    def test_connectedness_invariant(self):
        table = H.tor_via_bar(H.exterior_algebra([5, 9], 20), 20)
        assert table.dimension(0, 0) == 1
        assert all(t == 0 or s > 0 for (s, t), d in table.dims.items() if d)

    def test_truncation_guard(self):
        with pytest.raises(H.TruncationError):
            H.tor_via_bar(H.exterior_algebra([5], 12), 18)

    def test_non_associative_product_breaks_d_squared(self):
        # x.x = y and x.y = z but y.x = 0, so (xx)x = 0 != z = x(xx)
        a = H.GradedAlgebraPresentation(
            ("1", "x", "y", "z"),
            (0, 1, 2, 3),
            {(1, 1): ((2, Q(1)),), (1, 2): ((3, Q(1)),)},
            6,
        )
        assert not a.is_associative()
        with pytest.raises(H.BarDifferentialError) as err:
            H.tor_via_bar(a, 6)
        assert isinstance(err.value, ArithmeticError)

    def test_polynomial_below_word_counts(self):
        poly = H.polynomial_hilbert([6, 10], 22)
        words = H.word_series([6, 10], 22)
        assert all(p <= w for p, w in zip(poly, words))


class TestSeries:
    def test_predicted_polynomial_examples(self):
        dims = H.polynomial_hilbert([6, 10], 16)
        assert [dims[d] for d in (0, 6, 10, 12, 16)] == [1, 1, 1, 1, 1]
        assert H.polynomial_hilbert([], 5) == [1, 0, 0, 0, 0, 0]
        assert H.polynomial_hilbert([2], 8) == [1, 0, 1, 0, 1, 0, 1, 0, 1]

    def test_somega(self):
        assert H.coefficient_ring_series(H.SOMEGA, 9) == [1, 0, 0, 0, 0, 1, 0, 0, 0, 1]

    def test_ktheory_fiber(self):
        dims = H.coefficient_ring_series(H.K_THEORY_FIBER, 10)
        assert dims[0] == 0  # augmentation ideal
        assert dims[2] == 1
        assert dims[6] == 2  # y2^3 and y6

    def test_thh_unit(self):
        assert H.coefficient_ring_series(H.THH, 0) == [1]

    def test_thh_is_convolution(self):
        bound = 20
        ext = H.exterior_series(list(range(5, bound + 1, 4)), bound)
        pol = H.polynomial_hilbert(list(range(2, bound + 1, 4)), bound)
        thh = H.coefficient_ring_series(H.THH, bound)
        for n in range(bound + 1):
            assert thh[n] == sum(ext[i] * pol[n - i] for i in range(n + 1))

    def test_model_flags(self):
        with_bottom = H.coefficient_ring_series(H.SOMEGA, 9, exterior_start=1)
        assert with_bottom[1] == 1
        no_bottom_poly = H.coefficient_ring_series(
            H.K_THEORY_FIBER, 10, polynomial_start=6
        )
        assert no_bottom_poly[2] == 0 and no_bottom_poly[6] == 1
        with pytest.raises(ValueError):
            H.coefficient_ring_series(H.SOMEGA, 9, exterior_start=2)

    def test_oracle_exterior_bruteforce(self):
        degrees = [5, 9, 13, 17]
        bound = 20
        brute = [0] * (bound + 1)
        for r in range(len(degrees) + 1):
            for sub in combinations(degrees, r):
                if sum(sub) <= bound:
                    brute[sum(sub)] += 1
        assert H.exterior_series(degrees, bound) == brute
