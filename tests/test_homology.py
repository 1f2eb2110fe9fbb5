import gc
from itertools import combinations
from math import comb, gcd

import pytest

from hopfgenus import homology as H
from hopfgenus.rational import Q

from dense_bareiss import dense_bareiss


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

    @pytest.mark.parametrize(
        "mult",
        [
            {(1, 1): ((2, 1),)},  # x.x = y, but |y| = 3 != 2
            {(1, 1): ((3, 1),)},  # no basis element 3
            {(0, 1): ((1, 1),)},  # the unit is not in the table
            {(1, 2): ((0, 1),)},  # lands on the unit
        ],
    )
    def test_product_must_be_graded(self, mult):
        with pytest.raises(ValueError):
            H.GradedAlgebraPresentation(("1", "x", "y"), (0, 1, 3), mult, 8)


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

    def test_koszul_duality_four_generators(self):
        table = H.tor_via_bar(H.exterior_algebra([3, 5, 7, 9], 32), 32)
        assert table.total_series() == H.polynomial_hilbert([4, 6, 8, 10], 32)

    def test_koszul_duality_four_generators_at_36(self):
        table = H.tor_via_bar(H.exterior_algebra([3, 5, 7, 9], 36), 36)
        assert table.total_series() == H.polynomial_hilbert([4, 6, 8, 10], 36)

    def test_square_zero_three_generators_gives_word_counts(self):
        table = H.tor_via_bar(H.square_zero_extension([2, 3, 5], 28), 28)
        assert table.total_series() == H.word_series([3, 4, 6], 28)

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


def _old_bar_words(A, length, internal):
    # Test-only copy of the earlier nested-closure enumeration.
    pos = A.positive_indices()
    out = []

    def rec(prefix, remaining, budget):
        if remaining == 0:
            if budget == 0:
                out.append(tuple(prefix))
            return
        for i in pos:
            d = A.degrees[i]
            if d <= budget - (remaining - 1):
                rec(prefix + [i], remaining - 1, budget - d)

    rec([], length, internal)
    return out


class TestBarWords:
    ALGEBRAS = [
        H.exterior_algebra([3, 5, 7, 9], 24),
        H.square_zero_extension([2, 3, 5], 20),
        H.GradedAlgebraPresentation(("1",), (0,), {}, 10),
    ]

    @pytest.mark.parametrize("algebra", ALGEBRAS)
    def test_same_words_in_same_order(self, algebra):
        for s in range(6):
            for t in range(algebra.truncation + 1):
                assert H._bar_words(algebra, s, t) == _old_bar_words(algebra, s, t)

    def test_leaves_no_cyclic_garbage(self):
        algebra = H.square_zero_extension([2, 3, 5], 20)
        gc.collect()
        gc.disable()
        try:
            for t in range(21):
                H._bar_words(algebra, 4, t)
            assert gc.collect() == 0
        finally:
            gc.enable()


def _old_rank_rational(rows):
    # Test-only copy of the earlier rank path: every entry re-wrapped as a
    # Fraction, denominators cleared by a pairwise lcm and Fraction products,
    # ranked by the frozen dense Bareiss kernel.
    scaled = []
    for row in rows:
        den = 1
        for x in row:
            den = den // gcd(den, int(x.denominator)) * int(x.denominator)
        scaled.append([int(x * den) for x in row])
    return dense_bareiss(scaled)


def _old_diff_rank(A, words_src, words_tgt):
    # Test-only copy of the earlier dense rank: one matrix over all source
    # and target words, ranked by the test-only earlier rank path.
    if not words_src or not words_tgt:
        return 0
    col = {w: j for j, w in enumerate(words_tgt)}
    rows = []
    for w in words_src:
        row = [0] * len(words_tgt)
        for tgt, c in H._apply_bar_d(A, w).items():
            row[col[tgt]] = c
        rows.append(row)
    return _old_rank_rational(rows)


def _old_tor_via_bar(A, bound):
    # Test-only copy of the earlier ``tor_via_bar``, less its argument
    # guards and d^2 check: every differential is rebuilt from the bar words
    # and ranked as one dense matrix, twice.
    min_deg = min((A.degrees[i] for i in A.positive_indices()), default=None)
    dims = {(0, 0): 1}
    if min_deg is None:
        return H.TorTable(dims, bound)
    words = {}

    def get_words(s, t):
        key = (s, t)
        if key not in words:
            words[key] = H._bar_words(A, s, t)
        return words[key]

    s = 1
    while s * (min_deg + 1) <= bound:
        for t in range(s * min_deg, bound - s + 1):
            src = get_words(s, t)
            if not src:
                continue
            r_out = _old_diff_rank(A, src, get_words(s - 1, t))
            r_in = _old_diff_rank(A, get_words(s + 1, t), src)
            d = len(src) - r_out - r_in
            if d:
                dims[(s, t)] = d
        s += 1
    return H.TorTable(dims, bound)


def divided_power_algebra(truncation):
    """Q[x], |x| = 2, in the basis g_a = a! x^a: g_a g_b = g_{a+b} / C(a+b, a)."""
    top = truncation // 2
    labels = ("1",) + tuple("g%d" % a for a in range(1, top + 1))
    degrees = tuple(2 * a for a in range(top + 1))
    mult = {
        (a, b): ((a + b, Q(1, comb(a + b, a))),)
        for a in range(1, top + 1)
        for b in range(1, top + 1 - a)
    }
    return H.GradedAlgebraPresentation(labels, degrees, mult, truncation)


class TestAgainstOldRankPath:
    """``tor_via_bar`` equals the whole earlier computation: dense
    differentials over all bar words of each (s, t), ranked by the earlier
    rank path and the frozen dense Bareiss kernel.  The cases include every
    call of the tor-bar benchmark, its warm-up and criterion 9's algebras."""

    @pytest.mark.parametrize(
        "build,bound",
        [
            pytest.param(lambda: H.exterior_algebra([3, 5, 7], 20), 20, id="exterior[3,5,7]@20"),
            pytest.param(lambda: H.square_zero_extension([2, 3, 5], 20), 20, id="squarezero[2,3,5]@20"),
            pytest.param(lambda: H.exterior_algebra([5, 9], 24), 24, id="exterior[5,9]@24"),
            pytest.param(lambda: H.square_zero_extension([5, 9], 22), 22, id="squarezero[5,9]@22"),
            pytest.param(lambda: divided_power_algebra(16), 16, id="dividedpower@16"),
            pytest.param(lambda: H.square_zero_extension([2, 3, 5], 28), 28, id="squarezero[2,3,5]@28"),
            pytest.param(lambda: H.square_zero_extension([2, 3, 4], 26), 26, id="squarezero[2,3,4]@26"),
            pytest.param(lambda: H.exterior_algebra([3, 5, 7, 9], 28), 28, id="exterior[3,5,7,9]@28"),
            pytest.param(lambda: H.exterior_algebra([3, 5, 7, 9], 32), 32, id="exterior[3,5,7,9]@32"),
            pytest.param(lambda: H.exterior_algebra([5, 9], 20), 20, id="exterior[5,9]@20"),
        ],
    )
    def test_same_table(self, build, bound):
        algebra = build()
        assert H.tor_via_bar(algebra, bound).dims == _old_tor_via_bar(algebra, bound).dims


class TestBlockRank:
    # two blocks {a, b} -> {x, y} and {c} -> {z}, and a zero row, shuffled
    DIFF = {
        "c": {"z": 3},
        "a": {"x": 1, "y": 2},
        "0": {},
        "b": {"y": 4, "x": 2},
    }

    def test_two_blocks_and_total_rank(self, monkeypatch):
        blocks = []
        rank_rational = H.rank_rational

        def recording_rank(rows):
            blocks.append(rows)
            return rank_rational(rows)

        monkeypatch.setattr(H, "rank_rational", recording_rank)
        rank = H._diff_rank(self.DIFF)
        assert sorted(len(b) for b in blocks) == [1, 2]
        cols = sorted({t for row in self.DIFF.values() for t in row})
        dense = [[row.get(t, 0) for t in cols] for row in self.DIFF.values()]
        assert rank == rank_rational(dense) == 2

    def test_zero_differential_is_never_ranked(self, monkeypatch):
        monkeypatch.setattr(H, "rank_rational", lambda rows: pytest.fail("ranked %r" % rows))
        assert H._diff_rank({"a": {}, "b": {}}) == 0
        assert H._diff_rank({}) == 0
        H.tor_via_bar(H.square_zero_extension([2, 3, 5], 20), 20)


class TestDividedPowers:
    def test_presentation_is_associative(self):
        algebra = divided_power_algebra(16)
        assert algebra.is_associative()
        assert any(c.denominator > 1 for prods in algebra.mult.values() for _, c in prods)

    def test_rank_path_sees_denominators(self, monkeypatch):
        seen = []
        rank_rational = H.rank_rational

        def recording_rank(rows):
            seen.extend(x.denominator for row in rows for x in row)
            return rank_rational(rows)

        monkeypatch.setattr(H, "rank_rational", recording_rank)
        H.tor_via_bar(divided_power_algebra(16), 16)
        assert max(seen) > 1

    def test_tor_is_exterior_on_one_class(self):
        # Tor over Q[x], |x| = 2, is exterior on one class in total degree 3
        table = H.tor_via_bar(divided_power_algebra(16), 16)
        assert table.total_series() == [1 if n in (0, 3) else 0 for n in range(17)]
        assert table.nonzero() == [(0, 0, 1), (1, 2, 1)]


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
