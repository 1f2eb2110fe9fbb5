"""Known values of the pure-Python kernels, the package's only backend."""

import random
from fractions import Fraction

import hopfgenus
from hopfgenus import core, homology, linalg
from hopfgenus._kernels import BACKEND, pure
from hopfgenus.core import gen_id

from dense_bareiss import dense_bareiss
from gauss_jordan import rref


class TestBackendAgreement:
    def test_selected_backend_is_reported(self):
        assert BACKEND == "pure"
        assert hopfgenus.kernel_backend == "pure"
        assert core.mul_terms is pure.mul_terms
        assert linalg.rank_bareiss is pure.rank_bareiss

    def test_monomial_degree(self):
        mon = ((gen_id("c", 3), 2), (gen_id("c", 5), 1))
        assert pure.monomial_degree(mon) == 11

    def test_monomial_mul_merges(self):
        a = ((gen_id("c", 1), 1), (gen_id("c", 3), 2))
        b = ((gen_id("c", 1), 2), (gen_id("c", 2), 1))
        assert pure.monomial_mul(a, b) == tuple(
            sorted({gen_id("c", 1): 3, gen_id("c", 2): 1, gen_id("c", 3): 2}.items())
        )

    def test_rank_known_values(self):
        assert pure.rank_bareiss([[1, 2], [2, 4]]) == 1
        assert pure.rank_bareiss([[1, 2], [3, 4]]) == 2
        assert pure.rank_bareiss([[0, 0], [0, 0]]) == 0
        assert pure.rank_bareiss([]) == 0


def _random_int_matrix(rng, nrows, ncols, entries):
    """Rows drawn from ``entries`` (zero is added to the draw), then some
    rows zeroed, duplicated or combined and some columns zeroed."""
    rows = [[rng.choice(entries) if rng.random() < 0.6 else 0 for _ in range(ncols)]
            for _ in range(nrows)]
    for i in range(nrows):
        kind = rng.random()
        if kind < 0.1:
            rows[i] = [0] * ncols
        elif kind < 0.25:
            rows[i] = list(rng.choice(rows))
        elif kind < 0.4:
            a, b = rng.choice(rows), rng.choice(rows)
            p, q = rng.choice(entries), rng.choice(entries)
            rows[i] = [p * x + q * y for x, y in zip(a, b)]
    for j in range(ncols):
        if rng.random() < 0.1:
            for row in rows:
                row[j] = 0
    return rows


class TestSparseRank:
    """``pure.rank_bareiss`` (sparse elimination over Z) against the frozen
    dense Bareiss kernel and the pivot count of the frozen Gauss-Jordan ``rref``."""

    def _check(self, m):
        rank = pure.rank_bareiss(m)
        assert rank == dense_bareiss(m) == len(rref(m)[1])
        return rank

    def test_random_shapes(self):
        rng = random.Random(1018)
        shapes = [(1, 1), (3, 12), (12, 3), (1, 20), (20, 1), (8, 8), (5, 30), (30, 5)]
        for nrows, ncols in shapes * 25:
            self._check(_random_int_matrix(rng, nrows, ncols, [1, -1, 1, -1, 2, -3]))

    def test_non_unit_entries(self):
        # every first pivot is non-unit; the combined rows leave the set
        rng = random.Random(2)
        for _ in range(150):
            nrows, ncols = rng.randint(1, 10), rng.randint(1, 10)
            self._check([[rng.choice([0, 2, 3, -5, 6]) for _ in range(ncols)] for _ in range(nrows)])
            self._check(_random_int_matrix(rng, nrows, ncols, [2, 3, -5, 6]))

    def test_dense_coefficient_growth(self):
        rng = random.Random(60)
        m = [[rng.randint(-9, 9) for _ in range(60)] for _ in range(60)]
        assert pure.rank_bareiss(m) == dense_bareiss(m) == 60
        m[59] = [a - 2 * b for a, b in zip(m[0], m[1])]
        assert pure.rank_bareiss(m) == dense_bareiss(m) == 59

    def test_tor_blocks(self, monkeypatch):
        blocks = []
        rank_rational = homology.rank_rational

        def recording_rank(rows):
            blocks.append(rows)
            return rank_rational(rows)

        monkeypatch.setattr(homology, "rank_rational", recording_rank)
        homology.tor_via_bar(homology.exterior_algebra([3, 5, 7, 9], 28), 28)
        assert max(len(b) for b in blocks) > 20
        for block in blocks:
            assert pure.rank_bareiss(block) == dense_bareiss(block)

    def test_input_not_modified(self):
        rng = random.Random(4)
        for _ in range(50):
            m = _random_int_matrix(rng, rng.randint(1, 9), rng.randint(1, 9), [1, -1, 2, 3, -5, 6])
            before = [list(row) for row in m]
            pure.rank_bareiss(m)
            assert m == before


def _random_matrix(rng, nrows, ncols):
    """Entries mix int and Fraction (denominators up to 12); some rows are
    zero and some are combinations of earlier rows, so ranks fall short."""
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.15:
            rows.append([0] * ncols)
        elif kind < 0.4 and rows:
            a, b = rng.choice(rows), rng.choice(rows)
            p, q = Fraction(rng.randint(-3, 3), rng.randint(1, 12)), rng.randint(-2, 2)
            rows.append([p * x + q * y for x, y in zip(a, b)])
        else:
            rows.append([
                0 if rng.random() < 0.4
                else rng.randint(-5, 5) if rng.random() < 0.5
                else Fraction(rng.randint(-9, 9), rng.randint(1, 12))
                for _ in range(ncols)
            ])
    return rows


class TestRankRational:
    """``linalg.rank_rational`` against the pivot count of the frozen
    rational Gauss-Jordan ``rref``."""

    def test_matches_rref_pivots(self):
        rng = random.Random(20261018)
        for _ in range(300):
            m = _random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8))
            assert linalg.rank_rational(m) == len(rref(m)[1])

    def test_degenerate_shapes(self):
        for m in ([], [[]], [[0]], [[0, 0], [0, 0]], [[Fraction(0)]]):
            assert linalg.rank_rational(m) == len(rref(m)[1]) == 0

    def test_denominators_are_cleared_per_row(self):
        m = [[Fraction(1, 6), Fraction(1, 4)], [Fraction(2, 3), 1]]
        assert linalg.rank_rational(m) == 1
        assert linalg.rank_rational([[Fraction(1, 12), 0], [0, Fraction(5, 7)]]) == 2

    def test_input_not_modified(self):
        m = [[Fraction(1, 2), 3], [1, Fraction(-2, 5)]]
        before = [[(type(x), x) for x in row] for row in m]
        linalg.rank_rational(m)
        assert [[(type(x), x) for x in row] for row in m] == before

    def test_only_rows_with_denominators_are_scaled(self, monkeypatch):
        seen = []
        monkeypatch.setattr(linalg, "rank_bareiss", lambda rows: seen.extend(rows) or pure.rank_bareiss(rows))
        int_row = [2, 0, -3]
        m = [int_row, [Fraction(1, 2), Fraction(1, 3), 1]]
        assert linalg.rank_rational(m) == 2
        assert seen[0] is int_row
        assert seen[1] == [3, 2, 6] and all(type(x) is int for x in seen[1])
        assert int_row == [2, 0, -3]

    def test_kernel_receives_int_rows_only(self, monkeypatch):
        # Fraction rows with denominator 1 are converted, not passed through
        seen = []
        monkeypatch.setattr(linalg, "rank_bareiss", lambda rows: seen.extend(rows) or pure.rank_bareiss(rows))
        m = [[Fraction(2), Fraction(-4), 0], [Fraction(1, 2), 1, Fraction(3)], [1, 2, 3]]
        assert linalg.rank_rational(m) == len(rref(m)[1]) == 3
        assert seen == [[2, -4, 0], [1, 2, 6], [1, 2, 3]]
        assert all(type(x) is int for row in seen for x in row)


def _old_mul_terms(a, b):
    # Test-only copy of the earlier kernel's untruncated path (cap < 0).
    if len(a) > len(b):
        a, b = b, a
    bl = [(pure.monomial_degree(m), m, c) for m, c in b.items()]
    out = {}
    for ma, ca in a.items():
        for db, mb, cb in bl:
            m = pure.monomial_mul(ma, mb)
            prev = out.get(m)
            out[m] = ca * cb if prev is None else prev + ca * cb
    return {m: c for m, c in out.items() if c != 0}


def _random_terms(rng, n):
    gids = [gen_id("c", k) for k in range(1, 5)]
    terms = {}
    for _ in range(n):
        mon = tuple((g, rng.randint(1, 3)) for g in gids if rng.random() < 0.5)
        terms[mon] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return terms


def test_mul_terms_same_items_in_same_order_as_untruncated_kernel():
    rng = random.Random(7)
    for _ in range(200):
        a, b = _random_terms(rng, rng.randint(0, 6)), _random_terms(rng, rng.randint(0, 6))
        assert list(pure.mul_terms(a, b).items()) == list(_old_mul_terms(a, b).items())
