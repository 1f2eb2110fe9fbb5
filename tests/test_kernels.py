"""Known values of the pure-Python kernels, the package's only backend."""

import hopfgenus
from hopfgenus import core, linalg
from hopfgenus._kernels import BACKEND, pure
from hopfgenus.core import gen_id


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
