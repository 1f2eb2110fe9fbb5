"""Test-only frozen copy of the coproduct path that one substitution replaced.

``symm.coproduct`` used to multiply pairs of monomials in a tensor class
of its own, ``HopfTensor``, and raised the coproduct of each Chern class
c_n to its exponent one factor at a time.  The tests keep it as the
oracle for the substitution into Symm (x) Symm that replaced it.
"""

from hopfgenus import symm
from hopfgenus._kernels.pure import monomial_mul
from hopfgenus.core import LinearCombination, add_into, gen_id, gid_index


class HopfTensor(LinearCombination):
    __slots__ = ()

    def __mul__(self, other):
        out = {}
        for (l1, r1), c1 in self.terms.items():
            add_into(
                out,
                (
                    ((monomial_mul(l1, l2), monomial_mul(r1, r2)), c1 * c2)
                    for (l2, r2), c2 in other.terms.items()
                ),
            )
        return HopfTensor(out)


def _coproduct_c(n):
    terms = {}
    for i in range(n + 1):
        left = () if i == 0 else ((gen_id("c", i), 1),)
        right = () if i == n else ((gen_id("c", n - i), 1),)
        terms[(left, right)] = 1
    return HopfTensor(terms)


def coproduct(f):
    f = symm.convert(f, symm.E)
    result = {}
    for mon, coeff in f.value.terms.items():
        t = HopfTensor({((), ()): coeff})
        for gid, e in mon:
            dc = _coproduct_c(gid_index(gid))
            for _ in range(e):
                t = t * dc
        add_into(result, t.terms)
    return HopfTensor(result)
