"""The Hopf algebra of symmetric functions over the rationals.

Bases: E (elementary, written as Chern classes ``c[k]``), P (power sums,
written as Newton classes ``N[k]``), H (complete homogeneous ``h[k]``)
and M (monomial ``m``-basis, indexed by partitions).  Generator index k
always means polynomial weight; topological degree is 2k and never
appears in this module.

The generating-function identities implemented here:

    sum_k c_k = prod_i exp((-1)^i N_{i+1} / (i+1))
    sum_i d_i = (sum_i (-1)^i c_i) / (sum_i c_i)
              = prod_i exp(-2 N_{2i+1} / (2i+1))
    sum_i a_i = (sum_i b_i) (sum_i (-1)^i b_i)

The quotient form of the d-series is the definition; the exp-product
form is a cross-check run by the identity checker.
"""

from dataclasses import dataclass
from functools import lru_cache

from . import linalg
from ._kernels import monomial_mul
from .core import (
    GradedPolynomial,
    InvariantError,
    LinearCombination,
    TruncatedSeries,
    add_into,
    gen_id,
    gid_index,
    monomial_degree,
)
from .rational import divide

E, P, H, M = "E", "P", "H", "M"
BASES = (E, P, H, M)

FAMILY = {E: "c", P: "N", H: "h", M: "m"}

BU = "BU"
BU_MOD_SO = "BUmodSO"


@dataclass(frozen=True)
class SymmFn:
    """A symmetric function expressed in one named basis."""

    basis: str
    value: GradedPolynomial

    def __post_init__(self):
        if self.basis not in BASES:
            raise ValueError("unknown basis %r" % self.basis)

    def weight_part(self, k):
        return SymmFn(self.basis, self.value.homogeneous_part(k))

    def __add__(self, other):
        if other.basis != self.basis:
            other = convert(other, self.basis)
        return SymmFn(self.basis, self.value + other.value)

    def __sub__(self, other):
        if other.basis != self.basis:
            other = convert(other, self.basis)
        return SymmFn(self.basis, self.value - other.value)

    def __mul__(self, other):
        if isinstance(other, SymmFn):
            a, b = self, other
            if a.basis == M:
                a = convert(a, P)
            if b.basis == M:
                b = convert(b, P)
            if b.basis != a.basis:
                b = convert(b, a.basis)
            return SymmFn(a.basis, a.value * b.value)
        return SymmFn(self.basis, self.value * other)

    def __eq__(self, other):
        return self.basis == other.basis and self.value == other.value


def sym_gen(basis, k):
    """The k-th generator of a multiplicative basis, as a polynomial."""
    if basis == M:
        raise ValueError("the monomial basis is not multiplicative")
    return GradedPolynomial.generator(FAMILY[basis], k)


def partitions(n, max_part=None):
    """Partitions of n as descending tuples."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def partition_monomial(basis, lam):
    """The monomial prod_k gen_k^{mult} for a partition."""
    fam = FAMILY[basis]
    mon = {}
    for part in lam:
        g = gen_id(fam, part)
        mon[g] = mon.get(g, 0) + 1
    return tuple(sorted(mon.items()))


def monomial_partition(mon):
    lam = []
    for gid, e in mon:
        lam.extend([gid_index(gid)] * e)
    return tuple(sorted(lam, reverse=True))


# ---------------------------------------------------------------------------
# generator conversion tables between the multiplicative bases


def _generating_series(family, D):
    """1 + sum_k gen_k t^k up to t^D."""
    return TruncatedSeries(
        [GradedPolynomial.one()]
        + [GradedPolynomial.generator(family, k) for k in range(1, D + 1)]
    )


@lru_cache(maxsize=None)
def _gen_table(src, tgt, D):
    """Generators 1..D of basis ``src`` written in basis ``tgt``, as a tuple.

    Each table is one series operation on the relations
    E(t) = exp(sum (-1)^(k-1) p_k t^k / k), H(t) = exp(sum p_k t^k / k)
    and E(-t) H(t) = 1 (Macdonald, Symmetric Functions, I.2).
    """
    if src in (E, H) and tgt == P:
        sign = -1 if src == E else 1
        arg = [GradedPolynomial.zero()] + [
            GradedPolynomial.generator("N", k, coeff=divide(sign ** (k - 1), k))
            for k in range(1, D + 1)
        ]
        return tuple(TruncatedSeries(arg).exp().comps[1:])
    if src == P and tgt in (E, H):
        sign = -1 if tgt == E else 1
        log = _generating_series(FAMILY[tgt], D).log()
        return tuple(c * (sign ** (k - 1) * k) for k, c in enumerate(log.comps[1:], 1))
    if (src, tgt) in ((E, H), (H, E)):
        # e_k = (-1)^k [t^k] 1/H(t) and h_k = (-1)^k [t^k] 1/E(t)
        inv = _generating_series(FAMILY[tgt], D).inverse()
        return tuple(c * (-1) ** k for k, c in enumerate(inv.comps[1:], 1))
    raise ValueError("no conversion %s -> %s" % (src, tgt))


def _convert_multiplicative(poly, src, tgt):
    if src == tgt or poly.is_zero():
        return poly
    table = _gen_table(src, tgt, poly.max_degree())
    fam = FAMILY[src]
    return poly.substitute({gen_id(fam, k): img for k, img in enumerate(table, 1)})


# ---------------------------------------------------------------------------
# monomial basis


@lru_cache(maxsize=None)
def _p_times_m(r, mu):
    """Expansion of p_r * m_mu in the m basis: dict partition -> int."""
    out = {}
    values = set(mu) | {0}
    for v in values:
        parts = list(mu)
        if v:
            parts.remove(v)
        parts.append(v + r)
        nu = tuple(sorted(parts, reverse=True))
        out[nu] = out.get(nu, 0) + nu.count(v + r)
    # note: each distinct v contributes once; multiplicity is carried by
    # the count of v+r in the target partition
    return out


@lru_cache(maxsize=None)
def _p_lambda_in_m(lam):
    """Expansion of p_lambda = prod p_r in the m basis."""
    if not lam:
        return (((), 1),)
    acc = {(): 1}
    for r in lam:
        nxt = {}
        for mu, c in acc.items():
            add_into(nxt, _p_times_m(r, mu), c)
        acc = nxt
    return tuple(sorted(acc.items()))


@lru_cache(maxsize=None)
def _m_in_p_weight(w):
    """Matrix expressing each m_lambda of weight w in the p basis."""
    lams = sorted(partitions(w))
    index = {lam: i for i, lam in enumerate(lams)}
    n = len(lams)
    # A[i][j] = coefficient of m_{lams[j]} in p_{lams[i]}
    A = [[0] * n for _ in range(n)]
    for i, lam in enumerate(lams):
        for nu, c in _p_lambda_in_m(lam):
            A[i][index[nu]] += c
    # row lambda of A^{-1} is m_lambda in the p basis; read it off rref [A | I]
    red, pivots = linalg.rref(
        [row + [1 if j == i else 0 for j in range(n)] for i, row in enumerate(A)]
    )
    if pivots != list(range(n)):
        raise InvariantError("p-to-m matrix of weight %d is singular" % w)
    out = {}
    for lam, row in zip(lams, red):
        out[lam] = {mu: x for mu, x in zip(lams, row[n:]) if x != 0}
    return out


def _to_m(poly_in_p):
    out = {}
    for mon, coeff in poly_in_p.terms.items():
        lam = monomial_partition(mon)
        add_into(
            out,
            ((partition_monomial(M, nu), coeff * c) for nu, c in _p_lambda_in_m(lam)),
        )
    return GradedPolynomial(out)


def _from_m(poly_in_m):
    out = {}
    by_weight = {}
    for mon, coeff in poly_in_m.terms.items():
        by_weight.setdefault(monomial_degree(mon), {})[mon] = coeff
    for w, terms in by_weight.items():
        if w == 0:
            add_into(out, {(): terms[()]})
            continue
        table = _m_in_p_weight(w)
        for mon, coeff in terms.items():
            lam = monomial_partition(mon)
            add_into(
                out,
                ((partition_monomial(P, mu), coeff * c) for mu, c in table[lam].items()),
            )
    return GradedPolynomial(out)


def convert(f, target):
    """Change of basis; round trips are exact."""
    if f.basis == target:
        return f
    if f.basis == M:
        in_p = _from_m(f.value)
        return convert(SymmFn(P, in_p), target)
    if target == M:
        in_p = _convert_multiplicative(f.value, f.basis, P)
        return SymmFn(M, _to_m(in_p))
    return SymmFn(target, _convert_multiplicative(f.value, f.basis, target))


# ---------------------------------------------------------------------------
# generating functions


def chern_from_newton(D):
    """Series whose weight-k part is c_k written in the P basis."""
    return TruncatedSeries((GradedPolynomial.one(),) + _gen_table(E, P, D))


def d_classes(D):
    """d-series in the c-generators, from the alternating/plain quotient."""
    num = [GradedPolynomial.one()]
    den = [GradedPolynomial.one()]
    for k in range(1, D + 1):
        num.append(GradedPolynomial.generator("c", k, coeff=(-1) ** k))
        den.append(GradedPolynomial.generator("c", k))
    return TruncatedSeries(num) * TruncatedSeries(den).inverse()


def d_classes_exp_form(D):
    """The exp-product form prod exp(-2 N_{2i+1}/(2i+1)), converted to c.

    Conversion is a ring homomorphism, so the linear argument is
    converted and the exponential taken in the c basis.
    """
    arg = GradedPolynomial(
        {((gen_id("N", k), 1),): divide(-2, k) for k in range(1, D + 1, 2)}
    )
    in_e = _convert_multiplicative(arg, P, E)
    return TruncatedSeries.from_polynomial(in_e, D).exp()


def a_classes(D):
    """a-series in the b-generators: (sum b_i)(sum (-1)^i b_i)."""
    plain = [GradedPolynomial.one()]
    alt = [GradedPolynomial.one()]
    for k in range(1, D + 1):
        plain.append(GradedPolynomial.generator("b", k))
        alt.append(GradedPolynomial.generator("b", k, coeff=(-1) ** k))
    return TruncatedSeries(plain) * TruncatedSeries(alt)


def d_class_mismatch(D):
    """First weight <= D where the quotient and exp-product forms of the
    d-series differ, or None."""
    lhs = d_classes(D)
    rhs = d_classes_exp_form(D)
    return next((k for k in range(D + 1) if lhs.comps[k] != rhs.comps[k]), None)


def a_class_mismatch(D):
    """First weight k in 2..D where a_k breaks the a-class structure, or None.

    An even a_k must have linear part 2 b_k; an odd a_k must be
    decomposable (no linear term).
    """
    a = a_classes(D)
    for k in range(2, D + 1):
        if k % 2 == 0:
            if a.comps[k].coefficient(((gen_id("b", k), 1),)) != 2:
                return k
        elif any(len(m) == 1 and m[0][1] == 1 for m in a.comps[k].terms):
            return k
    return None


# ---------------------------------------------------------------------------
# Hopf structure (coproduct in the E basis)


class HopfTensor(LinearCombination):
    """Element of Symm (x) Symm: map (monomial, monomial) -> rational."""

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


@lru_cache(maxsize=None)
def _coproduct_c(n):
    """Delta c_n = sum_{i+j=n} c_i (x) c_j as a HopfTensor (cached)."""
    terms = {}
    for i in range(n + 1):
        left = () if i == 0 else ((gen_id("c", i), 1),)
        right = () if i == n else ((gen_id("c", n - i), 1),)
        terms[(left, right)] = 1
    return HopfTensor(terms)


def coproduct(f):
    """Coproduct of a symmetric function, computed in the E basis."""
    f = convert(f, E)
    result = {}
    for mon, coeff in f.value.terms.items():
        t = HopfTensor({((), ()): coeff})
        for gid, e in mon:
            dc = _coproduct_c(gid_index(gid))
            for _ in range(e):
                t = t * dc
        add_into(result, t.terms)
    return HopfTensor(result)


def _primitive_defect(delta, terms):
    """Delta f - f (x) 1 - 1 (x) f as a dict, from Delta f's and f's terms."""
    defect = dict(delta)
    for mon, c in terms.items():
        # two pairs, not one dict: for mon = () both keys are 1 (x) 1
        add_into(defect, (((mon, ()), c), (((), mon), c)), -1)
    return defect


def is_primitive(f):
    """True iff Delta f = f (x) 1 + 1 (x) f exactly."""
    f = convert(f, E)
    return not _primitive_defect(coproduct(f).terms, f.value.terms)


def coassociativity_defect(f):
    """(Delta (x) id) Delta f - (id (x) Delta) Delta f; empty dict iff OK."""
    f = convert(f, E)
    delta = coproduct(f)

    def expand(side):
        out = {}
        for (l, r), c in delta.terms.items():
            inner = coproduct(SymmFn(E, GradedPolynomial({(l if side == 0 else r): 1})))
            add_into(
                out,
                (
                    ((m1, m2, r) if side == 0 else (l, m1, m2), c * c2)
                    for (m1, m2), c2 in inner.terms.items()
                ),
            )
        return out

    return add_into(expand(0), expand(1), -1)


def primitive_space(k, model=BU_MOD_SO):
    """Basis of the primitive subspace in weight k, in the E basis.

    The N_k are primitive, so the coproduct of a P-basis monomial is a
    binomial expansion; the primitive combinations of the model's
    P-monomials are solved for exactly and converted to E.  The BUmodSO
    model is generated by the odd N's and carries primitives only in
    odd weights (topological degree congruent to 2 mod 4); BU is
    generated by all of them and has the primitive N_k in every weight.
    """
    if k < 1:
        return []
    if model not in (BU, BU_MOD_SO):
        raise ValueError("unknown model %r" % model)
    lams = [
        lam
        for lam in sorted(partitions(k))
        if model == BU or all(p % 2 == 1 for p in lam)
    ]
    mons = [partition_monomial(P, lam) for lam in lams]
    defects = [_primitive_defect(_coproduct_p_monomial(mon), {mon: 1}) for mon in mons]
    return [
        convert(SymmFn(P, poly), E) for poly in _primitive_combinations(mons, defects)
    ]


def _primitive_combinations(mons, defects):
    """Nullspace basis, as polynomials over ``mons``, of the defect matrix.

    ``defects[j]`` is the coproduct defect dict of ``mons[j]``; each
    returned polynomial is a combination of the monomials whose defects
    cancel.
    """
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
    return [
        GradedPolynomial(add_into({}, zip(mons, vec)))
        for vec in linalg.nullspace(matrix, len(mons))
    ]


def _coproduct_p_monomial(mon):
    """Coproduct of a P-basis monomial: the N_k are primitive."""
    from math import comb

    result = {((), ()): 1}
    for gid, e in mon:
        new = {}
        for (left, right), c in result.items():
            for a in range(e + 1):
                lm = left + ((gid, a),) if a else left
                rm = right + ((gid, e - a),) if e - a else right
                key = (tuple(sorted(lm)), tuple(sorted(rm)))
                new[key] = new.get(key, 0) + c * comb(e, a)
        result = new
    return result


# ---------------------------------------------------------------------------
# indecomposables


def indecomposables(weight, generator_weights=None):
    """Dimension of I/I^2 in a given weight, with one representative.

    I/I^2 of a free commutative algebra is spanned by the images of its
    generators, so the dimension is the number of generators of that
    weight, counted with multiplicity.  Generators of one weight are all
    represented by the Chern class ``c[weight]``, so the representative
    list holds that class once when the dimension is positive and is
    empty otherwise; it is not a basis when a weight repeats.  Defaults
    to the full symmetric algebra (one generator per weight).
    """
    if weight < 1:
        return 0, []
    if generator_weights is None:
        generator_weights = list(range(1, weight + 1))
    if any(g <= 0 for g in generator_weights):
        raise ValueError("generator weights must be positive")
    dim = list(generator_weights).count(weight)
    return dim, [SymmFn(E, sym_gen(E, weight))] if dim else []


def is_decomposable(poly):
    """True iff every term has at least two generator factors."""
    for mon in poly.terms.keys():
        if sum(e for _, e in mon) < 2:
            return False
    return True
