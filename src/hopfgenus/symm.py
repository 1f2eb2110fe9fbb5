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
from math import comb

from .core import (
    GradedPolynomial,
    InvariantError,
    LinearCombination,
    TruncatedSeries,
    add_into,
    gen_id,
    gid_family,
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


def _generating_series(family, D, sign=1):
    """1 + sum_k sign^k gen_k t^k up to t^D."""
    return TruncatedSeries(
        [GradedPolynomial.one()]
        + [GradedPolynomial.generator(family, k, coeff=sign**k) for k in range(1, D + 1)]
    )


@lru_cache(maxsize=512)
def _gen_table(src, tgt, D):
    """Generators 1..D of basis ``src`` written in basis ``tgt``, as a tuple.

    Each table is one series operation on the relations
    E(t) = exp(sum (-1)^(k-1) p_k t^k / k), H(t) = exp(sum p_k t^k / k)
    and E(-t) H(t) = 1 (Macdonald, Symmetric Functions, I.2).  The
    Newton classes are integral: t E'(t)/E(t) = sum (-1)^(k-1) p_k t^k
    and t H'(t)/H(t) = sum p_k t^k, so P -> E/H reads p_k off
    ``log_scaled`` and E/H -> P feeds the integers +-p_k to
    ``exp_scaled``; neither forms a fraction that it multiplies back.
    """
    if src in (E, H) and tgt == P:
        sign = -1 if src == E else 1
        arg = [GradedPolynomial.zero()] + [
            GradedPolynomial.generator("N", k, coeff=sign ** (k - 1)) for k in range(1, D + 1)
        ]
        return tuple(TruncatedSeries(arg).exp_scaled().comps[1:])
    if src == P and tgt in (E, H):
        sign = -1 if tgt == E else 1
        scaled = _generating_series(FAMILY[tgt], D).log_scaled()
        return tuple(c * sign ** (k - 1) for k, c in enumerate(scaled.comps[1:], 1))
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


@lru_cache(maxsize=2048)
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


@lru_cache(maxsize=2048)
def _p_lambda_in_m(lam):
    """Expansion of p_lambda = prod p_r in the m basis."""
    acc = {(): 1}
    for r in lam:
        nxt = {}
        for mu, c in acc.items():
            add_into(nxt, _p_times_m(r, mu), c)
        acc = nxt
    return tuple(sorted(acc.items()))


@lru_cache(maxsize=64)
def _m_in_p_weight(w):
    """Each m_lambda of weight w in the p basis, by back substitution.

    In partition order the p-to-m matrix is upper triangular, with
    diagonal entries prod_i m_i(lambda)!: p_lambda expands only into the
    m_mu whose mu merges parts of lambda, and those sort after lambda
    (Macdonald, Symmetric Functions and Hall Polynomials, I.6).  Rows and
    entries come in partition order; an entry below the diagonal, or none
    on it, raises ``InvariantError``.
    """
    lams = sorted(partitions(w))
    out = {}
    for lam in reversed(lams):
        expansion = dict(_p_lambda_in_m(lam))
        diag = expansion.pop(lam, 0)
        if not diag or any(nu < lam for nu in expansion):
            raise InvariantError("p-to-m matrix of weight %d is not upper triangular" % w)
        row = {lam: 1}
        for nu, c in expansion.items():
            add_into(row, out[nu], -c)
        out[lam] = {mu: divide(row[mu], diag) for mu in sorted(row)}
    return {lam: out[lam] for lam in lams}


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


def d_classes(D):
    """d-series in the c-generators, from the alternating/plain quotient."""
    return _generating_series("c", D, -1) / _generating_series("c", D)


def d_classes_exp_form(D):
    """The exp-product form prod exp(-2 N_{2i+1}/(2i+1)), converted to c.

    Conversion is a ring homomorphism and keeps weights, so the integral
    argument sum -2 N_k over odd k is converted and ``exp_scaled``, which
    divides component k by k, takes the exponential in the c basis.
    """
    arg = GradedPolynomial({((gen_id("N", k), 1),): -2 for k in range(1, D + 1, 2)})
    in_e = _convert_multiplicative(arg, P, E)
    return TruncatedSeries.from_polynomial(in_e, D).exp_scaled()


def a_classes(D):
    """a-series in the b-generators: (sum b_i)(sum (-1)^i b_i)."""
    return _generating_series("b", D) * _generating_series("b", D, -1)


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
#
# Symm (x) Symm is one polynomial ring: the right factor's Chern classes
# take the spare family _RIGHT, so the coproduct is one substitution.

_RIGHT = "r"
# the gids of c_k and of its right-hand copy differ by this, whatever k is
_RIGHT_OFFSET = gen_id(_RIGHT, 1) - gen_id("c", 1)


def _coproduct_c(n):
    """Delta c_n = sum_{i+j=n} c_i (x) c_j as a polynomial in Symm (x) Symm."""
    left = [()] + [((gen_id("c", i), 1),) for i in range(1, n + 1)]
    right = [()] + [((gen_id(_RIGHT, j), 1),) for j in range(1, n + 1)]
    return GradedPolynomial({tuple(sorted(left[i] + right[n - i])): 1 for i in range(n + 1)})


def _tensor_pair(mon):
    """The pair (left, right) of E-monomials of a monomial of Symm (x) Symm."""
    left, right = [], []
    for gid, e in mon:
        if gid_family(gid) == _RIGHT:
            right.append((gid - _RIGHT_OFFSET, e))
        else:
            left.append((gid, e))
    return tuple(left), tuple(right)


def coproduct(f):
    """Coproduct in the E basis, its terms keyed by (left, right) pairs of E-monomials."""
    poly = convert(f, E).value
    images = {gid: _coproduct_c(gid_index(gid)) for mon in poly.terms for gid, _ in mon}
    delta = poly.substitute(images)
    return LinearCombination({_tensor_pair(mon): c for mon, c in delta.terms.items()})


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

    The N_k are primitive, so each key (left, right) of the coproduct of
    a P-monomial p_lambda has left * right = p_lambda.  Distinct
    monomials thus have coproduct defects with disjoint supports, no
    combination cancels a nonzero defect, and the primitives are spanned
    by the model's P-monomials with zero defect, converted to E.  BUmodSO
    is generated by the odd N's and has primitives only in odd weights
    (topological degree 2 mod 4); BU is generated by all of them and has
    the primitive N_k in every weight.
    """
    if k < 1:
        return []
    if model not in (BU, BU_MOD_SO):
        raise ValueError("unknown model %r" % model)
    mons = [
        partition_monomial(P, lam)
        for lam in sorted(partitions(k))
        if model == BU or all(p % 2 == 1 for p in lam)
    ]
    return [
        convert(SymmFn(P, GradedPolynomial({mon: 1})), E)
        for mon in mons
        if not _primitive_defect(_coproduct_p_monomial(mon), {mon: 1})
    ]


def _coproduct_p_monomial(mon):
    """Coproduct of a P-basis monomial: the N_k are primitive."""
    result = {((), ()): 1}
    for gid, e in mon:
        new = {}
        for (left, right), c in result.items():
            for a in range(e + 1):
                lm = left + ((gid, a),) if a else left
                rm = right + ((gid, e - a),) if e - a else right
                key = (tuple(sorted(lm)), tuple(sorted(rm)))
                add_into(new, {key: c * comb(e, a)})
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
