"""Hirzebruch genera, Chern characters and the deformation torsor.

Manifold models carry a truncated-polynomial cohomology ring, whose top
monomial gives the fundamental-class pairing, and the total Chern class of
the (stably complex) tangent bundle.  Genera are evaluated without ever
introducing Chern roots: the multiplicative class of a characteristic
series Q is exp(sum_m l_m N_m(tau)) with l = log Q, taken in the model's
cohomology ring, and the Newton classes are read off one series
logarithm, log c(tau) = sum_k (-1)^(k-1) N_k(tau) / k (Newton's identities).

Both exponentials are ``core``'s one series ``exp``, reduced once (``_ring_exp``).

The deformation torsor multiplies the multiplicative class by
exp(sum_k t_k ch_k(tau)), k odd, ch_k = N_k / k!; parameters add, so the
action is a group law on the nose.  The coaction model pairs cohomology
classes with monomials in the odd d-classes, d = c(conjugate tau) / c(tau).

Data that no request changes is computed once per process, in bounded
``lru_cache``s keyed by value: ``catalog_model`` by name (64), the
coefficients behind ``a_hat_series`` and ``todd_series`` by bound (64
each; every call still returns a fresh series), the log Q coefficients
by Q's exact coefficients up to the dimension (64), and a model's Newton
classes (128, with ``conjugate``) and odd d-classes (64).  The last two
keep only models whose total Chern class has exact coefficients, since
model equality identifies 1 with 1.0; other models are computed on every
call.  Cached values are tuples or read-only mappings.  No genus value,
deformation or coaction is cached.
"""

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache, reduce, wraps
from types import MappingProxyType

from . import symm
from .core import (
    GradedPolynomial,
    ParseError,
    PowerSeries1,
    TruncatedSeries,
    add_into,
    gen_id,
    gid_degree,
    gid_family,
    monomial_degree,
    parse_polynomial,
)
from .homology import SOMEGA, coefficient_ring_series
from .rational import Q, canonical, is_exact

EULER_GAMMA = 0.57721566490153286060651209008240243


# ---------------------------------------------------------------------------
# manifold models


@dataclass(frozen=True)
class ManifoldModel:
    """Cohomology ring + tangent Chern data of a closed manifold.

    generators: (gid, nilpotency) pairs in increasing gid order; each
    generator g = gen_id(sym, 1, real degree) satisfies
    g^(nilpotency+1) = 0.  The tuple is also the volume monomial, the
    product of the top powers, of real degree 2*dim_c.  A product model's
    embeddings map, per factor, factor gids to product gids as sorted
    pairs; a gid not listed is unchanged (see ``product``).
    """

    name: str
    generators: tuple
    total_chern: GradedPolynomial
    embeddings: tuple = ()

    def __post_init__(self):
        if self.total_chern.coefficient(()) != 1:
            raise ValueError("total Chern class needs constant term 1")
        gids = [g for g, _ in self.generators]
        if any(a >= b for a, b in zip(gids, gids[1:])):
            raise ValueError("generators must be listed once each, in increasing gid order")

    @property
    def dim_c(self):
        return monomial_degree(self.generators) // 2

    def reduce(self, poly):
        """Kill monomials with a generator past its nilpotency."""
        nil = dict(self.generators)
        out = {}
        for mon, c in poly.terms.items():
            if all(e <= nil.get(gid, e) for gid, e in mon):
                out[mon] = c
        return GradedPolynomial(out)

    def pairing(self, poly):
        """Evaluation against the fundamental class."""
        return poly.coefficient(self.generators)

    def betti_numbers(self):
        """Dimensions of the cohomology per real degree."""
        out = [0] * (monomial_degree(self.generators) + 1)
        basis = [()]
        for gid, nil in self.generators:
            basis = [b + ((gid, e),) if e else b for b in basis for e in range(nil + 1)]
        for mon in basis:
            out[monomial_degree(mon)] += 1
        return out


def point():
    return ManifoldModel("pt", (), GradedPolynomial.one())


_SYMBOL_POOL = "xyzuvwabcdefg"


def cp(n):
    """Complex projective space: x of degree 2 with x^(n+1) = 0 and
    c(T) = (1+x)^(n+1), that is sum_{k<=n} C(n+1, k) x^k."""
    if n < 0:
        raise ValueError("dimension must be nonnegative")
    if n == 0:
        return point()
    gid = gen_id("x", 1, 2)
    total = GradedPolynomial({((gid, k),) if k else (): math.comb(n + 1, k) for k in range(n + 1)})
    return ManifoldModel("CP%d" % n, ((gid, n),), total)


def product(a, b):
    """Product model; the second factor's generators are renamed on clash."""
    used = {gid_family(gid) for gid, _ in a.generators}
    pool = iter(s for s in _SYMBOL_POOL if s not in used)
    renamed = {}
    for gid, _ in b.generators:
        sym = gid_family(gid)
        sym2 = next(pool, None) if sym in used else sym
        if sym2 is None:
            raise ValueError("%s x %s: no letter left to rename %s; products use the %d letters %r"
                             % (a.name, b.name, sym, len(_SYMBOL_POOL), _SYMBOL_POOL))
        used.add(sym2)
        renamed[gid] = gen_id(sym2, 1, gid_degree(gid))
    return ManifoldModel(
        "%sx%s" % (a.name, b.name),
        tuple(sorted(a.generators + tuple((renamed[g], nil) for g, nil in b.generators))),
        a.total_chern * _rename(b.total_chern, renamed),
        embeddings=((), tuple(sorted(renamed.items()))),
    )


def _rename(poly, renamed):
    """``poly`` with each generator g renamed to ``renamed[g]`` where given."""
    return GradedPolynomial({
        tuple(sorted((renamed.get(g, g), e) for g, e in m)): c for m, c in poly.terms.items()
    })


def embed_factor(model, which, cls):
    """Include a factor's cohomology class into a product model."""
    if not model.embeddings:
        raise ValueError("%s is not a product model" % model.name)
    return _rename(cls, dict(model.embeddings[which]))


def generator_degrees(generators):
    """``parse_polynomial``'s ``degree_of``: ``s[1]`` per symbol s, else ``ParseError``."""
    degs = {gid_family(gid): gid_degree(gid) for gid, _ in generators}

    def degree_of(fam, idx):
        if fam not in degs or idx != 1:
            raise ParseError("unknown generator %s[%d]" % (fam, idx))
        return degs[fam]

    return degree_of


def _json_field(d, key, kind):
    if key not in d:
        raise ValueError("missing key %r" % key)
    v = d[key]
    # bool is an int subclass, but true/false is never a valid number here
    if not isinstance(v, kind) or isinstance(v, bool):
        raise ValueError("%r must be of type %s, got %r" % (key, kind.__name__, v))
    return v


def manifold_from_json(text_or_dict):
    """Load a model from the JSON presentation format.

    Raises ValueError unless the generators are distinct single letters
    of even positive degree with nilpotency at least 1, and the volume
    monomial is the product of their top powers, of real degree 2*dim_c
    (so the ring vanishes above that degree).
    """
    d = json.loads(text_or_dict) if isinstance(text_or_dict, str) else text_or_dict
    if not isinstance(d, dict):
        raise ValueError("a manifold must be a JSON object")
    name = _json_field(d, "name", str)
    dim_c = _json_field(d, "dim_c", int)
    gens = []
    for g in _json_field(d, "generators", list):
        if not isinstance(g, dict):
            raise ValueError("a generator must be a JSON object: %r" % (g,))
        sym = _json_field(g, "sym", str)
        deg = _json_field(g, "deg", int)
        nil = _json_field(g, "nilpotency", int)
        if len(sym) != 1 or not sym.isalpha() or any(sym == gid_family(h) for h, _ in gens):
            raise ValueError("generator symbols must be distinct single letters: %r" % sym)
        if deg <= 0 or deg % 2:
            raise ValueError("generator %s: degree must be even and positive: %d" % (sym, deg))
        if nil < 1:
            raise ValueError("generator %s: nilpotency must be at least 1: %d" % (sym, nil))
        gens.append((gen_id(sym, 1, deg), nil))
    top = tuple(sorted(gens))

    degree_of = generator_degrees(top)
    chern = parse_polynomial(_json_field(d, "total_chern", str), degree_of)
    vol = parse_polynomial(_json_field(d, "volume_monomial", str), degree_of)
    if vol.terms != {top: 1}:
        raise ValueError("the volume monomial must be the product of each generator's top power")
    if monomial_degree(top) != 2 * dim_c:
        raise ValueError("the volume monomial must have real degree 2*dim_c = %d" % (2 * dim_c))
    return ManifoldModel(name, top, chern)


CATALOG = {
    "pt": point,
    "CP1": lambda: cp(1),
    "CP2": lambda: cp(2),
    "CP3": lambda: cp(3),
    "CP4": lambda: cp(4),
    "CP5": lambda: cp(5),
    "CP6": lambda: cp(6),
}


@lru_cache(maxsize=64)
def catalog_model(name):
    """Look up 'CP2' or a product of catalog entries like 'CP1xCP1xCP2'.

    A model is immutable, so each name is built once per process.
    """
    factors = name.split("x")
    if not all(f in CATALOG for f in factors):
        raise KeyError("unknown manifold %r" % name)
    return reduce(product, (CATALOG[f]() for f in factors))


# ---------------------------------------------------------------------------
# Chern characters


def _exact_models_cached(maxsize):
    """Keep f(model, *args) once per process for a model with exact Chern data.

    Model equality identifies 1 with 1.0, so a float or complex model
    would hit an exact model's entry and get values of the wrong kind;
    such a model is computed on every call.  Results are shared between
    callers, so f returns tuples or read-only mappings.
    """

    def wrap(f):
        cached = lru_cache(maxsize=maxsize)(f)

        @wraps(f)
        def call(model, *args):
            exact = all(is_exact(c) for c in model.total_chern.terms.values())
            return (cached if exact else f)(model, *args)

        return call

    return wrap


def _chern_series(model, conjugate=False):
    """c(tau) up to real degree 2*dim_c; c(conjugate tau) negates c_i, i odd."""
    c = TruncatedSeries.from_polynomial(model.total_chern, 2 * model.dim_c)
    return TruncatedSeries([-p if conjugate and d % 4 == 2 else p for d, p in enumerate(c.comps)])


@_exact_models_cached(maxsize=128)
def _newton_classes(model, conjugate=False):
    """(N_1(tau), ..., N_n(tau)), n = dim_c, from t c'(t)/c(t).

    N_k = (-1)^(k-1) k [weight k] log c(tau), and ``log_scaled`` carries
    the real degree: its component 2k is 2k times that of log c, so each
    N_k is that component divided exactly by (-1)^(k-1) 2.
    """
    scaled = _chern_series(model, conjugate).log_scaled()
    n = model.dim_c
    return tuple(model.reduce(scaled.comps[2 * k] / ((-1) ** (k - 1) * 2)) for k in range(1, n + 1))


def _ch_from_newton(newton, k):
    """ch_k = N_k / k! for k >= 1; zero above the dimension."""
    if k > len(newton):
        return GradedPolynomial.zero()
    return newton[k - 1] * Q(1, math.factorial(k))


def chern_character(model, k, conjugate=False):
    """ch_k(tau) = N_k(tau)/k! in the model's cohomology."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return GradedPolynomial.constant(Q(model.dim_c))
    return _ch_from_newton(_newton_classes(model, conjugate), k)


def diagonal_vanishing_check(model, k):
    """ch_k(TM) + ch_k(conjugate TM) = 0 (true for odd k)."""
    total = chern_character(model, k) + chern_character(model, k, conjugate=True)
    return not total.terms


def primitivity_check(a, b, k):
    """ch_k(T(MxN)) = ch_k(TM) (x) 1 + 1 (x) ch_k(TN), k odd."""
    if k < 1 or k % 2 == 0:
        raise ValueError("primitivity is an odd-k statement; got k=%d" % k)
    prod = product(a, b)
    lhs = chern_character(prod, k)
    rhs = embed_factor(prod, 0, chern_character(a, k)) + embed_factor(
        prod, 1, chern_character(b, k)
    )
    return lhs == rhs


# ---------------------------------------------------------------------------
# genera


def a_hat_series(bound):
    """Q(x) = (x/2)/sinh(x/2) over the rationals."""
    return PowerSeries1(_a_hat_coeffs(bound))


@lru_cache(maxsize=64)
def _a_hat_coeffs(bound):
    coeffs = [Q(0)] * (bound + 1)
    for k in range(0, bound + 1, 2):
        # sinh(x/2)/(x/2) has [x^2k] = 1/(4^k (2k+1)!)
        coeffs[k] = Q(1, 4 ** (k // 2) * math.factorial(k + 1))
    return tuple(PowerSeries1(coeffs).inverse().coeffs)


def todd_series(bound):
    """Q(x) = x/(1 - e^{-x})."""
    return PowerSeries1(_todd_coeffs(bound))


@lru_cache(maxsize=64)
def _todd_coeffs(bound):
    denom = [Q((-1) ** k, math.factorial(k + 1)) for k in range(bound + 1)]
    return tuple(PowerSeries1(denom).inverse().coeffs)


def series_from_exponential(f):
    """Characteristic series Q_f(x) = x/f(x) of a genus exponential."""
    if f.coeffs[0] != 0 or f.coeffs[1] != 1:
        raise ValueError("exponential must start x + ...")
    return PowerSeries1(f.coeffs[1:]).inverse()


def multiplicative_class(model, q_series):
    """prod Q(x_i) specialized to the model's Chern data, exactly."""
    return _ring_exp(model, _exp_argument(model, q_series))


def genus(model, q_series):
    """Hirzebruch genus of the model for the characteristic series Q."""
    return model.pairing(multiplicative_class(model, q_series))


def genus_from_exponential(f, n):
    """Value on CP^n from the exponential alone: (n+1) [x^{n+1}] f^{-1}."""
    if n == 0:
        return 1 if is_exact(f.coeffs[1]) else 1.0
    if f.bound < n + 1:
        raise ValueError("exponential truncated below degree %d" % (n + 1))
    g = PowerSeries1(f.coeffs[: n + 2]).compose_inverse()
    return canonical((n + 1) * g.coeffs[n + 1])


def gamma_exponential(bound, zeta_source):
    """1/Gamma(x) = x exp(gamma x - sum_{k>=2} (-1)^k zeta(k) x^k / k)."""
    if bound < 1:
        raise ValueError("bound must be at least 1")
    s = [0, zeta_source.gamma]
    for k in range(2, bound):
        s.append(-((-1) ** k) * zeta_source.zeta(k) / k)
    e = PowerSeries1(s).exp()
    return PowerSeries1([0] + e.coeffs[: bound])


class NumericZetaSource:
    """gamma and zeta(k) as floats, zeta via the certified evaluator."""

    def __init__(self, target_error=1e-12):
        self.gamma = EULER_GAMMA
        self._target = target_error

    def zeta(self, k):
        from .mzv import mzv_eval

        return mzv_eval((k,), self._target).value


# ---------------------------------------------------------------------------
# the deformation torsor


def _check_deformation_indices(indices):
    for k in indices:
        if k < 1 or k % 2 == 0:
            raise ValueError("deformation indices must be odd >= 1: %d" % k)


@dataclass(frozen=True)
class DeformationParameters:
    """Finitely supported map k -> t_k for odd k >= 1.

    t_k carries the bookkeeping degree tag 2k (= 4(k-1)/2 + 2); addition
    is entrywise, making the parameters a group.
    """

    entries: tuple = ()

    def __post_init__(self):
        _check_deformation_indices(k for k, _ in self.entries)

    @classmethod
    def from_dict(cls, d):
        coerced = {
            int(k): canonical(Q(v) if isinstance(v, (str, int)) else v)
            for k, v in d.items()
        }
        _check_deformation_indices(coerced)  # zero-valued ones too, before they are dropped
        return cls(tuple(sorted((k, v) for k, v in coerced.items() if v != 0)))

    def as_dict(self):
        return dict(self.entries)

    def __add__(self, other):
        return DeformationParameters.from_dict(add_into(self.as_dict(), other.entries))

    @classmethod
    def zero(cls):
        return cls()


def _numeric_kind(values):
    """None (exact), float, or complex, for a list of parameter values."""
    kind = None
    for v in values:
        if isinstance(v, complex):
            return complex
        if not is_exact(v):
            kind = float
    return kind


def _exp_argument(model, q_series=None, params=DeformationParameters(), include_ch1=True):
    """sum_m l_m N_m(tau) + sum_k t_k ch_k(tau), with l = log Q.

    Its ring exp is the class prod Q(x_i) times exp(sum_k t_k ch_k): the
    cohomology ring is commutative.  Each term ch_k * t_k has t_k's kind
    (N_k * (t_k / k!) measured less accurate).
    """
    n = model.dim_c
    newton = _newton_classes(model)
    arg = {}
    if q_series is not None and n:
        if q_series.bound < n:
            raise ValueError("series truncated below the dimension")
        if not all(is_exact(c) for c in q_series.coeffs):
            raise ValueError("multiplicative_class needs exact coefficients")
        l = _log_coeffs(tuple(q_series.coeffs[: n + 1]))
        for m, nm in enumerate(newton, 1):
            add_into(arg, (nm * l[m]).terms)
    for k, v in params.entries:
        if include_ch1 or k != 1:
            add_into(arg, (_ch_from_newton(newton, k) * v).terms)
    return GradedPolynomial(arg)


@lru_cache(maxsize=64)
def _log_coeffs(coeffs):
    """The coefficients of log Q, for Q's exact coefficients up to the dimension."""
    return tuple(PowerSeries1(coeffs).log().coeffs)


def deformation_exponential(model, params, include_ch1=True):
    """exp(sum_k t_k ch_k(tau)), a unit in the cohomology ring; its constant term is the int 1."""
    return _ring_exp(model, _exp_argument(model, params=params, include_ch1=include_ch1))


def _ring_exp(model, arg):
    """exp(arg) in the model's cohomology, arg without constant term.

    The series exp up to real degree 2*dim_c, where the ring vanishes; the
    nilpotency relations span a monomial ideal, so one ``reduce`` at the end is exact.
    """
    series = TruncatedSeries.from_polynomial(arg, 2 * model.dim_c).exp()
    # the components have disjoint degrees, so their terms merge without sums
    return model.reduce(GradedPolynomial({m: c for t in series.comps for m, c in t.terms.items()}))


def deform_genus(model, q_series, params, include_ch1=True):
    """Pairing of exp(sum t_k ch_k) . (class of Q) with [M], taken as
    one ring exp of the summed arguments."""
    kind = _numeric_kind([v for _, v in params.entries])
    # the pairing reads only the volume monomial, which reduce never drops;
    # an absent one is the int 0, so it takes t's kind too
    value = model.pairing(_ring_exp(model, _exp_argument(model, q_series, params, include_ch1)))
    return value if kind is None else kind(value)


@dataclass(frozen=True)
class DeformedGenus:
    """A characteristic series together with accumulated deformations."""

    q_series: PowerSeries1 = field(hash=False)
    params: DeformationParameters = DeformationParameters()

    def deform(self, more):
        return DeformedGenus(self.q_series, self.params + more)

    def evaluate(self, model, include_ch1=True):
        return deform_genus(model, self.q_series, self.params, include_ch1)


# ---------------------------------------------------------------------------
# morphism-module series and the coaction model


def morphism_module_series(model, bound):
    """Betti series of M convolved with the sOmega coefficient series."""
    betti = model.betti_numbers()
    somega = coefficient_ring_series(SOMEGA, bound)
    return [
        sum(betti[i] * somega[n - i] for i in range(min(n, len(betti) - 1) + 1))
        for n in range(bound + 1)
    ]


@_exact_models_cached(maxsize=64)
def _d_class_images(model):
    """Odd d-classes d_j(tau), j <= dim_c, of d = c(conjugate tau) / c(tau),
    as a read-only mapping j -> d_j."""
    d = _chern_series(model, conjugate=True) / _chern_series(model)
    return MappingProxyType({j: model.reduce(d.comps[2 * j]) for j in range(1, model.dim_c + 1, 2)})


def _alpha_partitions(max_tag, dvals):
    """The alphas of ``coaction``: partitions of w <= max_tag / 2 into the
    odd indices of ``dvals``, as sorted (index, multiplicity) tuples,
    ordered by tag 2*w and then by alpha."""
    top = max(dvals, default=0)
    out = []
    for w in range(max_tag // 2 + 1):
        out += sorted(
            tuple(sorted(Counter(lam).items()))
            for lam in symm.partitions(w, top)
            if all(p in dvals for p in lam)
        )
    return out


def coaction(model, cls, bound):
    """psi(x) = sum_alpha x . P_alpha(d-classes) (x) beta_alpha.

    Returns a dict alpha -> cohomology class, alpha a sorted tuple of
    (odd index j, multiplicity); beta_alpha is the dual monomial basis
    of Q[y_{4i+2}] and carries polynomial degree 2*sum(j m_j) <= bound.
    ``cls`` is first reduced into the model's ring, and the alpha = ()
    component is that reduced class, zero included.
    """
    dvals = _d_class_images(model)
    out = {(): model.reduce(cls)}
    # alpha extends its parent, alpha less one d_j of its largest j, which
    # comes earlier; tags above 2*dim_c vanish in the ring, so alpha stops there.
    for alpha in _alpha_partitions(min(bound, 2 * model.dim_c), dvals)[1:]:
        j, m = alpha[-1]
        parent = out.get(alpha[:-1] + (((j, m - 1),) if m > 1 else ()))
        if parent is not None:
            comp = model.reduce(parent * dvals[j])
            if comp.terms:
                out[alpha] = comp
    return out


def counit_check(model, cls, bound):
    """counit . coaction = identity: the beta_() component is x in the ring."""
    return coaction(model, cls, bound)[()] == model.reduce(cls)


def _add_alpha(a, b):
    d = dict(a)
    for j, m in b:
        d[j] = d.get(j, 0) + m
    return tuple(sorted(d.items()))


def _alpha_tag(a):
    return sum(2 * j * m for j, m in a)


def coassociativity_check(model, cls, bound):
    """(psi (x) id) psi = (id (x) Delta) psi up to the retained degree."""
    psi = coaction(model, cls, bound)
    lhs = {}
    for alpha, comp in psi.items():
        inner = coaction(model, comp, bound - _alpha_tag(alpha))
        for alpha2, comp2 in inner.items():
            if comp2.terms:
                lhs[(alpha2, alpha)] = comp2
    rhs = {}
    for gamma, comp in psi.items():
        # Delta beta_gamma = sum over splits gamma = a' + a''
        splits = [((), ())]
        for j, m in gamma:
            splits = [
                (_add_alpha(a1, ((j, m1),)) if m1 else a1,
                 _add_alpha(a2, ((j, m - m1),)) if m - m1 else a2)
                for a1, a2 in splits
                for m1 in range(m + 1)
            ]
        for key in splits:
            add_into(rhs.setdefault(key, {}), comp.terms)
    rhs = {k: GradedPolynomial(v) for k, v in rhs.items() if v}
    return lhs == rhs
