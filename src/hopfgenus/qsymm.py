"""Quasisymmetric and noncommutative symmetric functions.

QSymm elements live in the monomial basis M_alpha indexed by
compositions; the product is the quasi-shuffle (stuffle).  NSymm is the
free associative algebra on generators Z_n (words of positive integer
weights).  The abelianization sends the word (i_1,...,i_k) to
h_{i_1}...h_{i_k}; its dual is the inclusion Symm -> QSymm sending
m_lambda to the sum of the distinct rearrangements of lambda.

Compositions are plain tuples of positive integers, serialized as
``(2,1,3)``.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

from .core import GradedPolynomial, InvariantError, LinearCombination, PowerSeries1, add_into
from .rational import canonical
from . import symm


def check_composition(alpha):
    if any(p < 1 for p in alpha):
        raise ValueError("composition parts must be positive: %r" % (alpha,))
    return tuple(alpha)


def parse_composition(text):
    text = text.strip()
    inner = text[1:-1].strip()
    try:
        parts = tuple(int(p) for p in inner.split(",")) if inner else ()
    except ValueError:
        parts = None
    if parts is None or not (text.startswith("(") and text.endswith(")")):
        raise ValueError("composition must look like (2,1,3): %r" % text)
    return check_composition(parts)


def format_composition(alpha):
    return "(%s)" % ",".join(str(p) for p in alpha)


class QSymmElement(LinearCombination):
    """Linear combination of monomial quasisymmetric functions M_alpha."""

    __slots__ = ()

    @classmethod
    def monomial(cls, alpha, coeff=None):
        return cls({check_composition(alpha): 1 if coeff is None else canonical(coeff)})

    def __mul__(self, other):
        return quasi_shuffle(self, other)

    def __repr__(self):
        items = sorted(self.terms.items())
        return " + ".join(
            "%s*M%s" % (c, format_composition(a)) for a, c in items
        ) or "0"


@lru_cache(maxsize=1 << 16)
def _qs_words(alpha, beta):
    """Quasi-shuffle of two compositions: tuple of (composition, count)."""
    if not alpha:
        return ((beta, 1),)
    if not beta:
        return ((alpha, 1),)
    out = {}
    a, arest = alpha[0], alpha[1:]
    b, brest = beta[0], beta[1:]
    for head, left, right in ((a, arest, beta), (b, alpha, brest), (a + b, arest, brest)):
        add_into(out, (((head,) + w, c) for w, c in _qs_words(left, right)))
    return tuple(sorted(out.items()))


def quasi_shuffle(x, y):
    """Quasi-shuffle (stuffle) product on QSymm."""
    out = {}
    for alpha, ca in x.terms.items():
        for beta, cb in y.terms.items():
            c = ca * cb
            add_into(out, ((w, c * mult) for w, mult in _qs_words(alpha, beta)))
    return QSymmElement(out)


def deconcatenation_coproduct(x):
    """Delta M_alpha = sum over splits alpha = beta.gamma of M_beta (x) M_gamma.

    Returned as a dict (beta, gamma) -> coefficient.
    """
    out = {}
    for alpha, c in x.terms.items():
        add_into(out, (((alpha[:i], alpha[i:]), c) for i in range(len(alpha) + 1)))
    return out


def pairing(word, x):
    """Duality pairing <word, M_alpha> = delta_{word, alpha}, extended."""
    return x.terms.get(tuple(word), 0)


def symm_into_qsymm(f):
    """Inclusion Symm -> QSymm: m_lambda -> sum of distinct rearrangements."""
    f = symm.convert(f, symm.M)
    out = {}
    for mon, coeff in f.value.terms.items():
        lam = symm.monomial_partition(mon)
        add_into(out, ((alpha, coeff) for alpha in set(permutations(lam))))
    return QSymmElement(out)


class NSymmElement(LinearCombination):
    """Element of the free associative algebra on generators Z_n."""

    __slots__ = ()

    @classmethod
    def word(cls, w, coeff=None):
        return cls({check_composition(w): 1 if coeff is None else canonical(coeff)})

    def __mul__(self, other):
        out = {}
        for w1, c1 in self.terms.items():
            add_into(out, ((w1 + w2, c1 * c2) for w2, c2 in other.terms.items()))
        return NSymmElement(out)

    def __repr__(self):
        items = sorted(self.terms.items())
        return " + ".join(
            "%s*Z%s" % (c, format_composition(w)) for w, c in items
        ) or "0"


def abelianize(x):
    """Ring map NSymm -> Symm sending the word (i_1,..,i_k) to h_{i1}...h_{ik}."""
    out = {}
    for word, c in x.terms.items():
        add_into(out, {symm.partition_monomial(symm.H, word): c})
    return symm.SymmFn(symm.H, GradedPolynomial(out))


# ---------------------------------------------------------------------------
# generator profiles, Lyndon words, Hilbert series


@dataclass(frozen=True)
class GeneratorProfile:
    """Set of allowed generator weights: start + step arithmetic families or
    an explicit finite set."""

    start: int = 1
    step: int = 1
    explicit: tuple = None

    def __post_init__(self):
        if self.explicit is not None:
            if not self.explicit or any(w < 1 for w in self.explicit):
                raise ValueError("explicit profile must be nonempty positive")
            # one letter per weight: the Lyndon words tell letters apart by weight
            repeated = [w for w in self.explicit if self.explicit.count(w) > 1]
            if repeated:
                raise ValueError("explicit profile repeats weight %d" % repeated[0])
        elif self.start < 1 or self.step < 1:
            raise ValueError("profile weights must be positive")

    def weights_upto(self, n):
        if self.explicit is not None:
            return [w for w in sorted(self.explicit) if w <= n]
        return list(range(self.start, n + 1, self.step))

    @classmethod
    def all_positive(cls):
        return cls(1, 1)

    @classmethod
    def odd_from(cls, start):
        if start % 2 == 0:
            raise ValueError("odd profile must start at an odd weight")
        return cls(start, 2)

    @classmethod
    def from_text(cls, text):
        """'all', 'odd:3', 'arith:5:4' or 'set:3,5,7'."""
        text = text.strip()
        if text == "all":
            return cls.all_positive()
        kind, _, body = text.partition(":")
        try:
            if kind == "odd":
                start = int(body)
            elif kind == "arith":
                start, step = map(int, body.split(":"))
            elif kind == "set":
                weights = tuple(int(w) for w in body.split(","))
        except ValueError as exc:
            raise ValueError("cannot parse profile %r" % text) from exc
        if kind == "odd":
            return cls.odd_from(start)
        if kind == "arith":
            return cls(start, step)
        if kind == "set":
            return cls(explicit=weights)
        raise ValueError("cannot parse profile %r" % text)


def lyndon_generators(n, profile=None):
    """Lyndon words of total weight n over the profile alphabet, in
    lexicographic order.

    Letters are compared by weight; a Lyndon word is strictly smaller
    than all of its proper rotations.  Words are grown as prenecklaces
    by the Fredricksen-Kessler-Maiorana recursion (Ruskey, Savage and
    Wang, Generating necklaces, J. Algorithms 13 (1992)) within the
    weight budget n; a prenecklace is Lyndon exactly when its period
    equals its length.
    """
    if n < 1:
        raise ValueError("weight must be positive")
    if profile is None:
        profile = GeneratorProfile.all_positive()
    alphabet = profile.weights_upto(n)
    out = []
    word = []

    def extend(period, weight):
        if weight == n:
            if period == len(word):
                out.append(tuple(word))
            return
        ref = word[-period] if word else 0
        for a in alphabet:
            if weight + a > n:
                break
            if a < ref:
                continue
            word.append(a)
            extend(period if a == ref else len(word), weight + a)
            word.pop()

    extend(1, 0)
    return out


def free_algebra_hilbert(profile, bound, flavor="associative"):
    """Per-degree dimensions of free algebras on the profile's generators.

    flavors: 'associative' (word counts), 'lie' (free graded Lie algebra
    dimensions derived from the associative series), or
    'polynomial-on-lyndon' (free commutative algebra on Lyndon words).
    By the Chen-Fox-Lyndon factorisation every word is uniquely a
    nonincreasing product of Lyndon words, so the last flavour equals
    the associative one; it is counted from the generated words, as one
    factor (1 - t^w)^(-l_w) per weight w with l_w Lyndon words.
    """
    if bound < 1:
        raise ValueError("bound must be positive")
    assoc = word_series(profile.weights_upto(bound), bound)
    if flavor == "associative":
        return assoc
    if flavor == "lie":
        # PBW: prod_n (1 - t^n)^(-l_n) = assoc series; peel the l_n off
        # degree by degree via the logarithm.
        logA = _log_int_series(assoc, bound)
        # n * [t^n] log A = sum_{d | n} d * l_d
        lie = [0] * (bound + 1)
        for n in range(1, bound + 1):
            s = sum(d * lie[d] for d in range(1, n) if n % d == 0)
            val = logA[n] - s
            if val != int(val) or int(val) % n:
                raise InvariantError(
                    "free Lie dimension in degree %d is not an integer: %s / %d"
                    % (n, val, n)
                )
            lie[n] = int(val) // n
        return lie
    if flavor == "polynomial-on-lyndon":
        # (1 - t^w)^(-l) = sum_k C(l + k - 1, k) t^(k w)
        out = [1] + [0] * bound
        for w in range(1, bound + 1):
            l = len(lyndon_generators(w, profile))
            if l:
                binom = [math.comb(l + k - 1, k) for k in range(bound // w + 1)]
                out = [sum(binom[k] * out[n - k * w] for k in range(n // w + 1)) for n in range(bound + 1)]
        return out
    raise ValueError("unknown flavor %r" % flavor)


def _log_int_series(coeffs, bound):
    """n [t^n] log A, n = 0..bound, for an integer series A with constant
    term 1: the integers of t A'(t) / A(t)."""
    return PowerSeries1(coeffs[: bound + 1]).log_scaled().coeffs


def word_series(letters, bound):
    """Ordered-word counts: coefficients of 1/(1 - sum t^d)."""
    out = [0] * (bound + 1)
    out[0] = 1
    for n in range(1, bound + 1):
        out[n] = sum(out[n - d] for d in letters if d <= n)
    return out


def polynomial_hilbert(generator_degrees, bound):
    """Coefficients of prod (1 - t^d)^(-1) over the given degrees."""
    out = [0] * (bound + 1)
    out[0] = 1
    for d in generator_degrees:
        if d <= 0:
            raise ValueError("degrees must be positive")
        for n in range(d, bound + 1):
            out[n] += out[n - d]
    return out
