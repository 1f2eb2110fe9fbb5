"""Certified numerical multizeta values and the zeta specialization.

Index convention: M_{(s_1,...,s_k)} specializes (x_k -> 1/k) to

    zeta(s_1,...,s_k) = sum_{i_1 < ... < i_k} i_1^{-s_1} ... i_k^{-s_k}

with *increasing* summation indices, matching the quasisymmetric
monomials literally.  The classical decreasing-index convention is the
reversed composition.  An index is admissible iff the exponent attached
to the largest index (the last entry) is at least 2.

Depth 1 truncates sum_i i^{-s} at N, sums the head in 80-bit long
doubles and squeezes the tail between the trapezoid and midpoint
integral comparisons (the first Euler-Maclaurin correction).

Depth >= 2 is summed exactly.  The reversed composition (a_1,...,a_k),
a_1 = s_k >= 2, has the word w = x0^{a_1-1} x1 ... x0^{a_k-1} x1 =
e_1...e_n over the letters 0 (dt/t) and 1 (dt/(1-t)), and zeta(w) is
their iterated integral over 1 > t_1 > ... > t_n > 0.  Splitting that
simplex at t = 1/2 and substituting t -> 1-t on the upper part gives
the Hoelder convolution at p = 2 (Borwein, Bradley, Broadhurst and
Lisonek, Trans. AMS 353 (2001)):

    zeta(w) = sum_{j=0}^{n} Li_{dual(e_1...e_j)}(1/2) Li_{e_{j+1}...e_n}(1/2)

where dual reverses a word and swaps 0 and 1, so dual(e_1...e_j) is the
suffix of length j of dual(w).  A word ending in 1 has an index
(c_1,...,c_m), one entry per block x0^{c-1} x1, and

    Li_c(1/2) = sum_{n_1 > ... > n_m >= 1} 2^{-n_1} n_1^{-c_1} ... n_m^{-c_m}

(Li of the empty word is 1).  Every factor is nonnegative, so products
of lower (upper) ends of the factors bound zeta(w) from below (above).

The suffix starting inside block i is (t, c_{i+1},...,c_m) with
1 <= t <= c_i, and

    Li_{t,c_{i+1},...,c_m}(1/2) = sum_{n>=1} 2^{-n} n^{-t} Q_{i+1}(n-1),
    Q_i(n) = Q_i(n-1) + n^{-c_i} Q_{i+1}(n-1),  Q_{m+1} = 1,

so all suffixes share the nested partial sums Q.  The sweep runs one
level at a time, from level m to level 1, over n = 1..M with
M = min(N, B + 1).  Level i divides the list Q_{i+1}(n-1), n = 1..M, by
n once per t; each quotient list, scaled by 2^{-n} and summed, is the
head of the suffix (t, c_{i+1},...), and the running sums of the last
one are the Q_i(n-1) that level i-1 divides.  A level depends only on
the index suffix (c_i,...,c_m), so a word and its dual, and the words of
one QSymm element, compute a shared level once.  All quantities are
Python integers scaled by 2^B and rounded by floor division only, so
each is a lower bound.

The cut at M drops only zero terms.  A depth-d suffix sum, whose
exponents are all at least 1, satisfies

    Q(n-1) <= e_d(1, 1/2, ..., 1/(n-1)) <= H_{n-1}^d / d! <= e^{H_{n-1}}
           <= e (n-1)

(H_k <= 1 + ln k), and the floors only lower it, so every floored
quotient at n is below e 2^B < 2^n once n >= B + 2, and its head term
v >> n is 0.  A level's inputs at n <= B + 1 are prefix sums of the
level below over k <= B, so nothing past B + 1 is read.  The heads are
therefore those of the sweep to N, bit for bit, and N only sizes the
widths below.

The floors are those of the recursion in n, taken in the same order, so
the rounding count is that of a sweep to N: a floor loses less than one
unit, and a loss e in Q_{i+1}(n-1) costs at most e/n after division by
n^{c_i}; by induction a Q with r levels is less than r*n units short
after n steps.  A term of a depth-r suffix is then short by less than
1 + (r-1)/2^n units and its head by less than N + r - 1 units.  Tail
bound: Q_{i+1}(n-1) is a sum of at most C(n-1, r-1) <= n^{r-1}
products that are each at most 1, so the tail after N is at most
sum_{n>N} n^{r-1} 2^{-n} <= 4 (N+1)^{r-1} 2^{-N-1} once
2 (N+2)^{r-1} <= 3 (N+1)^{r-1} (successive terms shrink by 3/4).  The
upper end of each factor is its lower end plus both counts.

B and N are sized once, so that these bounds meet the target and each
word is summed once; the depth >= 2 terms of a QSymm element share one B
and one N.  The sums stay exact intervals, a rational center and radius:
the stuffle check compares their ends exactly, and each is rounded once,
for output, into a CertifiedReal: the value is the float nearest its
midpoint, the radius the distance to the farther end, rounded up and at
least one ulp of the value.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from operator import floordiv, rshift

from .core import InvariantError

_BLOCK = 1 << 21
MAX_TERMS = 1 << 27


class DivergentIndexError(ValueError):
    """Raised for inadmissible indices (divergent nested sum)."""

    def __init__(self, offending):
        self.offending = list(offending)
        super().__init__(
            "divergent multizeta index (last exponent must be >= 2): %s"
            % ", ".join(str(tuple(a)) for a in self.offending)
        )


class PrecisionError(RuntimeError):
    """Requested error bound not reachable: beyond the term budget at
    depth 1, below the resolution of a float value at depth >= 2."""


def _div_up(num, den):
    """The least float >= num / den, for integers num >= 0 and den > 0."""
    f = num / den  # int / int is correctly rounded, as float(Fraction) is
    a, b = f.as_integer_ratio()
    return f if a * den >= num * b else math.nextafter(f, math.inf)


def _enclose(center, radius):
    """CertifiedReal of the exact interval center +/- radius (rationals).

    Rounds on the integer numerators and denominators: the value is
    p / q and the bound radius + |value - p / q| over one denominator.
    """
    p, q = center.numerator, center.denominator
    a, b = radius.numerator, radius.denominator
    value = p / q
    m, d = value.as_integer_ratio()
    bound = _div_up(a * d * q + b * abs(m * q - p * d), b * d * q)
    return CertifiedReal(value, max(bound, math.ulp(value)))


@dataclass(frozen=True)
class CertifiedReal:
    """A float with a rigorous symmetric error enclosure.

    The output record of an evaluation: sums and products are formed on
    exact intervals before it, not on it.
    """

    value: float
    error_bound: float

    def contains(self, x):
        return abs(self.value - x) <= self.error_bound


def is_admissible(idx):
    idx = tuple(idx)
    return bool(idx) and all(s >= 1 for s in idx) and idx[-1] >= 2


def _check_index(idx):
    idx = tuple(idx)
    # bool is an int subclass, but True is never an index entry
    if not idx or any(not isinstance(s, int) or isinstance(s, bool) or s < 1 for s in idx):
        raise ValueError("index entries must be positive integers: %r" % (idx,))
    if idx[-1] < 2:
        raise DivergentIndexError([idx])
    return idx


def _integral(a, s):
    """integral_a^inf x^-s dx for s > 1."""
    return a ** (1.0 - s) / (s - 1.0)


def _zeta_tail_enclosure(s, N):
    """Enclosure (mid, rad) of sum_{i>N} i^-s, first EM correction."""
    fN1 = float(N + 1) ** (-s)
    lower = _integral(N + 1.0, s) + fN1 / 2.0
    upper = _integral(N + 0.5, s)
    return (lower + upper) / 2.0, (upper - lower) / 2.0 + 1e-18


def _pow_sum(N, s):
    """sum_{i<=N} i^-s in long doubles, plus a rounding allowance."""
    import numpy as np  # only depth 1 needs it: the package imports without it

    _LD = np.longdouble
    _EPS_LD = float(np.finfo(_LD).eps)
    total = _LD(0)
    for a in range(1, N + 1, _BLOCK):
        b = min(N, a + _BLOCK - 1)
        i = np.arange(a, b + 1, dtype=_LD)
        total += np.sum(i ** _LD(-s))
    slop = 4.0 * _EPS_LD * math.log(N + 1) * max(1.0, float(total))
    return float(total), slop


def _zeta_enclosure(s, target):
    N = 64
    while True:
        mid, rad = _zeta_tail_enclosure(s, N)
        if rad < target / 2.0 or N >= MAX_TERMS:
            break
        N *= 4
    total, slop = _pow_sum(N, s)
    rad_total = rad + slop
    if rad_total > target:
        raise PrecisionError(
            "cannot certify zeta(%d) to %g (best %g)" % (s, target, rad_total)
        )
    return CertifiedReal(total + mid, rad_total)


def _word(index):
    """The {0, 1} word x0^{c_1-1} x1 ... x0^{c_m-1} x1 of a classical index."""
    word = []
    for c in index:
        word += [0] * (c - 1) + [1]
    return word


def _blocks(word):
    """The classical index of a word ending in 1 (inverse of _word)."""
    index, zeros = [], 0
    for e in word:
        if e:
            index.append(zeros + 1)
            zeros = 0
        else:
            zeros += 1
    return index


def _ratio_below_three_quarters(N, r):
    """(1 + 1/(N+1))^(r-1) / 2 <= 3/4: successive tail terms shrink by 3/4."""
    return 2 * (N + 2) ** (r - 1) <= 3 * (N + 1) ** (r - 1)


def _tail_units(N, r, B):
    """Upper bound, in units 2^-B, of sum_{n>N} n^(r-1) 2^-n."""
    if not _ratio_below_three_quarters(N, r):
        raise RuntimeError("N = %d is too small for the depth-%d tail bound" % (N, r))
    x, shift = (N + 1) ** (r - 1), B + 1 - N  # 4 (N+1)^(r-1) 2^(B-N-1)
    return x << shift if shift >= 0 else -(-x >> -shift)


@lru_cache(maxsize=1024)
def _width(N, r, B):
    """Width of each head of a depth-r suffix, in units 2^-B: rounding plus tail."""
    return N + r - 1 + _tail_units(N, r, B)


@lru_cache(maxsize=256)
def _terms(B, r):
    """The least N >= B whose depth-r tail is at most N units 2^-B.

    A plain scan up from B finds it: the tail, 4 (N+1)^(r-1) 2^(B-N-1)
    units, falls to N within about (r - 1) log2(N) + 1 steps.  Calls
    repeat a few (B, r), so the answers are cached.
    """
    N = B
    while not (_ratio_below_three_quarters(N, r) and _tail_units(N, r, B) <= N):
        N += 1
    return N


def _suffix_polylogs(index, B, N, levels):
    """Lower ends and widths (units 2^-B) of Li_u(1/2) for the suffixes u.

    Entry L of each returned list belongs to the suffix of length L of
    the word of ``index``; the empty suffix is exactly 1.  ``levels`` maps
    an index suffix to its level at this B and N: its heads, its last
    quotients and the width of each head.  Levels missing from it are
    computed and added.

    Every level runs over n = 1..min(N, B + 1): from n = B + 2 on each
    head term is 0 and no level below reads its quotients (the lemma in
    the module docstring), so the heads are those of a sweep to N.  N
    still sizes each width.
    """
    index = tuple(index)
    ns = range(1, min(N, B + 1) + 1)
    lower, width = [1 << B], [0]
    quotients = None  # of the level below
    for i in reversed(range(len(index))):
        suffix = index[i:]
        level = levels.get(suffix)
        if level is None:
            # 2^B Q_{i+1}(n-1) for n in ns (map stops at the shorter input)
            v = repeat(1 << B, len(ns)) if quotients is None else accumulate(quotients, initial=0)
            heads = []
            for _ in range(index[i]):
                v = list(map(floordiv, v, ns))  # floor(floor(x / n^t) / n) = floor(x / n^(t+1))
                heads.append(sum(map(rshift, v, ns)))  # one floor: floor(x / (n^(t+1) 2^n))
            level = levels[suffix] = (heads, v, _width(N, len(suffix), B))
        heads, quotients, slack = level
        lower += heads
        width += [slack] * len(heads)
    return lower, width


def _holder_interval(idx, B, N, levels):
    """Integers lo <= 2^(2B) zeta(idx) <= hi (increasing convention)."""
    index = idx[::-1]
    word = _word(index)
    lo_w, dw = _suffix_polylogs(index, B, N, levels)
    lo_d, dd = _suffix_polylogs(_blocks([1 - e for e in reversed(word)]), B, N, levels)
    n = len(word)
    lo = sum(lo_d[j] * lo_w[n - j] for j in range(n + 1))
    hi = sum((lo_d[j] + dd[j]) * (lo_w[n - j] + dw[n - j]) for j in range(n + 1))
    return lo, hi


def _need(slack):
    """The least integer k >= 0 with 2^k slack >= 1, for a rational slack > 0."""
    # bit_length gives the least k with 2^k > (q - 1) // p, that is 2^k p >= q
    return ((slack.denominator - 1) // slack.numerator).bit_length()


def _nested_eval(words, target, center=0, radius=0):
    """Enclosure of center + sum c zeta(idx) over the (idx, c) in ``words``.

    Every idx is admissible, of any depth: the Hoelder convolution holds
    for every admissible word, though ``mzv_eval`` and ``_specialize``
    send only depth >= 2 here.  ``center`` and ``radius`` are exact and
    already enclose the rest of a sum.  All words share one B, one N and
    the levels of their sweeps; the c*lo and c*hi ends are summed exactly.
    Returns the exact (center, radius) and the CertifiedReal that rounds
    it once; PrecisionError if that rounding misses the target.
    """
    slack = Fraction(target) - radius
    r = max(max(len(idx), sum(idx) - len(idx)) for idx, _ in words)  # the deepest suffix
    scale = math.ceil(sum(abs(c) * (sum(idx) + 1) for idx, c in words))
    need = _need(slack)
    B = need + 8
    while True:
        N = _terms(B, r)
        # a factor is at most 1 and its width at most 2N + r units, so the
        # half width of a word is at most (weight + 1)(2N + r + 1) 2^-B:
        # size B for slack / 4
        B_min = need + (4 * scale * (2 * N + r + 1)).bit_length()
        if B >= B_min:
            break
        B = B_min
    levels, lo, hi = {}, 0, 0
    for idx, c in words:
        a, b = _holder_interval(idx, B, N, levels)
        lo, hi = (lo + c * a, hi + c * b) if c > 0 else (lo + c * b, hi + c * a)
    half = Fraction(hi - lo, 1 << (2 * B + 1))
    if half > slack / 4:  # the sizing above rules this out
        raise InvariantError("half width %g exceeds slack / 4 at B = %d" % (half, B))
    exact = (center + Fraction(lo + hi, 1 << (2 * B + 1)), radius + half)
    enc = _enclose(*exact)
    if enc.error_bound > target:
        what = words[0][0] if len(words) == 1 else "a sum of %d multizeta values" % len(words)
        raise PrecisionError(
            "cannot certify %s to %g: the float value %r has radius at least %g"
            % (what, target, enc.value, enc.error_bound)
        )
    return exact, enc


def _check_target(target_error):
    if not 0 < target_error < math.inf:
        raise ValueError("target_error must be positive and finite: %r" % (target_error,))


def mzv_eval(idx, target_error=1e-8):
    """Certified enclosure of a multizeta value.

    Raises DivergentIndexError for inadmissible indices, ValueError for a
    target that is not a positive finite number, and PrecisionError if
    the target cannot be met (at depth 1 within the term budget, at depth
    >= 2 below the resolution of a float value).
    """
    idx = _check_index(idx)
    _check_target(target_error)
    if len(idx) == 1:
        return _zeta_enclosure(idx[0], target_error)
    return _nested_eval([(idx, 1)], target_error)[1]


def _specialize(q, target_error):
    """The exact (center, radius) of zeta(q) and its rounding; see ``zeta_specialize``."""
    bad = [a for a in q.terms if not is_admissible(a)]
    if bad:
        raise DivergentIndexError(sorted(bad))
    _check_target(target_error)
    terms = sorted(q.terms.items())
    center = radius = Fraction(0)
    words = []
    for alpha, coeff in terms:
        c = Fraction(coeff)
        if len(alpha) > 1:
            words.append((alpha, c))
            continue
        enclosure = mzv_eval(alpha, target_error / len(terms) / max(1.0, abs(float(c))))
        center += c * Fraction(enclosure.value)
        radius += abs(c) * Fraction(enclosure.error_bound)
    if words:
        return _nested_eval(words, target_error, center, radius)
    return (center, radius), _enclose(center, radius) if terms else CertifiedReal(0.0, 0.0)


def zeta_specialize(q, target_error=1e-8):
    """The ring homomorphism QSymm -> R on an element with admissible terms.

    Each depth-1 term gets target_error / (number of terms) / max(1, |c|)
    through ``mzv_eval``.  The depth >= 2 terms share the rest of the
    target: one B and one N for all of them, sized once, with each level
    of their sweeps computed once.  The exact rational coefficients scale the
    exact interval ends and the depth-1 enclosures, and the sum is
    rounded once, outward.
    """
    return _specialize(q, target_error)[1]


def homomorphism_check(a, b, target_error=1e-6):
    """Verify zeta(a) zeta(b) = zeta(a * b) (stuffle) on exact intervals.

    The certified sums of a, b and a * b stay exact.  'passed' is True
    when the defect between the center of zeta(a) zeta(b) and that of
    zeta(a * b) is within their radii, compared exactly.  The report
    rounds 'lhs', 'rhs' and 'defect' to nearest once and 'allowed' up;
    'allowed' also covers the rounding of 'lhs' and 'rhs', so each of
    them lies within 'allowed' of the true value.
    """
    from .qsymm import quasi_shuffle

    (ca, ra), _ = _specialize(a, target_error)
    (cb, rb), _ = _specialize(b, target_error)
    (rhs, radius), _ = _specialize(quasi_shuffle(a, b), target_error)
    lhs = ca * cb
    # |x y - ca cb| <= |ca| |y - cb| + |cb| |x - ca| + |x - ca| |y - cb|
    radius += abs(ca) * rb + abs(cb) * ra + ra * rb
    defect = abs(lhs - rhs)
    lhs_f, rhs_f = float(lhs), float(rhs)
    allowed = radius + abs(Fraction(lhs_f) - lhs) + abs(Fraction(rhs_f) - rhs)
    return {
        "lhs": lhs_f,
        "rhs": rhs_f,
        "defect": float(defect),
        "allowed": _div_up(allowed.numerator, allowed.denominator),
        "passed": defect <= radius,
    }
