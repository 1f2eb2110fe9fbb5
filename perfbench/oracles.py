"""Independent oracles for the benchmark's results.

Nothing here calls hopfgenus: every expected value comes from a closed
form, a univariate power-series computation over ``fractions.Fraction``,
brute-force enumeration, or mpmath.  A workload checks each result it
times against one of these.
"""

import itertools
import math
from fractions import Fraction


class OracleError(AssertionError):
    """A result disagrees with its oracle."""


def expect(cond, message):
    if not cond:
        raise OracleError(message)


# ---------------------------------------------------------------------------
# univariate truncated power series over the rationals (lists of Fraction)


def ps_mul(a, b, n):
    out = [Fraction(0)] * (n + 1)
    for i, x in enumerate(a[: n + 1]):
        if x:
            for j, y in enumerate(b[: n + 1 - i]):
                out[i + j] += x * y
    return out


def ps_inverse(a, n):
    if a[0] == 0:
        raise ValueError("series inverse needs a nonzero constant term")
    a = list(a) + [Fraction(0)] * (n + 1 - len(a))
    inv = [Fraction(1) / a[0]]
    for k in range(1, n + 1):
        inv.append(-sum(a[j] * inv[k - j] for j in range(1, k + 1)) / a[0])
    return inv


def ps_exp(a, n):
    """exp of a series with zero constant term."""
    a = list(a) + [Fraction(0)] * (n + 1 - len(a))
    out = [Fraction(1)]
    for k in range(1, n + 1):
        out.append(sum(j * a[j] * out[k - j] for j in range(1, k + 1)) / k)
    return out


def ps_pow(a, e, n):
    out = [Fraction(1)] + [Fraction(0)] * n
    for _ in range(e):
        out = ps_mul(out, a, n)
    return out


# ---------------------------------------------------------------------------
# genera on CP^n: TCP^n + C = (n+1) O(1), so with x the hyperplane class the
# multiplicative class is Q(x)^(n+1) and ch_k(T) = (n+1) x^k / k!


def characteristic_series(name, n):
    """Coefficients of Q(x) through x^n for 'A-hat' or 'Todd'."""
    if name == "A-hat":
        # (x/2)/sinh(x/2) = 1 / sum x^(2k) / (4^k (2k+1)!)
        s = [Fraction(0)] * (n + 1)
        for k in range(0, n + 1, 2):
            s[k] = Fraction(1, 4 ** (k // 2) * math.factorial(k + 1))
        return ps_inverse(s, n)
    if name == "Todd":
        # x/(1 - e^-x) = 1 / sum (-x)^k / (k+1)!
        return ps_inverse([Fraction((-1) ** k, math.factorial(k + 1)) for k in range(n + 1)], n)
    raise ValueError("unknown characteristic series %r" % name)


def cp_genus(n, series, t=None, include_ch1=True):
    """[x^n] exp(sum_k t_k ch_k(TCP^n)) Q(x)^(n+1): the (deformed) genus."""
    if n == 0:
        return Fraction(1)
    arg = [Fraction(0)] * (n + 1)
    for k, v in (t or {}).items():
        if (k == 1 and not include_ch1) or k > n:
            continue
        arg[k] += Fraction(v) * (n + 1) / math.factorial(k)
    total = ps_mul(ps_exp(arg, n), ps_pow(characteristic_series(series, n), n + 1, n), n)
    return total[n]


def product_genus(dims, series, t=None, include_ch1=True):
    """Genera are multiplicative: the value on CP^a x CP^b x ... ."""
    value = Fraction(1)
    for n in dims:
        value *= cp_genus(n, series, t, include_ch1)
    return value


def cp_d_classes(n):
    """[x^j] of d(TCP^n) = ((1 - x)/(1 + x))^(n+1), j = 0..n."""
    ratio = ps_mul([Fraction(1), Fraction(-1)], ps_inverse([Fraction(1), Fraction(1)], n), n)
    return ps_pow(ratio, n + 1, n)


def cp_coaction(n, cls_power, bound):
    """Coaction of x^cls_power on CP^n: {key: (coefficient, power of x)}.

    Components are indexed by multiplicities m_j of the odd d-classes with
    2 sum(j m_j) <= bound; the key spells the dual monomial, as in
    ``y2y6^2``.  Zero components are dropped except the counit one.
    """
    d = cp_d_classes(n)
    odds = list(range(1, n + 1, 2))
    out = {}
    ranges = [range(bound // (2 * j) + 1) for j in odds]
    for mults in itertools.product(*ranges):
        if sum(2 * j * m for j, m in zip(odds, mults)) > bound:
            continue
        key = "".join(
            ("y%d^%d" % (2 * j, m) if m > 1 else "y%d" % (2 * j))
            for j, m in zip(odds, mults)
            if m
        ) or "1"
        power = cls_power + sum(j * m for j, m in zip(odds, mults))
        coeff = Fraction(1)
        for j, m in zip(odds, mults):
            coeff *= d[j] ** m
        if key == "1":
            out[key] = (Fraction(1), cls_power)
        elif power <= n and coeff != 0:
            out[key] = (coeff, power)
    return out


# ---------------------------------------------------------------------------
# symmetric-function identities evaluated at a rational point: a
# weight-homogeneous identity in c_1, c_2, ... holds iff it holds for the
# t-graded univariate specialisation at generic rational values.


def d_series_at(c_values, n):
    """[t^k] C(-t)/C(t), C(t) = 1 + sum c_k t^k, k = 0..n."""
    c = [Fraction(1)] + [Fraction(v) for v in c_values[:n]]
    c_neg = [x if k % 2 == 0 else -x for k, x in enumerate(c)]
    return ps_mul(c_neg, ps_inverse(c, n), n)


def a_series_at(b_values, n):
    """[t^k] B(t) B(-t), B(t) = 1 + sum b_k t^k, k = 0..n."""
    b = [Fraction(1)] + [Fraction(v) for v in b_values[:n]]
    b_neg = [x if k % 2 == 0 else -x for k, x in enumerate(b)]
    return ps_mul(b, b_neg, n)


# ---------------------------------------------------------------------------
# Tor of exterior and square-zero algebras (Koszul duality)


def tor_exterior(degrees, bound):
    """Tor of an exterior algebra on odd generators is polynomial on
    generators in bidegree (1, d): dim Tor_{s,t} counts size-s multisets
    of the degrees summing to t.  Returns {(s, t): dim} with s + t <= bound."""
    out = {}
    s = 0
    while s * (min(degrees) + 1) <= bound:
        for combo in itertools.combinations_with_replacement(degrees, s):
            t = sum(combo)
            if s + t <= bound:
                out[(s, t)] = out.get((s, t), 0) + 1
        s += 1
    return out


def tor_square_zero(degrees, bound):
    """Tor of Q + V with V.V = 0 is the tensor coalgebra on sV: dim
    Tor_{s,t} counts length-s words in the degrees summing to t."""
    out = {(0, 0): 1}
    frontier = {0: 1}
    s = 0
    while frontier:
        s += 1
        nxt = {}
        for t, count in frontier.items():
            for d in degrees:
                if s + t + d <= bound:
                    nxt[t + d] = nxt.get(t + d, 0) + count
        for t, count in nxt.items():
            out[(s, t)] = count
        frontier = nxt
    return out


# ---------------------------------------------------------------------------
# Hilbert series of the named coefficient rings, by brute force


def exterior_counts(degrees, bound):
    out = [0] * (bound + 1)
    for r in range(len(degrees) + 1):
        for sub in itertools.combinations(degrees, r):
            if sum(sub) <= bound:
                out[sum(sub)] += 1
    return out


def multiset_counts(degrees, bound):
    def count(n, avail):
        if n == 0:
            return 1
        if not avail:
            return 0
        head, rest = avail[0], avail[1:]
        return sum(count(n - m * head, rest) for m in range(n // head + 1))

    return [count(n, tuple(sorted(degrees))) for n in range(bound + 1)]


def coefficient_ring_counts(which, bound, polynomial_start):
    ext = exterior_counts(list(range(5, bound + 1, 4)), bound)
    pol = multiset_counts(list(range(polynomial_start, bound + 1, 4)), bound)
    if which == "sOmega":
        return ext
    if which == "KTheoryFiber":
        return [0] + pol[1:]
    if which == "THH":
        return [sum(ext[i] * pol[n - i] for i in range(n + 1)) for n in range(bound + 1)]
    raise ValueError("unknown series %r" % which)


# ---------------------------------------------------------------------------
# free algebras: compositions and Lyndon words


def profile_weights(text, n):
    """Letter weights <= n of a profile string ('all', 'odd:3', 'set:2,5')."""
    if text == "all":
        return list(range(1, n + 1))
    if text.startswith("odd:"):
        return list(range(int(text[4:]), n + 1, 2))
    if text.startswith("arith:"):
        start, step = (int(x) for x in text[6:].split(":"))
        return list(range(start, n + 1, step))
    if text.startswith("set:"):
        return sorted(w for w in (int(x) for x in text[4:].split(",")) if w <= n)
    raise ValueError("unknown profile %r" % text)


def compositions(n):
    """All compositions of n, by choosing cut points."""
    if n == 0:
        yield ()
        return
    for cuts in itertools.product((False, True), repeat=n - 1):
        parts, run = [], 1
        for cut in cuts:
            if cut:
                parts.append(run)
                run = 1
            else:
                run += 1
        parts.append(run)
        yield tuple(parts)


def word_counts(weights, bound):
    """Number of words in the weighted letters of each total weight."""
    allowed = set(weights)
    return [sum(1 for c in compositions(n) if set(c) <= allowed) for n in range(bound + 1)]


def lie_dims_consistent(lie, assoc):
    """PBW: prod_n (1 - t^n)^(-lie_n) must equal the word-count series."""
    bound = len(assoc) - 1
    series = [1] + [0] * bound
    for n in range(1, bound + 1):
        for _ in range(lie[n]):
            for k in range(n, bound + 1):
                series[k] += series[k - n]
    return series == list(assoc) and lie[0] == 0


def _mobius(n):
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def lyndon_count(weights, n):
    """Number of Lyndon words of total weight n (generalised Witt formula).

    With f(t) = sum t^w over letters, N c_N = sum_{d | N} d L(d) where
    c_N = [t^N] sum_k f(t)^k / k, so L(n) = (1/n) sum_{d|n} mu(n/d) d c_d.
    """
    f = [Fraction(0)] * (n + 1)
    for w in weights:
        if w <= n:
            f[w] += 1
    logs = [Fraction(0)] * (n + 1)
    power = [Fraction(1)] + [Fraction(0)] * n
    for k in range(1, n + 1):
        power = ps_mul(power, f, n)
        for m in range(n + 1):
            logs[m] += power[m] / k
    total = sum(_mobius(n // d) * d * logs[d] for d in range(1, n + 1) if n % d == 0)
    return int(total / n)


def quasi_shuffle_total(a_terms, b_terms):
    """Sum of the coefficients of the quasi-shuffle of two QSymm elements,
    given as [(word, coefficient), ...]: a word pair of lengths p and q has
    Delannoy(p, q) = sum_k C(p, k) C(q, k) 2^k quasi-shuffles."""
    def delannoy(p, q):
        return sum(math.comb(p, k) * math.comb(q, k) * 2**k for k in range(min(p, q) + 1))

    return sum(ca * cb * delannoy(len(u), len(v)) for u, ca in a_terms for v, cb in b_terms)


def is_lyndon(word):
    return bool(word) and all(word < word[i:] + word[:i] for i in range(1, len(word)))


# ---------------------------------------------------------------------------
# multizeta references (increasing-index convention: the last entry sits on
# the largest summation index; classical zeta(s_1,...) is the reversal).
# mpmath computes them in run.py, before any worker starts, so that the
# measured processes never import it; a worker receives them as decimal
# strings and compares in exact rational arithmetic.

_REFERENCES = {}


def _closed_form(idx, mp):
    """High-precision value of a multizeta with a known closed form, or None.

    Depth-2 entries are Euler's zeta(n,1) formula and the weight-5 and
    weight-6 evaluations; the depth-3 ones follow from duality.
    """
    z = mp.zeta
    closed = {
        (2, 3): lambda: 3 * z(2) * z(3) - mp.mpf(11) / 2 * z(5),
        (3, 2): lambda: mp.mpf(9) / 2 * z(5) - 2 * z(2) * z(3),
        (2, 4): lambda: z(3) ** 2 - mp.mpf(4) / 3 * z(6),
        (4, 2): lambda: mp.mpf(25) / 12 * z(6) - z(3) ** 2,
        (1, 1, 2): lambda: z(4),
        (2, 1, 2): lambda: _closed_form((3, 2), mp),
    }
    if idx in closed:
        return closed[idx]()
    if len(idx) == 1 and idx[0] >= 2:
        return z(idx[0])
    if len(idx) == 2 and idx[0] == idx[1] >= 2:
        return (z(idx[0]) ** 2 - z(2 * idx[0])) / 2
    if len(idx) == 2 and idx[0] == 1 and idx[1] >= 2:
        n = idx[1]
        return mp.mpf(n) / 2 * z(n + 1) - sum(z(n - k) * z(k + 1) for k in range(1, n - 1)) / 2
    return None


def mzv_reference_table(indices):
    """{"2,3": "1.2...", ...}: 30-digit references for the given indices."""
    import mpmath

    table = {}
    with mpmath.workdps(30):
        for idx in sorted(set(tuple(i) for i in indices)):
            ref = _closed_form(idx, mpmath.mp)
            if ref is not None:
                table[",".join(map(str, idx))] = mpmath.nstr(ref, 30)
    return table


def use_references(table):
    """Install a table from ``mzv_reference_table`` for the checks below."""
    _REFERENCES.clear()
    for key, text in table.items():
        _REFERENCES[tuple(int(x) for x in key.split(","))] = Fraction(text)


def mzv_reference(idx):
    """The installed reference for ``idx`` as a Fraction, or None."""
    return _REFERENCES.get(tuple(idx))


def check_enclosure(idx, value, radius, target):
    """The certified enclosure holds the reference and meets its target."""
    ref = mzv_reference(idx)
    expect(ref is not None, "no reference for %s" % (idx,))
    expect(radius <= target, "%s: radius %g above target %g" % (idx, radius, target))
    miss = abs(ref - Fraction(value))
    expect(miss <= Fraction(radius), "%s: enclosure %r +/- %g misses %s" % (idx, value, radius, float(ref)))
