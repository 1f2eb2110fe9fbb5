import itertools
import math
import operator
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from hopfgenus import mzv, qsymm
from hopfgenus.core import InvariantError
from hopfgenus.qsymm import QSymmElement, quasi_shuffle
from hopfgenus.rational import Q

PI2_6 = math.pi**2 / 6
ZETA3 = 1.2020569031595942854
ZETA4 = math.pi**4 / 90


def _overlaps(a, b):
    """Whether two enclosures share a point: a test-only check on CertifiedReal."""
    return abs(a.value - b.value) <= a.error_bound + b.error_bound


class TestAdmissibility:
    def test_admissible(self):
        assert mzv.is_admissible((2,))
        assert mzv.is_admissible((1, 2))
        assert not mzv.is_admissible((1,))
        assert not mzv.is_admissible((2, 1))
        assert not mzv.is_admissible(())

    def test_divergent_raises(self):
        with pytest.raises(mzv.DivergentIndexError):
            mzv.mzv_eval((1,))
        with pytest.raises(mzv.DivergentIndexError):
            mzv.mzv_eval((3, 1))

    def test_bad_entries(self):
        with pytest.raises(ValueError):
            mzv.mzv_eval((0, 2))

    @pytest.mark.parametrize("idx", [(1.9, 3.7), ("2", "3"), (2, 3.0), (True, 2), (3.0,)], ids=repr)
    def test_entries_must_be_integers(self, idx):
        # neither rounded nor read: zeta(1.9, 3.7) is not zeta(1, 3)
        message = "index entries must be positive integers: %r" % (idx,)
        with pytest.raises(ValueError, match=re.escape(message)):
            mzv.mzv_eval(idx)

    @pytest.mark.parametrize("target", [float("nan"), float("inf"), 0.0, -1e-8])
    @pytest.mark.parametrize("idx", [(3,), (2, 3)])
    def test_target_must_be_positive_and_finite(self, idx, target):
        with pytest.raises(ValueError):
            mzv.mzv_eval(idx, target)


class TestDepthOne:
    def test_zeta2(self):
        enc = mzv.mzv_eval((2,), 1e-10)
        assert enc.contains(PI2_6)
        assert enc.error_bound <= 1e-10

    def test_zeta3(self):
        enc = mzv.mzv_eval((3,), 1e-12)
        assert enc.contains(ZETA3)

    def test_zeta4(self):
        enc = mzv.mzv_eval((4,), 1e-12)
        assert enc.contains(ZETA4)

    def test_tighter_target_tightens(self):
        loose = mzv.mzv_eval((2,), 1e-6)
        tight = mzv.mzv_eval((2,), 1e-10)
        assert tight.error_bound < loose.error_bound
        assert abs(loose.value - tight.value) <= loose.error_bound + tight.error_bound


class TestDepthTwo:
    def test_zeta_2_2_closed_form(self):
        # sum_{i<j} i^-2 j^-2 = (zeta(2)^2 - zeta(4))/2 = pi^4/120
        enc = mzv.mzv_eval((2, 2), 1e-9)
        assert enc.contains(math.pi**4 / 120)

    def test_zeta_3_2_plus_2_3_plus_5(self):
        # stuffle: zeta(2) zeta(3) = zeta(2,3) + zeta(3,2) + zeta(5)
        lhs = mzv.mzv_eval((2,), 1e-10).value * mzv.mzv_eval((3,), 1e-10).value
        rhs = (
            mzv.mzv_eval((2, 3), 1e-9).value
            + mzv.mzv_eval((3, 2), 1e-9).value
            + mzv.mzv_eval((5,), 1e-10).value
        )
        assert abs(lhs - rhs) < 1e-8


class TestDepthThree:
    def test_zeta_2_2_2_closed_form(self):
        # pi^6/5040
        enc = mzv.mzv_eval((2, 2, 2), 1e-9)
        assert enc.contains(math.pi**6 / 5040)


class TestCertifiedReal:
    @pytest.mark.parametrize("center", [Fraction(1, 3), Fraction(2, 3), Fraction(10, 7), Fraction(-5, 11)])
    @pytest.mark.parametrize("scale", [0, Fraction(1, 10), Fraction(9, 10), 3])
    def test_enclose_holds_both_ends(self, center, scale):
        radius = scale * Fraction(math.ulp(float(center)))
        enc = mzv._enclose(center, radius)
        assert enc.value == float(center)
        for end in (center - radius, center + radius):
            assert abs(Fraction(enc.value) - end) <= Fraction(enc.error_bound)

    def test_contains_and_overlaps(self):
        a = mzv.CertifiedReal(1.0, 0.5)
        assert a.contains(1.4)
        assert not a.contains(1.6)
        assert _overlaps(a, mzv.CertifiedReal(1.9, 0.5))


class TestSpecialization:
    def test_single_term(self):
        q = QSymmElement.monomial((2,), Q(3))
        enc = mzv.zeta_specialize(q, 1e-9)
        assert abs(enc.value - 3 * PI2_6) <= 1e-8

    def test_divergent_term_rejected(self):
        q = QSymmElement.monomial((2,)) + QSymmElement.monomial((1,))
        with pytest.raises(mzv.DivergentIndexError):
            mzv.zeta_specialize(q)

    def test_empty(self):
        enc = mzv.zeta_specialize(QSymmElement())
        assert enc.value == 0.0 and enc.error_bound == 0.0

    def test_rational_coefficient_is_exact(self, mp, depth_two):
        q = QSymmElement.monomial((2, 3), Q(1, 3)) + QSymmElement.monomial((5,), Q(-2, 7))
        enc = mzv.zeta_specialize(q, 1e-12)
        ref = depth_two[2, 3] / 3 - 2 * mp.zeta(5) / 7
        assert abs(mp.mpf(enc.value) - ref) <= enc.error_bound <= 1.01e-12

    def test_target_must_be_positive_and_finite(self):
        with pytest.raises(ValueError):
            mzv.zeta_specialize(QSymmElement.monomial((2, 3)), 0.0)

    def test_precision_error_below_float_resolution(self):
        with pytest.raises(mzv.PrecisionError):
            mzv.zeta_specialize(QSymmElement.monomial((2, 3), Q(2)) + QSymmElement.monomial((3, 2)), 1e-20)

    def test_homomorphism_depth_one(self):
        a = QSymmElement.monomial((2,))
        b = QSymmElement.monomial((2,))
        report = mzv.homomorphism_check(a, b, target_error=1e-8)
        assert report["passed"]
        assert report["defect"] <= report["allowed"]


# -- the Hoelder evaluator for depth >= 2 against independent oracles ------

TARGETS = (1e-4, 1e-8, 1e-12)


@pytest.fixture(scope="module")
def mp():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        yield mpmath.mp


def _mpq(mp, x):
    """The rational x as an mpf at the working precision."""
    return mp.mpf(x.numerator) / x.denominator


def _assert_encloses(mp, enc, ref, target):
    assert math.ulp(enc.value) <= enc.error_bound <= target
    assert abs(mp.mpf(enc.value) - ref) <= enc.error_bound


def _depth_two_reference(mp, a, b):
    """zeta(a, b) = sum_{i<j} i^-a j^-b (increasing convention)."""
    if a == 1:
        # Euler: the inner harmonic sum defeats the series acceleration
        z = mp.zeta
        return mp.mpf(b) / 2 * z(b + 1) - sum(z(b - k) * z(k + 1) for k in range(1, b - 1)) / 2
    za = mp.zeta(a)
    return mp.nsum(lambda j: (za - mp.zeta(a, j)) / j**b, [2, mp.inf])


@pytest.fixture(scope="module")
def depth_two(mp):
    """Every admissible depth-2 index of weight <= 8 and its reference.

    25 digits: the radii checked against them are above 1e-19.
    """
    with mp.workdps(25):
        return {(a, w - a): _depth_two_reference(mp, a, w - a) for w in range(3, 9) for a in range(1, w - 1)}


@pytest.mark.parametrize("target", TARGETS + (1e-15,))
def test_nested_eval_encloses_depth_one(mp, target):
    # the Hoelder convolution holds at depth 1 too, so _nested_eval can
    # serve the depth-1 values that mzv_eval still sums in long doubles
    for s in range(2, 31):
        (center, radius), enc = mzv._nested_eval([((s,), 1)], target)
        ref = mp.zeta(s)
        assert abs(_mpq(mp, center) - ref) <= _mpq(mp, radius), s
        _assert_encloses(mp, enc, ref, target)


@pytest.mark.parametrize("target", TARGETS)
class TestHolderEvaluator:
    @pytest.mark.parametrize("k", range(3, 8))
    def test_ones_then_two_is_zeta_k(self, mp, k, target):
        # zeta(1,2) = zeta(3), zeta(1,1,2) = zeta(4), ... (duality)
        _assert_encloses(mp, mzv.mzv_eval((1,) * (k - 2) + (2,), target), mp.zeta(k), target)

    @pytest.mark.parametrize("n", range(2, 5))
    def test_twos(self, mp, n, target):
        ref = mp.pi ** (2 * n) / mp.factorial(2 * n + 1)
        _assert_encloses(mp, mzv.mzv_eval((2,) * n, target), ref, target)

    def test_depth_two_hurwitz(self, mp, depth_two, target):
        for idx, ref in sorted(depth_two.items()):
            _assert_encloses(mp, mzv.mzv_eval(idx, target), ref, target)

    def test_depth_three_stuffle(self, mp, depth_two, target):
        # zeta(a) zeta(b,c) = zeta(a,b,c) + zeta(b,a,c) + zeta(b,c,a)
        #                     + zeta(a+b,c) + zeta(b,a+c)
        for a in range(2, 5):
            for b in range(1, 7 - a):
                for c in range(2, 9 - a - b):
                    encs = [mzv.mzv_eval(i, target) for i in ((a, b, c), (b, a, c), (b, c, a))]
                    for enc in encs:
                        assert math.ulp(enc.value) <= enc.error_bound <= target
                    ref = mp.zeta(a) * depth_two[b, c] - depth_two[a + b, c] - depth_two[b, a + c]
                    center = sum(Fraction(enc.value) for enc in encs)
                    radius = sum(Fraction(enc.error_bound) for enc in encs)
                    assert abs(_mpq(mp, center) - ref) <= _mpq(mp, radius)


def test_precision_error_below_float_resolution():
    with pytest.raises(mzv.PrecisionError):
        mzv.mzv_eval((2, 3), 1e-20)


def test_a_half_width_past_the_sizing_is_an_invariant_error(monkeypatch):
    # B is sized so that the half width is at most slack / 4; a wider
    # interval means a bound in the sizing is wrong, not a short B
    holder = mzv._holder_interval

    def widened(*args):
        lo, hi = holder(*args)
        return lo, hi + 4 * (hi - lo)

    monkeypatch.setattr(mzv, "_holder_interval", widened)
    with pytest.raises(InvariantError):
        mzv._nested_eval([((2, 2), 1)], 1e-9)


# The earlier depth >= 2 evaluator, kept here as a reference: long-double
# nested partial sums truncated at N, crude inner remainder bounds and a
# heuristic rounding allowance.
_LD = np.longdouble
_EPS_LD = float(np.finfo(_LD).eps)
_BLOCK = 1 << 21


def _old_crude_constants(s):
    k = len(s)
    p = [0.0] * (k + 1)
    c = [0.0] * (k + 1)
    p[k - 1] = s[k - 1] - 1.0
    c[k - 1] = 1.0 / p[k - 1]
    for j in range(k - 2, -1, -1):
        p[j] = s[j] + p[j + 1] - 1.0
        c[j] = c[j + 1] / p[j]
    return p, c


def _old_nested_enclosure(s, N):
    k = len(s)
    p, c = _old_crude_constants(s)
    tail_mid, tail_rad = mzv._zeta_tail_enclosure(s[k - 1], N)
    carry = [0.0] * k
    rad_init = [0.0] * k
    carry[k - 1] = tail_mid
    rad_init[k - 1] = tail_rad
    for j in range(k - 1):
        bound = c[j] * float(N) ** (-p[j])
        carry[j] = bound / 2.0
        rad_init[j] = bound / 2.0
    carry = [_LD(x) for x in carry]
    psum = [_LD(0)] * k
    hi = N
    while hi >= 1:
        lo = max(1, hi - _BLOCK + 1)
        i = np.arange(lo, hi + 1, dtype=_LD)
        pows = [i ** _LD(-sj) for sj in s]
        level_vals = [None] * k
        for j in range(k - 1, -1, -1):
            if j == k - 1:
                contrib = pows[j]
            else:
                nxt = level_vals[j + 1]
                shifted = np.empty_like(nxt)
                shifted[:-1] = nxt[1:]
                shifted[-1] = carry[j + 1]
                contrib = pows[j] * shifted
            level_vals[j] = np.cumsum(contrib[::-1])[::-1] + carry[j]
            psum[j] += np.sum(pows[j])
        for j in range(k):
            carry[j] = level_vals[j][0]
        hi = lo - 1
    value = float(carry[0])
    rad = rad_init[k - 1]
    for j in range(k - 2, -1, -1):
        rad = rad_init[j] + float(psum[j]) * rad
    ops = float(N) * k
    rad += 4.0 * _EPS_LD * ops**0.5 * max(1.0, value) + 64.0 * _EPS_LD
    return value, rad


def _old_long_double_eval(idx, target_error):
    s = [float(x) for x in idx]
    p, c = _old_crude_constants(s)
    N = 1 << 12
    while N < mzv.MAX_TERMS:
        est = sum(c[j] * float(N) ** (-p[j]) for j in range(len(s) - 1))
        if est * (2.5 ** len(s)) < target_error / 2.0:
            break
        N *= 2
    while True:
        value, rad = _old_nested_enclosure(s, N)
        if rad <= target_error:
            return mzv.CertifiedReal(value, rad)
        N *= 4


@pytest.mark.parametrize("idx", [(2, 3), (3, 2), (2, 4), (4, 2), (3, 3), (4, 4)])
def test_overlaps_old_long_double_evaluator(idx):
    old = _old_long_double_eval(idx, 1e-4)
    new = mzv.mzv_eval(idx, 1e-4)
    assert old.error_bound <= 1e-4 and new.error_bound <= 1e-4
    assert _overlaps(new, old)


def _exact_suffix_polylogs(index, terms):
    """Li_u(1/2) of every suffix u of the word of ``index``, summed to
    ``terms`` in exact rationals, and a bound of the rest."""
    out = [(Fraction(1), Fraction(0))]
    for i in reversed(range(len(index))):
        inner = index[i + 1:]
        for t in range(1, index[i] + 1):
            total, q = Fraction(0), [Fraction(0)] * len(inner) + [Fraction(1)]
            for n in range(1, terms + 1):
                total += q[0] / (Fraction(n) ** t * 2**n)
                for j in range(len(inner)):
                    q[j] += q[j + 1] / Fraction(n) ** inner[j]
            rest = sum(Fraction(n ** len(inner), 2**n) for n in range(terms + 1, 4 * terms))
            out.append((total, rest + Fraction(1, 2**terms)))
    return out


@pytest.mark.parametrize("index", [[2, 1], [3, 1, 1], [2, 1, 2, 1], [1, 1, 1, 2], [4]])
@pytest.mark.parametrize("B", [20, 64])
def test_suffix_polylogs_bracket_exact_sums(index, B):
    # the proven rounding count and tail bound must bracket the exact sums
    N = mzv._terms(B, len(index))
    lower, width = mzv._suffix_polylogs(index, B, N, {})
    exact = _exact_suffix_polylogs(index, 160)
    assert len(lower) == len(width) == len(exact) == sum(index) + 1
    for lo, w, (total, rest) in zip(lower, width, exact):
        assert lo <= total * 2**B and (total + rest) * 2**B <= lo + w


@pytest.mark.parametrize("r", range(1, 9))
@pytest.mark.parametrize("B", [8, 40, 100])
def test_tail_bound_is_an_upper_bound(r, B):
    N = mzv._terms(B, r)
    tail = sum(Fraction(n ** (r - 1), 2**n) for n in range(N + 1, N + 4000))
    assert tail * 2**B <= mzv._tail_units(N, r, B) <= N


def test_cli_import_leaves_numpy_to_depth_one():
    # numpy loads with the first depth-1 evaluation, not with the package
    code = (
        "import sys, hopfgenus.cli\n"
        "assert 'numpy' not in sys.modules\n"
        "enc = hopfgenus.cli.mzv.mzv_eval((3,), 1e-10)\n"
        "assert enc.contains(1.2020569031595942) and 'numpy' in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(mzv.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# The per-n sweep, the linear _terms scan and the per-word zeta_specialize
# that the sweep by levels and the shared element pass replaced, kept here
# as references.


def _old_terms(B, r):
    N = B
    while not mzv._ratio_below_three_quarters(N, r) or mzv._tail_units(N, r, B) > N:
        N += 1
    return N


def _old_suffix_polylogs(index, B, N):
    m = len(index)
    q = [0] * m + [1 << B]
    heads = [[0] * c for c in index]
    for n in range(1, N + 1):
        if not max(q) >> n:
            break
        for i in range(m):
            v, row = q[i + 1], heads[i]
            for t in range(index[i]):
                v //= n
                row[t] += v >> n
            if i:
                q[i] += v
    lower, width = [1 << B], [0]
    for i in reversed(range(m)):
        r = m - i
        slack = N + r - 1 + mzv._tail_units(N, r, B)
        for t in range(index[i]):
            lower.append(heads[i][t])
            width.append(slack)
    return lower, width


def _old_nested_eval(idx, target):
    weight, depth = sum(idx), len(idx)
    r = max(depth, weight - depth)
    need = max(0, math.ceil(-math.log2(target)))
    quarter = Fraction(target) / 4
    B = need + 8
    while True:
        N = _old_terms(B, r)
        B_min = need + (4 * (weight + 1) * (2 * N + r + 1)).bit_length()
        if B < B_min:
            B = B_min
            continue
        index = idx[::-1]
        word = mzv._word(index)
        lo_w, dw = _old_suffix_polylogs(index, B, N)
        lo_d, dd = _old_suffix_polylogs(mzv._blocks([1 - e for e in reversed(word)]), B, N)
        n = len(word)
        lo = sum(lo_d[j] * lo_w[n - j] for j in range(n + 1))
        hi = sum((lo_d[j] + dd[j]) * (lo_w[n - j] + dw[n - j]) for j in range(n + 1))
        half = Fraction(hi - lo, 1 << (2 * B + 1))
        enc = mzv._enclose(Fraction(lo + hi, 1 << (2 * B + 1)), half)
        if enc.error_bound <= target:
            return enc
        if half <= quarter:
            raise mzv.PrecisionError(idx)
        B += 8


def _old_zeta_specialize(q, target_error):
    terms = sorted(q.terms.items())
    budget = target_error / len(terms)
    center = radius = Fraction(0)
    for alpha, coeff in terms:
        c = Fraction(coeff)
        enclosure = mzv.mzv_eval(alpha, budget / max(1.0, abs(float(c))))
        center += c * Fraction(enclosure.value)
        radius += abs(c) * Fraction(enclosure.error_bound)
    return mzv._enclose(center, radius)


def test_terms_search_matches_the_linear_scan():
    for B in range(400):
        for r in range(1, 14):
            assert mzv._terms(B, r) == _old_terms(B, r), (B, r)


def test_level_sweep_matches_the_per_n_sweep():
    rng = random.Random(16)
    for _ in range(100):
        index = [rng.randint(1, 5) for _ in range(rng.randint(1, 5))]
        B = rng.randint(0, 120)
        N = mzv._terms(B, len(index)) + rng.randint(0, 20)
        # a shared dict serves the index and indices that share its suffixes
        levels = {}
        for k in range(len(index)):
            prefixed = [rng.randint(1, 5)] + index[k:]
            assert mzv._suffix_polylogs(prefixed, B, N, levels) == _old_suffix_polylogs(prefixed, B, N)
        assert mzv._suffix_polylogs(index, B, N, levels) == _old_suffix_polylogs(index, B, N)
        assert mzv._suffix_polylogs(index, B, N, {}) == _old_suffix_polylogs(index, B, N)


def test_mzv_eval_matches_the_per_n_evaluator():
    # bit-identical: the same floors give the same interval at the same B and N
    rng = random.Random(16)
    for _ in range(40):
        depth = rng.randint(2, 4)
        idx = tuple(rng.randint(1, 3) for _ in range(depth - 1)) + (rng.randint(2, 4),)
        target = 10.0 ** -rng.uniform(4, 13)
        new, old = mzv.mzv_eval(idx, target), _old_nested_eval(idx, target)
        assert (new.value, new.error_bound) == (old.value, old.error_bound), (idx, target)


# The level sweep to N and the Fraction rounding that the sweep cut at
# B + 1 and the integer rounding replaced, kept here as references.


def _full_level_sweep(index, B, N):
    """The level sweep over n = 1..N, and the largest n with a nonzero head term."""
    ns = range(1, N + 1)
    lower, width, last = [1 << B], [0], 0
    quotients = None
    for i in reversed(range(len(index))):
        v = itertools.repeat(1 << B, N) if quotients is None else itertools.accumulate(quotients, initial=0)
        for _ in range(index[i]):
            v = list(map(operator.floordiv, v, ns))
            terms = list(map(operator.rshift, v, ns))
            last = max([last] + [n for n, term in zip(ns, terms) if term])
            lower.append(sum(terms))
        quotients = v
        r = len(index) - i
        width += [N + r - 1 + mzv._tail_units(N, r, B)] * index[i]
    return lower, width, last


def test_cut_sweep_matches_the_full_sweep():
    rng = random.Random(28)
    for trial in range(150):
        index = [rng.randint(1, 5) for _ in range(rng.randint(1, 6))]
        B = trial if trial < 4 else rng.randint(0, 120)  # B = 0..3 always
        N = mzv._terms(B, len(index)) + rng.choice([0, 0, rng.randint(1, 30)])
        lower, width, last = _full_level_sweep(index, B, N)
        # every head term at n >= B + 2 is 0, so the cut drops nothing
        assert last <= B + 1, (index, B, N, last)
        assert mzv._suffix_polylogs(index, B, N, {}) == (lower, width), (index, B, N)


def _old_float_up(q):
    f = float(q)
    return f if Fraction(f) >= q else math.nextafter(f, math.inf)


def _old_enclose(center, radius):
    value = float(center)
    bound = _old_float_up(radius + abs(Fraction(value) - center))
    return mzv.CertifiedReal(value, max(bound, math.ulp(value)))


def _random_intervals(rng, count):
    for _ in range(count):
        kind = rng.randrange(4)
        if kind == 0:  # a dyadic interval, as _nested_eval makes them
            B = rng.randint(10, 120)
            lo = rng.randint(0, 1 << (2 * B + 2))
            hi = lo + rng.randint(0, 1 << rng.randint(0, 2 * B))
            yield Fraction(lo + hi, 1 << (2 * B + 1)), Fraction(hi - lo, 1 << (2 * B + 1))
        elif kind == 1:  # a float center, rounding exactly
            center = Fraction(rng.uniform(-10, 10))
            yield center, Fraction(rng.randint(0, 3), rng.randint(1, 1 << 60))
        elif kind == 2:  # near zero
            yield Fraction(rng.randint(-5, 5), 1 << rng.randint(0, 1100)), Fraction(rng.randint(0, 2), 1 << 1080)
        else:
            center = Fraction(rng.randint(-(10**40), 10**40), rng.randint(1, 10**40))
            yield center, Fraction(rng.randint(0, 10**20), rng.randint(1, 10**40))


def test_integer_enclose_matches_the_fraction_one():
    for center, radius in _random_intervals(random.Random(28), 20000):
        new, old = mzv._enclose(center, radius), _old_enclose(center, radius)
        assert (new.value, new.error_bound) == (old.value, old.error_bound), (center, radius)


def test_div_up_is_the_least_float_above():
    rng = random.Random(28)
    for _ in range(5000):
        num, den = rng.randint(0, 1 << rng.randint(1, 200)), rng.randint(1, 1 << rng.randint(1, 200))
        f = mzv._div_up(num, den)
        assert Fraction(f) >= Fraction(num, den) > Fraction(math.nextafter(f, -math.inf)) or f == 0.0 == num


def _exact_tail(N, r):
    """Rationals lower <= sum_{n>N} n^(r-1) 2^-n <= upper."""
    K = N + 400
    head = Fraction(sum(n ** (r - 1) << (K - n) for n in range(N + 1, K + 1)), 1 << K)
    # past K each term is at least (K+1)^(r-1) 2^-n, and successive terms
    # shrink by at most rho, so the rest is below its first term over 1 - rho
    rho = Fraction(K + 2, K + 1) ** (r - 1) / 2
    least_rest = Fraction((K + 1) ** (r - 1), 1 << K)
    most_rest = Fraction((K + 1) ** (r - 1), 1 << (K + 1)) / (1 - rho)
    return head + least_rest, head + most_rest


@pytest.mark.parametrize("r", range(1, 9))
def test_tail_units_is_at_least_the_exact_tail_and_at_most_twice_it(r):
    # the bound is 4 times the first term and the tail at least twice it
    # (every n^(r-1) >= (N+1)^(r-1)), so it is within 2x, up to its ceiling
    least = next(N for N in itertools.count() if mzv._ratio_below_three_quarters(N, r))
    for N in sorted({least, least + 1, least + 2, least + 7, 40, 64, 100, 177, 300} - set(range(least))):
        lower, upper = _exact_tail(N, r)
        for B in sorted({0, 1, 8, 40, N - 1, N, N + 1, N + 2, 120, 400} - {-1}):
            units = mzv._tail_units(N, r, B)
            assert upper * 2**B <= units <= math.ceil(2 * lower * 2**B), (N, r, B)


def test_tail_units_refuses_an_n_below_the_ratio_bound():
    with pytest.raises(RuntimeError):
        mzv._tail_units(3, 8, 10)


def test_need_is_the_least_exponent():
    def least(slack):
        return next(k for k in itertools.count() if 2**k * slack >= 1)

    for k in range(-3, 80):
        # at a power of two 2^need slack >= 1 holds with equality; one float below, it needs a bit more
        target = 2.0**-k
        assert mzv._need(Fraction(target)) == max(k, 0)
        assert mzv._need(Fraction(math.nextafter(target, math.inf))) == max(k, 0)
        assert mzv._need(Fraction(math.nextafter(target, 0))) == max(k + 1, 0)
    rng = random.Random(28)
    for _ in range(2000):
        slack = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**30))
        assert mzv._need(slack) == least(slack)


def test_nested_eval_sizes_from_the_least_exponent(monkeypatch):
    # the first B tried is need + 8: record it at targets around 2^-30
    tried = []
    terms = mzv._terms

    def recording(B, r):
        tried.append(B)
        return terms(B, r)

    monkeypatch.setattr(mzv, "_terms", recording)
    for target, need in [(2.0**-30, 30), (math.nextafter(2.0**-30, 0), 31), (math.nextafter(2.0**-30, 1), 30)]:
        tried.clear()
        mzv._nested_eval([((2, 3), 1)], target)
        assert tried[0] == need + 8, target


# the benchmark's stuffle checks: the sides of pair i against those of
# pairs i, i+1 and i+2, with random coefficients
STUFFLE_PAIRS = [((2,), (3, 3)), ((3,), (2, 2)), ((4,), (1, 4)), ((5,), (2, 3)), ((2, 2), (3, 2)), ((2,), (4,))]


def _stuffle_sides(i, rng):
    """The three (a, b) checks of pair i, as {word: coefficient} dicts."""
    for k in (0, 1, 2):
        sides = []
        for u, v in (STUFFLE_PAIRS[i], STUFFLE_PAIRS[(i + k) % len(STUFFLE_PAIRS)]):
            sides.append({u: rng.choice([-2, -1, 1, 2, 3]), v: rng.choice([-1, 1, 2])})
        yield sides


def _side_reference(mp, depth_two, side):
    return sum(c * (mp.zeta(w[0]) if len(w) == 1 else depth_two[w]) for w, c in side.items())


@pytest.mark.parametrize("i", range(len(STUFFLE_PAIRS)))
def test_shared_levels_agree_with_the_per_word_sum(mp, depth_two, i):
    rng, target = random.Random(i), 1e-6
    for sides in _stuffle_sides(i, rng):
        a, b = (QSymmElement(s) for s in sides)
        refs = [_side_reference(mp, depth_two, side) for side in sides]
        for q, ref in zip((a, b, quasi_shuffle(a, b)), refs + [refs[0] * refs[1]]):
            new = mzv.zeta_specialize(q, target)
            assert _overlaps(new, _old_zeta_specialize(q, target))
            assert math.ulp(new.value) <= new.error_bound <= target
            assert abs(mp.mpf(new.value) - ref) <= new.error_bound


@pytest.mark.parametrize("i", range(len(STUFFLE_PAIRS)))
def test_stuffle_report_lies_within_allowed_of_the_reference(mp, depth_two, i):
    # the reported floats are rounded once, and 'allowed' covers that rounding
    for sides in _stuffle_sides(i, random.Random(i)):
        report = mzv.homomorphism_check(*(QSymmElement(s) for s in sides), target_error=1e-6)
        assert report["passed"] and report["defect"] <= report["allowed"]
        ref = _side_reference(mp, depth_two, sides[0]) * _side_reference(mp, depth_two, sides[1])
        for side in ("lhs", "rhs"):
            assert abs(mp.mpf(report[side]) - ref) <= report["allowed"], side


@pytest.mark.parametrize("pair", STUFFLE_PAIRS)
def test_stuffle_check_rejects_an_extra_term(monkeypatch, pair):
    a, b = (QSymmElement.monomial(w) for w in pair)
    report = mzv.homomorphism_check(a, b)
    assert report["passed"]
    # one extra term of the product, worth about 10 times the summed radii
    extra = (2, 3)
    coeff = Fraction(10 * report["allowed"]) / Fraction(mzv.mzv_eval(extra).value)
    monkeypatch.setattr(qsymm, "quasi_shuffle", lambda x, y: quasi_shuffle(x, y) + QSymmElement.monomial(extra, coeff))
    mutated = mzv.homomorphism_check(a, b)
    assert not mutated["passed"]
    assert mutated["defect"] > mutated["allowed"]


def _compositions(weight, depth):
    if depth == 1:
        yield (weight,)
        return
    for first in range(1, weight - depth + 2):
        for rest in _compositions(weight - first, depth - 1):
            yield (first,) + rest


@pytest.mark.parametrize("target", [1e-8, 1e-15])
@pytest.mark.parametrize("w", range(4, 8))
def test_sum_theorem_on_exact_ends(mp, w, target):
    # the admissible indices of weight w and one depth sum to zeta(w); the
    # exact intervals, before any rounding, take no depth-1 value
    intervals = []
    for depth in (2, 3):
        words = [(idx, 1) for idx in _compositions(w, depth) if mzv.is_admissible(idx)]
        (center, radius), _ = mzv._nested_eval(words, target)
        assert abs(_mpq(mp, center) - mp.zeta(w)) <= _mpq(mp, radius), depth
        intervals.append((center, radius))
    (c2, r2), (c3, r3) = intervals
    assert abs(c2 - c3) <= r2 + r3
