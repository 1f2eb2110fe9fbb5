"""The acceptance suite: one check per numbered criterion.

Each check takes the truncation degree and returns (status, detail) with
status "pass", "fail" or "skipped"; run_all wraps them with timings and
never lets a lowered truncation degree produce a false failure (checks
that need more degree report "skipped").  Tolerances and the random seed
are pinned here and nowhere else.
"""

import math
import random
import time

from . import genus as genus_mod
from . import homology, mzv, qsymm, symm
from .core import GradedPolynomial, PowerSeries1
from .rational import Q, divide

GAMMA_TOL = 1e-10
ZETA2_TOL = 1e-8
EULER_TOL = 2e-8
SEED = 20240901  # of the torsor-law and stuffle trials


def _check_d_class_identity(degree):
    if degree < 30:
        return "skipped", "needs truncation degree 30, have %d" % degree
    k = symm.d_class_mismatch(30)
    if k is not None:
        return "fail", "first mismatch at weight %d" % k
    return "pass", "quotient = exp-product form, all weights <= 30"


def _check_a_class_structure(degree):
    if degree < 13:
        return "skipped", "needs truncation degree 13, have %d" % degree
    k = symm.a_class_mismatch(13)
    if k is not None:
        if k % 2:
            return "fail", "a_%d has a linear part" % k
        return "fail", "a_%d linear part is not 2 b_%d" % (k, k)
    return "pass", "a_odd decomposable, a_2i = 2 b_2i mod I^2, i <= 6"


def _check_primitives(degree):
    if degree < 12:
        return "skipped", "needs truncation degree 12, have %d" % degree
    for k in range(1, 13):
        basis = symm.primitive_space(k, symm.BU_MOD_SO)
        want = 1 if k % 2 == 1 else 0
        if len(basis) != want:
            return "fail", "weight %d: dim %d, want %d" % (k, len(basis), want)
        if want:
            nk = symm.convert(
                symm.SymmFn(symm.P, GradedPolynomial.generator("N", k)), symm.E
            ).value
            v = basis[0].value
            # proportionality: v and nk must be parallel
            mon = next(iter(nk.terms))
            ratio = divide(v.coefficient(mon), nk.coefficient(mon))
            if ratio == 0 or v != nk * ratio:
                return "fail", "weight %d primitive is not a multiple of N_%d" % (k, k)
    return "pass", "BUmodSO primitives: dim 1 in odd weights, spanned by N_k"


def _check_diagonal_vanishing(degree):
    for n in range(1, 7):
        m = genus_mod.cp(n)
        for k in range(1, 2 * n, 2):
            if not genus_mod.diagonal_vanishing_check(m, k):
                return "fail", "CP%d, k=%d" % (n, k)
    return "pass", "ch_odd(TM + conj TM) = 0 on CP^n, n <= 6"


def _check_primitivity(degree):
    models = [genus_mod.cp(1), genus_mod.cp(2), genus_mod.cp(3)]
    for a in models:
        for b in models:
            for k in (1, 3, 5):
                if k > a.dim_c + b.dim_c:
                    continue
                if not genus_mod.primitivity_check(a, b, k):
                    return "fail", "%s x %s, k=%d" % (a.name, b.name, k)
    return "pass", "odd ch primitive on all pairs from {CP1,CP2,CP3}"


def _random_params(rng, indices):
    d = {}
    for k in indices:
        d[k] = Q(rng.randint(-9, 9), rng.randint(1, 9))
    return genus_mod.DeformationParameters.from_dict(d)


def _check_torsor_law(degree):
    rng = random.Random(SEED)
    rho = genus_mod.a_hat_series(8)
    models = [
        genus_mod.cp(1),
        genus_mod.cp(2),
        genus_mod.product(genus_mod.cp(1), genus_mod.cp(1)),
    ]
    for trial in range(20):
        m = models[trial % 3]
        t = _random_params(rng, (1, 3))
        s = _random_params(rng, (1,))
        kclass = genus_mod.multiplicative_class(m, rho)
        seq = m.pairing(
            m.reduce(
                genus_mod.deformation_exponential(m, t)
                * genus_mod.deformation_exponential(m, s)
                * kclass
            )
        )
        joint = genus_mod.deform_genus(m, rho, t + s)
        if seq != joint:
            return "fail", "trial %d on %s: %s != %s" % (trial, m.name, seq, joint)
        if genus_mod.deform_genus(m, rho, genus_mod.DeformationParameters.zero()) != genus_mod.genus(m, rho):
            return "fail", "t=0 does not recover the genus on %s" % m.name
    return "pass", "20 random torsor-law trials, exact"


def _check_genus_engine(degree):
    ahat = genus_mod.a_hat_series(8)
    if genus_mod.genus(genus_mod.cp(2), ahat) != Q(-1, 8):
        return "fail", "Ahat(CP2) != -1/8"
    todd = genus_mod.todd_series(8)
    for n in range(1, 7):
        if genus_mod.genus(genus_mod.cp(n), todd) != 1:
            return "fail", "Todd(CP%d) != 1" % n
    f = PowerSeries1([Q(0)] + [Q(1, math.factorial(k)) for k in range(1, 7)])
    qf = genus_mod.series_from_exponential(f)
    for n in range(1, 5):
        a = genus_mod.genus_from_exponential(f, n)
        b = genus_mod.genus(genus_mod.cp(n), qf)
        if a != b:
            return "fail", "cross-path mismatch at n=%d" % n
    return "pass", "Ahat/Todd values and exponential cross-path, exact"


def _check_gamma_exponential(degree):
    src = genus_mod.NumericZetaSource(1e-13)
    ge = genus_mod.gamma_exponential(5, src)
    g = genus_mod.EULER_GAMMA
    z2 = mzv.mzv_eval((2,), 1e-13).value
    z3 = mzv.mzv_eval((3,), 1e-13).value
    oracle = [0.0, 1.0, g, g * g / 2 - z2 / 2, g**3 / 6 - g * z2 / 2 + z3 / 3]
    for k in range(5):
        if abs(ge.coeffs[k] - oracle[k]) > GAMMA_TOL:
            return "fail", "[x^%d] off by %g" % (k, abs(ge.coeffs[k] - oracle[k]))
    return "pass", "1/Gamma coefficients through x^4 within %g" % GAMMA_TOL


def _check_koszul_duality(degree):
    if degree < 24:
        return "skipped", "needs truncation degree 24, have %d" % degree
    ext = homology.exterior_algebra([5, 9], 24)
    tor = homology.tor_via_bar(ext, 24)
    if tor.total_series() != homology.polynomial_hilbert([6, 10], 24):
        return "fail", "Tor(Lambda[y5,y9]) != polynomial prediction"
    sz = homology.square_zero_extension([5, 9], 22)
    tor2 = homology.tor_via_bar(sz, 22)
    if tor2.total_series() != homology.word_series([6, 10], 22):
        return "fail", "Tor(square-zero) != ordered-word counts"
    return "pass", "Tate/Koszul duality and tensor-coalgebra side, exact"


def _check_qsymm_polynomiality(degree):
    profile = qsymm.GeneratorProfile.all_positive()
    dims = qsymm.free_algebra_hilbert(profile, 12, "polynomial-on-lyndon")
    want = [1] + [2 ** (n - 1) for n in range(1, 13)]
    if dims != want:
        return "fail", "got %s" % (dims,)
    return "pass", "Lyndon polynomial algebra gives 2^(n-1) through degree 12"


_STUFFLE_POOL = [(2,), (3,), (4,), (2, 2)]


def _check_mzv(degree):
    z2 = mzv.mzv_eval((2,), 1e-9)
    target = math.pi**2 / 6
    if abs(z2.value - target) > ZETA2_TOL or not z2.contains(target):
        return "fail", "zeta(2) enclosure misses pi^2/6"
    euler = mzv.mzv_eval((1, 2), 1e-8)
    z3 = mzv.mzv_eval((3,), 1e-10)
    if abs(euler.value - z3.value) > EULER_TOL:
        return "fail", "zeta(1,2) vs zeta(3): %g" % abs(euler.value - z3.value)
    rng = random.Random(SEED)
    for trial in range(10):
        a = qsymm.QSymmElement.monomial(rng.choice(_STUFFLE_POOL))
        pool_b = [w for w in _STUFFLE_POOL if sum(next(iter(a.terms))) + sum(w) <= 6]
        b = qsymm.QSymmElement.monomial(rng.choice(pool_b))
        report = mzv.homomorphism_check(a, b, target_error=1e-7)
        if not report["passed"]:
            return "fail", "stuffle trial %d: defect %g > %g" % (
                trial,
                report["defect"],
                report["allowed"],
            )
    try:
        mzv.mzv_eval((1,))
        return "fail", "zeta(1) not rejected"
    except mzv.DivergentIndexError:
        pass
    return "pass", "enclosures sound; Euler identity; 10 stuffle trials"


def _oracle_exterior(degrees, bound):
    # brute-force subset enumeration, independent of the production DP
    from itertools import combinations

    out = [0] * (bound + 1)
    for r in range(len(degrees) + 1):
        for sub in combinations(degrees, r):
            if sum(sub) <= bound:
                out[sum(sub)] += 1
    return out


def _oracle_partitions(parts, bound):
    # brute-force multiset enumeration
    def count(n, avail):
        if n == 0:
            return 1
        if not avail:
            return 0
        head, rest = avail[0], avail[1:]
        total = 0
        m = 0
        while m * head <= n:
            total += count(n - m * head, rest)
            m += 1
        return total

    return [count(n, tuple(sorted(parts))) for n in range(bound + 1)]


def _check_series_tables(degree):
    bound = 20
    ext_deg = [d for d in range(5, bound + 1, 4)]
    pol_deg = [d for d in range(2, bound + 1, 4)]
    som = homology.coefficient_ring_series(homology.SOMEGA, bound)
    if som != _oracle_exterior(ext_deg, bound):
        return "fail", "sOmega table"
    kf = homology.coefficient_ring_series(homology.K_THEORY_FIBER, bound)
    kf_oracle = _oracle_partitions(pol_deg, bound)
    kf_oracle[0] = 0
    if kf != kf_oracle:
        return "fail", "KTheoryFiber table"
    thh = homology.coefficient_ring_series(homology.THH, bound)
    eo = _oracle_exterior(ext_deg, bound)
    po = _oracle_partitions(pol_deg, bound)
    conv = [sum(eo[i] * po[n - i] for i in range(n + 1)) for n in range(bound + 1)]
    if thh != conv:
        return "fail", "THH table"
    return "pass", "sOmega / KTheoryFiber / THH tables match oracles to degree 20"


def _check_coaction(degree):
    if degree < 12:
        return "skipped", "needs retained degree 12, have %d" % degree
    m = genus_mod.cp(2)
    classes = [
        GradedPolynomial.one(),
        genus_mod.chern_character(m, 1),
        genus_mod.chern_character(m, 2),
    ]
    for cls in classes:
        if not genus_mod.counit_check(m, cls, 12):
            return "fail", "counit fails"
        if not genus_mod.coassociativity_check(m, cls, 12):
            return "fail", "coassociativity fails"
    return "pass", "counit + coassociativity on CP2 through degree 12"


CRITERIA = [
    (1, "d-class identity", _check_d_class_identity),
    (2, "a-class structure", _check_a_class_structure),
    (3, "primitives", _check_primitives),
    (4, "diagonal vanishing", _check_diagonal_vanishing),
    (5, "primitivity", _check_primitivity),
    (6, "torsor law", _check_torsor_law),
    (7, "genus engine", _check_genus_engine),
    (8, "gamma exponential", _check_gamma_exponential),
    (9, "Koszul duality", _check_koszul_duality),
    (10, "QSymm polynomiality", _check_qsymm_polynomiality),
    (11, "MZV", _check_mzv),
    (12, "series tables", _check_series_tables),
    (13, "coaction", _check_coaction),
]


def run_all(degree=30, only=None):
    """Run the criteria at truncation degree ``degree``; returns a list
    of result dicts sorted by id.

    ``only``, when given, is the set of criterion ids to run; an id that
    names no criterion raises ValueError, so a mistyped id cannot turn
    the run into a vacuous pass.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    unknown = sorted(set(only or ()) - {cid for cid, _, _ in CRITERIA})
    if unknown:
        raise ValueError("unknown criterion ids %s" % unknown)
    results = []
    for cid, name, fn in CRITERIA:
        if only is not None and cid not in only:
            continue
        start = time.monotonic()
        try:
            status, detail = fn(degree)
        except Exception as exc:  # a crash is a failure, not an abort
            status, detail = "fail", "exception: %s" % exc
        results.append(
            {
                "id": cid,
                "name": name,
                "status": status,
                "seconds": round(time.monotonic() - start, 3),
                "detail": detail,
            }
        )
    return sorted(results, key=lambda r: r["id"])


def all_passed(results):
    return all(r["status"] in ("pass", "skipped") for r in results)
