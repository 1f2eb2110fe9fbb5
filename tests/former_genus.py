"""Test-only frozen copies of the genus paths that the series ``exp`` and
the parent-extended coaction replaced.

``_ring_exp`` used to sum arg^m / m! for m <= dim_c, reducing each power,
in a coefficient kind chosen from the deformation parameters; the
deformation exponential mapped each Chern character to that kind first,
with ``map_coefficients``, which the library no longer has.
``coaction`` rebuilt each alpha's product from ``cls`` with |alpha| ring
products, for every alpha up to ``bound``.  A catalog model used to store
its dimension and volume monomial beside (symbol, gid, degree,
nilpotency) generators (``catalog_fields``).  The tests keep them as
oracles for the paths that replaced them.
"""

from hopfgenus.core import GradedPolynomial, PowerSeries1, add_into, gen_id, gid_degree
from hopfgenus.genus import (
    _alpha_partitions,
    _ch_from_newton,
    _d_class_images,
    _newton_classes,
    _numeric_kind,
)
from hopfgenus.rational import Q


def map_coefficients(poly, fn):
    out = {}
    for m, c in poly.terms.items():
        v = fn(c)
        if v != 0:
            out[m] = v
    return GradedPolynomial(out)


def ring_exp(model, arg, kind):
    power = GradedPolynomial.one()
    if kind is not None:
        power = map_coefficients(power, kind)
    out = dict(power.terms)
    for m in range(1, model.dim_c + 1):
        power = model.reduce(power * arg) * (Q(1, m) if kind is None else 1.0 / m)
        add_into(out, power.terms)
    return GradedPolynomial(out)


def multiplicative_class(model, q_series):
    n = model.dim_c
    if n == 0:
        return GradedPolynomial.one()
    l = PowerSeries1(q_series.coeffs[: n + 1]).log().coeffs
    arg = {}
    for m, nm in enumerate(_newton_classes(model), 1):
        add_into(arg, (nm * l[m]).terms)
    return ring_exp(model, GradedPolynomial(arg), None)


def deformation_exponential(model, params, include_ch1=True):
    entries = [(k, v) for k, v in params.entries if include_ch1 or k != 1]
    kind = _numeric_kind([v for _, v in entries])
    newton = _newton_classes(model)
    arg = {}
    for k, v in entries:
        ch = _ch_from_newton(newton, k)
        if kind is not None:
            ch = map_coefficients(ch, kind)
        add_into(arg, (ch * v).terms)
    return ring_exp(model, GradedPolynomial(arg), kind)


def deform_genus(model, q_series, params, include_ch1=True):
    expo = deformation_exponential(model, params, include_ch1)
    kind = _numeric_kind([v for _, v in params.entries])
    kclass = multiplicative_class(model, q_series)
    if kind is not None:
        kclass = map_coefficients(kclass, kind)
    return model.pairing(model.reduce(expo * kclass))


def coaction(model, cls, bound):
    dvals = _d_class_images(model)
    out = {(): cls}
    for alpha in _alpha_partitions(bound, dvals):
        if not alpha:
            continue
        acc = cls
        for j, m in alpha:
            for _ in range(m):
                acc = model.reduce(acc * dvals[j])
        if acc.terms:
            out[alpha] = acc
    return out


def catalog_fields(name):
    """(dim_c, volume, betti numbers) of a catalog model such as
    'CP1xCP2', as the former model stored and derived them."""
    dim_c, gens, volume = 0, (), ()
    for factor in name.split("x"):
        n = 0 if factor == "pt" else int(factor[2:])
        if not n:
            continue
        # the factor's one generator x, renamed to the first free letter on a clash
        used = {sym for sym, _, _, _ in gens}
        sym = next(s for s in "xyzuvwabcdefg" if s not in used)
        gid = gen_id(sym, 1, 2)
        gens += ((sym, gid, 2, n),)
        dim_c += n
        volume = tuple(sorted(volume + ((gid, n),)))
    betti = [0] * (2 * dim_c + 1)
    basis = [()]
    for _, g, _, nil in gens:
        basis = [b + ((g, e),) if e else b for b in basis for e in range(nil + 1)]
    for mon in basis:
        d = sum(gid_degree(g) * e for g, e in mon)
        if d <= 2 * dim_c:
            betti[d] += 1
    return dim_c, volume, betti
