"""Test-only frozen copies of the series paths that one-pass recurrences replaced.

Before ``core`` had ``/``, ``exp_scaled`` and ``log_scaled``, a quotient
a/b was ``b.inverse()`` followed by ``*``, the Newton classes were read
off a rational ``log`` and multiplied back by k, and the exponential of
an integral argument s_k went through the fractions s_k / k.  The three
recurrences below are the deleted ``_series_inverse`` and the former
``_series_exp`` and ``_series_log``, run on the library's packed layout;
the tests keep them as oracles for the paths that replaced them.
"""

from hopfgenus.core import _convolve_into, _PackedLayout
from hopfgenus.rational import canonical, divide


def _series_inverse(a):
    inv = [{0: 1}]
    for k in range(1, len(a)):
        acc = {}
        for j in range(1, k + 1):
            if a[j] and inv[k - j]:
                _convolve_into(acc, a[j], inv[k - j])
        inv.append({m: canonical(-c) for m, c in acc.items() if c})
    return inv


def _series_exp(a):
    scaled = [{m: canonical(c * j) for m, c in t.items()} for j, t in enumerate(a)]
    out = [{0: 1}]
    for k in range(1, len(a)):
        acc = {}
        for j in range(1, k + 1):
            if scaled[j] and out[k - j]:
                _convolve_into(acc, scaled[j], out[k - j])
        out.append({m: divide(c, k) for m, c in acc.items() if c})
    return out


def _series_log(a):
    out = [{}]
    scaled = [{}]  # j out_j
    for k in range(1, len(a)):
        acc = {m: canonical(-k * c) for m, c in a[k].items()}
        for j in range(1, k):
            if scaled[j] and a[k - j]:
                _convolve_into(acc, scaled[j], a[k - j])
        scaled.append({m: -c for m, c in acc.items() if c})
        out.append({m: divide(c, -k) for m, c in acc.items() if c})
    return out


def _run(recurrence, series):
    layout = _PackedLayout((series,), series.bound)
    return layout.series(recurrence(layout.pack(series)))


def inverse(series):
    """The former ``TruncatedSeries.inverse``."""
    return _run(_series_inverse, series)


def exp(series):
    """The former ``TruncatedSeries.exp``."""
    return _run(_series_exp, series)


def log(series):
    """The former ``TruncatedSeries.log``."""
    return _run(_series_log, series)
