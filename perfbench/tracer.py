"""Per-layer tracing from outside the program.

The traced run wraps public functions of hopfgenus's layers in place.  A
name imported into several modules (``core.mul_terms``,
``linalg.rank_bareiss``, ``homology.rank_rational``) is replaced in every
hopfgenus module that binds it, and ``Tracer.restore`` puts the original
objects back.  Each wrapped call is a span (layer, start, end, parent);
spans are kept in memory and reduced to self time once tracing ends.
The untraced run never imports this module.
"""

import statistics
import sys
import time
from array import array

# (layer, owner, attribute, work counter): ``owner`` is a module, or a
# module and class joined by ':'.  symm.convert wraps the three basis
# conversion workers that every public conversion path goes through.
LAYERS = (
    ("kernels.mul_terms", "hopfgenus._kernels", "mul_terms", "mul_terms"),
    ("kernels.rank_bareiss", "hopfgenus._kernels", "rank_bareiss", "rank_bareiss"),
    ("linalg.rank_rational", "hopfgenus.linalg", "rank_rational", "rank_rational"),
    ("core.series_mul", "hopfgenus.core:TruncatedSeries", "__mul__", None),
    ("core.series_inverse", "hopfgenus.core:TruncatedSeries", "inverse", None),
    ("core.series_exp", "hopfgenus.core:TruncatedSeries", "exp", None),
    ("core.series_log", "hopfgenus.core:TruncatedSeries", "log", None),
    ("core.substitute", "hopfgenus.core:GradedPolynomial", "substitute", "poly_terms"),
    ("symm.convert", "hopfgenus.symm", "_convert_multiplicative", None),
    ("symm.convert", "hopfgenus.symm", "_to_m", None),
    ("symm.convert", "hopfgenus.symm", "_from_m", None),
    ("symm.d_classes", "hopfgenus.symm", "d_classes", None),
    ("symm.d_classes_exp_form", "hopfgenus.symm", "d_classes_exp_form", None),
    ("qsymm.quasi_shuffle", "hopfgenus.qsymm", "quasi_shuffle", "poly_terms"),
    ("qsymm.lyndon_generators", "hopfgenus.qsymm", "lyndon_generators", None),
    ("mzv.mzv_eval", "hopfgenus.mzv", "mzv_eval", "mzv_eval"),
    ("mzv.zeta_specialize", "hopfgenus.mzv", "zeta_specialize", None),
    ("homology.tor_via_bar", "hopfgenus.homology", "tor_via_bar", None),
    ("genus.multiplicative_class", "hopfgenus.genus", "multiplicative_class", None),
    ("genus.chern_character", "hopfgenus.genus", "chern_character", None),
    ("genus.deform_genus", "hopfgenus.genus", "deform_genus", None),
    ("genus.coaction", "hopfgenus.genus", "coaction", None),
    ("genus.manifold_from_json", "hopfgenus.genus", "manifold_from_json", None),
    ("cli.main", "hopfgenus.cli", "main", "cli_main"),
)

BOOKKEEPING = "trace.bookkeeping"


def self_times(spans):
    """Self time per layer from spans ``(layer, start, end, parent)``.

    ``parent`` is the index of the enclosing span or -1.  A span's self
    time is its duration minus the part of its interval that its child
    spans cover (overlapping children are counted once).
    """
    children = {}
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append(i)
    out = {}
    for i, (layer, start, end, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children.get(i, ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[layer] = out.get(layer, 0.0) + (end - start) - covered
    return out


def _matrix_key(rows):
    return tuple(
        tuple((j, x.numerator, x.denominator) for j, x in enumerate(row) if x) for row in rows
    )


class Tracer:
    """Install wrappers, record spans and work counts, then restore."""

    def __init__(self):
        self.layer_names = []
        self._layer_index = {}
        self.layer = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.calls = {}
        self.counts = {}
        self.radius_over_target = []
        self._ranked = {}
        self._installed = []
        self.missing = set()

    # -- spans ------------------------------------------------------------

    def _index(self, layer):
        idx = self._layer_index.get(layer)
        if idx is None:
            idx = self._layer_index[layer] = len(self.layer_names)
            self.layer_names.append(layer)
        return idx

    def _enter(self, idx):
        i = len(self.layer)
        self.layer.append(idx)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _exit(self, i):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def _count(self, layer, key, n=1):
        per = self.counts.setdefault(layer, {})
        per[key] = per.get(key, 0) + n

    def spans(self):
        names = self.layer_names
        return [
            (names[l], s, e, p) for l, s, e, p in zip(self.layer, self.start, self.end, self.parent)
        ]

    def _enclosing(self, layer):
        idx = self._layer_index.get(layer)
        for i in reversed(self._stack[1:]):
            if self.layer[i] == idx:
                return i
        return -1

    # -- work counters ----------------------------------------------------

    def _before(self, kind, layer, args):
        if kind == "rank_rational":
            # Repeat detection costs real time: give it its own span so
            # that it leaves every layer's self time alone.
            b = self._enter(self._index(BOOKKEEPING))
            key = _matrix_key(args[0])
            seen = self._ranked.setdefault(self._enclosing("homology.tor_via_bar"), set())
            if key in seen:
                self._count(layer, "repeats")
            seen.add(key)
            self._exit(b)
        elif kind == "rank_bareiss":
            rows = args[0]
            self._count(layer, "cells", len(rows) * len(rows[0]) if rows else 0)

    def _after(self, kind, layer, args, kwargs, result):
        if kind == "mul_terms":
            self._count(layer, "terms_out", len(result))
        elif kind == "poly_terms":
            self._count(layer, "terms_out", len(result.terms))
        elif kind == "mzv_eval":
            target = args[1] if len(args) > 1 else kwargs.get("target_error", 1e-8)
            self.radius_over_target.append(result.error_bound / target)
        elif kind == "cli_main" and result != 0:
            self._count(layer, "errors")

    def _failed(self, kind, layer, exc):
        if kind == "mzv_eval" and type(exc).__name__ == "PrecisionError":
            self._count(layer, "precision_errors")
        elif kind == "cli_main":
            self._count(layer, "errors")

    def wrap(self, layer, fn, kind=None):
        idx = self._index(layer)
        calls = self.calls
        enter, exit_ = self._enter, self._exit
        before, after, failed = self._before, self._after, self._failed

        def traced(*args, **kwargs):
            calls[layer] = calls.get(layer, 0) + 1
            if kind is not None:
                before(kind, layer, args)
            i = enter(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                exit_(i)
                if kind is not None:
                    failed(kind, layer, exc)
                raise
            exit_(i)
            if kind is not None:
                after(kind, layer, args, kwargs, result)
            return result

        return traced

    # -- install / restore ------------------------------------------------

    def install(self):
        """Wrap every layer function in every hopfgenus namespace binding it."""
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "hopfgenus" or name.startswith("hopfgenus."))
        ]
        for layer, owner, attr, kind in LAYERS:
            modname, _, clsname = owner.partition(":")
            mod = sys.modules.get(modname)
            if mod is None:
                continue  # the workload never imported this layer
            target = getattr(mod, clsname, None) if clsname else mod
            original = getattr(target, attr, None)
            if original is None:
                self.missing.add("%s.%s" % (owner, attr))
                continue
            wrapper = self.wrap(layer, original, kind)
            if clsname:
                self._installed.append((target, attr, original))
                setattr(target, attr, wrapper)
                continue
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._installed.append((m, name, original))
                        setattr(m, name, wrapper)

    def restore(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed = []

    # -- results ----------------------------------------------------------

    def layer_metrics(self):
        """Totals over everything traced so far, keyed by metric name."""
        selfs = self_times(self.spans())
        out = {}
        for layer, *_ in LAYERS:
            out["%s.calls" % layer] = self.calls.get(layer, 0)
            out["%s.self_s" % layer] = selfs.get(layer, 0.0)
            for key, n in self.counts.get(layer, {}).items():
                out["%s.%s" % (layer, key)] = n
        rr = "linalg.rank_rational"
        out[rr + ".repeat_frac"] = self.counts.get(rr, {}).get("repeats", 0) / max(
            1, self.calls.get(rr, 0)
        )
        out["mzv.mzv_eval.radius_over_target"] = (
            statistics.median(self.radius_over_target) if self.radius_over_target else 0.0
        )
        return out
