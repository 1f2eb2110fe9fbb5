"""The four workloads: seeded inputs, the timed operations, their oracles.

Every workload is a closed loop with one client: the next operation
starts when the previous one returns.  A *pass* is the workload's whole
operation list; ``wall_s`` is the mean pass time.  Inputs depend only on
the seed.  The seed varies what the operations are asked (call order,
coefficients, oracle evaluation points) and deals sizes from fixed decks,
so every option comes up equally often and pass time does not swing with
the seed.  A warm workload runs warm-up operations before its first pass
(counted in ``setup_s``), so that every measured pass sees the same
cache state.

Where the mix comes from:

* symm-identity -- criterion 1 (d-class identity) and criterion 2
  (a-class structure) at weight 24, as named in the benchmark's issue.
* tor-bar -- the issue's named calls: the rank-bound exterior[3,5,7,9]@32
  and the enumeration-bound squarezero[2,3,5]@28 and [2,3,4]@26, plus
  acceptance criterion 9's exterior[5,9]@24 and squarezero[5,9]@22 (a
  millisecond each); the README's ``tor --algebra exterior:5,9 --bound 20``
  is the warm-up.  Measured here (2-vCPU VM, pure kernels): 5.2 s rank-
  bound against 2.3 s enumeration-bound, about 70/30.
* mzv-certify -- the issue's slow indices (next-to-last entry 1) with a
  closed-form reference, (1,2)@1e-6, (2,1,2)@1e-5, (1,1,2)@1e-4, plus the
  criterion-11 value (2,2)@1e-8; (3,1,2) is left out for want of an
  independent reference.  The issue splits the workload into a slow half
  and a fast half, so the fast requests are sized to take as long as the
  slow ones, split evenly between fast evaluations (972 = 18 x each of
  the 54 index/target pairs, about 2 ms each) and stuffle checks (18 =
  every stuffle pair 3 times on each side, about 120 ms each).  Measured
  here: slow 4.1 s, fast evaluations 2.0 s, stuffle checks 2.2 s a pass.
  The warm-up is the README's ``mzv eval --index "(2,3)" --error 1e-8``
  and the quasi-shuffle of every stuffle pair, which fills
  ``qsymm._qs_words`` before the first pass.
* cli-session -- one request kind per example command in the README's
  CLI section (11 commands; ``series`` appears twice), dealt uniformly.
  Sizes are dealt from small ranges that include each README example's
  size, except ``symm identity-check``, whose README weight 20 takes
  seconds: the issue asks for small weights, so it runs at weight 4-12
  (d-classes) and 4-14 (a-classes).

Which per-layer metrics each workload is meant to move:

* symm-identity -- ``kernels.mul_terms.*``, ``core.*``, ``symm.convert.*``,
  ``symm.d_classes*.self_s``, ``symm.gen_table.*`` (cold fill) move its
  ``wall_s``; its ``peak_rss_mb`` is the cold cache footprint.
* tor-bar -- ``linalg.rank_rational.*``, ``kernels.rank_bareiss.*`` and
  ``homology.tor_via_bar.self_s`` move its ``wall_s``.  The square-zero
  calls have zero differentials, so bar-word enumeration dominates them.
* mzv-certify -- ``mzv.*`` and ``qsymm.quasi_shuffle.*`` move its
  ``wall_s`` and ``peak_rss_mb``; the slow fixed indices (next-to-last
  entry 1) show summation-level changes, the fast ones per-call overhead.
* cli-session -- ``genus.*``, ``cli.main.self_s`` and the warm
  ``symm.gen_table.*`` / ``symm.subst_cache.entries`` move its
  ``op_p50_ms``, ``op_p99_ms``, ``wall_s`` and ``peak_rss_mb``.

Import cost shows in ``setup_s`` everywhere.  The full acceptance suite
is not a workload (criteria 1 and 11 take 43 s and 21 s a run); its code
paths are covered at reduced size by symm-identity, tor-bar and
mzv-certify.
"""

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
import re
from fractions import Fraction

import oracles
from oracles import expect


class Op:
    """One timed call and the oracle for its result."""

    __slots__ = ("label", "run", "check")

    def __init__(self, label, run, check):
        self.label = label
        self.run = run
        self.check = check


def _rational(rng, lo=-5, hi=5, qmax=6):
    p = 0
    while p == 0:
        p = rng.randint(lo, hi)
    return "%d/%d" % (p, rng.randint(1, qmax)) if rng.random() < 0.7 else str(p)


class Dealer:
    """Seeded choices whose counts do not depend on the seed.

    ``deal(key, options)`` takes the next card from a shuffled deck of the
    options, reshuffled when empty, so over many draws every option comes
    up equally often and a pass costs nearly the same for every seed.
    """

    def __init__(self, rng):
        self.rng = rng
        self.decks = {}

    def __call__(self, key, options):
        deck = self.decks.setdefault(key, [])
        if not deck:
            deck.extend(options)
            self.rng.shuffle(deck)
        return deck.pop()


# ---------------------------------------------------------------------------
# symm-identity: the d-class identity and a-class structure, cold


class SymmIdentity:
    """Criterion 1 at weight 24 in a cold process, plus criterion 2.

    Each pass runs in a fresh process because the cold fill of symm's
    conversion caches is what a CLI user pays on every run.
    """

    name = "symm-identity"
    cold = True
    mzv_indices = ()
    weight = 24

    def make_inputs(self, seed):
        rng = random.Random(seed)
        nonzero = [v for v in range(-9, 10) if v]
        return {
            "weight": self.weight,
            "c_point": [rng.choice(nonzero) for _ in range(self.weight)],
            "b_point": [rng.choice(nonzero) for _ in range(self.weight)],
        }

    def prepare(self, inputs, workdir):
        from hopfgenus import core, symm

        w = inputs["weight"]
        done = {}

        def evaluate(poly, point):
            total = Fraction(0)
            for mon, coeff in poly.terms.items():
                term = Fraction(coeff)
                for gid, e in mon:
                    term *= point[core.gid_index(gid) - 1] ** e
                total += term
            return total

        def check_d(form):
            def check(series):
                want = oracles.d_series_at(inputs["c_point"], w)
                for k in range(w + 1):
                    got = evaluate(series.comps[k], inputs["c_point"])
                    expect(got == want[k], "%s: weight %d is %s at the point, want %s" % (form, k, got, want[k]))
                # keep a hash, not the series: the next operation should
                # not run alongside this one's result
                done[form] = [_digest(c.terms) for c in series.comps]
                if len(done) == 2:
                    diff = [k for k in range(w + 1) if done["quotient"][k] != done["exp_form"][k]]
                    expect(not diff, "d-class forms differ at weights %s" % diff)
            return check

        def check_a(series):
            want = oracles.a_series_at(inputs["b_point"], w)
            for k in range(w + 1):
                got = evaluate(series.comps[k], inputs["b_point"])
                expect(got == want[k], "a-classes: weight %d is %s at the point, want %s" % (k, got, want[k]))
            for k in range(1, w + 1):
                linear = {
                    core.gid_index(m[0][0]): c
                    for m, c in series.comps[k].terms.items()
                    if len(m) == 1 and m[0][1] == 1
                }
                want_linear = {k: 2} if k % 2 == 0 else {}
                expect(linear == want_linear, "a_%d linear part %s, want %s" % (k, linear, want_linear))

        return [], [
            Op("d_classes", lambda: symm.d_classes(w), check_d("quotient")),
            Op("d_classes_exp_form", lambda: symm.d_classes_exp_form(w), check_d("exp_form")),
            Op("a_classes", lambda: symm.a_classes(w), check_a),
        ]


def _digest(terms):
    return hashlib.sha256(repr(sorted(terms.items())).encode()).hexdigest()


# ---------------------------------------------------------------------------
# tor-bar: Tor via the reduced bar complex


class TorBar:
    """The issue's rank-bound and enumeration-bound calls, in seeded order."""

    name = "tor-bar"
    cold = False
    mzv_indices = ()
    calls = (
        ("exterior", [3, 5, 7, 9], 32),
        ("squarezero", [2, 3, 5], 28),
        ("squarezero", [2, 3, 4], 26),
        ("exterior", [5, 9], 24),
        ("squarezero", [5, 9], 22),
    )
    warmup = (("exterior", [5, 9], 20),)

    def make_inputs(self, seed):
        rng = random.Random(seed)
        calls = [list(c) for c in self.calls]
        rng.shuffle(calls)
        return {"warmup": [list(c) for c in self.warmup], "calls": calls}

    def prepare(self, inputs, workdir):
        from hopfgenus import homology

        def op(kind, degrees, bound):
            if kind == "exterior":
                algebra = homology.exterior_algebra(degrees, bound)
            else:
                algebra = homology.square_zero_extension(degrees, bound)
            label = "%s%s@%d" % (kind, degrees, bound)
            return Op(label, _tor_call(homology, algebra, bound), _tor_check(label, kind, degrees, bound))

        return [op(*c) for c in inputs["warmup"]], [op(*c) for c in inputs["calls"]]


def _tor_call(homology, algebra, bound):
    return lambda: homology.tor_via_bar(algebra, bound)


def _tor_check(label, kind, degrees, bound):
    def check(table):
        oracle = oracles.tor_exterior if kind == "exterior" else oracles.tor_square_zero
        want = oracle(degrees, bound)
        got = {k: v for k, v in table.dims.items() if v}
        expect(got == want, "%s: Tor %s, want %s" % (label, sorted(got.items()), sorted(want.items())))
    return check


# ---------------------------------------------------------------------------
# mzv-certify: certified multizeta enclosures and the stuffle homomorphism


class MzvCertify:
    """Slow fixed enclosures, many fast ones, and homomorphism checks.

    The pairs of stuffle pairs are fixed (pair i against pairs i, i+1 and
    i+2), so that only coefficients and order vary with the seed.
    """

    name = "mzv-certify"
    cold = False
    # next-to-last entry 1: the inner bound decays like 1/N, so these run
    # to large N; (2,2) is the criterion-11 closed form
    slow = (((1, 2), 1e-6), ((2, 1, 2), 1e-5), ((1, 1, 2), 1e-4), ((2, 2), 1e-8))
    # weight <= 8, next-to-last entry >= 2, a closed form, and inner
    # levels converging at least like N^-3: milliseconds per request
    fast = [(2, 3), (3, 2), (2, 4), (4, 2), (3, 3), (4, 4)]
    targets = (1e-8, 3e-9, 1e-9, 3e-10, 1e-10, 3e-11, 1e-11, 3e-12, 1e-12)
    stuffle_pairs = [((2,), (3, 3)), ((3,), (2, 2)), ((4,), (1, 4)), ((5,), (2, 3)), ((2, 2), (3, 2)), ((2,), (4,))]
    fast_repeats = 18
    stuffle_offsets = (0, 1, 2)
    warmup_eval = ((2, 3), 1e-8)

    @property
    def mzv_indices(self):
        words = [w for pair in self.stuffle_pairs for w in pair]
        return [i for i, _ in self.slow] + self.fast + words + [self.warmup_eval[0]]

    def make_inputs(self, seed):
        rng = random.Random(seed)
        requests = [["eval", list(i), t] for i, t in self.slow]
        for _ in range(self.fast_repeats):
            requests.extend(["eval", list(i), t] for i in self.fast for t in self.targets)
        pairs = self.stuffle_pairs
        for i in range(len(pairs)):
            for k in self.stuffle_offsets:
                sides = []
                for u, v in (pairs[i], pairs[(i + k) % len(pairs)]):
                    sides.append([[list(u), rng.choice([-2, -1, 1, 2, 3])], [list(v), rng.choice([-1, 1, 2])]])
                requests.append(["stuffle"] + sides)
        rng.shuffle(requests)
        idx, target = self.warmup_eval
        warmup = [["eval", list(idx), target]] + [["shuffle"] + r[1:] for r in requests if r[0] == "stuffle"]
        return {"warmup": warmup, "requests": requests}

    def prepare(self, inputs, workdir):
        from hopfgenus import mzv, qsymm

        def op(req):
            if req[0] == "eval":
                idx, target = tuple(req[1]), req[2]
                return Op("eval%s@%g" % (idx, target), _mzv_call(mzv, idx, target), _mzv_check(idx, target))
            a, b = (qsymm.QSymmElement({tuple(w): c for w, c in terms}) for terms in req[1:])
            if req[0] == "shuffle":
                return Op("quasi_shuffle", lambda: qsymm.quasi_shuffle(a, b), _shuffle_check(req[1], req[2]))
            return Op("stuffle", _stuffle_call(mzv, a, b), _stuffle_check(req[1], req[2]))

        return [op(r) for r in inputs["warmup"]], [op(r) for r in inputs["requests"]]


def _mzv_call(mzv, idx, target):
    return lambda: mzv.mzv_eval(idx, target)


def _mzv_check(idx, target):
    return lambda enc: oracles.check_enclosure(idx, enc.value, enc.error_bound, target)


def _stuffle_call(mzv, a, b):
    return lambda: mzv.homomorphism_check(a, b, target_error=1e-6)


def _stuffle_check(a_terms, b_terms):
    def value(terms):
        return sum(c * oracles.mzv_reference(w) for w, c in terms)

    def check(report):
        expect(report["passed"], "stuffle homomorphism failed: %s" % report)
        ref = value(a_terms) * value(b_terms)
        for side in ("lhs", "rhs"):
            miss = abs(ref - Fraction(report[side]))
            expect(miss <= Fraction(report["allowed"]), "stuffle %s misses the reference by %g" % (side, miss))
    return check


def _shuffle_check(a_terms, b_terms):
    def check(product):
        want = oracles.quasi_shuffle_total(a_terms, b_terms)
        got = sum(product.terms.values())
        expect(got == want, "quasi-shuffle coefficients sum to %s, want %s" % (got, want))
        weight = {sum(u) + sum(v) for u, _ in a_terms for v, _ in b_terms}
        expect({sum(w) for w in product.terms} <= weight, "quasi-shuffle changed the weight")
    return check


# ---------------------------------------------------------------------------
# cli-session: README-style requests through hopfgenus.cli.main


class CliSession:
    """990 seeded requests (90 decks of the 11 kinds) in one warm process.

    The warm-up requests hit every command at its largest size, so the
    measured passes hit symm's conversion caches instead of filling them.
    """

    name = "cli-session"
    cold = False
    n_requests = 990
    # one entry per example command of the README's CLI section
    kinds = (
        "symm", "hilbert", "lyndon", "mzv", "tor", "series", "series", "genus", "deform", "file", "coaction",
    )
    mzv_indices = [(2,), (3,), (4,), (5,), (1, 4), (2, 3), (3, 2), (3, 3), (1, 5)]
    profiles = ("all", "odd:1", "odd:3", "set:2,3", "arith:2:3")
    manifolds = [[n] for n in range(1, 7)] + [[a, b] for a in range(1, 4) for b in range(1, 4)]
    files = ([1], [2], [3], [1, 1], [1, 2], [2, 1])

    def make_inputs(self, seed):
        rng = random.Random(seed)
        deal = Dealer(rng)
        files = {"m%d" % i: dims for i, dims in enumerate(self.files)}
        warmup = [
            {"kind": "symm", "which": "d-classes", "weight": 12},
            {"kind": "symm", "which": "a-classes", "weight": 14},
            {"kind": "genus", "dims": [6], "series": "A-hat", "format": "json"},
            {"kind": "genus", "dims": [3, 3], "series": "Todd", "format": "text"},
            {"kind": "deform", "dims": [3, 3], "series": "A-hat", "t": {"1": "1/3", "3": "2", "5": "-1/2"},
             "model": "kge0", "format": "json"},
            {"kind": "file", "file": "m4", "series": "Todd", "t": None},
            {"kind": "coaction", "n": 4, "power": 1, "bound": 12},
            {"kind": "hilbert", "flavor": "polynomial-on-lyndon", "profile": "all", "bound": 10},
            {"kind": "lyndon", "profile": "all", "bound": 9},
            {"kind": "mzv", "index": [2, 3], "error": 1e-8},
            {"kind": "tor", "algebra": "exterior", "degrees": [3, 5], "bound": 20},
            {"kind": "series", "which": "THH", "bound": 20, "model": "kge0", "format": "csv"},
        ]
        stream = [self._request(rng, deal, deal("kind", self.kinds), sorted(files)) for _ in range(self.n_requests)]
        return {"files": files, "warmup": warmup, "stream": stream}

    def _request(self, rng, deal, kind, file_names):
        if kind in ("genus", "deform"):
            req = {
                "kind": kind,
                "dims": deal(kind + ".dims", self.manifolds),
                "series": deal(kind + ".series", ["A-hat", "Todd"]),
                "format": rng.choice(["json", "text"]),
            }
            if kind == "deform":
                req["t"] = {str(k): _rational(rng) for k in deal("deform.t", [[1], [3], [5], [1, 3], [3, 5], [1, 3, 5]])}
                req["model"] = deal("deform.model", ["kge0", "igt0"])
            return req
        if kind == "file":
            t = deal("file.t", [None, [1], [3], [1, 3]])
            if t is not None:
                t = {str(k): _rational(rng) for k in t}
            return {"kind": kind, "file": deal("file.name", file_names), "series": deal("file.series", ["A-hat", "Todd"]), "t": t}
        if kind == "coaction":
            n = deal("coaction.n", [1, 2, 3, 4])
            return {"kind": kind, "n": n, "power": deal("coaction.power%d" % n, list(range(min(2, n) + 1))),
                    "bound": deal("coaction.bound", [4, 6, 8, 10, 12])}
        if kind == "series":
            return {
                "kind": kind,
                "which": deal("series.which", ["sOmega", "THH", "KTheoryFiber"]),
                "bound": deal("series.bound", list(range(8, 21))),
                "model": deal("series.model", ["kge0", "igt0"]),
                "format": rng.choice(["csv", "text", "json"]),
            }
        if kind == "hilbert":
            flavor = deal("hilbert.flavor", ["associative", "lie", "polynomial-on-lyndon"])
            bounds = list(range(4, 11 if flavor == "polynomial-on-lyndon" else 13))
            return {"kind": kind, "flavor": flavor, "profile": deal("hilbert.profile", self.profiles),
                    "bound": deal("hilbert.bound." + flavor, bounds)}
        if kind == "lyndon":
            return {"kind": kind, "profile": deal("lyndon.profile", self.profiles), "bound": deal("lyndon.bound", list(range(3, 10)))}
        if kind == "mzv":
            index = deal("mzv.index", self.mzv_indices)
            return {"kind": kind, "index": list(index), "error": deal("mzv.error", [1e-8, 1e-9, 1e-10])}
        if kind == "tor":
            if deal("tor.algebra", ["exterior", "squarezero"]) == "exterior":
                return {"kind": kind, "algebra": "exterior", "degrees": sorted(rng.sample([3, 5, 7, 9], 2)),
                        "bound": deal("tor.exterior.bound", list(range(12, 21)))}
            return {"kind": kind, "algebra": "squarezero", "degrees": sorted(rng.sample([2, 3, 4, 5], 2)),
                    "bound": deal("tor.squarezero.bound", list(range(8, 15)))}
        if kind == "symm":
            which = deal("symm.which", ["d-classes", "a-classes"])
            weights = list(range(4, 13 if which == "d-classes" else 15))
            return {"kind": kind, "which": which, "weight": deal("symm.weight." + which, weights)}
        raise ValueError(kind)

    def prepare(self, inputs, workdir):
        from hopfgenus import cli

        paths = {}
        for name, dims in inputs["files"].items():
            paths[name] = os.path.join(workdir, name + ".json")
            with open(paths[name], "w") as fh:
                json.dump(_manifold_json(name, dims), fh)
        expected = {}

        def op(req):
            argv = _argv(req, paths)
            key = json.dumps(req, sort_keys=True)

            def run():
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    rc = cli.main(argv)
                return rc, buf.getvalue()

            def check(result):
                rc, text = result
                expect(rc == 0, "%s exited %s: %s" % (" ".join(argv), rc, text.strip()))
                if key not in expected:
                    expected[key] = _expected(req, inputs["files"])
                _check_output(req, text, expected[key])

            return Op(req["kind"], run, check)

        return [op(r) for r in inputs["warmup"]], [op(r) for r in inputs["stream"]]


def _cp_name(dims):
    return "x".join("CP%d" % n for n in dims)


def _manifold_json(name, dims):
    """A product of projective spaces in the manifold-file format:
    c = prod (1 + x_i)^(n_i + 1), truncated at x_i^(n_i + 1) = 0."""
    syms = "xy"[: len(dims)]
    terms = []
    for exps in itertools.product(*(range(n + 1) for n in dims)):
        coeff = 1
        gens = []
        for sym, n, e in zip(syms, dims, exps):
            coeff *= math.comb(n + 1, e)
            if e:
                gens.append("%s[1]^%d" % (sym, e) if e > 1 else "%s[1]" % sym)
        terms.append("*".join([str(coeff)] + gens))
    return {
        "name": name,
        "dim_c": sum(dims),
        "generators": [{"sym": s, "deg": 2, "nilpotency": n} for s, n in zip(syms, dims)],
        "total_chern": " + ".join(terms),
        "volume_monomial": "*".join("%s[1]^%d" % (s, n) for s, n in zip(syms, dims)),
    }


def _argv(req, paths):
    kind = req["kind"]
    if kind in ("genus", "deform"):
        argv = ["genus", "compute" if kind == "genus" else "deform", "--manifold", _cp_name(req["dims"]),
                "--series", req["series"], "--format", req["format"]]
        if kind == "deform":
            argv += ["--t", ",".join("%s:%s" % kv for kv in sorted(req["t"].items())), "--model", req["model"]]
        return argv
    if kind == "file":
        argv = ["genus", "compute" if req["t"] is None else "deform", "--manifold-file", paths[req["file"]],
                "--series", req["series"]]
        if req["t"] is not None:
            argv += ["--t", ",".join("%s:%s" % kv for kv in sorted(req["t"].items()))]
        return argv
    if kind == "coaction":
        cls = {0: "1", 1: "x[1]"}.get(req["power"], "x[1]^%d" % req["power"])
        return ["coaction", "--manifold", "CP%d" % req["n"], "--class", cls, "--bound", str(req["bound"])]
    if kind == "series":
        return ["series", "--which", req["which"], "--bound", str(req["bound"]), "--model", req["model"],
                "--format", req["format"]]
    if kind == "hilbert":
        return ["qsymm", "hilbert", "--flavor", req["flavor"], "--profile", req["profile"], "--bound", str(req["bound"])]
    if kind == "lyndon":
        return ["qsymm", "lyndon", "--profile", req["profile"], "--bound", str(req["bound"]), "--format", "json"]
    if kind == "mzv":
        return ["mzv", "eval", "--index", "(%s)" % ",".join(map(str, req["index"])), "--error", repr(req["error"])]
    if kind == "tor":
        return ["tor", "--algebra", "%s:%s" % (req["algebra"], ",".join(map(str, req["degrees"]))),
                "--bound", str(req["bound"]), "--format", "csv"]
    if kind == "symm":
        return ["symm", "identity-check", "--which", req["which"], "--max-weight", str(req["weight"])]
    raise ValueError(kind)


def _expected(req, files):
    """The oracle's answer for one request, computed without hopfgenus."""
    kind = req["kind"]
    if kind in ("genus", "deform", "file"):
        dims = files[req["file"]] if kind == "file" else req["dims"]
        t = req.get("t")
        include = req.get("model", "kge0") == "kge0"
        t = {int(k): Fraction(v) for k, v in t.items()} if t else None
        return oracles.product_genus(dims, req["series"], t, include)
    if kind == "coaction":
        return oracles.cp_coaction(req["n"], req["power"], req["bound"])
    if kind == "series":
        start = 2 if req["model"] == "kge0" else 6
        return oracles.coefficient_ring_counts(req["which"], req["bound"], start)
    if kind == "hilbert":
        return oracles.word_counts(oracles.profile_weights(req["profile"], req["bound"]), req["bound"])
    if kind == "lyndon":
        return oracles.lyndon_count(oracles.profile_weights(req["profile"], req["bound"]), req["bound"])
    if kind == "mzv":
        return None
    if kind == "tor":
        if req["algebra"] == "exterior":
            return oracles.tor_exterior(req["degrees"], req["bound"])
        return oracles.tor_square_zero(req["degrees"], req["bound"])
    if kind == "symm":
        return None
    raise ValueError(kind)


_MONOMIAL = re.compile(r"^(-)?(\d+(?:/\d+)?)?(?:\*?x\[1\](?:\^(\d+))?)?$")


def _parse_monomial(text):
    """'-6*x[1]^2' -> (Fraction(-6), 2); the components on CP^n are monomials."""
    m = _MONOMIAL.match(text.replace(" ", ""))
    expect(m is not None and text, "not a monomial: %r" % text)
    sign, coeff, power = m.groups()
    has_x = "x[1]" in text
    value = Fraction(coeff) if coeff else Fraction(1)
    return (-value if sign else value), (int(power) if power else (1 if has_x else 0))


def _rows(text):
    text = text.strip()
    if text.startswith("{"):
        return [list(r) for r in json.loads(text)["rows"]]
    return [[int(x) for x in line.split(",")] for line in text.splitlines()[1:]]


def _check_output(req, text, want):
    kind = req["kind"]
    if kind in ("genus", "deform", "file"):
        got = json.loads(text)["value"]
        expect(Fraction(got) == want, "%s: value %s, want %s" % (req, got, want))
    elif kind == "coaction":
        comps = json.loads(text)["components"]
        got = {k: _parse_monomial(v) for k, v in comps.items()}
        expect(got == want, "%s: components %s, want %s" % (req, got, want))
    elif kind == "series":
        got = [d for _, d in sorted(_rows(text))]
        expect(got == want, "%s: dims %s, want %s" % (req, got, want))
    elif kind == "hilbert":
        got = [d for _, d in sorted(_rows(text))]
        if req["flavor"] == "lie":
            ok = oracles.lie_dims_consistent(got, want)
        else:
            ok = got == want
        expect(ok, "%s: dims %s, words %s" % (req, got, want))
    elif kind == "lyndon":
        words = [tuple(w) for w in json.loads(text)["words"]]
        weights = set(oracles.profile_weights(req["profile"], req["bound"]))
        expect(len(words) == want, "%s: %d words, want %d" % (req, len(words), want))
        expect(words == sorted(set(words)), "%s: words not sorted and distinct" % req)
        for w in words:
            expect(sum(w) == req["bound"] and set(w) <= weights and oracles.is_lyndon(w), "%s: bad word %s" % (req, w))
    elif kind == "mzv":
        out = json.loads(text)
        oracles.check_enclosure(tuple(out["index"]), out["value"], out["error_bound"], req["error"])
        expect(out["index"] == req["index"], "%s: index echoed as %s" % (req, out["index"]))
    elif kind == "tor":
        got = {(r[0], r[1]): r[3] for r in _rows(text)}
        expect(got == want, "%s: Tor %s, want %s" % (req, sorted(got.items()), sorted(want.items())))
    elif kind == "symm":
        out = json.loads(text)
        expect(out["status"] == "exact-match" and out["max_weight"] == req["weight"], "%s: %s" % (req, out))


WORKLOADS = {w.name: w for w in (SymmIdentity(), TorBar(), MzvCertify(), CliSession())}
