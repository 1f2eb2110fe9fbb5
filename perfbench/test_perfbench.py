"""Tests of the benchmark itself: inputs, oracles, tracing arithmetic."""

import json
import os
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracles  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from oracles import OracleError  # noqa: E402
from workloads import WORKLOADS, CliSession, SymmIdentity, TorBar  # noqa: E402

from hopfgenus import cli, core, genus, homology, linalg, mzv, qsymm, symm  # noqa: E402
from hopfgenus._kernels import pure  # noqa: E402


@pytest.fixture(scope="module", autouse=True)
def mzv_references():
    """The table run.py hands to every worker, plus zeta(8)."""
    indices = list(WORKLOADS["mzv-certify"].mzv_indices) + list(CliSession.mzv_indices) + [(8,)]
    oracles.use_references(oracles.mzv_reference_table(indices))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_depend_only_on_the_seed(name):
    w = WORKLOADS[name]
    assert json.dumps(w.make_inputs(7)) == json.dumps(w.make_inputs(7))
    assert json.dumps(w.make_inputs(7)) != json.dumps(w.make_inputs(8))


def test_self_time_subtracts_the_covered_part_of_each_span():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 2.0, 3.0, 1),
        ("a", 5.0, 6.0, 0),
        ("c", 5.5, 7.0, 0),  # overlaps the second "a": counted once in root
    ]
    got = tracer.self_times(spans)
    assert got == pytest.approx({"root": 10.0 - 5.0, "a": 2.0 + 1.0, "b": 1.0, "c": 1.5})


def _ops(workload, inputs, tmp_path):
    _, ops = workload.prepare(inputs, str(tmp_path))
    return {op.label: op for op in ops}


def test_symm_oracle_rejects_a_corrupted_class(tmp_path):
    w = SymmIdentity()
    inputs = dict(w.make_inputs(3), weight=8)
    ops = _ops(w, inputs, tmp_path)
    d = ops["d_classes"].run()
    ops["d_classes"].check(d)
    mon = next(iter(d.comps[5].terms))
    d.comps[5].terms[mon] += 1
    with pytest.raises(OracleError):
        ops["d_classes_exp_form"].check(d)
    a = ops["a_classes"].run()
    ops["a_classes"].check(a)
    a.comps[4].terms[((core.gen_id("b", 4), 1),)] = Fraction(3)
    with pytest.raises(OracleError):
        ops["a_classes"].check(a)


def test_tor_oracle_rejects_a_dimension_off_by_one(tmp_path):
    w = TorBar()
    inputs = {"warmup": [], "calls": [["exterior", [3, 5], 16], ["squarezero", [2, 3], 10]]}
    for op in _ops(w, inputs, tmp_path).values():
        table = op.run()
        op.check(table)
        key = max(table.dims)
        table.dims[key] += 1
        with pytest.raises(OracleError):
            op.check(table)


def test_mzv_oracle_rejects_a_shifted_enclosure(tmp_path):
    w = WORKLOADS["mzv-certify"]
    pair = [[[2], 1], [[3, 3], -1]], [[[2, 2], 2], [[4], 1]]
    inputs = {"warmup": [["shuffle", *pair]], "requests": [["eval", [2, 3], 1e-10], ["stuffle", *pair]]}
    (shuffle,), _ = w.prepare(inputs, str(tmp_path))
    product = shuffle.run()
    shuffle.check(product)
    word = next(iter(product.terms))
    product.terms[word] += 1
    with pytest.raises(OracleError):
        shuffle.check(product)
    ops = list(_ops(w, inputs, tmp_path).values())
    enc = ops[0].run()
    ops[0].check(enc)
    with pytest.raises(OracleError):
        ops[0].check(mzv.CertifiedReal(enc.value + 2 * enc.error_bound, enc.error_bound))
    report = ops[1].run()
    ops[1].check(report)
    with pytest.raises(OracleError):
        ops[1].check(dict(report, rhs=report["rhs"] + 2 * report["allowed"]))


CLI_CASES = [
    ({"kind": "genus", "dims": [2], "series": "A-hat", "format": "json"}, '"-1/8"', '"1/8"'),
    ({"kind": "deform", "dims": [1, 2], "series": "Todd", "format": "text", "t": {"1": "1/3"}, "model": "kge0"},
     None, None),
    ({"kind": "file", "file": "m1", "series": "Todd", "t": {"3": "2"}}, None, None),
    ({"kind": "coaction", "n": 3, "power": 0, "bound": 10}, '"-88*x[1]^3"', '"-87*x[1]^3"'),
    ({"kind": "series", "which": "THH", "bound": 12, "model": "kge0", "format": "csv"}, "12,4", "12,5"),
    ({"kind": "hilbert", "flavor": "lie", "profile": "all", "bound": 8}, "8,30", "8,31"),
    ({"kind": "lyndon", "profile": "all", "bound": 5}, "[\n   2,\n   3\n  ]", "[\n   3,\n   2\n  ]"),
    ({"kind": "mzv", "index": [1, 4], "error": 1e-9}, '"index": [\n  1,\n  4\n ]', '"index": [\n  1,\n  5\n ]'),
    ({"kind": "tor", "algebra": "squarezero", "degrees": [3, 5], "bound": 16}, "3,13,16,3", "3,13,16,4"),
    ({"kind": "symm", "which": "d-classes", "weight": 6}, "exact-match", "mismatch"),
]


@pytest.mark.parametrize("req,good,bad", CLI_CASES, ids=[c[0]["kind"] for c in CLI_CASES])
def test_cli_oracle_rejects_a_corrupted_output(req, good, bad, tmp_path):
    w = CliSession()
    inputs = {"files": {"m1": [1, 2]}, "warmup": [], "stream": [req]}
    (op,) = _ops(w, inputs, tmp_path).values()
    rc, text = op.run()
    op.check((rc, text))
    if good is None:
        value = json.loads(text)["value"]
        good, bad = '"value": "%s"' % value, '"value": "%s"' % (Fraction(value) + 1)
    assert good in text
    with pytest.raises(OracleError):
        op.check((rc, text.replace(good, bad)))
    with pytest.raises(OracleError):
        op.check((1, text))


def test_traced_run_restores_every_original():
    originals = {
        (core, "mul_terms"): pure.mul_terms,
        (pure, "mul_terms"): pure.mul_terms,
        (linalg, "rank_bareiss"): pure.rank_bareiss,
        (homology, "rank_rational"): linalg.rank_rational,
        (core.TruncatedSeries, "__mul__"): core.TruncatedSeries.__dict__["__mul__"],
        (core.GradedPolynomial, "substitute"): core.GradedPolynomial.__dict__["substitute"],
        (symm, "_convert_multiplicative"): symm._convert_multiplicative,
        (symm, "d_classes"): symm.d_classes,
        (qsymm, "quasi_shuffle"): qsymm.quasi_shuffle,
        (mzv, "mzv_eval"): mzv.mzv_eval,
        (genus, "deform_genus"): genus.deform_genus,
        (cli, "main"): cli.main,
    }
    t = tracer.Tracer()
    t.install()
    try:
        assert core.mul_terms is not originals[(core, "mul_terms")]
        assert pure.mul_terms is not originals[(core, "mul_terms")]
        symm.d_classes_exp_form(6)
        homology.tor_via_bar(homology.exterior_algebra([3, 5], 12), 12)
        mzv.homomorphism_check(qsymm.QSymmElement.monomial((2,)), qsymm.QSymmElement.monomial((3,)))
        assert cli.main(["genus", "deform", "--manifold", "CP2", "--t", "1:1/2"]) == 0
    finally:
        t.restore()
    for (owner, attr), original in originals.items():
        assert getattr(owner, attr) is original, attr
        if isinstance(owner, type):
            assert owner.__dict__[attr] is original, attr
    m = t.layer_metrics()
    for layer in ("kernels.mul_terms", "kernels.rank_bareiss", "linalg.rank_rational",
                  "core.substitute", "symm.convert", "qsymm.quasi_shuffle", "mzv.mzv_eval",
                  "genus.deform_genus", "cli.main"):
        assert m[layer + ".calls"] > 0, layer
    assert 0 < m["linalg.rank_rational.repeat_frac"] < 1
    assert not t.missing


def test_fingerprint_names_the_arithmetic():
    env = worker._fingerprint()
    assert env["kernel_backend"] in ("pure", "cython")
    assert env["coefficient_type"] in ("fractions.Fraction", "gmpy2.mpq")
    assert set(env) == {"python", "numpy", "kernel_backend", "coefficient_type"}


def test_genus_oracle_closed_forms():
    for n in range(1, 7):
        assert oracles.cp_genus(n, "Todd") == 1
    assert oracles.cp_genus(2, "A-hat") == Fraction(-1, 8)
    assert oracles.product_genus([2, 2], "A-hat") == Fraction(1, 64)


def test_mzv_reference_table_matches_direct_summation():
    import mpmath

    pairs = ((2, 3), (3, 2), (2, 4), (4, 2), (3, 3))
    table = oracles.mzv_reference_table(pairs)
    with mpmath.workdps(30):
        for a, b in pairs:
            za = mpmath.zeta(a)
            direct = mpmath.nsum(lambda j: (za - mpmath.zeta(a, j)) / j**b, [2, mpmath.inf])
            assert abs(direct - mpmath.mpf(table["%d,%d" % (a, b)])) < mpmath.mpf(10) ** -20


@pytest.mark.xfail(strict=True, reason="known defect: mzv_eval((8,)) returns a radius below "
                   "the rounding error of its float value, so the enclosure misses zeta(8)")
def test_depth_one_enclosure_contains_zeta_8():
    enc = mzv.mzv_eval((8,), 1e-10)
    oracles.check_enclosure((8,), enc.value, enc.error_bound, 1e-10)
