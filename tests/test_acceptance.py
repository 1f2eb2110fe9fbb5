"""Acceptance criteria, one test per numbered item.

Tolerances are the pinned values in hopfgenus.acceptance; each test
emits exactly one pass/fail line under ``pytest -v``.  Criteria that
need more truncation degree than configured skip instead of failing.
"""

import pytest

from hopfgenus import acceptance, symm
from hopfgenus.core import GradedPolynomial

_BY_ID = {cid: (name, fn) for cid, name, fn in acceptance.CRITERIA}


@pytest.mark.parametrize(
    "cid",
    sorted(_BY_ID),
    ids=["%02d-%s" % (cid, _BY_ID[cid][0].replace(" ", "-")) for cid in sorted(_BY_ID)],
)
def test_criterion(cid):
    name, fn = _BY_ID[cid]
    status, detail = fn(30)
    if status == "skipped":
        pytest.skip(detail)
    assert status == "pass", "criterion %d (%s): %s" % (cid, name, detail)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(degree=0), "degree must be >= 1"),
        (dict(only={4, 99, 0}), r"unknown criterion ids \[0, 99\]$"),
    ],
    ids=["degree", "unknown-id"],
)
def test_run_all_refuses_bad_input(kwargs, message):
    # an unknown id must not turn the run into a vacuous pass
    with pytest.raises(ValueError, match=message):
        acceptance.run_all(**kwargs)


@pytest.mark.parametrize(
    "cid, name, weight, degree, status, detail",
    [
        (1, "d_class_mismatch", 7, 30, "fail", "first mismatch at weight 7"),
        (1, None, None, 29, "skipped", "needs truncation degree 30, have 29"),
        (2, "a_class_mismatch", 3, 30, "fail", "a_3 has a linear part"),
        (2, "a_class_mismatch", 4, 30, "fail", "a_4 linear part is not 2 b_4"),
        (2, None, None, 12, "skipped", "needs truncation degree 13, have 12"),
    ],
    ids=["d-mismatch", "d-skipped", "a-odd", "a-even", "a-skipped"],
)
def test_class_criteria_can_fail(monkeypatch, cid, name, weight, degree, status, detail):
    # criteria 1 and 2 with the weight their symm check reports seeded
    if name is not None:
        monkeypatch.setattr(symm, name, lambda D: weight)
    (result,) = acceptance.run_all(degree, only={cid})
    assert (result["status"], result["detail"]) == (status, detail)


def _c(k):
    return GradedPolynomial.generator("c", k)


def _extra_vector(real):
    # one vector too many in every weight
    return lambda k, model: real(k, model) + [_c(k)]


def _chern_class(real):
    # c_k in each odd weight: N_1 = c_1, but c_3 is not a multiple of N_3
    return lambda k, model: [_c(k)] if k % 2 else []


@pytest.mark.parametrize(
    "name, seed, degree, status, detail",
    [
        ("is_primitive", lambda real: lambda f: False, 30,
         "fail", "weight 1 basis vector fails the E-basis coproduct"),
        ("primitive_space", _extra_vector, 30, "fail", "weight 1: dim 2, want 1"),
        ("primitive_space", _chern_class, 30, "fail", "weight 3 primitive is not a multiple of N_3"),
        (None, None, 11, "skipped", "needs truncation degree 12, have 11"),
    ],
    ids=["not-primitive", "dimension", "not-a-multiple", "skipped"],
)
def test_primitives_criterion_can_fail(monkeypatch, name, seed, degree, status, detail):
    # criterion 3 with a seeded defect in the one symm entry each branch reads
    if name is not None:
        monkeypatch.setattr(symm, name, seed(getattr(symm, name)))
    (result,) = acceptance.run_all(degree, only={3})
    assert (result["status"], result["detail"]) == (status, detail)
