"""Acceptance criteria, one test per numbered item.

Tolerances are the pinned values in hopfgenus.acceptance; each test
emits exactly one pass/fail line under ``pytest -v``.  Criteria that
need more truncation degree than configured skip instead of failing.
"""

import pytest

from hopfgenus import acceptance

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
