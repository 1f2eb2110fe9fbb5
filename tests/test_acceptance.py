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
