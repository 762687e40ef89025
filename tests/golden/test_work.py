"""Work-ledger check: the solver's layers run as often as `work.json`
records on the golden corpus.

Every change that keeps the solver's work must leave these counts
identical; see `make_work.py` for what is counted and how to regenerate
the file when the work is meant to change.
"""

import json

import pytest

from alwabp import constructive

from make_work import WORK, counting, instances, ledger


def test_work_matches_ledger():
    want = json.loads(WORK.read_text(encoding="utf-8"))
    assert ledger(instances()) == want


def test_a_counted_site_that_is_gone_is_named(monkeypatch):
    """The ledger fails on a renamed or deleted layer with a message that
    names it, and leaves the sites it wrapped before as they were."""
    fill = constructive._fill
    monkeypatch.delattr(constructive, "_fill_ranked")
    with pytest.raises(LookupError,
                       match=r"alwabp\.constructive\._fill_ranked, which is "
                       "gone"):
        with counting():
            pass
    assert constructive._fill is fill
