"""Frozen-output check: the solver reproduces `golden.json` exactly.

Every speedup of the constructive search, the local search or the
genetic algorithm must leave all of these outputs bit-identical; see
`make_golden.py` for what is frozen and how to regenerate it.
"""

import json

import pytest

from alwabp.instance import _parse_instance

from make_golden import GOLDEN, outputs_of

DATA = json.loads(GOLDEN.read_text(encoding="utf-8"))
CASES = [(text.split("\n", 1)[0][2:], text) for text in DATA["instances"]]


@pytest.mark.parametrize("name,text", CASES, ids=[name for name, _ in CASES])
def test_outputs_match_snapshot(name, text):
    inst = _parse_instance(text, name=name)
    got = outputs_of(inst)
    want = DATA["outputs"][name]
    assert set(got) == set(want)
    for section in sorted(want):
        assert got[section] == want[section], section
