"""Golden decision digests: every policy's seeded decisions stay put.

Each case reruns one (setup, policy) pair from ``tests/golden/regen.py``
and compares its decisions and estimates round by round against
``tests/golden/decisions.json``.
A change that means to move decisions regenerates the fixture with
``PYTHONPATH=src python -m tests.golden.regen`` and commits its diff.
"""

import json

import pytest

from tests.golden import regen

GOLDEN = json.loads(regen.FIXTURE.read_text())


def test_fixture_covers_every_case():
    assert sorted(GOLDEN) == sorted(regen.CASES)


@pytest.mark.parametrize("key", list(regen.CASES))
def test_decisions_match_golden(key):
    expected = GOLDEN[key]
    result = regen.build(*regen.CASES[key]).run()
    actual = regen.record(result)
    for index, (want, got) in enumerate(zip(expected["rounds"],
                                            actual["rounds"])):
        if want != got:
            rnd = result.rounds[index]
            pytest.fail(
                f"first divergent round {index} (t={rnd.time:.0f}s): "
                f"backend={rnd.backend!r} "
                f"allocations={sorted(rnd.allocations.items())} "
                f"faults={[e.kind for e in rnd.fault_events]}")
    for index, (want, got) in enumerate(zip(expected["estimates"],
                                            actual["estimates"])):
        if want != got:
            rnd = result.rounds[index]
            pytest.fail(
                f"first round with divergent estimates {index} "
                f"(t={rnd.time:.0f}s): {sorted(rnd.estimates.items())}")
    assert len(actual["rounds"]) == len(expected["rounds"])
    assert actual == expected
