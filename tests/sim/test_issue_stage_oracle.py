"""The SM's issue stage against a pinned fixture, byte for byte.

Every cell of :mod:`tests.sim.issue_stage_oracle` (kernel, one or two
schedulers, round-robin / greedy-then-oldest / seeded, obs off or on,
DMR off or on) must reproduce the digests recorded in
``issue_stage_oracle.json``, on its recording launch and on its replay.
"""

from __future__ import annotations

import pytest

from tests.sim.issue_stage_oracle import (cell_id, cells, launch_cell,
                                          load_fixture, payload_digest)

CELLS = cells()


@pytest.fixture(scope="module")
def fixture():
    return load_fixture()


def test_fixture_covers_every_cell(fixture):
    assert sorted(fixture) == sorted(cell_id(cell) for cell in CELLS)


@pytest.mark.parametrize("cell", CELLS, ids=[cell_id(c) for c in CELLS])
def test_cell_matches_fixture(cell, fixture):
    recorded, replayed = launch_cell(cell)
    assert recorded.engine_issues["replayed"] == 0
    assert replayed.engine_issues["replayed"] == \
        replayed.instructions_issued
    assert [payload_digest(recorded), payload_digest(replayed)] == \
        fixture[cell_id(cell)]
