"""The SM's issue stage against a pinned fixture, byte for byte.

Every cell of :mod:`tests.sim.issue_stage_oracle` (kernel, one or two
schedulers, round-robin / greedy-then-oldest / seeded, obs off or on,
DMR off or on) must reproduce the digests recorded in
``issue_stage_oracle.json``, on its recording launch and on its replay.
So must every accounting cell (each writer of the DMR, stall and obs
counters, obs on), on both of its launches.
"""

from __future__ import annotations

import pytest

from tests.sim.issue_stage_oracle import (accounting_cell_id,
                                          accounting_cells, cell_id, cells,
                                          launch_accounting_cell, launch_cell,
                                          load_fixture, payload_digest)

CELLS = cells()
ACCOUNTING_CELLS = accounting_cells()


@pytest.fixture(scope="module")
def fixture():
    return load_fixture()


def test_fixture_covers_every_cell(fixture):
    assert sorted(fixture) == sorted(
        [cell_id(cell) for cell in CELLS]
        + [accounting_cell_id(cell) for cell in ACCOUNTING_CELLS])


@pytest.mark.parametrize("cell", CELLS, ids=[cell_id(c) for c in CELLS])
def test_cell_matches_fixture(cell, fixture):
    recorded, replayed = launch_cell(cell)
    assert recorded.engine_issues["replayed"] == 0
    assert replayed.engine_issues["replayed"] == \
        replayed.instructions_issued
    assert [payload_digest(recorded), payload_digest(replayed)] == \
        fixture[cell_id(cell)]


@pytest.mark.parametrize("cell", ACCOUNTING_CELLS,
                         ids=[accounting_cell_id(c) for c in ACCOUNTING_CELLS])
def test_accounting_cell_matches_fixture(cell, fixture):
    first, second = launch_accounting_cell(cell)
    assert first.obs is not None
    assert [payload_digest(first), payload_digest(second)] == \
        fixture[accounting_cell_id(cell)]
