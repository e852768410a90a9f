"""``Workload.prepare`` hands out copies of one template per key.

The template is built once per ``(workload, scale, seed)`` and kept in
a bounded LRU.  Copies share its ``Program`` (so decode caches outlive
a launch) and host-side closures, and each gets its own memory image:
nothing one run does may show in the next ``prepare()``.
"""

from __future__ import annotations

import pytest

from repro.common.config import GPUConfig, LaunchConfig
from repro.sim.gpu import GPU
from repro.sim.memory import GlobalMemory
from repro.workloads import PAPER_ORDER, get_workload
from repro.workloads.base import Workload, WorkloadRun, TransferSpec, \
    _template
from tests.conftest import build_counting_kernel


class CountingWorkload(Workload):
    """A cheap workload that counts its builds."""

    name = "counting"

    def __init__(self) -> None:
        self.builds = 0

    def build(self, scale: float = 1.0, seed: int = 0) -> WorkloadRun:
        self.builds += 1
        memory = GlobalMemory()
        memory.write_block(0, [seed, seed + 1])
        return WorkloadRun(
            program=build_counting_kernel(),
            launch=LaunchConfig(1, 32),
            memory=memory,
            transfer=TransferSpec(input_bytes=8, output_bytes=8),
            check=lambda mem: None,
            output_of=lambda mem: mem.read_block(0, 2),
        )


def test_memory_writes_never_reach_the_next_prepare():
    scan = get_workload("scan")
    first = scan.prepare(0.25, 0)
    before = first.memory.to_payload()
    first.memory.store(0, 12345.0)
    first.memory.store(first.memory.size_words - 1, 7)
    second = scan.prepare(0.25, 0)
    assert second.memory is not first.memory
    assert second.memory.to_payload() == before


def test_assigning_a_field_never_reaches_the_next_prepare():
    scan = get_workload("scan")
    first = scan.prepare(0.25, 0)
    check, output_of = first.check, first.output_of

    def reject(memory):
        raise AssertionError("rejected")

    first.check = reject
    first.output_of = reject
    first.memory = GlobalMemory()
    second = scan.prepare(0.25, 0)
    assert second is not first
    assert second.check is check and second.output_of is output_of
    assert second.memory.footprint_words > 0


def test_copies_share_one_program_and_its_caches():
    scan = get_workload("scan")
    first, second = scan.prepare(0.25, 0), scan.prepare(0.25, 0)
    assert first.program is second.program
    assert first.launch is second.launch
    assert first.transfer is second.transfer
    first.program.memo("test.marker", lambda program: object())
    marker = second.program.memo("test.marker", lambda program: None)
    assert marker is not None


def test_build_runs_once_per_key_until_evicted():
    workload = CountingWorkload()
    for _ in range(5):
        run = workload.prepare(0.5, 3)
    assert workload.builds == 1
    assert run.memory.read_block(0, 2) == [3, 4]
    # fill the LRU with other keys, evicting (0.5, 3)
    for seed in range(100, 100 + _template.cache_info().maxsize):
        workload.prepare(0.5, seed)
    builds = workload.builds
    workload.prepare(0.5, 3)
    assert workload.builds == builds + 1


def test_different_scale_or_seed_gives_an_independent_template():
    workload = CountingWorkload()
    runs = [workload.prepare(scale, seed)
            for scale, seed in ((0.5, 1), (0.5, 2), (0.25, 1))]
    assert workload.builds == 3
    assert len({id(run.program) for run in runs}) == 3
    assert runs[0].memory.read_block(0, 2) == [1, 2]
    assert runs[1].memory.read_block(0, 2) == [2, 3]
    scan = get_workload("scan")
    small, large = scan.prepare(0.25, 0), scan.prepare(0.5, 0)
    assert small.launch != large.launch
    assert (scan.prepare(0.25, 1).memory.to_payload()
            != small.memory.to_payload())


@pytest.mark.parametrize("name", PAPER_ORDER)
def test_every_prepared_copy_passes_its_check(name):
    """A launch writes only its own copy: a second copy of the same key
    still starts from the initial image and passes the check."""
    workload = get_workload(name)
    for _ in range(2):
        run = workload.prepare(0.25, 0)
        GPU(GPUConfig.small(2)).launch(run.program, run.launch,
                                       memory=run.memory)
        run.check(run.memory)
