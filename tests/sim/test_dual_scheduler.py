"""Tests for the dual-scheduler SM (paper Section 2.2, Fermi-style)."""

from dataclasses import replace

import pytest

from repro.common.config import DMRConfig, GPUConfig, LaunchConfig
from repro.common.errors import ConfigError
from repro.kernel.builder import KernelBuilder
from repro.sim.gpu import GPU
from repro.sim.memory import GlobalMemory

from tests.conftest import build_counting_kernel, run_program

#: engine differentials compare launches that execute: a replayed
#: launch (repro.sim.replay) would only repeat its own recording
pytestmark = pytest.mark.usefixtures("executing")


def dual_config(**kw) -> GPUConfig:
    return replace(GPUConfig.small(1), num_schedulers=2, **kw)


class TestConfig:
    def test_three_schedulers_rejected(self):
        with pytest.raises(ConfigError):
            GPUConfig(num_schedulers=3)

    def test_paper_baseline_is_single(self):
        assert GPUConfig.paper_baseline().num_schedulers == 1


class TestDualIssue:
    def test_functional_identity(self):
        program = build_counting_kernel(iterations=4)
        _, single_mem = run_program(program, GPUConfig.small(1),
                                    grid=2, block=64)
        _, dual_mem = run_program(program, dual_config(), grid=2, block=64)
        for g in range(128):
            assert single_mem.load(g) == dual_mem.load(g)

    def test_dual_issue_speeds_up_occupied_sm(self):
        program = build_counting_kernel(iterations=12)
        single, _ = run_program(program, GPUConfig.small(1),
                                grid=8, block=64)
        dual, _ = run_program(program, dual_config(), grid=8, block=64)
        assert dual.cycles < single.cycles
        assert dual.stats.value("dual_issue_cycles") > 0

    def test_shared_unit_conflicts_counted(self):
        # back-to-back independent loads: both schedulers contend for
        # the shared LD/ST units
        b = KernelBuilder("loady")
        gid = b.reg()
        vals = b.regs(16)
        acc = b.reg()
        b.gtid(gid)
        for i, v in enumerate(vals):
            b.ld_global(v, gid, offset=i)
        b.mov(acc, 0)
        for v in vals:
            b.iadd(acc, acc, v)
        b.st_global(gid, acc, offset=64)
        b.exit()
        result, _ = run_program(
            b.build(), replace(dual_config(), warp_start_stagger=0),
            grid=4, block=64,
        )
        assert result.stats.value("dual_issue_conflicts") > 0

    def test_sp_plus_sp_co_issues(self):
        # pure-SP kernel: both schedulers own SP groups, so dual issue
        # should happen freely
        b = KernelBuilder("spspin")
        gid, a = b.regs(2)
        b.gtid(gid)
        b.mov(a, 1)
        for _ in range(24):
            b.iadd(a, a, 3)
        b.st_global(gid, a)
        b.exit()
        result, _ = run_program(b.build(), dual_config(), grid=4, block=64)
        assert result.stats.value("dual_issue_cycles") > 0

    def test_single_warp_cannot_dual_issue(self):
        # one warp belongs to one parity class: never two issues/cycle
        program = build_counting_kernel(iterations=4)
        result, _ = run_program(program, dual_config(), grid=1, block=32)
        assert result.stats.value("dual_issue_cycles") == 0


class TestDualSchedulerWithDMR:
    def test_dmr_correct_under_dual_issue(self):
        program = build_counting_kernel(iterations=6)
        memory = GlobalMemory()
        gpu = GPU(dual_config(), dmr=DMRConfig.paper_default())
        result = gpu.launch(
            program, LaunchConfig(grid_dim=4, block_dim=64), memory=memory
        )
        for g in range(4 * 64):
            assert memory.load(g) == 6 * g
        # everything still verified
        assert result.coverage.coverage >= 0.999

    def test_dmr_overhead_sane_under_both_scheduler_counts(self):
        """Section 2.2 notes dual schedulers change (without
        eliminating) heterogeneous-unit idleness; Warped-DMR must keep
        working with a bounded overhead either way.  (Empirically the
        two configurations land within a few percent of each other on
        this SP-heavy kernel: dual issue also doubles the Replay
        Checker's pairing opportunities per cycle.)"""
        program = build_counting_kernel(iterations=12)

        def overhead(config):
            base, _ = run_program(program, config, grid=8, block=64)
            dmr, _ = run_program(program, config, grid=8, block=64,
                                 dmr=DMRConfig.paper_default())
            return dmr.cycles / base.cycles

        single = overhead(GPUConfig.small(1))
        dual = overhead(dual_config())
        assert 1.0 <= single <= 2.2
        assert 1.0 <= dual <= 2.2
        assert abs(dual - single) < 0.5
