"""Unit tests for the DMR controller facade."""

from repro.common.config import DMRConfig, GPUConfig
from repro.obs.metrics import MetricsRegistry
from repro.core.coverage import CoverageReport
from repro.core.dmr_controller import DMRController
from repro.isa.opcodes import Opcode

from tests.core.conftest import make_event


def make_controller(dmr=None):
    stats = MetricsRegistry()
    controller = DMRController(
        gpu_config=GPUConfig.small(1),
        dmr_config=dmr or DMRConfig.paper_default(),
        stats=stats,
    )
    return controller, stats


class TestDispatch:
    def test_full_warp_goes_inter(self):
        controller, stats = make_controller()
        controller.on_issue(make_event(Opcode.IADD), None)
        assert stats.value("inter_warp_instructions") == 1
        assert stats.value("intra_warp_instructions") == 0
        assert stats.value("coverage_inter_lanes") == 32

    def test_partial_warp_goes_intra(self):
        controller, stats = make_controller()
        controller.on_issue(make_event(Opcode.IADD, hw_mask=0xFFFF), None)
        assert stats.value("intra_warp_instructions") == 1
        assert stats.value("inter_warp_instructions") == 0

    def test_exempt_opcodes_not_counted(self):
        """A full-warp BAR is still verified, but no coverage counter
        counts its lanes."""
        controller, stats = make_controller()
        controller.on_issue(make_event(Opcode.BAR), None)
        controller.on_kernel_end(1)
        assert stats.value("inter_warp_verified_instructions") == 1
        assert "coverage_inter_lanes" not in stats.counters()
        assert "coverage_verified_lanes" not in stats.counters()

    def test_coverage_report(self):
        controller, stats = make_controller()
        controller.on_issue(make_event(Opcode.IADD), None)
        controller.on_issue(
            make_event(Opcode.IMUL, hw_mask=0x0003, cycle=1), None
        )
        controller.on_kernel_end(2)
        report = CoverageReport.from_stats(stats)
        assert report.verified_lanes == 34
        assert report.inter_verified_lanes == 32
        assert report.intra_verified_lanes == 2
        # the SM, not the controller, counts the eligible lanes
        assert report.eligible_lanes == 0

    def test_kernel_end_flushes(self):
        controller, stats = make_controller()
        controller.on_issue(make_event(Opcode.IADD), None)
        flush_cycles = controller.on_kernel_end(100)
        assert flush_cycles == 1  # the pending latch
        assert stats.value("inter_warp_verified_instructions") == 1
