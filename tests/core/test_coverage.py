"""Unit tests for coverage accounting (paper Section 3.3)."""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.core.coverage import (
    CoverageReport,
    theoretical_intra_warp_coverage,
)
from repro.isa.opcodes import Opcode, all_opcodes, op_info

#: opcodes with no datapath computation to protect
EXEMPT = {Opcode.NOP, Opcode.BAR, Opcode.EXIT, Opcode.JMP}


class TestTheoreticalCoverage:
    def test_full_coverage_at_or_below_half(self):
        for active in range(1, 17):
            assert theoretical_intra_warp_coverage(active, 32) == 1.0

    def test_paper_formula_above_half(self):
        # coverage = inactive / active
        assert theoretical_intra_warp_coverage(24, 32) == 8 / 24
        assert theoretical_intra_warp_coverage(31, 32) == 1 / 31

    def test_fully_active_warp_has_zero_intra_coverage(self):
        assert theoretical_intra_warp_coverage(32, 32) == 0.0

    def test_monotonically_decreasing_above_half(self):
        values = [
            theoretical_intra_warp_coverage(a, 32) for a in range(16, 33)
        ]
        assert values == sorted(values, reverse=True)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            theoretical_intra_warp_coverage(0, 32)
        with pytest.raises(ValueError):
            theoretical_intra_warp_coverage(33, 32)


class TestCoverableOpcodes:
    def test_exempt_set(self):
        assert {op for op, info in all_opcodes().items()
                if not info.coverable} == EXEMPT

    def test_computation_is_coverable(self):
        for op in (Opcode.IADD, Opcode.FFMA, Opcode.LD_GLOBAL,
                   Opcode.SIN, Opcode.SETP, Opcode.BRA):
            assert op_info(op).coverable

    def test_bookkeeping_is_not(self):
        for op in EXEMPT:
            assert not op_info(op).coverable


class TestCoverageReport:
    def test_from_stats(self):
        stats = MetricsRegistry()
        stats.inc("coverage_eligible_lanes", 200)
        stats.inc("coverage_verified_lanes", 150)
        stats.inc("coverage_intra_lanes", 50)
        stats.inc("coverage_inter_lanes", 100)
        report = CoverageReport.from_stats(stats)
        assert report.coverage == 0.75
        assert report.coverage_percent == 75.0
        assert report.intra_verified_lanes == 50

    def test_empty_run_is_fully_covered(self):
        report = CoverageReport.from_stats(MetricsRegistry())
        assert report.coverage == 1.0

    def test_str_mentions_percentage(self):
        stats = MetricsRegistry()
        stats.inc("coverage_eligible_lanes", 4)
        stats.inc("coverage_verified_lanes", 3)
        assert "75.00%" in str(CoverageReport.from_stats(stats))
