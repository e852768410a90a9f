"""Unit tests for the Replay Checker (Algorithm 1, paper Section 4.3)."""

import inspect
import re

from repro.common.config import DMRConfig
from repro.obs.metrics import MetricsRegistry
from repro.core.comparator import ResultComparator
from repro.core import inter_warp
from repro.core.inter_warp import VERIFY_PATHS, ReplayChecker
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.operands import Reg

from tests.core.conftest import make_event


def make_checker(replayq=10, lane_shuffle=True, eager=True):
    stats = MetricsRegistry()
    checker = ReplayChecker(
        cluster_size=4,
        dmr_config=DMRConfig(
            replayq_entries=replayq,
            lane_shuffle=lane_shuffle,
            eager_reexecution=eager,
        ),
        stats=stats,
        comparator=ResultComparator(),
    )
    return checker, stats


class TestAlgorithm1Paths:
    def test_different_type_coexecutes_for_free(self):
        checker, stats = make_checker()
        assert checker.accept(make_event(Opcode.IADD, cycle=0), None) == 0
        assert checker.accept(make_event(Opcode.LD_GLOBAL, cycle=1), None) == 0
        assert stats.value("inter_warp_coexec") == 1
        assert stats.value("inter_warp_verify_coexec") == 1
        assert checker.queue_occupancy == 0

    def test_same_type_enqueues(self):
        checker, stats = make_checker()
        checker.accept(make_event(Opcode.IADD, cycle=0), None)
        stall = checker.accept(make_event(Opcode.IMUL, cycle=1), None)
        assert stall == 0
        assert checker.queue_occupancy == 1
        assert stats.value("replayq_enqueues") == 1

    def test_same_type_swaps_with_buffered_different_type(self):
        checker, stats = make_checker()
        # buffer one LDST entry
        checker.accept(make_event(Opcode.LD_GLOBAL, cycle=0), None)
        checker.accept(make_event(Opcode.LD_SHARED, cycle=1), None)
        assert checker.queue_occupancy == 1          # the LD_GLOBAL
        # now an SP pair: pending SP resolves by swapping with the LD
        checker.accept(make_event(Opcode.IADD, cycle=2), None)
        stall = checker.accept(make_event(Opcode.IMUL, cycle=3), None)
        assert stall == 0
        assert stats.value("replayq_swaps") == 1
        # queue now holds the IADD (SP), LD verified
        assert checker.queue_occupancy == 1

    def test_full_queue_same_type_stalls_one_cycle(self):
        checker, stats = make_checker(replayq=0)
        checker.accept(make_event(Opcode.IADD, cycle=0), None)
        stall = checker.accept(make_event(Opcode.IMUL, cycle=1), None)
        assert stall == 1
        assert stats.value("replayq_full_stalls") == 1

    def test_non_eager_reexecution_costs_two_cycles(self):
        checker, _ = make_checker(replayq=0, eager=False)
        checker.accept(make_event(Opcode.IADD, cycle=0), None)
        assert checker.accept(make_event(Opcode.IMUL, cycle=1), None) == 2

    def test_verify_paths_name_every_path(self):
        """The derived totals sum ``VERIFY_PATHS``: it must name every
        path the checker verifies on."""
        source = inspect.getsource(inter_warp.ReplayChecker)
        assert set(re.findall(r'self\._verify\(.*"(\w+)"\)', source)) \
            == set(VERIFY_PATHS)

    def test_every_accepted_instruction_eventually_verified(self):
        checker, stats = make_checker(replayq=2)
        n = 20
        for i in range(n):
            checker.accept(make_event(Opcode.IADD, cycle=i, dest=i), None)
        checker.flush(n)
        assert sum(stats.value(f"inter_warp_verify_{how}")
                   for how in VERIFY_PATHS) == n


class TestIdleDraining:
    def test_idle_cycle_verifies_pending(self):
        checker, stats = make_checker()
        checker.accept(make_event(Opcode.IADD, cycle=0), None)
        checker.on_idle(1)
        assert checker.pending is None
        assert stats.value("inter_warp_verify_coexec_idle") == 1

    def test_idle_cycle_drains_one_entry_per_unit(self):
        checker, stats = make_checker()
        checker.accept(make_event(Opcode.IADD, cycle=0), None)
        checker.accept(make_event(Opcode.IMUL, cycle=1), None)   # IADD queued
        checker.accept(make_event(Opcode.LD_GLOBAL, cycle=2), None)  # IMUL coexec...
        # state: pending LD_GLOBAL, queue has IADD
        checker.on_idle(3)   # verifies pending LD
        assert checker.pending is None
        checker.on_idle(4)   # drains the queued IADD
        assert checker.queue_occupancy == 0

    def test_partial_issue_drains_other_units(self):
        checker, stats = make_checker()
        # queue an SP entry
        checker.accept(make_event(Opcode.IADD, cycle=0), None)
        checker.accept(make_event(Opcode.IMUL, cycle=1), None)
        assert checker.queue_occupancy == 1
        # a partially-utilized LDST issue leaves SP and SFU idle:
        # pending IMUL co-executes (different type), queued IADD cannot
        # drain on the same cycle because the co-execution used SP.
        checker.observe_other_issue(
            make_event(Opcode.LD_GLOBAL, cycle=2, hw_mask=0xF), None
        )
        assert checker.queue_occupancy == 1
        # next partial LDST issue: nothing pending, SP idle -> drains
        checker.observe_other_issue(
            make_event(Opcode.LD_SHARED, cycle=3, hw_mask=0xF), None
        )
        assert checker.queue_occupancy == 0


class TestRAWOnUnverified:
    def _consumer(self, reg):
        """The source registers of ``iadd r9, r<reg>, r8``."""
        return Instruction(
            opcode=Opcode.IADD, dst=Reg(9), srcs=(Reg(reg), Reg(8))
        ).source_registers()

    def test_consumer_of_buffered_result_stalls(self):
        checker, stats = make_checker()
        checker.accept(make_event(Opcode.IADD, cycle=0, dest=5), None)
        checker.accept(make_event(Opcode.IMUL, cycle=1, dest=6), None)
        # IADD (writes r5) is now buffered unverified
        assert checker.check_raw(0, self._consumer(5)) == 1
        assert stats.value("inter_warp_verify_raw_forced") == 1
        # a second consumer is free: producer already verified
        assert checker.check_raw(0, self._consumer(5)) == 0

    def test_other_warp_not_stalled(self):
        checker, _ = make_checker()
        checker.accept(make_event(Opcode.IADD, cycle=0, dest=5, warp_id=1), None)
        checker.accept(make_event(Opcode.IMUL, cycle=1, dest=6, warp_id=1), None)
        assert checker.check_raw(2, self._consumer(5)) == 0

    def test_unrelated_register_not_stalled(self):
        checker, _ = make_checker()
        checker.accept(make_event(Opcode.IADD, cycle=0, dest=5), None)
        checker.accept(make_event(Opcode.IMUL, cycle=1, dest=6), None)
        assert checker.check_raw(0, self._consumer(7)) == 0


class TestFlush:
    def test_flush_costs_one_cycle_per_entry(self):
        checker, _ = make_checker()
        for i, op in enumerate((Opcode.IADD, Opcode.IMUL, Opcode.ISUB)):
            checker.accept(make_event(op, cycle=i, dest=i), None)
        # pending ISUB + 2 queued
        assert checker.flush(10) == 3
        assert checker.queue_occupancy == 0
        assert checker.pending is None

    def test_flush_empty_is_free(self):
        checker, _ = make_checker()
        assert checker.flush(0) == 0
