"""Unit tests for the per-warp scoreboard."""

import pytest

from repro.common.errors import SimulationError
from repro.isa.opcodes import CmpOp
from repro.kernel.builder import KernelBuilder
from repro.sim.scoreboard import Scoreboard
from repro.sim.sm import _hazard_plans


class TestScoreboard:
    def test_no_pending_means_ready_now(self):
        sb = Scoreboard()
        assert sb.ready_cycle_flat((0, 1, 2), ()) == 0

    def test_raw_blocks_reader(self):
        sb = Scoreboard()
        sb.mark_reg_write(3, ready_cycle=50)
        assert sb.ready_cycle_flat((3,), ()) == 50

    def test_waw_blocks_writer(self):
        """The SM's hazard plan lists a destination among the registers
        it checks, so a pending write of it blocks the writer too."""
        b = KernelBuilder("waw")
        dst = b.reg()
        b.mov(dst, 7)
        b.exit()
        _, _, hazard_regs, hazard_preds = _hazard_plans(b.build())[0]
        sb = Scoreboard()
        sb.mark_reg_write(dst.idx, ready_cycle=50)
        assert sb.ready_cycle_flat(hazard_regs, hazard_preds) == 50

    def test_unrelated_register_unblocked(self):
        sb = Scoreboard()
        sb.mark_reg_write(3, ready_cycle=50)
        assert sb.ready_cycle_flat((4, 5), ()) == 0

    def test_latest_writer_wins(self):
        sb = Scoreboard()
        sb.mark_reg_write(3, ready_cycle=50)
        sb.mark_reg_write(3, ready_cycle=40)  # never moves earlier
        assert sb.ready_cycle_flat((3,), ()) == 50

    def test_predicate_tracking(self):
        """A pending predicate write blocks its readers and, through the
        SM's hazard plan, an instruction that writes the same predicate."""
        b = KernelBuilder("pwaw")
        pdst = b.pred()
        b.setp(pdst, b.reg(), CmpOp.EQ, 1)
        b.exit()
        _, _, hazard_regs, hazard_preds = _hazard_plans(b.build())[0]
        sb = Scoreboard()
        sb.mark_pred_write(pdst, ready_cycle=30)
        assert sb.ready_cycle_flat((), (pdst,)) == 30
        assert sb.ready_cycle_flat(hazard_regs, hazard_preds) == 30
        assert sb.ready_cycle_flat((), (pdst + 1,)) == 0

    def test_max_over_all_operands(self):
        sb = Scoreboard()
        sb.mark_reg_write(0, 10)
        sb.mark_reg_write(1, 20)
        sb.mark_pred_write(0, 15)
        assert sb.ready_cycle_flat((0, 1), (0,)) == 20

    def test_prune_drops_completed(self):
        sb = Scoreboard()
        sb.mark_reg_write(0, 10)
        sb.mark_reg_write(1, 100)
        sb.prune(50)
        assert sb.pending_count(50) == 1
        assert sb.ready_cycle_flat((0,), ()) == 0
        assert sb.ready_cycle_flat((1,), ()) == 100

    def test_invalid_register_rejected(self):
        with pytest.raises(SimulationError):
            Scoreboard().mark_reg_write(-1, 5)
