"""Unit tests for IssueEvent, the sim<->DMR interface record."""

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode, UnitType
from repro.isa.operands import Reg
from repro.kernel.program import Program
from repro.sim.events import IssueEvent
from repro.sim.executor import Executor
from repro.sim.memory import GlobalMemory
from repro.sim.warp import ThreadBlock, Warp


def make(mask=0xFFFFFFFF, width=32, opcode=Opcode.FFMA):
    inst = Instruction(
        opcode=opcode, dst=Reg(0), srcs=(Reg(1), Reg(2), Reg(3)),
    )
    return IssueEvent(
        cycle=7, sm_id=1, warp_id=3, pc=12, instruction=inst,
        logical_mask=mask, hw_mask=mask, warp_width=width,
        unit=UnitType.SP, dest_reg=0,
    )


class TestIssueEvent:
    def test_full_mask_detection(self):
        assert make(0xFFFFFFFF).is_full
        assert not make(0x7FFFFFFF).is_full

    def test_active_count(self):
        assert make(0xFFFFFFFF).active_count == 32
        assert make(0b1011).active_count == 3

    def test_full_depends_on_width(self):
        # a 16-wide warp with 16 active lanes is full
        assert make(0xFFFF, width=16).is_full
        assert not make(0xFFFF, width=32).is_full

    def test_unit_forwarding(self):
        """An executor's event carries the unit of its pc's decode-table
        entry, the instruction's own unit."""
        load = Instruction(opcode=Opcode.LD_GLOBAL, dst=Reg(0),
                           srcs=(Reg(1),))
        program = Program("load", (load, Instruction(Opcode.EXIT)))
        executor = Executor(0, program, GlobalMemory())
        block = ThreadBlock(0, block_dim=32, warp_size=32, shared_words=4)
        warp = Warp(0, block, warp_base=0, warp_size=32, num_registers=2,
                    num_predicates=1, lane_of_slot=list(range(32)),
                    grid_dim=1)
        event = executor.issue_event(warp, executor.decoded[0], 0, 0, 1)
        assert event.unit is UnitType.LDST is load.unit
        assert event.dest_reg == 0

    def test_repr_is_informative(self):
        text = repr(make(0b11))
        assert "warp=3" in text
        assert "2/32" in text
        assert "ffma" in text

    def test_lane_capture_defaults_empty(self):
        event = make()
        assert event.lane_inputs == {}
        assert event.lane_results == {}
