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
        unit=UnitType.SP, active_count=mask.bit_count(),
        is_full=mask.bit_count() == width, coverable=True, dest_reg=0,
    )


def issued(mask=0xFFFFFFFF, width=32, pc=0):
    """The event an executor builds for *mask* on a *width*-lane warp
    of a program holding an FFMA (pc 0) and an EXIT (pc 1)."""
    program = Program("ffma", (
        Instruction(opcode=Opcode.FFMA, dst=Reg(0),
                    srcs=(Reg(1), Reg(2), Reg(3))),
        Instruction(Opcode.EXIT)))
    executor = Executor(0, program, GlobalMemory())
    block = ThreadBlock(0, block_dim=width, warp_size=width, shared_words=4)
    warp = Warp(0, block, warp_base=0, warp_size=width, num_registers=4,
                num_predicates=1, lane_of_slot=list(range(width)),
                grid_dim=1)
    return executor.issue_event(warp, executor.decoded[pc], pc, 0, mask)


class TestIssueEvent:
    def test_full_mask_detection(self):
        assert issued(0xFFFFFFFF).is_full
        assert not issued(0x7FFFFFFF).is_full

    def test_active_count(self):
        assert issued(0xFFFFFFFF).active_count == 32
        assert issued(0b1011).active_count == 3

    def test_full_depends_on_width(self):
        # a 16-wide warp with 16 active lanes is full
        assert issued(0xFFFF, width=16).is_full
        assert not issued(0xFFFF, width=32).is_full

    def test_coverable_forwarding(self):
        """The executor takes ``coverable`` from the opcode: an FFMA's
        lanes count toward coverage, an EXIT's do not."""
        assert issued(pc=0).coverable
        assert not issued(pc=1).coverable

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
