"""Helpers for core-layer tests: synthetic issue events."""

from __future__ import annotations

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode, op_info
from repro.isa.operands import Reg
from repro.kernel.program import Program
from repro.sim.events import IssueEvent
from repro.sim.executor import Executor, FaultHook
from repro.sim.memory import GlobalMemory


def faulty_executor() -> Executor:
    """An executor with the bare (identity) fault hook armed, so DMR
    compares lane values on it."""
    program = Program("exit", (Instruction(Opcode.EXIT),))
    return Executor(0, program, GlobalMemory(), FaultHook())


def make_event(opcode: Opcode = Opcode.IADD, warp_id: int = 0,
               dest: int | None = None, cycle: int = 0,
               hw_mask: int | None = None, warp_width: int = 32,
               srcs: tuple | None = None) -> IssueEvent:
    """A synthetic issue event with plausible captured values."""
    info = op_info(opcode)
    if info.writes_reg:
        dst = Reg(dest if dest is not None else 0)
    else:
        dst = None
    inst = Instruction(
        opcode=opcode,
        dst=dst,
        srcs=tuple(Reg(i + 1) for i in range(info.num_srcs)),
    )
    mask = hw_mask if hw_mask is not None else (1 << warp_width) - 1
    active = mask.bit_count()
    event = IssueEvent(
        cycle=cycle, sm_id=0, warp_id=warp_id, pc=0, instruction=inst,
        logical_mask=mask, hw_mask=mask, warp_width=warp_width,
        unit=info.unit, active_count=active, is_full=active == warp_width,
        coverable=info.coverable, dest_reg=inst.dest_register(),
    )
    values = srcs or tuple(range(1, info.num_srcs + 1))
    for lane in range(warp_width):
        if (mask >> lane) & 1:
            event.lane_inputs[lane] = values
            event.lane_results[lane] = sum(values) if values else 0
    return event
