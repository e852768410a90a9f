"""Issue events: the interface between the SM pipeline and Warped-DMR.

Every warp-instruction issue produces one :class:`IssueEvent` carrying
everything a later redundant execution needs: the opcode, the captured
per-lane source operand values (the ReplayQ stores *values*, not
register names — paper Section 4.3.1), the original per-lane results,
and the active masks in both logical-thread and hardware-lane space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.common.bitops import ActiveMask
from repro.isa.instruction import Instruction
from repro.isa.opcodes import UnitType


@dataclass(slots=True)
class IssueEvent:
    """One dynamic warp-instruction issue.

    ``unit``
        The decoder's instruction type (:class:`UnitType`), taken from
        the program's decode table at issue.
    ``active_count`` / ``is_full`` / ``coverable``
        Filled by the executor: the lanes ``hw_mask`` holds, whether
        they are the whole warp, and whether DMR coverage counts them.
    ``lane_inputs``
        hw lane -> tuple of evaluated source operand values (only lanes
        active in ``hw_mask``).  For memory instructions the computed
        address is what DMR verifies, so inputs are the address operands.
    ``lane_results``
        hw lane -> the value the original execution produced on that
        lane (ALU result, computed address for memory ops, branch
        taken/not-taken flag, SETP outcome), after the fault hook.
    ``perturbed_mask``
        hw lanes whose result the fault hook changed; any other result
        equals a fault-free recompute, so DMR verifies by exception.
    """

    cycle: int
    sm_id: int
    warp_id: int
    pc: int
    instruction: Instruction
    logical_mask: ActiveMask
    hw_mask: ActiveMask
    warp_width: int
    unit: UnitType
    active_count: int
    is_full: bool
    coverable: bool
    lane_inputs: Dict[int, Tuple] = field(default_factory=dict)
    lane_results: Dict[int, object] = field(default_factory=dict)
    dest_reg: Optional[int] = None
    perturbed_mask: ActiveMask = 0

    def __repr__(self) -> str:
        return (
            f"IssueEvent(cycle={self.cycle}, sm={self.sm_id}, "
            f"warp={self.warp_id}, pc={self.pc}, "
            f"op={self.instruction.opcode.value}, "
            f"active={self.active_count}/{self.warp_width})"
        )
