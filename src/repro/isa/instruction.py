"""The :class:`Instruction` record and its validation/disassembly.

An instruction is immutable once built.  Branch targets are stored as
label strings by the builder and resolved to absolute PCs by
:meth:`Instruction.resolved`; the simulator only ever sees resolved
instructions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.common.errors import KernelError
from repro.isa.opcodes import CmpOp, Opcode, OpInfo, UnitType, op_info
from repro.isa.operands import Operand, Reg


@dataclass(frozen=True)
class Instruction:
    """One mini-ISA instruction.

    ``dst``
        Destination register (``None`` for stores/branches/etc.).
    ``srcs``
        Source operands; for stores ``(address, value)``, for loads
        ``(address,)``.  Loads and stores additionally carry a constant
        word ``offset`` (PTX's ``[%r + imm]`` form).
    ``pred`` / ``pred_neg``
        Optional guard predicate register index; when set the
        instruction only executes in lanes where the predicate holds
        (negated when ``pred_neg``).
    ``pdst``
        Destination predicate register for SETP.
    ``psrc``
        Source predicate register for SELP.
    ``cmp``
        Comparison operator for SETP.
    ``target``
        Branch target: a label string until resolution, then an ``int``
        PC.
    """

    opcode: Opcode
    dst: Optional[Reg] = None
    srcs: Tuple[Operand, ...] = ()
    pred: Optional[int] = None
    pred_neg: bool = False
    pdst: Optional[int] = None
    psrc: Optional[int] = None
    cmp: Optional[CmpOp] = None
    target: Optional[object] = None  # str label before resolution, int after
    offset: int = 0

    def __post_init__(self) -> None:
        info = self.info
        if len(self.srcs) != info.num_srcs:
            raise KernelError(
                f"{self.opcode.value} expects {info.num_srcs} sources, "
                f"got {len(self.srcs)}"
            )
        if info.writes_reg and self.dst is None:
            raise KernelError(f"{self.opcode.value} requires a destination")
        if not info.writes_reg and self.dst is not None:
            raise KernelError(f"{self.opcode.value} cannot take a destination")
        if info.writes_pred and self.pdst is None:
            raise KernelError(f"{self.opcode.value} requires a predicate dest")
        if self.opcode is Opcode.SETP and self.cmp is None:
            raise KernelError("setp requires a comparison operator")
        if self.opcode is Opcode.SELP and self.psrc is None:
            raise KernelError("selp requires a source predicate")
        if self.opcode in (Opcode.BRA, Opcode.JMP) and self.target is None:
            raise KernelError(f"{self.opcode.value} requires a target")
        if self.opcode is Opcode.BRA and self.pred is None:
            raise KernelError(
                "bra must be predicated; use jmp for unconditional branches"
            )
        if not info.is_memory and self.offset:
            raise KernelError(
                f"{self.opcode.value} cannot take an address offset"
            )

    @property
    def info(self) -> OpInfo:
        return op_info(self.opcode)

    @property
    def unit(self) -> UnitType:
        return op_info(self.opcode).unit

    @property
    def is_resolved(self) -> bool:
        return not isinstance(self.target, str)

    def resolved(self, pc: int) -> "Instruction":
        """Copy of this instruction with its label target resolved to *pc*."""
        return replace(self, target=pc)

    def source_registers(self) -> Tuple[int, ...]:
        """Indices of general registers this instruction reads.

        Includes the address register of loads/stores — Warped-DMR
        verifies the *address computation* of memory operations (paper
        Section 1), so address inputs count as DMRed sources.
        """
        return tuple(op.idx for op in self.srcs if isinstance(op, Reg))

    def dest_register(self) -> Optional[int]:
        return self.dst.idx if self.dst is not None else None

    # ------------------------------------------------------------------
    # Disassembly
    # ------------------------------------------------------------------
    def disassemble(self) -> str:
        """A PTX-flavoured one-line rendering, for traces and debugging."""
        parts = []
        if self.pred is not None:
            parts.append(f"@{'!' if self.pred_neg else ''}p{self.pred}")
        name = self.opcode.value
        if self.opcode is Opcode.SETP and self.cmp is not None:
            name = f"setp.{self.cmp.value}"
        parts.append(name)
        operands = []
        if self.pdst is not None:
            operands.append(f"%p{self.pdst}")
        if self.dst is not None:
            operands.append(repr(self.dst))
        if self.info.is_memory:
            addr, *rest = self.srcs
            mem = f"[{addr!r}+{self.offset}]" if self.offset else f"[{addr!r}]"
            if self.info.is_load:
                operands.append(mem)
            else:
                operands.append(mem)
                operands.extend(repr(s) for s in rest)
        else:
            operands.extend(repr(s) for s in self.srcs)
        if self.psrc is not None:
            operands.append(f"%p{self.psrc}")
        if self.target is not None:
            operands.append(
                self.target if isinstance(self.target, str) else f"@{self.target}"
            )
        text = " ".join(parts)
        if operands:
            text += " " + ", ".join(operands)
        return text

    def __repr__(self) -> str:
        return f"<{self.disassemble()}>"
