"""Opcode table: which unit executes each opcode, with what shape.

The paper's inter-warp DMR hinges on a two-bit *instruction type* (SP,
LD/ST or SFU) attached by the decoder (Section 4.3); :func:`op_info`
provides exactly that classification plus operand-count metadata used by
the register file and ReplayQ geometry.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Dict


class UnitType(enum.Enum):
    """Execution unit classes (paper Section 2.2)."""

    SP = "SP"
    LDST = "LDST"
    SFU = "SFU"


class Opcode(enum.Enum):
    # --- SP: integer arithmetic / logic ---
    MOV = "mov"
    IADD = "iadd"
    ISUB = "isub"
    IMUL = "imul"
    IMAD = "imad"        # d = a*b + c (3R1W)
    IDIV = "idiv"
    IREM = "irem"
    IMIN = "imin"
    IMAX = "imax"
    AND = "and"
    OR = "or"
    XOR = "xor"
    NOT = "not"
    SHL = "shl"
    SHR = "shr"
    # --- SP: floating point ---
    FADD = "fadd"
    FSUB = "fsub"
    FMUL = "fmul"
    FFMA = "ffma"        # d = a*b + c (3R1W, paper's MULADD)
    FMIN = "fmin"
    FMAX = "fmax"
    FABS = "fabs"
    FNEG = "fneg"
    I2F = "i2f"
    F2I = "f2i"
    # --- SP: predicates / control ---
    SETP = "setp"        # p = a <cmp> b
    SELP = "selp"        # d = p ? a : b
    BRA = "bra"          # predicated branch
    JMP = "jmp"          # unconditional branch
    BAR = "bar"          # block-wide barrier
    EXIT = "exit"
    NOP = "nop"
    # --- SFU: transcendental ---
    SIN = "sin"
    COS = "cos"
    SQRT = "sqrt"
    RSQRT = "rsqrt"
    EXP = "exp"
    LOG = "log"
    # --- LD/ST ---
    LD_GLOBAL = "ld.global"
    ST_GLOBAL = "st.global"
    LD_SHARED = "ld.shared"
    ST_SHARED = "st.shared"


class CmpOp(enum.Enum):
    """Comparison operators for SETP."""

    EQ = "eq"
    NE = "ne"
    LT = "lt"
    LE = "le"
    GT = "gt"
    GE = "ge"


@dataclass(frozen=True)
class OpInfo:
    """Static properties of an opcode.

    ``num_srcs`` counts general-register/immediate source operands; the
    destination and predicate guard are tracked separately.
    ``coverable`` is false for the opcodes with no datapath computation
    to verify (NOP, BAR, EXIT, JMP), which DMR coverage excludes.
    """

    opcode: Opcode
    unit: UnitType
    num_srcs: int
    writes_reg: bool
    writes_pred: bool = False
    is_memory: bool = False
    is_load: bool = False
    is_store: bool = False
    is_control: bool = False
    is_barrier: bool = False
    coverable: bool = True

    @property
    def type_bits(self) -> int:
        """The decoder's 2-bit instruction type (paper Section 4.3)."""
        return {UnitType.SP: 0, UnitType.LDST: 1, UnitType.SFU: 2}[self.unit]


def _sp(op: Opcode, srcs: int, writes: bool = True, **kw: bool) -> OpInfo:
    return OpInfo(op, UnitType.SP, srcs, writes, **kw)


def _sfu(op: Opcode) -> OpInfo:
    return OpInfo(op, UnitType.SFU, 1, True)


_TABLE: Dict[Opcode, OpInfo] = {}

for _op, _n in [
    (Opcode.MOV, 1), (Opcode.NOT, 1), (Opcode.FABS, 1), (Opcode.FNEG, 1),
    (Opcode.I2F, 1), (Opcode.F2I, 1),
    (Opcode.IADD, 2), (Opcode.ISUB, 2), (Opcode.IMUL, 2), (Opcode.IDIV, 2),
    (Opcode.IREM, 2), (Opcode.IMIN, 2), (Opcode.IMAX, 2),
    (Opcode.AND, 2), (Opcode.OR, 2), (Opcode.XOR, 2),
    (Opcode.SHL, 2), (Opcode.SHR, 2),
    (Opcode.FADD, 2), (Opcode.FSUB, 2), (Opcode.FMUL, 2),
    (Opcode.FMIN, 2), (Opcode.FMAX, 2),
    (Opcode.IMAD, 3), (Opcode.FFMA, 3),
]:
    _TABLE[_op] = _sp(_op, _n)

_TABLE[Opcode.SETP] = _sp(Opcode.SETP, 2, writes=False, writes_pred=True)
_TABLE[Opcode.SELP] = _sp(Opcode.SELP, 2)  # plus a predicate source
_TABLE[Opcode.BRA] = _sp(Opcode.BRA, 0, writes=False, is_control=True)
_TABLE[Opcode.JMP] = _sp(Opcode.JMP, 0, writes=False, is_control=True)
_TABLE[Opcode.EXIT] = _sp(Opcode.EXIT, 0, writes=False, is_control=True)
_TABLE[Opcode.NOP] = _sp(Opcode.NOP, 0, writes=False)
_TABLE[Opcode.BAR] = _sp(Opcode.BAR, 0, writes=False, is_barrier=True)
for _op in (Opcode.JMP, Opcode.EXIT, Opcode.NOP, Opcode.BAR):
    _TABLE[_op] = replace(_TABLE[_op], coverable=False)  # nothing to verify

for _op in (Opcode.SIN, Opcode.COS, Opcode.SQRT, Opcode.RSQRT,
            Opcode.EXP, Opcode.LOG):
    _TABLE[_op] = _sfu(_op)

_TABLE[Opcode.LD_GLOBAL] = OpInfo(
    Opcode.LD_GLOBAL, UnitType.LDST, 1, True, is_memory=True, is_load=True)
_TABLE[Opcode.LD_SHARED] = OpInfo(
    Opcode.LD_SHARED, UnitType.LDST, 1, True, is_memory=True, is_load=True)
_TABLE[Opcode.ST_GLOBAL] = OpInfo(
    Opcode.ST_GLOBAL, UnitType.LDST, 2, False, is_memory=True, is_store=True)
_TABLE[Opcode.ST_SHARED] = OpInfo(
    Opcode.ST_SHARED, UnitType.LDST, 2, False, is_memory=True, is_store=True)


def op_info(opcode: Opcode) -> OpInfo:
    """Look up the static :class:`OpInfo` for *opcode*."""
    return _TABLE[opcode]


def all_opcodes() -> Dict[Opcode, OpInfo]:
    """A copy of the whole opcode table (for tests and tooling)."""
    return dict(_TABLE)
