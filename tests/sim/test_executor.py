"""Unit tests for functional execution semantics."""

import math
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

from repro.isa.instruction import Instruction
from repro.isa.opcodes import CmpOp, Opcode
from repro.isa.operands import Imm, Reg
from repro.sim.executor import compute_lane, _wrap_i32


def make(opcode, *src_values, cmp=None, offset=0):
    """Build a minimal instruction + inputs pair for compute_lane."""
    from repro.isa.opcodes import op_info
    info = op_info(opcode)
    srcs = tuple(Reg(i) for i in range(info.num_srcs))
    inst = Instruction(
        opcode=opcode,
        dst=Reg(30) if info.writes_reg else None,
        srcs=srcs,
        cmp=cmp,
        pdst=0 if info.writes_pred else None,
        psrc=0 if opcode is Opcode.SELP else None,
        offset=offset,
    )
    return compute_lane(inst, src_values)


class TestIntegerSemantics:
    def test_iadd(self):
        assert make(Opcode.IADD, 2, 3) == 5

    def test_iadd_wraps_to_signed_32bit(self):
        assert make(Opcode.IADD, 0x7FFFFFFF, 1) == -(1 << 31)

    def test_isub_negative(self):
        assert make(Opcode.ISUB, 2, 5) == -3

    def test_imul_wraps(self):
        assert make(Opcode.IMUL, 1 << 20, 1 << 20) == 0

    def test_imad(self):
        assert make(Opcode.IMAD, 3, 4, 5) == 17

    def test_idiv_truncates_toward_zero(self):
        assert make(Opcode.IDIV, 7, 2) == 3
        assert make(Opcode.IDIV, -7, 2) == -3

    def test_idiv_by_zero_is_zero(self):
        assert make(Opcode.IDIV, 5, 0) == 0

    def test_irem_sign_follows_dividend(self):
        assert make(Opcode.IREM, 7, 3) == 1
        assert make(Opcode.IREM, -7, 3) == -1

    def test_irem_by_zero_is_zero(self):
        assert make(Opcode.IREM, 5, 0) == 0

    def test_min_max(self):
        assert make(Opcode.IMIN, -2, 5) == -2
        assert make(Opcode.IMAX, -2, 5) == 5

    def test_bitwise_on_negative_operands(self):
        # -1 is all ones in two's complement
        assert make(Opcode.AND, -1, 0xF0) == 0xF0
        assert make(Opcode.OR, 0, -1) == -1
        assert make(Opcode.XOR, -1, -1) == 0

    def test_not(self):
        assert make(Opcode.NOT, 0) == -1

    def test_shl_masks_shift_amount(self):
        assert make(Opcode.SHL, 1, 33) == 2  # 33 & 31 == 1

    def test_shr_is_logical(self):
        # -1 >> 1 logically = 0x7FFFFFFF
        assert make(Opcode.SHR, -1, 1) == 0x7FFFFFFF

    def test_wrap_i32_helper(self):
        assert _wrap_i32(0x80000000) == -(1 << 31)
        assert _wrap_i32(0x7FFFFFFF) == 0x7FFFFFFF
        assert _wrap_i32(1 << 32) == 0


class TestFloatSemantics:
    def test_fadd(self):
        assert make(Opcode.FADD, 1.5, 2.25) == 3.75

    def test_ffma_single_rounding_order(self):
        assert make(Opcode.FFMA, 2.0, 3.0, 1.0) == 7.0

    def test_fabs_fneg(self):
        assert make(Opcode.FABS, -2.0) == 2.0
        assert make(Opcode.FNEG, 2.0) == -2.0

    def test_conversions(self):
        assert make(Opcode.I2F, 3) == 3.0
        assert make(Opcode.F2I, 3.9) == 3
        assert make(Opcode.F2I, -3.9) == -3

    def test_sfu_functions(self):
        assert make(Opcode.SIN, 0.0) == 0.0
        assert make(Opcode.COS, 0.0) == 1.0
        assert make(Opcode.SQRT, 4.0) == 2.0
        assert make(Opcode.RSQRT, 4.0) == 0.5
        assert make(Opcode.EXP, 0.0) == 1.0
        assert make(Opcode.LOG, math.e) == pytest.approx(1.0)

    def test_sfu_domain_clamps(self):
        assert make(Opcode.SQRT, -1.0) == 0.0
        assert make(Opcode.RSQRT, 0.0) == 0.0
        assert make(Opcode.RSQRT, -1.0) == 0.0
        assert make(Opcode.LOG, 0.0) == float("-inf")
        assert make(Opcode.EXP, 1e9) == math.exp(700.0)


class TestPredicatesAndControl:
    @pytest.mark.parametrize("cmp,a,b,expected", [
        (CmpOp.EQ, 3, 3, True), (CmpOp.EQ, 3, 4, False),
        (CmpOp.NE, 3, 4, True),
        (CmpOp.LT, -1, 0, True), (CmpOp.LE, 0, 0, True),
        (CmpOp.GT, 1, 0, True), (CmpOp.GE, -1, 0, False),
    ])
    def test_setp(self, cmp, a, b, expected):
        assert make(Opcode.SETP, a, b, cmp=cmp) is expected

    def test_setp_mixed_types_compare_as_float(self):
        assert make(Opcode.SETP, 1, 1.5, cmp=CmpOp.LT) is True

    def test_selp(self):
        assert make(Opcode.SELP, 10, 20, True) == 10
        assert make(Opcode.SELP, 10, 20, False) == 20


class TestMemoryAddressing:
    def test_load_address_is_base_plus_offset(self):
        assert make(Opcode.LD_GLOBAL, 100, offset=8) == 108

    def test_store_address(self):
        assert make(Opcode.ST_SHARED, 5, 42.0, offset=3) == 8

    def test_negative_offset(self):
        assert make(Opcode.LD_SHARED, 10, offset=-4) == 6


#: runs in a fresh interpreter: CPython picks a two-NaN operation's
#: result NaN differently before and after its adaptive interpreter
#: specializes the arithmetic (the first few executions of a code site
#: return the second operand's NaN for ``*`` and ``+``), so the rule is
#: checked on the ALU's very first executions
_TWO_NAN_SCRIPT = textwrap.dedent("""
    import struct
    from repro.isa.instruction import Instruction
    from repro.isa.opcodes import Opcode
    from repro.isa.operands import Reg
    from repro.sim.executor import compute_lane

    def bits(value):
        return struct.pack("<d", value)

    nan = float("nan")
    for a, b in ((nan, -nan), (-nan, nan)):
        first = bits(a + 0.0)
        for op, inputs in ((Opcode.FADD, (a, b)), (Opcode.FSUB, (a, b)),
                           (Opcode.FMUL, (a, b)), (Opcode.FFMA, (a, b, 1.0)),
                           (Opcode.FFMA, (1.0, a, b))):
            inst = Instruction(opcode=op, dst=Reg(3),
                               srcs=tuple(Reg(i) for i in range(len(inputs))))
            assert bits(compute_lane(inst, inputs)) == first, (op, a, b)
""")


def test_two_nan_operands_give_the_first_operands_nan():
    """FADD/FSUB/FMUL and both steps of FFMA return the first operand's
    NaN when both operands are NaN, from the first execution on."""
    src = pathlib.Path(__import__("repro").__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    subprocess.run([sys.executable, "-c", _TWO_NAN_SCRIPT], env=env,
                   check=True, timeout=60)
