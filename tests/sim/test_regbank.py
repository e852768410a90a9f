"""Tests for the register-bank conflict model (Section 2.1)."""

from dataclasses import replace

import pytest

from repro.common.config import GPUConfig
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.operands import Imm, Reg
from repro.kernel.builder import KernelBuilder
from repro.sim.regbank import bank_of, serialized_accesses
from repro.sim.vexec import DecodedInst

from tests.conftest import run_program

#: engine differentials compare launches that execute: a replayed
#: launch (repro.sim.replay) would only repeat its own recording
pytestmark = pytest.mark.usefixtures("executing")


class TestBankMath:
    def test_bank_of_modulo(self):
        assert [bank_of(r) for r in range(8)] == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_no_sources_no_conflict(self):
        assert serialized_accesses([]) == 0

    def test_distinct_banks_concurrent(self):
        assert serialized_accesses([0, 1, 2]) == 0

    def test_same_bank_serializes(self):
        assert serialized_accesses([0, 4]) == 1
        assert serialized_accesses([0, 4, 8]) == 2

    def test_same_register_twice_is_one_access(self):
        assert serialized_accesses([3, 3]) == 0

    def test_ffma_worst_case(self):
        # three sources, all in bank 1; the SM charges the serialized
        # reads of the decode table's source registers
        inst = Instruction(
            opcode=Opcode.FFMA, dst=Reg(0), srcs=(Reg(1), Reg(5), Reg(9))
        )
        assert serialized_accesses(DecodedInst(inst).srcs) == 2

    def test_immediates_do_not_conflict(self):
        inst = Instruction(
            opcode=Opcode.IADD, dst=Reg(0), srcs=(Reg(1), Imm(4))
        )
        assert serialized_accesses(DecodedInst(inst).srcs) == 0


class TestBankConflictTiming:
    def _conflicting_kernel(self):
        b = KernelBuilder("banky")
        gid = b.reg()          # r0
        b.gtid(gid)
        regs = [Reg(4), Reg(8), Reg(12)]  # all bank 0
        for r in regs:
            b.mov(r, 1)
        acc = Reg(16)          # bank 0 as well
        b.mov(acc, 0)
        for _ in range(8):
            b.iadd(acc, Reg(4), Reg(8))      # bank conflict: 4 vs 8
        b.st_global(gid, acc)
        b.exit()
        return b.build()

    def test_disabled_by_default(self):
        result, _ = run_program(
            self._conflicting_kernel(), GPUConfig.small(1), block=32
        )
        assert result.stats.value("bank_conflict_cycles") == 0

    def test_enabled_charges_cycles(self):
        config = replace(GPUConfig.small(1), model_bank_conflicts=True)
        result, _ = run_program(self._conflicting_kernel(), config, block=32)
        assert result.stats.value("bank_conflict_cycles") >= 8

    def test_conflicts_slow_execution(self):
        program = self._conflicting_kernel()
        plain, _ = run_program(program, GPUConfig.small(1), block=32)
        config = replace(GPUConfig.small(1), model_bank_conflicts=True)
        slowed, _ = run_program(program, config, block=32)
        assert slowed.cycles > plain.cycles

    def test_conflict_free_kernel_unaffected(self):
        b = KernelBuilder("clean")
        gid = b.reg()   # r0 bank 0
        a = Reg(1)      # bank 1
        c = Reg(2)      # bank 2
        b.gtid(gid)
        b.mov(a, 1)
        b.mov(c, 2)
        for _ in range(8):
            b.iadd(Reg(3), a, c)
        b.st_global(gid, Reg(3))
        b.exit()
        program = b.build()
        config = replace(GPUConfig.small(1), model_bank_conflicts=True)
        result, _ = run_program(program, config, block=32)
        assert result.stats.value("bank_conflict_cycles") == 0
