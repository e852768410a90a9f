"""Unit tests for the vectorized execution engine's plumbing.

The bit-identity of the *results* is covered by the differential suite
(:mod:`tests.sim.test_vexec_differential`); these tests pin down the
machinery around it: engine selection, the fault-hook and overflow
fallbacks, the per-program decode cache, the mask helpers and the
per-engine issue counters.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.config import GPUConfig, LaunchConfig
from repro.common.errors import SimulationError
from repro.sim import vexec
from repro.sim.executor import Executor, FaultHook
from repro.sim.gpu import GPU
from repro.sim.memory import GlobalMemory
from repro.sim.sm import SM
from repro.sim.warp import ThreadBlock, Warp
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.operands import Imm, Reg
from repro.kernel.builder import KernelBuilder

WARP = 32


def _warp(block_dim=WARP, num_regs=4):
    block = ThreadBlock(block_id=0, block_dim=block_dim, warp_size=WARP,
                        shared_words=64)
    warp = Warp(warp_id=0, block=block, warp_base=0, warp_size=WARP,
                num_registers=num_regs, num_predicates=2,
                lane_of_slot=list(range(WARP)), grid_dim=1)
    block.attach_warps([warp])
    return warp


def _executor(engine="fast", fault_hook=None):
    return Executor(0, GlobalMemory(size_words=1024), fault_hook,
                    engine=engine)


IADD = Instruction(opcode=Opcode.IADD, dst=Reg(2), srcs=(Reg(0), Reg(1)))


# ----------------------------------------------------------------------
# Engine selection
# ----------------------------------------------------------------------
def test_invalid_engine_rejected():
    with pytest.raises(SimulationError):
        _executor(engine="turbo")


def test_fast_engine_vectorizes():
    ex, warp = _executor(), _warp()
    ex.execute(warp, IADD, 0, cycle=0)
    assert (ex.vector_issues, ex.scalar_issues) == (1, 0)


def test_scalar_engine_pins_interpreter():
    ex, warp = _executor(engine="scalar"), _warp()
    ex.execute(warp, IADD, 0, cycle=0)
    assert (ex.vector_issues, ex.scalar_issues) == (0, 1)


def test_fault_hook_forces_scalar_path():
    """Faults are injected per lane; an armed hook must disable the
    vector engine entirely (the fault-model contract)."""
    ex, warp = _executor(fault_hook=FaultHook()), _warp()
    ex.execute(warp, IADD, 0, cycle=0)
    assert (ex.vector_issues, ex.scalar_issues) == (0, 1)


def test_repro_exec_env_pins_gpu_engine(monkeypatch):
    """``$REPRO_EXEC`` names the engine of configs built without one,
    the default ``GPU()`` chip included; it reaches every SM."""
    monkeypatch.setenv("REPRO_EXEC", "scalar")
    assert GPU().config.engine == "scalar"
    monkeypatch.delenv("REPRO_EXEC")
    assert GPU().config.engine == "fast"
    assert GPU(GPUConfig(engine="scalar")).config.engine == "scalar"
    program = _tiny_program()
    sms = []
    original = SM.run

    def recording_run(self):
        sms.append(self)
        return original(self)

    monkeypatch.setattr(SM, "run", recording_run)
    GPU(GPUConfig(num_sms=1, engine="scalar")).launch(
        program, LaunchConfig(grid_dim=1, block_dim=WARP))
    assert [sm.executor.engine for sm in sms] == ["scalar"]


# ----------------------------------------------------------------------
# Fallbacks
# ----------------------------------------------------------------------
def test_reg_overflow_forces_scalar():
    ex, warp = _executor(), _warp()
    warp.write_reg(0, 0, 1 << 80)  # fits no plane -> overflow side table
    assert warp.reg_overflow
    ex.execute(warp, IADD, 0, cycle=0)
    assert (ex.vector_issues, ex.scalar_issues) == (0, 1)


def test_mixed_int_float_still_vectorizes_float_ops():
    ex, warp = _executor(), _warp()
    for slot in range(WARP):
        warp.write_reg(slot, 0, 1.5 if slot % 2 else 7)
        warp.write_reg(slot, 1, 2)
    fadd = Instruction(opcode=Opcode.FADD, dst=Reg(2), srcs=(Reg(0), Reg(1)))
    ex.execute(warp, fadd, 0, cycle=0)
    assert ex.vector_issues == 1
    assert warp.read_reg(0, 2) == 9.0
    assert warp.read_reg(1, 2) == 3.5


def test_int_op_on_float_operand_falls_back():
    """A float reaching an integer ALU drops the issue to the scalar
    path (compute_lane's ``int()`` truncation semantics), with no state
    mutated by the aborted vector attempt."""
    ex, warp = _executor(), _warp()
    warp.write_reg(3, 0, 2.75)
    ex.execute(warp, IADD, 0, cycle=0)
    assert (ex.vector_issues, ex.scalar_issues) == (0, 1)
    assert warp.read_reg(3, 2) == 2  # int(2.75) + 0, scalar semantics


def test_f2i_nonfinite_raises_identically():
    for engine in ("scalar", "fast"):
        ex, warp = _executor(engine=engine), _warp()
        for slot in range(WARP):
            warp.write_reg(slot, 0, float("inf"))
        f2i = Instruction(opcode=Opcode.F2I, dst=Reg(2), srcs=(Reg(0),))
        with pytest.raises(OverflowError):
            ex.execute(warp, f2i, 0, cycle=0)


# ----------------------------------------------------------------------
# Decode cache
# ----------------------------------------------------------------------
def _tiny_program():
    k = KernelBuilder("tiny")
    r = k.reg()
    k.mov(r, 41)
    k.iadd(r, r, 1)
    k.exit()
    return k.build()


def test_decode_cache_shared_across_executors():
    program = _tiny_program()
    ex_a, ex_b = _executor(), _executor()
    ex_a.bind_program(program)
    ex_b.bind_program(program)
    assert ex_a._decoded is ex_b._decoded  # memoized on the Program
    assert len(ex_a._decoded) == len(program.instructions)
    for entry, inst in zip(ex_a._decoded, program.instructions):
        assert entry.inst is inst


def test_scalar_executor_skips_decode():
    ex = _executor(engine="scalar")
    ex.bind_program(_tiny_program())
    assert ex._decoded is None


def test_unbound_executor_decodes_on_demand():
    ex, warp = _executor(), _warp()
    ex.execute(warp, IADD, 0, cycle=0)
    ex.execute(warp, IADD, 5, cycle=1)
    assert ex.vector_issues == 2
    assert len(ex._adhoc) == 1  # equality-keyed, decoded once


# ----------------------------------------------------------------------
# Mask helpers
# ----------------------------------------------------------------------
def test_mask_bits_roundtrip():
    for width in (1, 7, 32):
        for mask in (0, 1, (1 << width) - 1, 0b1010101 & ((1 << width) - 1)):
            bits = vexec.mask_bits(mask, width)
            assert bits.shape == (width,)
            assert bits.dtype == np.bool_
            assert vexec.pack_mask(bits) == mask


def test_mask_bits_is_readonly():
    bits = vexec.mask_bits(0b101, 3)
    with pytest.raises(ValueError):
        bits[0] = False  # cached arrays must not be mutable


# ----------------------------------------------------------------------
# End-to-end smoke: full launch on each engine
# ----------------------------------------------------------------------
def test_launch_smoke_both_engines():
    for engine in ("scalar", "fast"):
        k = KernelBuilder("smoke")
        addr, val = k.regs(2)
        k.gtid(addr)
        k.imad(val, addr, 3, 100)
        k.st_global(addr, val)
        k.exit()
        memory = GlobalMemory(size_words=1024)
        GPU(GPUConfig(engine=engine)).launch(
            k.build(), LaunchConfig(grid_dim=2, block_dim=64), memory=memory)
        assert [memory.load(i) for i in range(128)] == [
            100 + 3 * i for i in range(128)]
