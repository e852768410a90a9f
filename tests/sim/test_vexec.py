"""Unit tests for the vectorized execution engine's plumbing.

The bit-identity of the *results* is covered by the differential suite
(:mod:`tests.sim.test_vexec_differential`); these tests pin down the
machinery around it: engine selection, the site-aware fault-hook step
and the overflow fallback, the per-program decode cache, the mask
helpers and the per-engine issue counters.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.common.config import GPUConfig, LaunchConfig
from repro.common.errors import SimulationError
from repro.faults.injector import FaultInjector
from repro.faults.models import StuckAtFault
from repro.sim import vexec
from repro.sim.executor import Executor, FaultHook
from repro.sim.gpu import GPU
from repro.sim.memory import GlobalMemory
from repro.sim.sm import SM
from repro.sim.warp import ThreadBlock, Warp
from repro.isa.instruction import Instruction
from repro.isa.opcodes import CmpOp, Opcode, UnitType
from repro.isa.operands import Imm, Reg
from repro.kernel.builder import KernelBuilder
from repro.kernel.program import Program

WARP = 32


def _warp(block_dim=WARP, num_regs=4, lane_of_slot=None):
    block = ThreadBlock(block_id=0, block_dim=block_dim, warp_size=WARP,
                        shared_words=64)
    warp = Warp(warp_id=0, block=block, warp_base=0, warp_size=WARP,
                num_registers=num_regs, num_predicates=2,
                lane_of_slot=lane_of_slot or list(range(WARP)), grid_dim=1)
    block.attach_warps([warp])
    return warp


IADD = Instruction(opcode=Opcode.IADD, dst=Reg(2), srcs=(Reg(0), Reg(1)))


def _executor(engine="fast", fault_hook=None, inst=IADD):
    """An executor bound to a program whose pc 0 holds *inst*."""
    program = Program("probe", (inst, Instruction(Opcode.EXIT)))
    return Executor(0, program, GlobalMemory(size_words=1024), fault_hook,
                    engine=engine)


# ----------------------------------------------------------------------
# Engine selection
# ----------------------------------------------------------------------
def test_invalid_engine_rejected():
    with pytest.raises(SimulationError):
        _executor(engine="turbo")


def test_fast_engine_vectorizes():
    ex, warp = _executor(), _warp()
    ex.execute(warp, 0, cycle=0)
    assert (ex.vector_issues, ex.scalar_issues) == (1, 0)


def test_scalar_engine_pins_interpreter():
    ex, warp = _executor(engine="scalar"), _warp()
    ex.execute(warp, 0, cycle=0)
    assert (ex.vector_issues, ex.scalar_issues) == (0, 1)


@pytest.mark.parametrize("engine,counts", [("fast", (1, 0)),
                                           ("scalar", (0, 1))])
def test_issue_that_raises_counts_on_its_engine(engine, counts):
    """An out-of-range load raises mid-issue (a HUNG run's end), and
    still counts once, on the engine that ran it."""
    warp = _warp()
    for slot in range(WARP):
        warp.write_reg(slot, 0, 4096 + slot)  # memory holds 1024 words
    ld = Instruction(opcode=Opcode.LD_GLOBAL, dst=Reg(2), srcs=(Reg(0),))
    ex = _executor(engine=engine, inst=ld)
    with pytest.raises(SimulationError, match="out of range"):
        ex.execute(warp, 0, cycle=0)
    assert (ex.vector_issues, ex.scalar_issues) == counts


def test_bare_fault_hook_applies_every_lane():
    """A hook that does not narrow ``site_lanes`` (the conservative
    default) sees every active lane once, in slot order, on the vector
    path too, and the issue's outcome is the scalar engine's."""
    outcomes = {}
    for engine in ("scalar", "fast"):
        hook = _RecordingHook()
        ex, warp = _executor(engine, fault_hook=hook), _site_warp()
        outcomes[engine] = _outcome(warp, ex.execute(warp, 0, cycle=0))
        assert hook.lanes == SHUFFLED
    assert (ex.vector_issues, ex.scalar_issues) == (1, 0)
    assert outcomes["fast"] == outcomes["scalar"]


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
# Site-aware fault hooks
# ----------------------------------------------------------------------
#: a non-identity slot -> hw lane map, so slot order is not lane order
SHUFFLED = [(slot * 5) % WARP for slot in range(WARP)]

SETP = Instruction(opcode=Opcode.SETP, pdst=1, srcs=(Reg(0), Reg(1)),
                   cmp=CmpOp.LT)
SELP = Instruction(opcode=Opcode.SELP, dst=Reg(2), srcs=(Reg(0), Reg(1)),
                   psrc=0)
BRA = Instruction(opcode=Opcode.BRA, pred=0, target=7)
LD = Instruction(opcode=Opcode.LD_GLOBAL, dst=Reg(2), srcs=(Reg(0),))
ST = Instruction(opcode=Opcode.ST_GLOBAL, srcs=(Reg(0), Reg(1)))


class _RecordingHook(FaultHook):
    """The bare hook (every lane a site), logging the lanes it sees."""

    def __init__(self):
        self.lanes = []

    def apply(self, sm_id, unit, hw_lane, cycle, value):
        self.lanes.append(hw_lane)
        return value


class _RecordingInjector(FaultInjector):
    def __init__(self, faults):
        super().__init__(faults)
        self.lanes = []

    def apply(self, sm_id, unit, hw_lane, cycle, value):
        self.lanes.append(hw_lane)
        return super().apply(sm_id, unit, hw_lane, cycle, value)


def _site_warp():
    """Distinct per-slot operands: r0 = 8*slot, r1 = -slot, p0 = slot%3==0."""
    warp = _warp(lane_of_slot=SHUFFLED)
    for slot in range(WARP):
        warp.write_reg(slot, 0, 8 * slot)
        warp.write_reg(slot, 1, -slot)
        warp.write_pred(slot, 0, slot % 3 == 0)
    return warp


def _outcome(warp, result):
    """Everything an issue leaves behind, value types included."""
    event, taken = result
    return (warp.reg_i.tolist(), warp.reg_f.tolist(), warp.reg_isf.tolist(),
            warp.preds.tolist(), dict(warp.reg_overflow), taken,
            [(lane, type(v), v) for lane, v in event.lane_results.items()],
            list(event.lane_inputs.items()), event.perturbed_mask)


@pytest.mark.parametrize("inst, slot, bit, stuck_to", [
    (IADD, 2, 0, 1),   # 14 -> 15
    (SETP, 2, 0, 1),   # 16 < -2 is False -> True
    (SELP, 2, 0, 1),   # p0 False selects -2 -> -1
    (BRA, 2, 0, 1),    # not taken -> taken
    (BRA, 3, 0, 0),    # taken -> not taken
], ids=["iadd", "setp", "selp", "bra-set", "bra-clear"])
def test_stuck_at_site_lane_patched_after_vector_issue(inst, slot, bit,
                                                       stuck_to):
    """One stuck-at site lane: the fast engine runs the issue vectorized,
    passes only the site lane through ``apply`` and writes the changed
    value back; registers, predicates, taken mask, lane results and
    ``perturbed_mask`` equal the scalar engine's."""
    lane = SHUFFLED[slot]
    outcomes, hooks = {}, {}
    for engine in ("scalar", "fast"):
        hook = _RecordingInjector([StuckAtFault(
            sm_id=0, hw_lane=lane, unit=UnitType.SP, bit=bit,
            stuck_to=stuck_to)])
        ex, warp = _executor(engine, fault_hook=hook, inst=inst), _site_warp()
        outcomes[engine] = _outcome(warp, ex.execute(warp, 0, cycle=0))
        hooks[engine] = hook
    assert (ex.vector_issues, ex.scalar_issues) == (1, 0)
    assert hooks["fast"].lanes == [lane]
    assert hooks["scalar"].lanes == SHUFFLED
    assert hooks["fast"].activations == hooks["scalar"].activations == 1
    assert outcomes["fast"][-1] == 1 << lane  # perturbed_mask
    assert outcomes["fast"] == outcomes["scalar"]


def test_site_lanes_applied_in_slot_order():
    """Two site lanes whose hw order is the reverse of their slot order."""
    faults = [StuckAtFault(sm_id=0, hw_lane=SHUFFLED[slot],
                           unit=UnitType.SP, bit=0, stuck_to=1)
              for slot in (7, 1)]
    assert SHUFFLED[7] < SHUFFLED[1]
    hook = _RecordingInjector(faults)
    ex, warp = _executor(fault_hook=hook), _site_warp()
    ex.execute(warp, 0, cycle=0)
    assert ex.vector_issues == 1
    assert hook.lanes == [SHUFFLED[1], SHUFFLED[7]]


@pytest.mark.parametrize("inst", [LD, ST], ids=["ld", "st"])
def test_memory_issue_with_live_site_lane_goes_scalar(inst):
    """A perturbed address picks the word accessed, so a load or store
    with an active site lane keeps the scalar per-lane order; off the
    active lanes (or on another unit) it stays vectorized."""
    def run(fault, issued=inst):
        ex = _executor(fault_hook=FaultInjector([fault]), inst=issued)
        warp = _site_warp()
        ex.execute(warp, 0, cycle=0)
        return ex.vector_issues, ex.scalar_issues

    ldst = StuckAtFault(sm_id=0, hw_lane=SHUFFLED[4], unit=UnitType.LDST,
                        bit=2)
    assert run(ldst) == (0, 1)
    assert run(replace(ldst, unit=None)) == (0, 1)
    assert run(replace(ldst, unit=UnitType.SP)) == (1, 0)
    # guarded by p0 (slot % 3 == 0): slot 4 is inactive
    assert run(ldst, replace(inst, pred=0)) == (1, 0)


# ----------------------------------------------------------------------
# Fallbacks
# ----------------------------------------------------------------------
def test_reg_overflow_forces_scalar():
    ex, warp = _executor(), _warp()
    warp.write_reg(0, 0, 1 << 80)  # fits no plane -> overflow side table
    assert warp.reg_overflow
    ex.execute(warp, 0, cycle=0)
    assert (ex.vector_issues, ex.scalar_issues) == (0, 1)


def test_mixed_int_float_still_vectorizes_float_ops():
    warp = _warp()
    for slot in range(WARP):
        warp.write_reg(slot, 0, 1.5 if slot % 2 else 7)
        warp.write_reg(slot, 1, 2)
    fadd = Instruction(opcode=Opcode.FADD, dst=Reg(2), srcs=(Reg(0), Reg(1)))
    ex = _executor(inst=fadd)
    ex.execute(warp, 0, cycle=0)
    assert ex.vector_issues == 1
    assert warp.read_reg(0, 2) == 9.0
    assert warp.read_reg(1, 2) == 3.5


def test_int_op_on_float_operand_falls_back():
    """A float reaching an integer ALU drops the issue to the scalar
    path (compute_lane's ``int()`` truncation semantics), with no state
    mutated by the aborted vector attempt."""
    ex, warp = _executor(), _warp()
    warp.write_reg(3, 0, 2.75)
    ex.execute(warp, 0, cycle=0)
    assert (ex.vector_issues, ex.scalar_issues) == (0, 1)
    assert warp.read_reg(3, 2) == 2  # int(2.75) + 0, scalar semantics


def test_f2i_nonfinite_raises_identically():
    f2i = Instruction(opcode=Opcode.F2I, dst=Reg(2), srcs=(Reg(0),))
    for engine in ("scalar", "fast"):
        ex, warp = _executor(engine=engine, inst=f2i), _warp()
        for slot in range(WARP):
            warp.write_reg(slot, 0, float("inf"))
        with pytest.raises(OverflowError):
            ex.execute(warp, 0, cycle=0)


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
    """Every executor of a program, on either engine, reads the one
    decode table memoized on the Program."""
    program = _tiny_program()
    memory = GlobalMemory()
    ex_a = Executor(0, program, memory)
    ex_b = Executor(1, program, memory, engine="scalar")
    assert ex_a.decoded is ex_b.decoded is vexec.decoded(program)
    assert len(ex_a.decoded) == len(program.instructions)
    for entry, inst in zip(ex_a.decoded, program.instructions):
        assert entry.inst is inst
        assert entry.unit is inst.unit
        assert entry.srcs == inst.source_registers()


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
