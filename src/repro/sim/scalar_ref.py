"""Scalar reference interpreter for differential testing.

Executes a :class:`~repro.kernel.program.Program` one thread at a time,
each thread following its own control flow with no SIMT stack, no
masks, and no timing — the semantics a warp-based execution must match
exactly.  Arithmetic goes through the same :func:`compute_lane` pure
ALU as the simulator, so any divergence between the two executions is a
control-flow/masking bug, not a semantics difference.

Threads of a block are interleaved at barriers: each thread runs until
its next ``BAR`` (or ``EXIT``), then the block advances to the next
barrier phase.  For barrier-race-free kernels this reproduces CUDA
``__syncthreads()`` semantics, so whole workloads (shared-memory scans,
stencils, FFT butterflies) differentially test against this reference,
not just thread-private programs.  Every workload in the suite is
barrier-race-free but bfs from scale 0.5 on, where one warp's
``level[v]`` frontier read races another warp's discovery write in the
same barrier interval (found by :func:`repro.sim.replay.check`).  The
race is benign for the output — the frontier test fails for either
value, and bfs's check passes under every configuration — but it is
real, so the reference's order is one of several legal ones there.
"""

from __future__ import annotations

from typing import Dict, Iterator, List

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.operands import Imm, Reg, SReg, SpecialReg
from repro.sim.executor import compute_lane


class ScalarThread:
    """One thread's architectural state."""

    def __init__(self, tid: int, block_id: int, block_dim: int,
                 grid_dim: int, num_regs: int, num_preds: int) -> None:
        self.tid = tid
        self.block_id = block_id
        self.block_dim = block_dim
        self.grid_dim = grid_dim
        self.regs: List[object] = [0] * num_regs
        self.preds: List[bool] = [False] * num_preds

    @property
    def gtid(self) -> int:
        return self.block_id * self.block_dim + self.tid

    def operand(self, op) -> object:
        if isinstance(op, Reg):
            return self.regs[op.idx]
        if isinstance(op, Imm):
            return op.value
        if isinstance(op, SReg):
            return {
                SpecialReg.TID: self.tid,
                SpecialReg.NTID: self.block_dim,
                SpecialReg.CTAID: self.block_id,
                SpecialReg.NCTAID: self.grid_dim,
                SpecialReg.GTID: self.gtid,
                SpecialReg.LANEID: self.tid % 32,
            }[op.kind]
        raise TypeError(f"unknown operand {op!r}")


def scalar_thread_steps(program, thread: ScalarThread,
                        global_memory: Dict[int, object],
                        shared_memory: Dict[int, object],
                        max_steps: int = 1_000_000) -> Iterator[int]:
    """Run one thread, yielding its barrier count at each ``BAR``.

    The generator finishes at ``EXIT``; the memories mutate in place.
    Driving every thread of a block between consecutive yields gives
    barrier-synchronous block execution (see :func:`run_scalar_block`).
    """
    pc = 0
    steps = 0
    barriers = 0
    while True:
        steps += 1
        assert steps < max_steps, "scalar reference did not terminate"
        inst: Instruction = program[pc]
        op = inst.opcode

        if op is Opcode.EXIT:
            return
        if op is Opcode.BAR:
            pc += 1
            barriers += 1
            yield barriers
            continue
        if op is Opcode.NOP:
            pc += 1
            continue
        if op is Opcode.JMP:
            pc = int(inst.target)
            continue
        if op is Opcode.BRA:
            condition = thread.preds[inst.pred] != inst.pred_neg
            pc = int(inst.target) if condition else pc + 1
            continue

        # guarded execution
        if inst.pred is not None and thread.preds[inst.pred] == inst.pred_neg:
            pc += 1
            continue

        if op is Opcode.SETP:
            inputs = tuple(thread.operand(s) for s in inst.srcs)
            thread.preds[inst.pdst] = bool(compute_lane(inst, inputs))
        elif op is Opcode.SELP:
            inputs = tuple(thread.operand(s) for s in inst.srcs)
            inputs = inputs + (thread.preds[inst.psrc],)
            thread.regs[inst.dst.idx] = compute_lane(inst, inputs)
        elif inst.info.is_load:
            addr = compute_lane(inst, (thread.operand(inst.srcs[0]),))
            memory = (global_memory if op is Opcode.LD_GLOBAL
                      else shared_memory)
            thread.regs[inst.dst.idx] = memory.get(addr, 0)
        elif inst.info.is_store:
            inputs = tuple(thread.operand(s) for s in inst.srcs)
            addr = compute_lane(inst, inputs)
            memory = (global_memory if op is Opcode.ST_GLOBAL
                      else shared_memory)
            memory[addr] = inputs[1]
        else:
            inputs = tuple(thread.operand(s) for s in inst.srcs)
            result = compute_lane(inst, inputs)
            if inst.dst is not None:
                thread.regs[inst.dst.idx] = result
        pc += 1


def run_scalar_block(program, block_id: int, block_dim: int,
                     grid_dim: int,
                     global_memory: Dict[int, object]) -> None:
    """Run one block with barrier-synchronous thread interleaving.

    Every thread executes to its next ``BAR`` before any thread crosses
    it — exactly ``__syncthreads()`` for kernels free of intra-phase
    races (threads of a phase still run one at a time, in tid order).
    """
    shared: Dict[int, object] = {}
    runners: List[Iterator[int]] = []
    for tid in range(block_dim):
        thread = ScalarThread(
            tid=tid, block_id=block_id, block_dim=block_dim,
            grid_dim=grid_dim,
            num_regs=max(1, program.num_registers),
            num_preds=max(1, program.num_predicates),
        )
        runners.append(scalar_thread_steps(
            program, thread, global_memory, shared
        ))
    while runners:
        still_running: List[Iterator[int]] = []
        for stepper in runners:
            if next(stepper, None) is not None:
                still_running.append(stepper)
        runners = still_running
