"""Libor workload (financial Monte-Carlo path evaluation).

Each thread evolves a forward-rate path over M maturities with a
deterministic pseudo-shock (sin of a thread/step-dependent phase),
compounding through exp and discounting through sqrt — a full-warp
workload whose instruction mix leans on the SFU heavily (the paper's
Figure 5 shows Libor with the largest SFU share), so inter-warp DMR
gets abundant different-type co-execution slots.
"""

from __future__ import annotations

import math
import random
from typing import List

from repro.common.config import LaunchConfig
from repro.kernel.builder import KernelBuilder
from repro.isa.opcodes import CmpOp
from repro.sim.memory import GlobalMemory
from repro.workloads.base import TransferSpec, Workload, WorkloadRun, words_bytes

VOLATILITY = 0.08
DRIFT = -0.002
STRIKE = 0.05
PHASE_THREAD = 0.013
PHASE_STEP = 0.71


def cpu_libor_path(initial_rate: float, gtid: int, steps: int) -> float:
    """Host mirror of the kernel's exact arithmetic order."""
    rate = initial_rate
    value = 0.0
    for i in range(steps):
        phase = PHASE_THREAD * gtid + PHASE_STEP * i
        shock = math.sin(phase)
        growth = math.exp(VOLATILITY * shock + DRIFT)
        rate = rate * growth
        payoff = max(rate - STRIKE, 0.0)
        discount = 1.0 / math.sqrt(1.0 + 0.1 * (i + 1))
        value = payoff * discount + value
    return value


class LiborWorkload(Workload):
    name = "libor"
    display_name = "Libor"
    category = "Financial"
    paper_params = "gridDim=64, blockDim=64"

    STEPS = 16
    BLOCK_DIM = 64
    NUM_BLOCKS = 4

    def build_program(self, steps: int, in_base: int, out_base: int):
        bld = KernelBuilder("libor")
        gid, addr, i = bld.regs(3)
        rate, value, phase, shock, growth, payoff, disc, t, fi = bld.regs(9)
        p_cont = bld.pred()

        bld.gtid(gid)
        bld.iadd(addr, gid, in_base)
        bld.ld_global(rate, addr)
        bld.mov(value, 0.0)
        bld.mov(i, 0)

        bld.label("step")
        # phase = PHASE_THREAD * gtid + PHASE_STEP * i
        bld.i2f(fi, gid)
        bld.fmul(phase, fi, PHASE_THREAD)
        bld.i2f(fi, i)
        bld.ffma(phase, fi, PHASE_STEP, phase)
        bld.sin(shock, phase)
        # growth = exp(vol * shock + drift)
        bld.fmul(t, shock, VOLATILITY)
        bld.fadd(t, t, DRIFT)
        bld.exp(growth, t)
        bld.fmul(rate, rate, growth)
        # payoff = max(rate - strike, 0)
        bld.fsub(payoff, rate, STRIKE)
        bld.fmax(payoff, payoff, 0.0)
        # discount = rsqrt(1 + 0.1 * (i + 1))
        bld.iadd(t, i, 1)
        bld.i2f(fi, t)
        bld.fmul(t, fi, 0.1)
        bld.fadd(t, t, 1.0)
        bld.rsqrt(disc, t)
        bld.ffma(value, payoff, disc, value)
        bld.iadd(i, i, 1)
        bld.setp(p_cont, i, CmpOp.LT, steps)
        bld.bra("step", pred=p_cont)

        bld.iadd(addr, gid, out_base)
        bld.st_global(addr, value)
        bld.exit()
        return bld.build()

    def build(self, scale: float = 1.0, seed: int = 0) -> WorkloadRun:
        steps = self._scaled(self.STEPS, scale, minimum=4)
        block_dim = self._scaled(self.BLOCK_DIM, scale, minimum=8)
        num_blocks = self._scaled(self.NUM_BLOCKS, scale, minimum=1)
        num_threads = block_dim * num_blocks

        rng = random.Random(seed)
        rates = [round(rng.uniform(0.02, 0.09), 5) for _ in range(num_threads)]

        in_base = 0
        out_base = num_threads
        memory = GlobalMemory()
        memory.write_block(in_base, rates)

        program = self.build_program(steps, in_base, out_base)
        launch = LaunchConfig(grid_dim=num_blocks, block_dim=block_dim)

        expected: List[float] = [
            cpu_libor_path(rates[g], g, steps) for g in range(num_threads)
        ]

        def output_of(mem: GlobalMemory) -> List[float]:
            return mem.read_block(out_base, num_threads)

        def check(mem: GlobalMemory) -> None:
            got = mem.read_block(out_base, num_threads)
            for g, (a, e) in enumerate(zip(got, expected)):
                assert a == e, f"libor[{g}]: got {a!r}, expected {e!r}"

        return WorkloadRun(
            program=program,
            launch=launch,
            memory=memory,
            transfer=TransferSpec(
                input_bytes=words_bytes(num_threads),
                output_bytes=words_bytes(num_threads),
            ),
            check=check,
            output_of=output_of,
        )
