"""Bitonic Sort workload (CUDA SDK ``bitonicSort``).

Single-block shared-memory bitonic network.  Every compare-exchange
step is performed by the half of the threads with ``tid ^ j > tid``,
so roughly half of each warp is idle through the whole O(log^2 n)
network — the paper measures Bitonic Sort as its most underutilized
benchmark (~77% idle), making it intra-warp DMR territory.
"""

from __future__ import annotations

import random
from typing import List

from repro.common.config import LaunchConfig
from repro.isa.opcodes import CmpOp
from repro.kernel.builder import KernelBuilder
from repro.sim.memory import GlobalMemory
from repro.workloads.base import TransferSpec, Workload, WorkloadRun, words_bytes


class BitonicSortWorkload(Workload):
    name = "bitonic"
    display_name = "BitonicSort"
    category = "Sorting"
    paper_params = "gridDim=1, blockDim=512"

    BLOCK_DIM = 128
    NUM_BLOCKS = 2  # independent sorts (paper uses 1; 2 exercises >1 SM)

    def build_program(self, block_dim: int, in_base: int, out_base: int):
        bld = KernelBuilder("bitonic")
        tid, gid, addr, ixj, a, bv, lo, hi, t = bld.regs(9)
        p_act, p_up, p_gt = bld.pred(), bld.pred(), bld.pred()

        bld.tid(tid)
        bld.gtid(gid)
        bld.iadd(addr, gid, in_base)
        bld.ld_global(a, addr)
        bld.st_shared(tid, a)
        bld.bar()

        # The k/j loops are compile-time (network shape is static); the
        # compare-exchange is a real branch — only threads with
        # ixj > tid enter it, idling the other half of each warp, which
        # is exactly the ~77% underutilization the paper measures for
        # Bitonic Sort (and intra-warp DMR's feast).
        step = 0
        k = 2
        while k <= block_dim:
            j = k >> 1
            while j > 0:
                skip = f"skip_{step}"
                bld.xor(ixj, tid, j)
                bld.setp(p_act, ixj, CmpOp.GT, tid)
                bld.bra(skip, pred=p_act, neg=True)
                bld.ld_shared(a, tid)
                bld.ld_shared(bv, ixj)
                # lo = min, hi = max; ascending iff (tid & k) == 0
                bld.setp(p_gt, a, CmpOp.GT, bv)
                bld.selp(hi, a, bv, p_gt)
                bld.selp(lo, bv, a, p_gt)
                bld.and_(t, tid, k)
                bld.setp(p_up, t, CmpOp.EQ, 0)
                bld.selp(a, lo, hi, p_up)
                bld.selp(bv, hi, lo, p_up)
                bld.st_shared(tid, a)
                bld.st_shared(ixj, bv)
                bld.label(skip)
                bld.bar()
                j >>= 1
                step += 1
            k <<= 1

        bld.ld_shared(a, tid)
        bld.iadd(addr, gid, out_base)
        bld.st_global(addr, a)
        bld.exit()
        return bld.build()

    def build(self, scale: float = 1.0, seed: int = 0) -> WorkloadRun:
        block_dim = self._scaled(self.BLOCK_DIM, scale, minimum=8)
        block_dim = 1 << (block_dim - 1).bit_length()
        num_blocks = self._scaled(self.NUM_BLOCKS, scale, minimum=1)
        total = block_dim * num_blocks
        rng = random.Random(seed)
        values = [float(rng.randrange(0, 10_000)) for _ in range(total)]

        in_base = 0
        out_base = total
        memory = GlobalMemory()
        memory.write_block(in_base, values)

        program = self.build_program(block_dim, in_base, out_base)
        launch = LaunchConfig(grid_dim=num_blocks, block_dim=block_dim)

        expected: List[float] = []
        for blk in range(num_blocks):
            expected.extend(
                sorted(values[blk * block_dim:(blk + 1) * block_dim])
            )

        def output_of(mem: GlobalMemory) -> List[float]:
            return mem.read_block(out_base, total)

        def check(mem: GlobalMemory) -> None:
            got = mem.read_block(out_base, total)
            assert got == expected, (
                f"bitonic: output not sorted correctly\n got {got[:16]}...\n"
                f" expected {expected[:16]}..."
            )

        return WorkloadRun(
            program=program,
            launch=launch,
            memory=memory,
            transfer=TransferSpec(
                input_bytes=words_bytes(total),
                output_bytes=words_bytes(total),
            ),
            check=check,
            output_of=output_of,
        )
