"""Scan Array workload (CUDA SDK ``scan``).

Per-block Hillis-Steele inclusive prefix sum in shared memory.  The
``tid >= offset`` guard gives partially-active warps whose active count
shrinks log-step by log-step — the mid-range utilization bins of
Figure 1 — while the barrier-heavy structure keeps LD/ST units busy
between SP bursts.
"""

from __future__ import annotations

import random
from typing import List

from repro.common.config import LaunchConfig
from repro.isa.opcodes import CmpOp
from repro.kernel.builder import KernelBuilder
from repro.sim.memory import GlobalMemory
from repro.workloads.base import TransferSpec, Workload, WorkloadRun, words_bytes


class ScanWorkload(Workload):
    name = "scan"
    display_name = "SCAN"
    category = "Linear Algebra/Primitives"
    paper_params = "gridDim=10000, blockDim=256"

    BLOCK_DIM = 64
    NUM_BLOCKS = 8
    IN_BASE = 0

    def build_program(self, block_dim: int, in_base: int, out_base: int):
        b = KernelBuilder("scan")
        tid, gid, own, other, addr, off = b.regs(6)
        p_has, p_cont = b.pred(), b.pred()

        b.tid(tid)
        b.gtid(gid)
        b.iadd(addr, gid, in_base)
        b.ld_global(own, addr)
        b.st_shared(tid, own)
        b.bar()
        b.mov(off, 1)

        b.label("step")
        # read phase: own = s[tid]; if tid >= off: own += s[tid - off]
        b.ld_shared(own, tid)
        b.setp(p_has, tid, CmpOp.GE, off)
        b.isub(addr, tid, off, pred=p_has)
        b.ld_shared(other, addr, pred=p_has)
        b.fadd(own, own, other, pred=p_has)
        b.bar()
        # write phase
        b.st_shared(tid, own)
        b.bar()
        b.shl(off, off, 1)
        b.setp(p_cont, off, CmpOp.LT, block_dim)
        b.bra("step", pred=p_cont)

        b.iadd(addr, gid, out_base)
        b.st_global(addr, own)
        b.exit()
        return b.build()

    def build(self, scale: float = 1.0, seed: int = 0) -> WorkloadRun:
        block_dim = self._scaled(self.BLOCK_DIM, scale, minimum=8)
        # shared-memory scan requires a power-of-two block
        block_dim = 1 << (block_dim - 1).bit_length()
        num_blocks = self._scaled(self.NUM_BLOCKS, scale, minimum=1)
        total = block_dim * num_blocks
        rng = random.Random(seed)
        values = [round(rng.uniform(-4.0, 4.0), 3) for _ in range(total)]

        out_base = self.IN_BASE + total
        memory = GlobalMemory()
        memory.write_block(self.IN_BASE, values)

        program = self.build_program(block_dim, self.IN_BASE, out_base)
        launch = LaunchConfig(grid_dim=num_blocks, block_dim=block_dim)

        # Mirror the kernel's addition order exactly: Hillis-Steele adds
        # pairwise, which for floats differs from a serial running sum.
        expected: List[float] = []
        for blk in range(num_blocks):
            tree = list(values[blk * block_dim:(blk + 1) * block_dim])
            offset = 1
            while offset < block_dim:
                tree = [
                    tree[i] + tree[i - offset] if i >= offset else tree[i]
                    for i in range(block_dim)
                ]
                offset <<= 1
            expected.extend(tree)

        def output_of(mem: GlobalMemory) -> List[float]:
            return mem.read_block(out_base, total)

        def check(mem: GlobalMemory) -> None:
            got = mem.read_block(out_base, total)
            for i, (g, e) in enumerate(zip(got, expected)):
                assert g == e, f"scan[{i}]: got {g!r}, expected {e!r}"

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
