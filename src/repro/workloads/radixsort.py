"""Radix Sort workload (CUDA SDK ``radixSort``, per-block LSD radix-2).

Each block sorts its tile of integer keys one bit at a time: flag the
zero-bit keys, Hillis-Steele-scan the flags in shared memory to get the
stable scatter positions (the classic split primitive), then scatter
between ping-pong key buffers.  Integer-dominated, fully utilized, with
guarded scan steps providing the partial-mask fringe.
"""

from __future__ import annotations

import random
from typing import List

from repro.common.config import LaunchConfig
from repro.isa.opcodes import CmpOp
from repro.kernel.builder import KernelBuilder
from repro.sim.memory import GlobalMemory
from repro.workloads.base import TransferSpec, Workload, WorkloadRun, words_bytes


class RadixSortWorkload(Workload):
    name = "radixsort"
    display_name = "RadixSort"
    category = "Sorting"
    paper_params = "-n=4194304 -iterations=1 -keysonly"

    BLOCK_DIM = 64
    NUM_BLOCKS = 4
    KEY_BITS = 8  # keys in [0, 2^KEY_BITS)

    def build_program(self, block_dim: int, key_bits: int,
                      in_base: int, out_base: int):
        # shared layout: keysA [0, T), keysB [T, 2T), scan aux [2T, 3T)
        t_dim = block_dim
        bld = KernelBuilder("radixsort")
        tid, gid, addr, own, bit, flag, rank, other, total, pos = bld.regs(10)
        src, dst, tswap, off, t = bld.regs(5)
        p_has, p_cont, p_zero = bld.pred(), bld.pred(), bld.pred()

        bld.tid(tid)
        bld.gtid(gid)
        bld.iadd(addr, gid, in_base)
        bld.ld_global(own, addr)
        bld.st_shared(tid, own)
        bld.bar()
        bld.mov(src, 0)
        bld.mov(dst, t_dim)

        for b in range(key_bits):
            # own = srcbuf[tid]; flag = 1 - bit b of own
            bld.iadd(addr, src, tid)
            bld.ld_shared(own, addr)
            bld.shr(bit, own, b)
            bld.and_(bit, bit, 1)
            bld.isub(flag, 1, bit)
            # inclusive scan of flag into aux
            bld.st_shared(tid, flag, offset=2 * t_dim)
            bld.bar()
            bld.mov(rank, flag)
            off_val = 1
            while off_val < t_dim:
                bld.mov(off, off_val)
                bld.setp(p_has, tid, CmpOp.GE, off)
                bld.isub(addr, tid, off, pred=p_has)
                bld.ld_shared(other, addr, offset=2 * t_dim, pred=p_has)
                bld.iadd(rank, rank, other, pred=p_has)
                bld.bar()
                bld.st_shared(tid, rank, offset=2 * t_dim)
                bld.bar()
                off_val <<= 1
            # total zeros = aux[T-1] (already synced by the loop's bar)
            bld.ld_shared(total, 0, offset=2 * t_dim + t_dim - 1)
            # pos = bit==0 ? rank-1 : total + tid - rank
            bld.setp(p_zero, bit, CmpOp.EQ, 0)
            bld.isub(t, rank, 1)
            bld.iadd(pos, total, tid)
            bld.isub(pos, pos, rank)
            bld.selp(pos, t, pos, p_zero)
            # scatter into dst buffer
            bld.iadd(addr, dst, pos)
            bld.st_shared(addr, own)
            bld.bar()
            # swap buffers
            bld.mov(tswap, src)
            bld.mov(src, dst)
            bld.mov(dst, tswap)

        bld.iadd(addr, src, tid)
        bld.ld_shared(own, addr)
        bld.iadd(addr, gid, out_base)
        bld.st_global(addr, own)
        bld.exit()
        return bld.build()

    def build(self, scale: float = 1.0, seed: int = 0) -> WorkloadRun:
        block_dim = self._scaled(self.BLOCK_DIM, scale, minimum=8)
        block_dim = 1 << (block_dim - 1).bit_length()
        num_blocks = self._scaled(self.NUM_BLOCKS, scale, minimum=1)
        total = block_dim * num_blocks
        rng = random.Random(seed)
        keys = [rng.randrange(0, 1 << self.KEY_BITS) for _ in range(total)]

        in_base = 0
        out_base = total
        memory = GlobalMemory()
        memory.write_block(in_base, keys)

        program = self.build_program(
            block_dim, self.KEY_BITS, in_base, out_base
        )
        launch = LaunchConfig(grid_dim=num_blocks, block_dim=block_dim)

        expected: List[int] = []
        for blk in range(num_blocks):
            expected.extend(sorted(keys[blk * block_dim:(blk + 1) * block_dim]))

        def output_of(mem: GlobalMemory) -> List[int]:
            return mem.read_block(out_base, total)

        def check(mem: GlobalMemory) -> None:
            got = mem.read_block(out_base, total)
            assert got == expected, (
                f"radixsort: got {got[:16]}... expected {expected[:16]}..."
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
