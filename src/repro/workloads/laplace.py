"""Laplace solver workload (paper: "Laplace transform", scientific).

Jacobi iteration of the 5-point Laplace stencil on a W x H grid held in
shared memory, one thread per cell, ping-pong buffers, a barrier per
half-step.  Interior cells do the FP work; boundary threads ride along
predicated-off — a steady mid-90s% utilization with a fixed fringe of
idle lanes, plus an FP-heavy SP mix.
"""

from __future__ import annotations

import random
from typing import List

from repro.common.config import LaunchConfig
from repro.isa.opcodes import CmpOp
from repro.kernel.builder import KernelBuilder
from repro.sim.memory import GlobalMemory
from repro.workloads.base import TransferSpec, Workload, WorkloadRun, words_bytes


class LaplaceWorkload(Workload):
    name = "laplace"
    display_name = "Laplace"
    category = "Scientific"
    paper_params = "gridDim=25x4, blockDim=32x4"

    WIDTH = 8
    HEIGHT = 8
    ITERATIONS = 12
    NUM_BLOCKS = 4

    def build_program(self, width: int, height: int, iterations: int,
                      in_base: int, out_base: int):
        cells = width * height
        bld = KernelBuilder("laplace")
        tid, gid, x, y, addr, raddr, waddr = bld.regs(7)
        own, left, right, up, down, acc, res, merged = bld.regs(8)
        f1, f2, rs, ws, t, it = bld.regs(6)
        p1, p2, p_int, p_cont = bld.pred(), bld.pred(), bld.pred(), bld.pred()

        bld.tid(tid)
        bld.gtid(gid)
        bld.irem(x, tid, width)
        bld.idiv(y, tid, width)
        # interior = (0 < x < W-1) and (0 < y < H-1), folded into flags
        bld.setp(p1, x, CmpOp.GT, 0)
        bld.selp(f1, 1, 0, p1)
        bld.setp(p2, x, CmpOp.LT, width - 1)
        bld.selp(f2, 1, 0, p2)
        bld.and_(f1, f1, f2)
        bld.setp(p2, y, CmpOp.GT, 0)
        bld.selp(f2, 1, 0, p2)
        bld.and_(f1, f1, f2)
        bld.setp(p2, y, CmpOp.LT, height - 1)
        bld.selp(f2, 1, 0, p2)
        bld.and_(f1, f1, f2)
        bld.setp(p_int, f1, CmpOp.EQ, 1)

        # load the cell into both ping-pong buffers
        bld.iadd(addr, gid, in_base)
        bld.ld_global(own, addr)
        bld.st_shared(tid, own)
        bld.iadd(t, tid, cells)
        bld.st_shared(t, own)
        bld.bar()

        bld.mov(rs, 0)        # read-buffer base
        bld.mov(ws, cells)    # write-buffer base
        bld.mov(it, 0)

        bld.label("iter")
        bld.iadd(raddr, rs, tid)
        bld.ld_shared(own, raddr)
        bld.ld_shared(left, raddr, offset=-1, pred=p_int)
        bld.ld_shared(right, raddr, offset=1, pred=p_int)
        bld.ld_shared(up, raddr, offset=-width, pred=p_int)
        bld.ld_shared(down, raddr, offset=width, pred=p_int)
        bld.fadd(acc, left, right, pred=p_int)
        bld.fadd(acc, acc, up, pred=p_int)
        bld.fadd(acc, acc, down, pred=p_int)
        bld.fmul(res, acc, 0.25, pred=p_int)
        bld.selp(merged, res, own, p_int)
        bld.bar()
        bld.iadd(waddr, ws, tid)
        bld.st_shared(waddr, merged)
        bld.bar()
        # swap ping-pong bases
        bld.mov(t, rs)
        bld.mov(rs, ws)
        bld.mov(ws, t)
        bld.iadd(it, it, 1)
        bld.setp(p_cont, it, CmpOp.LT, iterations)
        bld.bra("iter", pred=p_cont)

        bld.iadd(raddr, rs, tid)
        bld.ld_shared(own, raddr)
        bld.iadd(addr, gid, out_base)
        bld.st_global(addr, own)
        bld.exit()
        return bld.build()

    @staticmethod
    def cpu_reference(grid: List[float], width: int, height: int,
                      iterations: int) -> List[float]:
        """Bit-exact mirror of the kernel's arithmetic order."""
        current = list(grid)
        for _ in range(iterations):
            nxt = list(current)
            for y in range(1, height - 1):
                for x in range(1, width - 1):
                    i = y * width + x
                    acc = current[i - 1] + current[i + 1]
                    acc = acc + current[i - width]
                    acc = acc + current[i + width]
                    nxt[i] = acc * 0.25
            current = nxt
        return current

    def build(self, scale: float = 1.0, seed: int = 0) -> WorkloadRun:
        width = self._scaled(self.WIDTH, scale, minimum=4)
        height = self._scaled(self.HEIGHT, scale, minimum=4)
        iterations = self._scaled(self.ITERATIONS, scale, minimum=2)
        num_blocks = self._scaled(self.NUM_BLOCKS, scale, minimum=1)
        cells = width * height

        rng = random.Random(seed)
        grids = [
            [round(rng.uniform(0.0, 100.0), 2) for _ in range(cells)]
            for _ in range(num_blocks)
        ]

        in_base = 0
        out_base = num_blocks * cells
        memory = GlobalMemory()
        for i, grid in enumerate(grids):
            memory.write_block(in_base + i * cells, grid)

        program = self.build_program(
            width, height, iterations, in_base, out_base
        )
        launch = LaunchConfig(grid_dim=num_blocks, block_dim=cells)

        expected: List[float] = []
        for grid in grids:
            expected.extend(
                self.cpu_reference(grid, width, height, iterations)
            )

        def output_of(mem: GlobalMemory) -> List[float]:
            return mem.read_block(out_base, num_blocks * cells)

        def check(mem: GlobalMemory) -> None:
            got = mem.read_block(out_base, num_blocks * cells)
            for i, (g, e) in enumerate(zip(got, expected)):
                assert g == e, f"laplace[{i}]: got {g!r}, expected {e!r}"

        return WorkloadRun(
            program=program,
            launch=launch,
            memory=memory,
            transfer=TransferSpec(
                input_bytes=words_bytes(num_blocks * cells),
                output_bytes=words_bytes(num_blocks * cells),
            ),
            check=check,
            output_of=output_of,
        )
