"""Matrix Multiply workload (CUDA SDK ``matrixMul``).

Dense C = A x B with one thread per output element and register
blocking: the k-loop is unrolled in chunks, loading a chunk of A-row
and B-column words and then issuing a burst of FFMAs.  Fully utilized
warps plus long same-type SP bursts make this the paper's stress case
for inter-warp DMR: >70% overhead with no ReplayQ, dropping to ~18%
with 10 entries (Figure 9(b)).
"""

from __future__ import annotations

import random
from typing import List

from repro.common.config import LaunchConfig
from repro.isa.opcodes import CmpOp
from repro.kernel.builder import KernelBuilder
from repro.sim.memory import GlobalMemory
from repro.workloads.base import TransferSpec, Workload, WorkloadRun, words_bytes


class MatrixMulWorkload(Workload):
    name = "matrixmul"
    display_name = "MatrixMul"
    category = "Linear Algebra/Primitives"
    paper_params = "gridDim=8x5, blockDim=16x16"

    N = 32        # square matrix dimension
    TILE = 8      # tile edge; block is TILE*TILE threads
    A_BASE = 0

    def build_program(self, n: int, tile: int,
                      a_base: int, b_base: int, c_base: int):
        """Shared-memory-tiled matmul, ``tile x tile`` threads per block.

        Per k-tile: two global loads fill the A and B tiles in shared
        memory; the inner product walks the tiles with interleaved
        ld_shared/FFMA pairs on two accumulators (the ILP a real
        compiler extracts), matching real matrixMul SASS far better
        than a monolithic load-then-FFMA burst.
        """
        builder = KernelBuilder("matrixmul")
        tid, cta, tx, ty, row, col, kt, addr, t = builder.regs(9)
        acc0, acc1, av, bv, bv2, sa_row = builder.regs(6)
        a_cache = builder.regs(tile)  # register-cached A-tile row
        tiles_per_row = n // tile
        p_cont = builder.pred()

        builder.tid(tid)
        builder.ctaid(cta)
        builder.irem(tx, tid, tile)
        builder.idiv(ty, tid, tile)
        # block (bx, by) covers C rows by*tile.., cols bx*tile..
        builder.irem(t, cta, tiles_per_row)       # bx
        builder.imad(col, t, tile, tx)
        builder.idiv(t, cta, tiles_per_row)       # by
        builder.imad(row, t, tile, ty)
        builder.mov(acc0, 0.0)
        builder.mov(acc1, 0.0)
        builder.imul(sa_row, ty, tile)  # base of sA[ty][*]
        builder.mov(kt, 0)

        # shared layout: A tile at [0, tile^2), B tile at [tile^2, 2*tile^2)
        tsq = tile * tile
        builder.label("ktile")
        # sA[ty][tx] = A[row][kt*tile + tx]
        builder.imad(addr, row, n, a_base)
        builder.imad(addr, kt, tile, addr)
        builder.iadd(addr, addr, tx)
        builder.ld_global(av, addr)
        builder.st_shared(tid, av)
        # sB[ty][tx] = B[kt*tile + ty][col]
        builder.imul(addr, kt, tile)
        builder.iadd(addr, addr, ty)
        builder.imad(addr, addr, n, b_base)
        builder.iadd(addr, addr, col)
        builder.ld_global(bv, addr)
        builder.st_shared(tid, bv, offset=tsq)
        builder.bar()
        # Inner product over the tile.  The A row is register-cached
        # (real SASS uses vectorized LDS plus register reuse), then the
        # B-column walk interleaves one shared load with one FFMA, on
        # two accumulators for ILP.  Addressing is one precomputed base
        # register plus static offsets, like LDS immediate offsets.
        for j in range(tile):
            builder.ld_shared(a_cache[j], sa_row, offset=j)    # sA[ty][j]
        for j in range(0, tile, 2):
            builder.ld_shared(bv, tx, offset=tsq + j * tile)   # sB[j][tx]
            builder.ffma(acc0, a_cache[j], bv, acc0)
            builder.ld_shared(bv2, tx, offset=tsq + (j + 1) * tile)
            builder.ffma(acc1, a_cache[j + 1], bv2, acc1)
        builder.bar()
        builder.iadd(kt, kt, 1)
        builder.setp(p_cont, kt, CmpOp.LT, tiles_per_row)
        builder.bra("ktile", pred=p_cont)

        builder.fadd(acc0, acc0, acc1)
        builder.imad(addr, row, n, c_base)
        builder.iadd(addr, addr, col)
        builder.st_global(addr, acc0)
        builder.exit()
        return builder.build()

    def build(self, scale: float = 1.0, seed: int = 0) -> WorkloadRun:
        n = self._scaled(self.N, scale, minimum=8)
        tile = self.TILE
        while n % tile:
            tile //= 2
        n = max(n, tile)
        block_dim = tile * tile
        num_blocks = (n // tile) ** 2

        rng = random.Random(seed)
        a = [round(rng.uniform(-1.0, 1.0), 3) for _ in range(n * n)]
        bm = [round(rng.uniform(-1.0, 1.0), 3) for _ in range(n * n)]

        b_base = self.A_BASE + n * n
        c_base = b_base + n * n
        memory = GlobalMemory()
        memory.write_block(self.A_BASE, a)
        memory.write_block(b_base, bm)

        program = self.build_program(
            n, tile, self.A_BASE, b_base, c_base
        )
        launch = LaunchConfig(grid_dim=num_blocks, block_dim=block_dim)

        # Mirror the kernel's dual-accumulator FFMA order exactly.
        expected: List[float] = [0.0] * (n * n)
        for row in range(n):
            for col in range(n):
                acc0 = acc1 = 0.0
                for k in range(0, n, 2):
                    acc0 = a[row * n + k] * bm[k * n + col] + acc0
                    acc1 = a[row * n + k + 1] * bm[(k + 1) * n + col] + acc1
                expected[row * n + col] = acc0 + acc1

        def output_of(mem: GlobalMemory) -> List[float]:
            return mem.read_block(c_base, n * n)

        def check(mem: GlobalMemory) -> None:
            got = mem.read_block(c_base, n * n)
            for i, (g, e) in enumerate(zip(got, expected)):
                assert g == e, f"matmul C[{i}]: got {g!r}, expected {e!r}"

        return WorkloadRun(
            program=program,
            launch=launch,
            memory=memory,
            transfer=TransferSpec(
                input_bytes=words_bytes(2 * n * n),
                output_bytes=words_bytes(n * n),
            ),
            check=check,
            output_of=output_of,
        )
