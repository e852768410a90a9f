"""NQueen workload (AI/simulation category).

Parallel N-queens enumeration: thread ``t`` fixes queens in rows 0 and
1 at columns ``t % N`` and ``t // N``, then runs an iterative bitmask
backtracking search over the remaining rows, with its per-depth state
(candidate sets and attack masks) in shared memory.  Threads whose
prefix is immediately infeasible exit at once; the rest explore search
trees of wildly different sizes — heavy, long-lived divergence.

The host reference executes the *identical* algorithm, and the summed
solution count per instance must equal the known N-queens total.
"""

from __future__ import annotations

from typing import List

from repro.common.config import LaunchConfig
from repro.isa.opcodes import CmpOp
from repro.kernel.builder import KernelBuilder
from repro.sim.memory import GlobalMemory
from repro.workloads.base import TransferSpec, Workload, WorkloadRun, words_bytes

#: Total N-queens solutions for small boards (for the sanity check).
KNOWN_SOLUTIONS = {4: 2, 5: 10, 6: 4, 7: 40, 8: 92}


def cpu_nqueen_thread(n: int, tid: int) -> int:
    """Host mirror of one thread's search (same steps, same order)."""
    all_mask = (1 << n) - 1
    c0, c1 = tid % n, tid // n
    b0, b1 = 1 << c0, 1 << c1
    cols, d1, d2 = b0, b0 << 1, b0 >> 1
    if b1 & (cols | d1 | d2):
        return 0
    cols |= b1
    d1 = (d1 | b1) << 1
    d2 = (d2 | b1) >> 1

    avail = [0] * n
    scols = [0] * n
    sd1 = [0] * n
    sd2 = [0] * n
    depth = 2
    avail[depth] = ~(cols | d1 | d2) & all_mask
    scols[depth], sd1[depth], sd2[depth] = cols, d1, d2

    count = 0
    while depth >= 2:
        a = avail[depth]
        if a == 0:
            depth -= 1
            continue
        bit = a & -a
        avail[depth] = a & ~bit
        cols = scols[depth] | bit
        nd1 = (sd1[depth] | bit) << 1
        nd2 = (sd2[depth] | bit) >> 1
        if depth + 1 == n:
            count += 1
            continue
        depth += 1
        scols[depth], sd1[depth], sd2[depth] = cols, nd1, nd2
        avail[depth] = ~(cols | nd1 | nd2) & all_mask
    return count


class NQueenWorkload(Workload):
    name = "nqueen"
    display_name = "Nqueen"
    category = "AI/Simulation"
    paper_params = "gridDim=256, blockDim=96"

    N = 6
    NUM_BLOCKS = 2  # independent instances of the same enumeration

    def build_program(self, n: int, out_base: int):
        all_mask = (1 << n) - 1
        bld = KernelBuilder("nqueen")
        tid, gid, c0, c1, b0, b1, cols, d1, d2 = bld.regs(9)
        depth, a, bit, t, ncols, nd1, nd2, count, area, addr = bld.regs(10)
        p_conf, p_av, p_deep, p_full = (
            bld.pred(), bld.pred(), bld.pred(), bld.pred()
        )
        # shared layout per thread: 4 arrays of n words
        # avail at area+d, cols at area+n+d, d1 at +2n, d2 at +3n

        bld.tid(tid)
        bld.gtid(gid)
        bld.imul(area, tid, 4 * n)
        bld.mov(count, 0)
        bld.irem(c0, tid, n)
        bld.idiv(c1, tid, n)
        bld.shl(b0, 1, c0)
        bld.shl(b1, 1, c1)
        # place row 0
        bld.mov(cols, b0)
        bld.shl(d1, b0, 1)
        bld.shr(d2, b0, 1)
        # conflict for row 1?
        bld.or_(t, cols, d1)
        bld.or_(t, t, d2)
        bld.and_(t, t, b1)
        bld.setp(p_conf, t, CmpOp.NE, 0)
        bld.bra("done", pred=p_conf)
        # place row 1
        bld.or_(cols, cols, b1)
        bld.or_(d1, d1, b1)
        bld.shl(d1, d1, 1)
        bld.or_(d2, d2, b1)
        bld.shr(d2, d2, 1)
        # seed depth 2
        bld.mov(depth, 2)
        bld.or_(t, cols, d1)
        bld.or_(t, t, d2)
        bld.not_(t, t)
        bld.and_(t, t, all_mask)
        bld.iadd(addr, area, depth)
        bld.st_shared(addr, t)                    # avail[2]
        bld.st_shared(addr, cols, offset=n)       # scols[2]
        bld.st_shared(addr, d1, offset=2 * n)     # sd1[2]
        bld.st_shared(addr, d2, offset=3 * n)     # sd2[2]

        bld.label("loop")
        bld.iadd(addr, area, depth)
        bld.ld_shared(a, addr)
        bld.setp(p_av, a, CmpOp.NE, 0)
        bld.bra("has_work", pred=p_av)
        # backtrack
        bld.isub(depth, depth, 1)
        bld.setp(p_deep, depth, CmpOp.GE, 2)
        bld.bra("loop", pred=p_deep)
        bld.jmp("done")

        bld.label("has_work")
        # bit = a & -a; avail[depth] = a & ~bit
        bld.isub(t, 0, a)
        bld.and_(bit, a, t)
        bld.not_(t, bit)
        bld.and_(t, a, t)
        bld.st_shared(addr, t)
        # attack masks with this bit placed
        bld.ld_shared(ncols, addr, offset=n)
        bld.or_(ncols, ncols, bit)
        bld.ld_shared(nd1, addr, offset=2 * n)
        bld.or_(nd1, nd1, bit)
        bld.shl(nd1, nd1, 1)
        bld.ld_shared(nd2, addr, offset=3 * n)
        bld.or_(nd2, nd2, bit)
        bld.shr(nd2, nd2, 1)
        bld.iadd(t, depth, 1)
        bld.setp(p_full, t, CmpOp.EQ, n)
        bld.bra("descend", pred=p_full, neg=True)
        bld.iadd(count, count, 1)
        bld.jmp("loop")

        bld.label("descend")
        bld.iadd(depth, depth, 1)
        bld.iadd(addr, area, depth)
        bld.st_shared(addr, ncols, offset=n)
        bld.st_shared(addr, nd1, offset=2 * n)
        bld.st_shared(addr, nd2, offset=3 * n)
        bld.or_(t, ncols, nd1)
        bld.or_(t, t, nd2)
        bld.not_(t, t)
        bld.and_(t, t, all_mask)
        bld.st_shared(addr, t)
        bld.jmp("loop")

        bld.label("done")
        bld.iadd(addr, gid, out_base)
        bld.st_global(addr, count)
        bld.exit()
        return bld.build()

    def build(self, scale: float = 1.0, seed: int = 0) -> WorkloadRun:
        n = self.N if scale >= 0.75 else max(4, self.N - 1)
        num_blocks = self._scaled(self.NUM_BLOCKS, scale, minimum=1)
        block_dim = n * n
        num_threads = block_dim * num_blocks

        out_base = 0
        memory = GlobalMemory()
        program = self.build_program(n, out_base)
        launch = LaunchConfig(grid_dim=num_blocks, block_dim=block_dim)

        per_thread = [cpu_nqueen_thread(n, t) for t in range(block_dim)]
        expected: List[int] = per_thread * num_blocks
        assert sum(per_thread) == KNOWN_SOLUTIONS[n], (
            "host n-queens mirror disagrees with the known solution count"
        )

        def output_of(mem: GlobalMemory) -> List[int]:
            return mem.read_block(out_base, num_threads)

        def check(mem: GlobalMemory) -> None:
            got = mem.read_block(out_base, num_threads)
            assert got == expected, (
                f"nqueen: per-thread counts differ\n got {got}\n"
                f" expected {expected}"
            )

        return WorkloadRun(
            program=program,
            launch=launch,
            memory=memory,
            transfer=TransferSpec(
                input_bytes=0,
                output_bytes=words_bytes(num_threads),
            ),
            check=check,
            output_of=output_of,
        )
